"""Ground-truth fields, gridded data I/O, masks, and placement."""

import numpy as np
import pytest

import senseplan.environment as env
from senseplan import (
    AnalyticField,
    DataError,
    FieldDomainError,
    GridData,
    GridField,
    InvalidInputError,
    KernelSpec,
    MeanSpec,
    PlacementError,
    PolygonMask,
    SampledField,
    field_value,
    load_grid_csv,
    measure,
    place_scenario,
    sample_field,
    save_grid_csv,
)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


SMALL_GRID = """lat,lon,value
40.0,-100.0,1.0
40.0,-99.5,2.0
40.5,-100.0,3.0
40.5,-99.5,NA
"""


class TestGridCSV:
    def test_basic_parse(self, tmp_path):
        grid = load_grid_csv(write(tmp_path, "g.csv", SMALL_GRID))
        assert grid.values.shape == (2, 2)
        assert grid.lat0 == 40.0 and grid.lon0 == -100.0
        assert grid.dlat == 0.5 and grid.dlon == 0.5
        np.testing.assert_array_equal(
            grid.values, [[1.0, 2.0], [3.0, np.nan]]
        )

    def test_single_cell_grid(self, tmp_path):
        grid = load_grid_csv(write(tmp_path, "one.csv", "lat,lon,value\n10.0,20.0,31.5\n"))
        assert grid.values.shape == (1, 1)
        assert GridField(grid).value((20.0, 10.0)) == 31.5

    def test_absent_cells_are_missing(self, tmp_path):
        text = "lat,lon,value\n0.0,0.0,1.0\n0.0,1.0,2.0\n1.0,0.0,3.0\n1.0,2.0,4.0\n"
        grid = load_grid_csv(write(tmp_path, "gap.csv", text))
        assert grid.values.shape == (2, 3)
        assert np.isnan(grid.values[0, 2])
        assert np.isnan(grid.values[1, 1])

    def test_round_trip_is_identity(self, tmp_path):
        first = load_grid_csv(write(tmp_path, "a.csv", SMALL_GRID))
        save_grid_csv(first, tmp_path / "b.csv")
        second = load_grid_csv(tmp_path / "b.csv")
        assert (first.lat0, first.lon0) == (second.lat0, second.lon0)
        assert (first.dlat, first.dlon) == (second.dlat, second.dlon)
        np.testing.assert_array_equal(first.values, second.values)
        np.testing.assert_array_equal(first.lat_present, second.lat_present)
        np.testing.assert_array_equal(first.lon_present, second.lon_present)

    def test_round_trip_with_absent_rows(self, tmp_path):
        """A wholly absent lattice row survives save/load untouched."""
        text = "lat,lon,value\n0.0,0.0,1.0\n0.3,0.0,2.0\n0.1,0.0,5.0\n0.4,0.0,NA\n"
        first = load_grid_csv(write(tmp_path, "a.csv", text))
        assert first.values.shape == (5, 1)
        assert not first.lat_present[2]
        save_grid_csv(first, tmp_path / "b.csv")
        second = load_grid_csv(tmp_path / "b.csv")
        assert (first.dlat, first.dlon) == (second.dlat, second.dlon)
        np.testing.assert_array_equal(first.values, second.values)
        np.testing.assert_array_equal(first.lat_present, second.lat_present)

    def test_header_is_mandatory(self, tmp_path):
        with pytest.raises(DataError, match="header"):
            load_grid_csv(write(tmp_path, "h.csv", "latitude,lon,value\n0,0,1\n"))

    def test_bad_value_names_the_line(self, tmp_path):
        text = "lat,lon,value\n0.0,0.0,1.0\n1.0,0.0,oops\n"
        with pytest.raises(DataError, match=":3"):
            load_grid_csv(write(tmp_path, "v.csv", text))

    def test_duplicate_cell_rejected(self, tmp_path):
        text = "lat,lon,value\n0.0,0.0,1.0\n0.0,0.0,2.0\n"
        with pytest.raises(DataError, match="duplicate"):
            load_grid_csv(write(tmp_path, "d.csv", text))

    def test_irregular_spacing_rejected(self, tmp_path):
        text = "lat,lon,value\n0.0,0.0,1.0\n1.0,0.0,2.0\n2.7,0.0,3.0\n"
        with pytest.raises(DataError, match="uniform"):
            load_grid_csv(write(tmp_path, "i.csv", text))

    def test_all_missing_rejected(self, tmp_path):
        with pytest.raises(DataError, match="missing"):
            load_grid_csv(write(tmp_path, "m.csv", "lat,lon,value\n0,0,NA\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot open"):
            load_grid_csv(tmp_path / "nope.csv")


#: Queries on the unit lattice over 0..5 x 0..5, numbered row-major with x
#: fastest, mixing tied rows (first four, last) with untied ones, and the
#: number of the nearest point, lowest among ties.  For each tied row a
#: KD-tree query over the lattice alone returns a higher number.
LATTICE_QUERIES = [(0.0, 1.5), (0.5, 3.5), (1.5, 0.0), (0.5, 4.5), (2.2, 3.9), (4.9, 0.1), (0.5, 3.0)]
LATTICE_NEAREST = [6.0, 18.0, 1.0, 24.0, 26.0, 5.0, 18.0]


class TestGridLookup:
    def grid(self):
        values = np.array([[1.0, 2.0, np.nan], [4.0, 5.0, 6.0]])
        return GridData(lat0=0.0, lon0=0.0, dlat=1.0, dlon=1.0, values=values)

    def test_exact_center_hit(self):
        g = self.grid()
        assert GridField(g).value((1.0, 1.0)) == 5.0

    def test_nearest_skips_missing(self):
        """A query at a missing cell's center resolves to the nearest
        non-missing neighbor (here the cell one row up)."""
        g = self.grid()
        assert GridField(g).value((2.0, 0.9)) == 6.0

    def test_query_at_missing_center_ties_to_lower_index(self):
        """At the missing cell's center two neighbors are equidistant;
        the lower row-major index wins."""
        g = self.grid()
        assert GridField(g).value((2.0, 0.0)) == 2.0

    def test_tie_breaks_to_lower_row_major_index(self):
        g = self.grid()
        # (0.5, 0.5) is equidistant from four cells; row 0, col 0 wins.
        assert GridField(g).value((0.5, 0.5)) == 1.0

    def test_support_radius_two_diagonals(self):
        g = self.grid()
        diag = np.hypot(1.0, 1.0)
        assert GridField(g).value((0.0, -2 * diag + 1e-9)) == 1.0
        with pytest.raises(FieldDomainError):
            GridField(g).value((0.0, -2 * diag - 1e-6))

    def test_batch_ties_go_to_lowest_index(self):
        """Tied and untied rows in one query each get the nearest cell,
        the lowest row-major index among ties.  On a 6 x 6 lattice the
        KD-tree's own nearest is a higher index for the tied rows."""
        g = GridData(lat0=0.0, lon0=0.0, dlat=1.0, dlon=1.0, values=np.arange(36.0).reshape(6, 6))
        np.testing.assert_array_equal(GridField(g).values(LATTICE_QUERIES), LATTICE_NEAREST)

    def test_mask_agrees_with_field_support(self):
        g = self.grid()
        fld = GridField(g)
        mask = fld.roi()
        for pt in [(0.0, 0.0), (2.5, 1.2), (-2.0, -2.0), (9.0, 9.0)]:
            inside = mask.contains(pt)
            try:
                fld.value(pt)
                assert inside
            except FieldDomainError:
                assert not inside


class TestPolygonMask:
    def test_rectangle(self):
        m = PolygonMask.rectangle(0, 0, 2, 1)
        assert m.contains((1.0, 0.5))
        assert not m.contains((3.0, 0.5))
        assert m.bounds() == (0.0, 0.0, 2.0, 1.0)

    def test_concave_polygon(self):
        """Even-odd rule on a U shape: the notch is outside."""
        verts = [(0, 0), (4, 0), (4, 3), (3, 3), (3, 1), (1, 1), (1, 3), (0, 3)]
        m = PolygonMask(np.array(verts, dtype=float))
        assert m.contains((0.5, 2.0))
        assert m.contains((3.5, 2.0))
        assert not m.contains((2.0, 2.0))

    def test_too_few_vertices(self):
        with pytest.raises(InvalidInputError):
            PolygonMask(np.array([[0.0, 0.0], [1.0, 1.0]]))

    def test_collinear_vertices_rejected(self):
        """A polygon with no area contains no point, so placement in it
        could only exhaust its attempts."""
        with pytest.raises(InvalidInputError, match="collinear"):
            PolygonMask(np.array([[0.0, 0.0], [5.0, 5.0], [10.0, 10.0]]))
        with pytest.raises(InvalidInputError, match="collinear"):
            PolygonMask(np.array([[1.0, 2.0]] * 4))

    def test_batch_matches_per_point_even_odd(self):
        """One batch query agrees with the even-odd rule applied a point at
        a time, on a concave polygon's vertices, on points lying on its
        horizontal edges, and on random points around it."""

        def even_odd(v, x, y):
            inside = False
            for k in range(len(v)):
                x1, y1 = v[k]
                x2, y2 = v[(k + 1) % len(v)]
                if (y1 > y) != (y2 > y) and x < x1 + (y - y1) * (x2 - x1) / (y2 - y1):
                    inside = not inside
            return inside

        verts = np.array([(0, 0), (4, 0), (4, 3), (3, 3), (3, 1), (1, 1), (1, 3), (0, 3)], float)
        m = PolygonMask(verts)
        on_edges = [(2.0, 0.0), (0.5, 0.0), (3.5, 3.0), (2.0, 1.0), (1.5, 1.0), (0.5, 3.0)]
        random = np.random.default_rng(11).uniform(-1.0, 5.0, (1000, 2))
        pts = np.vstack([verts, on_edges, random])
        expected = [even_odd(verts, x, y) for x, y in pts]
        np.testing.assert_array_equal(m.contains(pts), expected)
        assert 0 < sum(expected) < len(pts)


class TestAnalyticFields:
    def test_linear_plane(self):
        """f(x, y) = x + y."""
        mask = PolygonMask.rectangle(0, 0, 10, 10)
        fld = AnalyticField("linear", {"a": 1.0, "b": 1.0, "c": 0.0}, mask)
        assert field_value(fld, (2.0, 3.0)) == 5.0
        assert field_value(fld, (0.25, 0.5)) == 0.75

    def test_sinusoid(self):
        mask = PolygonMask.rectangle(-10, -10, 10, 10)
        fld = AnalyticField("sinusoid", {"a": 2.0, "b": 1.0, "c": 1.0, "d": 7.0}, mask)
        np.testing.assert_allclose(
            fld.value((np.pi / 2, 0.0)), 2.0 * 1.0 * 1.0 + 7.0
        )

    def test_gauss_bumps(self):
        mask = PolygonMask.rectangle(0, 0, 10, 10)
        fld = AnalyticField(
            "gauss-bumps",
            {"offset": 1.0, "bumps": ((3.0, 2.0, 2.0, 1.0), (-1.0, 8.0, 8.0, 2.0))},
            mask,
        )
        np.testing.assert_allclose(fld.value((2.0, 2.0)), 1.0 + 3.0 - 1.0 * np.exp(-72 / 8))
        np.testing.assert_allclose(
            fld.value((8.0, 8.0)), 1.0 - 1.0 + 3.0 * np.exp(-72 / 2), atol=1e-15
        )

    def test_outside_mask_raises(self):
        mask = PolygonMask.rectangle(0, 0, 1, 1)
        fld = AnalyticField("linear", {"a": 1.0}, mask)
        with pytest.raises(FieldDomainError):
            fld.value((5.0, 5.0))

    def test_unknown_name_rejected(self):
        with pytest.raises(InvalidInputError):
            AnalyticField("cubic", {}, PolygonMask.rectangle(0, 0, 1, 1))

    def test_parameters_come_from_the_signature(self):
        """A field holds every parameter of its function, defaults filled
        in, and rejects one its function does not take."""
        mask = PolygonMask.rectangle(0, 0, 1, 1)
        assert AnalyticField("linear", {"a": 2.0}, mask).params == {"a": 2.0, "b": 0.0, "c": 0.0}
        with pytest.raises(InvalidInputError, match="zz"):
            AnalyticField("linear", {"zz": 1.0}, mask)


class TestSampledField:
    def test_nodes_are_reproduced_exactly(self):
        mask = PolygonMask.rectangle(0, 0, 5, 5)
        rng = np.random.default_rng(0)
        nodes = rng.uniform(0, 5, (12, 2))
        fld = sample_field(MeanSpec(0.0), KernelSpec(2.0, 1.0), nodes, seed=5, region=mask)
        again = sample_field(MeanSpec(0.0), KernelSpec(2.0, 1.0), nodes, seed=5, region=mask)
        for i, node in enumerate(nodes):
            assert fld.value(node) == fld.node_values[i]
            assert fld.value(node) == again.value(node)

    def test_lookup_is_nearest_node(self):
        mask = PolygonMask.rectangle(0, 0, 10, 10)
        nodes = np.array([[1.0, 1.0], [9.0, 9.0]])
        fld = SampledField(nodes, np.array([5.0, -5.0]), mask)
        assert fld.value((2.0, 2.0)) == 5.0
        assert fld.value((8.0, 8.0)) == -5.0

    def test_batch_ties_go_to_lowest_index(self):
        """Tied and untied rows in one query each get the nearest node, the
        lowest index among ties."""
        nodes = np.array([(x, y) for y in range(6) for x in range(6)], dtype=float)
        fld = SampledField(nodes, np.arange(36.0), PolygonMask.rectangle(0, 0, 5, 5))
        np.testing.assert_array_equal(fld.values(LATTICE_QUERIES), LATTICE_NEAREST)

    def test_outside_region_raises(self):
        mask = PolygonMask.rectangle(0, 0, 10, 10)
        fld = SampledField(np.array([[1.0, 1.0]]), np.array([5.0]), mask)
        with pytest.raises(FieldDomainError):
            fld.value((11.0, 5.0))


class TestMeasure:
    def field(self):
        mask = PolygonMask.rectangle(0, 0, 10, 10)
        return AnalyticField("linear", {"a": 1.0, "b": 1.0}, mask)

    def test_zero_noise_is_exact(self):
        rng = np.random.default_rng(0)
        assert measure(self.field(), (2.0, 3.0), 0.0, rng) == 5.0

    def test_noise_moments(self):
        rng = np.random.default_rng(1)
        draws = np.array([measure(self.field(), (2.0, 3.0), 0.7, rng) for _ in range(20000)])
        np.testing.assert_allclose(draws.mean(), 5.0, atol=0.02)
        np.testing.assert_allclose(draws.std(), 0.7, atol=0.02)

    def test_negative_noise_rejected(self):
        with pytest.raises(InvalidInputError):
            measure(self.field(), (1.0, 1.0), -0.5, np.random.default_rng(0))


class TestPlacement:
    def test_counts_and_shared_points(self):
        mask = PolygonMask.rectangle(0, 0, 10, 10)
        targets, candidates = place_scenario(mask, 61, 60, 5, seed=3)
        assert targets.shape == (61, 2)
        assert candidates.shape == (60, 2)
        t_keys = {tuple(p) for p in targets}
        c_keys = {tuple(p) for p in candidates}
        assert len(t_keys & c_keys) == 5
        assert len(t_keys) == 61 and len(c_keys) == 60
        for pt in np.vstack([targets, candidates]):
            assert mask.contains(pt)

    def test_deterministic_given_seed(self):
        mask = PolygonMask.rectangle(0, 0, 10, 10)
        a = place_scenario(mask, 8, 7, 2, seed=42)
        b = place_scenario(mask, 8, 7, 2, seed=42)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        c = place_scenario(mask, 8, 7, 2, seed=43)
        assert not np.array_equal(a[0], c[0])

    def test_batches_accept_the_per_point_draws(self):
        """Placement accepts the same points as drawing and testing one pair
        at a time from the same seed, here on a mask that rejects some."""
        verts = [(0, 0), (4, 0), (4, 3), (3, 3), (3, 1), (1, 1), (1, 3), (0, 3)]
        mask = PolygonMask(np.array(verts, dtype=float))
        rng = np.random.default_rng(42)
        accepted = []
        while len(accepted) < 13:
            pt = rng.uniform((0.0, 0.0), (4.0, 3.0))
            if mask.contains(pt)[0]:
                accepted.append(pt)
        targets, candidates = place_scenario(mask, 8, 7, 2, seed=42)
        np.testing.assert_array_equal(targets, accepted[:8])
        np.testing.assert_array_equal(candidates, accepted[:2] + accepted[8:])

    def test_no_shared_points_allowed(self):
        mask = PolygonMask.rectangle(0, 0, 10, 10)
        targets, candidates = place_scenario(mask, 4, 4, 0, seed=1)
        assert not ({tuple(p) for p in targets} & {tuple(p) for p in candidates})

    def test_bad_counts_rejected(self):
        mask = PolygonMask.rectangle(0, 0, 10, 10)
        with pytest.raises(InvalidInputError):
            place_scenario(mask, 0, 4, 0, seed=1)
        with pytest.raises(InvalidInputError):
            place_scenario(mask, 4, 4, 5, seed=1)

    def test_unsatisfiable_mask_raises(self, monkeypatch):
        """A mask that rejects every sample must fail with a placement
        error rather than loop forever."""

        class NoMask(env.RoIMask):
            def contains(self, point):
                return False

            def bounds(self):
                return (0.0, 0.0, 1.0, 1.0)

        monkeypatch.setattr(env, "MAX_PLACEMENT_ATTEMPTS", 2000)
        with pytest.raises(PlacementError, match="2000 attempts"):
            place_scenario(NoMask(), 3, 3, 1, seed=0)

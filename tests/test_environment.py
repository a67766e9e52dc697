"""Ground-truth fields, gridded data I/O, masks, and placement."""

import numpy as np
import pytest
from scipy.spatial import cKDTree

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
        assert field_value(GridField(grid), (20.0, 10.0)) == 31.5

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

    def test_undecodable_row_names_the_file(self, tmp_path):
        """A byte that is not UTF-8 past the first read's buffer is a data
        error naming the file, raised while the rows are read."""
        p = tmp_path / "bad.csv"
        rows = "".join(f"{i * 0.5},0.0,{i}.0\n" for i in range(2000))
        p.write_bytes(b"lat,lon,value\n" + rows.encode() + b"1000.0,0.0,\xff\n")
        assert p.stat().st_size > 16384
        with pytest.raises(DataError, match=f"^{p}: cannot decode grid CSV"):
            load_grid_csv(p)


class TestGridDataInputs:
    VALUES = np.zeros((3, 3))

    @pytest.mark.parametrize(
        "changes",
        [
            {"lat_coords": [0.0, 1.0]},
            {"lon_coords": [0.0, 1.0, 2.0, 3.0]},
            {"lat_coords": np.arange(3.0)[:, None]},
            {"lon_coords": np.zeros((3, 3))},
            {"lat_coords": [0.0, np.nan, 2.0]},
            {"lon_coords": [0.0, 1.0, np.inf]},
            {"lat_coords": ["a", "b", "c"]},
            {"lon_coords": [0j, 1j, 2j]},
            {"dlat": "1"},
            {"dlon": None},
            {"dlat": np.inf},
            {"dlon": np.nan},
            {"lat0": np.nan},
            {"lon0": -np.inf},
            {"lat0": None},
            {"lon0": [0.0]},
        ],
    )
    def test_bad_inputs_raise_when_built(self, changes):
        """Coordinates of the wrong shape or not finite, and an origin or
        cell size that is not one finite number, are rejected by the
        constructor, not by the first query."""
        kwargs = dict(lat0=0.0, lon0=0.0, dlat=1.0, dlon=1.0, values=self.VALUES) | changes
        with pytest.raises(InvalidInputError):
            GridData(**kwargs)

    @pytest.mark.parametrize("changes", [{"dlat": 0.0}, {"dlon": -1.0}])
    def test_non_positive_cell_sizes_keep_their_message(self, changes):
        kwargs = dict(lat0=0.0, lon0=0.0, dlat=1.0, dlon=1.0, values=self.VALUES) | changes
        with pytest.raises(InvalidInputError, match="^grid cell sizes must be positive$"):
            GridData(**kwargs)

    def test_given_coordinates_are_copied(self):
        lat = np.array([0.0, 1.0, 2.5])
        g = GridData(lat0=0.0, lon0=0.0, dlat=1.0, dlon=1.0, values=self.VALUES, lat_coords=lat, lon_coords=(5, 6, 7))
        lat[0] = 9.0
        assert g.lat_coords.tolist() == [0.0, 1.0, 2.5]
        assert g.lon_coords.tolist() == [5.0, 6.0, 7.0]
        assert g.contains([(5.0, 0.0)]).tolist() == [True]


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
        assert field_value(GridField(g), (1.0, 1.0)) == 5.0

    def test_nearest_skips_missing(self):
        """A query at a missing cell's center resolves to the nearest
        non-missing neighbor (here the cell one row up)."""
        g = self.grid()
        assert field_value(GridField(g), (2.0, 0.9)) == 6.0

    def test_query_at_missing_center_ties_to_lower_index(self):
        """At the missing cell's center two neighbors are equidistant;
        the lower row-major index wins."""
        g = self.grid()
        assert field_value(GridField(g), (2.0, 0.0)) == 2.0

    def test_tie_breaks_to_lower_row_major_index(self):
        g = self.grid()
        # (0.5, 0.5) is equidistant from four cells; row 0, col 0 wins.
        assert field_value(GridField(g), (0.5, 0.5)) == 1.0

    def test_support_radius_two_diagonals(self):
        g = self.grid()
        diag = np.hypot(1.0, 1.0)
        assert field_value(GridField(g), (0.0, -2 * diag + 1e-9)) == 1.0
        with pytest.raises(FieldDomainError):
            field_value(GridField(g), (0.0, -2 * diag - 1e-6))

    def test_batch_ties_go_to_lowest_index(self):
        """Tied and untied rows in one query each get the nearest cell,
        the lowest row-major index among ties.  On a 6 x 6 lattice the
        KD-tree's own nearest is a higher index for the tied rows."""
        g = GridData(lat0=0.0, lon0=0.0, dlat=1.0, dlon=1.0, values=np.arange(36.0).reshape(6, 6))
        np.testing.assert_array_equal(GridField(g).values(LATTICE_QUERIES), LATTICE_NEAREST)

    def test_support_is_decided_by_the_nearest_of_tied_cells(self):
        """Two cells tie (within 1e-12) at the support radius from a query,
        the lower-index one rounding above it: the query is inside, by the
        nearer cell, and takes the lower cell's value."""
        values = np.array([[1.0], [np.nan], [np.nan], [np.nan], [2.0]])
        g = GridData(lat0=-35.6, lon0=44.9, dlat=1.58, dlon=2.86, values=values)
        query = np.array([[44.9 + 2 * 2.86, -35.6 + 2 * 1.58]])
        radius = 2.0 * g.cell_diagonal
        dist = np.sqrt(((query - [[44.9, -35.6], [44.9, -35.6 + 4 * 1.58]]) ** 2).sum(axis=1))
        assert dist[1] <= radius < dist[0] <= dist[1] * (1.0 + 1e-12)
        assert g.contains(query).tolist() == [True]
        assert GridField(g).values(query).tolist() == [1.0]

    def test_one_search_per_query(self, monkeypatch):
        """A field query runs the lattice-window search once, and decides
        from its distances both the cells and whether every point is
        inside, naming the first one outside as the region test would."""
        g = self.grid()
        calls = []
        real = GridData._nearest_cells

        def counted(grid, pts):
            calls.append(len(pts))
            return real(grid, pts)

        monkeypatch.setattr(GridData, "_nearest_cells", counted)
        fld = GridField(g)
        assert fld.values([(1.0, 1.0), (2.0, 0.9)]).tolist() == [5.0, 6.0]
        assert calls == [2]
        outside = (0.0, -2 * float(np.hypot(1.0, 1.0)) - 1e-6)
        with pytest.raises(FieldDomainError) as exc:
            fld.values([(1.0, 1.0), outside, (5.0, 5.0)])
        assert str(exc.value) == f"point {outside} is outside the region of interest"
        assert calls == [2, 3]

    @pytest.mark.parametrize("seed", range(4))
    def test_window_search_matches_a_kd_tree(self, seed):
        """``contains``, ``values`` and ``bounds`` answer as a KD-tree over
        the non-missing cell centres does: the nearest distance against the
        support radius, and the lowest index in the ball of radius
        ``d (1 + 1e-12)``.  The grids have missing cells, aspect ratios up
        to 30:1 and centres jittered by 1e-7 cells; the queries sit on
        lattice points and midpoints (ties), inside and outside the grid,
        and at random."""
        rng = np.random.default_rng(seed)
        for _ in range(50):
            nlat, nlon = rng.integers(1, 10, 2)
            dlat = rng.uniform(0.1, 3.0)
            dlon = dlat * np.exp(rng.uniform(-np.log(30), np.log(30)))
            values = rng.normal(size=(nlat, nlon))
            values[rng.random((nlat, nlon)) < rng.uniform(0.0, 0.8)] = np.nan
            values[rng.integers(nlat), rng.integers(nlon)] = 1.0
            lat0, lon0 = rng.uniform(-50, 50, 2)
            jitter = rng.choice([0.0, 1e-7])
            lat_c = lat0 + dlat * (np.arange(nlat) + jitter * rng.uniform(-1, 1, nlat))
            lon_c = lon0 + dlon * (np.arange(nlon) + jitter * rng.uniform(-1, 1, nlon))
            g = GridData(lat0=lat0, lon0=lon0, dlat=dlat, dlon=dlon, values=values, lat_coords=lat_c, lon_coords=lon_c)

            ii, jj = np.nonzero(np.isfinite(values))
            centres = np.column_stack([lon_c[jj], lat_c[ii]])
            halves = np.column_stack([rng.integers(-2 * nlon - 6, 2 * nlon + 8, 300), rng.integers(-2 * nlat - 6, 2 * nlat + 8, 300)])
            lattice = [lon0, lat0] + halves / 2.0 * [dlon, dlat]
            scattered = rng.uniform([lon0 - 5 * dlon, lat0 - 5 * dlat], [lon0 + (nlon + 5) * dlon, lat0 + (nlat + 5) * dlat], (50, 2))
            queries = np.vstack([lattice, scattered, centres])

            tree = cKDTree(centres)
            dist, _ = tree.query(queries)
            inside = dist <= 2.0 * g.cell_diagonal
            balls = tree.query_ball_point(queries[inside], r=dist[inside] * (1.0 + 1e-12))
            np.testing.assert_array_equal(g.contains(queries), inside)
            np.testing.assert_array_equal(GridField(g).values(queries[inside]), values[ii, jj][[min(b) for b in balls]])
            half = [0.5 * dlon, 0.5 * dlat]
            assert g.bounds() == (*(tree.mins - half).tolist(), *(tree.maxes + half).tolist())

    def test_mask_agrees_with_field_support(self):
        g = self.grid()
        fld = GridField(g)
        for pt in [(0.0, 0.0), (2.5, 1.2), (-2.0, -2.0), (9.0, 9.0)]:
            inside = g.contains(pt)
            try:
                field_value(fld, pt)
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

    def test_ordinary_polygons_skip_the_svd(self, monkeypatch):
        """A rectangle and the U shape are clearly planar, so building them
        never calls ``np.linalg.matrix_rank``."""

        def no_svd(*args, **kwargs):
            raise AssertionError("matrix_rank called")

        monkeypatch.setattr(np.linalg, "matrix_rank", no_svd)
        PolygonMask.rectangle(0, 0, 10, 10)
        PolygonMask(np.array([(0, 0), (4, 0), (4, 3), (3, 3), (3, 1), (1, 1), (1, 3), (0, 3)], float))

    def test_collinear_decision_is_matrix_ranks(self, monkeypatch):
        """``PolygonMask`` accepts a vertex set exactly where
        ``matrix_rank(v[1:] - v[0])`` is 2: on collinear and coincident
        points, thin slivers, offsets of 1e8, tiny triangles and random
        sets, some of them within a few ulps of the rank threshold."""
        matrix_rank = np.linalg.matrix_rank
        rank_calls = []

        def counted_rank(d):
            rank_calls.append(len(d))
            return matrix_rank(d)

        monkeypatch.setattr(np.linalg, "matrix_rank", counted_rank)

        def accepted(v):
            try:
                PolygonMask(v)
            except InvalidInputError:
                return False
            return True

        sets = [
            np.array([[0.0, 0.0], [5.0, 5.0], [10.0, 10.0]]),
            1e8 + np.outer(np.arange(6.0), [3.0, -2.0]),
            np.array([[1.0, 2.0]] * 4),
            np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 4.0]]),
            np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-13]]),
            np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-16]]),
            np.array([[0.0, 0.0], [10.0, 10.0], [5.0, 5.0 + 1e-13]]),
            1e8 + np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            1e8 + np.array([[0.0, 0.0], [1e-9, 0.0], [0.0, 1e-9]]),
            np.array([[0.0, 0.0], [1e-9, 0.0], [0.0, 1e-9]]),
        ]
        rng = np.random.default_rng(28)
        eps = np.finfo(float).eps
        for _ in range(300):
            m = int(rng.integers(3, 10))
            offset = rng.normal(size=2) * 10.0 ** rng.uniform(-3, 9)
            scale = 10.0 ** rng.uniform(-9, 6)
            line = np.outer(rng.normal(size=m), rng.normal(size=2))
            sliver = eps * 10.0 ** rng.uniform(-1, 3) * np.outer(rng.normal(size=m), rng.normal(size=2))
            sets += [
                offset + scale * rng.normal(size=(m, 2)),
                offset + scale * line,
                offset + scale * (line + sliver),
            ]
        decisions = [accepted(v) for v in sets]
        assert decisions == [matrix_rank(v[1:] - v[0]) == 2 for v in sets]
        assert 0 < sum(decisions) < len(sets)
        assert 0 < len(rank_calls) < len(sets)

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
            field_value(fld, (np.pi / 2, 0.0)), 2.0 * 1.0 * 1.0 + 7.0
        )

    def test_gauss_bumps(self):
        mask = PolygonMask.rectangle(0, 0, 10, 10)
        fld = AnalyticField(
            "gauss-bumps",
            {"offset": 1.0, "bumps": ((3.0, 2.0, 2.0, 1.0), (-1.0, 8.0, 8.0, 2.0))},
            mask,
        )
        np.testing.assert_allclose(field_value(fld, (2.0, 2.0)), 1.0 + 3.0 - 1.0 * np.exp(-72 / 8))
        np.testing.assert_allclose(
            field_value(fld, (8.0, 8.0)), 1.0 - 1.0 + 3.0 * np.exp(-72 / 2), atol=1e-15
        )

    @pytest.mark.parametrize(
        "name, params",
        [
            ("linear", {"a": 1.5, "b": -0.3, "c": 2.0}),
            ("linear", {}),
            ("sinusoid", {"a": 2.0, "b": 1.3, "c": 0.7, "d": 7.0}),
            ("gauss-bumps", {"offset": 1.0, "bumps": ((3.0, 2.0, 2.0, 1.0), (-1.0, -4.0, 5.0, 2.5))}),
            ("gauss-bumps", {"offset": -0.0, "bumps": ()}),
        ],
    )
    def test_values_are_the_per_point_values(self, name, params):
        """One evaluation over the coordinate columns gives, bit for bit
        and signs of zero included, the catalog function at each point."""
        mask = PolygonMask.rectangle(-10, -10, 10, 10)
        fld = AnalyticField(name, params, mask)
        pts = np.vstack([np.random.default_rng(7).uniform(-10, 10, (20000, 2)), [[0.0, -0.0], [-0.0, 0.0]]])
        evaluate = env.ANALYTIC_CATALOG[name]
        expected = np.array([evaluate(x, y, **fld.params) for x, y in pts])
        got = fld.values(pts)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()

    def test_outside_mask_raises(self):
        mask = PolygonMask.rectangle(0, 0, 1, 1)
        fld = AnalyticField("linear", {"a": 1.0}, mask)
        with pytest.raises(FieldDomainError):
            field_value(fld, (5.0, 5.0))

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
            assert field_value(fld, node) == fld.node_values[i]
            assert field_value(fld, node) == field_value(again, node)

    def test_lookup_is_nearest_node(self):
        mask = PolygonMask.rectangle(0, 0, 10, 10)
        nodes = np.array([[1.0, 1.0], [9.0, 9.0]])
        fld = SampledField(nodes, np.array([5.0, -5.0]), mask)
        assert field_value(fld, (2.0, 2.0)) == 5.0
        assert field_value(fld, (8.0, 8.0)) == -5.0

    def test_batch_ties_go_to_lowest_index(self):
        """Tied and untied rows in one query each get the nearest node, the
        lowest index among ties."""
        nodes = np.array([(x, y) for y in range(6) for x in range(6)], dtype=float)
        fld = SampledField(nodes, np.arange(36.0), PolygonMask.rectangle(0, 0, 5, 5))
        np.testing.assert_array_equal(fld.values(LATTICE_QUERIES), LATTICE_NEAREST)

    def test_near_duplicate_and_single_nodes(self):
        """Nodes 1e-13 apart tie for a far query and go to the lower index,
        but not for a query at one of them; a one-node field answers every
        query with its node."""
        mask = PolygonMask.rectangle(0, 0, 10, 10)
        nodes = np.array([[5.0, 5.0 + 1e-13], [5.0, 5.0], [2.0, 2.0]])
        fld = SampledField(nodes, np.array([1.0, 2.0, 3.0]), mask)
        queries = np.array([[5.0, 5.0], [5.0, 5.0 + 1e-13], [5.0, 9.0], [5.0, 4.0], [2.0, 2.5]])
        np.testing.assert_array_equal(fld.values(queries), [2.0, 1.0, 1.0, 1.0, 3.0])
        one = SampledField(np.array([[1.0, 1.0]]), np.array([5.0]), mask)
        np.testing.assert_array_equal(one.values(queries), [5.0] * 5)

    @pytest.mark.parametrize("kind", ["uniform", "lattice", "near-duplicates", "one-node"])
    def test_nearest_matches_a_ball_query_on_every_row(self, kind):
        """The search ``_nearest`` and the field's lookup (a node table, and
        the search for the other rows) both give the lowest index in a
        KD-tree's ball of radius ``d (1 + 1e-12)`` around every query."""
        rng = np.random.default_rng(["uniform", "lattice", "near-duplicates", "one-node"].index(kind))
        if kind == "lattice":
            nodes = np.array([(x, y) for x in range(8) for y in range(8)], float)[rng.permutation(64)]
            queries = rng.integers(0, 15, (2000, 2)) / 2.0
        elif kind == "near-duplicates":
            base = rng.uniform(0, 10, (40, 2))
            nodes = np.vstack([base, base + rng.choice([0.0, 1e-13, -1e-13], base.shape)])
            queries = np.vstack([nodes, rng.uniform(0, 10, (2000, 2))])
        else:
            nodes = rng.uniform(0, 10, (1 if kind == "one-node" else 300, 2))
            queries = np.vstack([nodes, rng.uniform(-1, 11, (2000, 2))])
        tree = cKDTree(nodes)
        dist, _ = tree.query(queries)
        balls = tree.query_ball_point(queries, r=dist * (1.0 + 1e-12))
        lowest = [min(ball) for ball in balls]
        np.testing.assert_array_equal(env._nearest(nodes, queries), lowest)
        fld = SampledField(nodes, np.arange(len(nodes), dtype=float), PolygonMask.rectangle(-1, -1, 11, 11))
        np.testing.assert_array_equal(fld.values(queries), lowest)

    def test_outside_region_raises(self):
        mask = PolygonMask.rectangle(0, 0, 10, 10)
        fld = SampledField(np.array([[1.0, 1.0]]), np.array([5.0]), mask)
        with pytest.raises(FieldDomainError):
            field_value(fld, (11.0, 5.0))


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

    def test_repeated_draws_are_placed_once(self, monkeypatch):
        """A box one subnormal wide holds four points, so draws repeat: the
        first draw of each is placed, in draw order, and a fifth point is
        never found."""

        class TinyBox(env.RoIMask):
            def contains(self, points):
                return np.ones(len(points), dtype=bool)

            def bounds(self):
                return (0.0, 0.0, 5e-324, 5e-324)

        rng = np.random.default_rng(3)
        draws, first = 0, []
        while len(first) < 4:
            pt, draws = rng.uniform((0.0, 0.0), (5e-324, 5e-324)).tolist(), draws + 1
            if pt not in first:
                first.append(pt)
        assert draws > 4
        targets, candidates = place_scenario(TinyBox(), 3, 2, 1, seed=3)
        np.testing.assert_array_equal(targets, first[:3])
        np.testing.assert_array_equal(candidates, first[:1] + first[3:])
        monkeypatch.setattr(env, "MAX_PLACEMENT_ATTEMPTS", 3000)
        with pytest.raises(PlacementError, match="placed only 4 of 5 points after 3000"):
            place_scenario(TinyBox(), 3, 3, 1, seed=3)

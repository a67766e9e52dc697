"""Ground-truth fields, regions of interest, and scenario placement.

A ground-truth field is the deterministic scalar function that the sensor
observes through noise.  Fields and regions are queried with whole arrays
of locations: a field's ``values(points)`` gives one value and a region's
``contains(points)`` one flag per row; :func:`field_value` is the one-point
form.  Three kinds of field are supported:

``GridField``
    Values on a regular latitude/longitude lattice loaded from CSV, with
    missing cells defining the outside of the region of interest.  Queries
    return the nearest non-missing cell's value.
``AnalyticField``
    A named closed-form function (catalog below) restricted to a mask.
``SampledField``
    One draw of the Gaussian-process prior at a fixed node set, queried by
    nearest node.  Used as the synthetic surrogate for gridded data.

Nearest-cell and nearest-node ties go to the lowest index: every cell or
node within ``1e-12`` relative of the nearest distance ``sqrt(dx^2 +
dy^2)`` ties.  A sampled field answers a query at one of its nodes from a
table of node coordinates, and searches all nodes only for the others.  A
grid searches a fixed lattice window around the query's nearest lattice
index: any cell within the support radius ``R`` lies within ``ceil(R /
dlat) + 1`` rows and ``ceil(R / dlon) + 1`` columns of it.  Locations are
``(x, y)`` pairs; for geodata ``x`` is longitude and ``y`` is latitude.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from .errors import (
    DataError,
    FieldDomainError,
    InvalidInputError,
    PlacementError,
)
from .gp import KernelSpec, MeanSpec, _finite, as_point, as_points, sample_prior_field

#: Queries farther than this many cell diagonals from every non-missing
#: cell are treated as outside the data support.
SUPPORT_DIAGONALS = 2.0

#: Total rejection-sampling attempts allowed when placing a scenario.
MAX_PLACEMENT_ATTEMPTS = 1_000_000

#: Rejection-sampling draws tested per region query.
PLACEMENT_BATCH = 1024

#: Distances a nearest search computes per pass over a chunk of queries.
_SEARCH_BLOCK = 1 << 15


def _lowest_tied(dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``dist``, the least distance and the lowest column within
    ``1e-12`` relative of it."""
    least = dist.min(axis=1)
    return least, np.argmax(dist <= least[:, None] * (1.0 + 1e-12), axis=1)


def _window(u: np.ndarray, n: int, half: int) -> np.ndarray:
    """Per coordinate ``u`` in lattice units, the ``2 half + 1`` indices
    from ``half`` below its nearest index to ``half`` above, clipped to
    ``0 .. n-1``."""
    nearest = np.rint(np.clip(u, 0, n - 1)).astype(np.intp)
    return np.clip(nearest[:, None] + np.arange(-half, half + 1), 0, n - 1)


def _nearest(nodes: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Index of the row of ``nodes`` nearest each row of ``pts``, ties to
    the lowest index; a brute-force search over chunks of ``pts``."""
    near = np.empty(len(pts), dtype=np.intp)
    chunk = max(1, _SEARCH_BLOCK // len(nodes))
    for s in range(0, len(pts), chunk):
        x, y = pts[s : s + chunk].T
        dx, dy = np.subtract.outer(x, nodes[:, 0]), np.subtract.outer(y, nodes[:, 1])
        _, near[s : s + chunk] = _lowest_tied(np.sqrt(dx * dx + dy * dy))
    return near


# ---------------------------------------------------------------------------
# Regions of interest
# ---------------------------------------------------------------------------


class RoIMask:
    """Deterministic membership test for the region of interest."""

    def contains(self, points) -> np.ndarray:
        """One flag per row of ``points``: is it inside the region?"""
        raise NotImplementedError

    def bounds(self) -> tuple[float, float, float, float]:
        """Axis-aligned bounding box ``(xmin, ymin, xmax, ymax)``."""
        raise NotImplementedError


def _collinear(d: np.ndarray) -> bool:
    """``np.linalg.matrix_rank(d) < 2`` for the ``(m, 2)`` offsets ``d`` of
    a polygon's vertices from its first, without the SVD where the answer
    is clear.

    With ``d_k`` the longest row, ``s1 * s2 >= |d_k x d_i|`` for every row
    ``i`` (Cauchy-Binet) and ``s1**2 <= sum |d|^2``, so the singular values
    satisfy ``s2 / s1 >= max_i |d_k x d_i| / sum |d|^2``.  ``matrix_rank``
    calls ``d`` rank 1 where ``s2 <= max(m, 2) * eps * s1``; a bound above
    ``64 m eps`` clears that threshold and the SVD's own round-off.  Only
    nearly collinear sets, and sets so small that the bound underflows,
    reach the SVD.
    """
    sq = (d * d).sum(axis=1)
    dk = d[np.argmax(sq)]
    cross = np.abs(dk[0] * d[:, 1] - dk[1] * d[:, 0]).max()
    margin = 64 * len(d) * np.finfo(float).eps * sq.sum()
    if cross > margin > np.finfo(float).tiny:
        return False
    return bool(np.linalg.matrix_rank(d) < 2)


@dataclass(frozen=True, eq=False)
class PolygonMask(RoIMask):
    """Planar polygon membership by the even-odd (ray casting) rule."""

    vertices: np.ndarray

    def __post_init__(self):
        verts = as_points(self.vertices)
        if len(verts) < 3:
            raise InvalidInputError("polygon needs at least 3 vertices")
        if _collinear(verts[1:] - verts[0]):
            raise InvalidInputError("polygon vertices are collinear, so it contains no point")
        object.__setattr__(self, "vertices", verts)

    @classmethod
    def rectangle(cls, xmin: float, ymin: float, xmax: float, ymax: float) -> "PolygonMask":
        if not (xmax > xmin and ymax > ymin):
            raise InvalidInputError("rectangle must have positive extent")
        return cls(np.array([[xmin, ymin], [xmax, ymin], [xmax, ymax], [xmin, ymax]]))

    def contains(self, points) -> np.ndarray:
        """Rows of ``points`` crossing an odd number of edges to their
        right; horizontal edges are masked, never counted."""
        x, y = as_points(points).T[:, :, None]
        x1, y1 = self.vertices.T
        x2, y2 = np.roll(self.vertices, -1, axis=0).T
        spans = (y1 > y) != (y2 > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xcross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
        return np.count_nonzero(spans & (x < xcross), axis=1) % 2 == 1

    def bounds(self):
        mins = self.vertices.min(axis=0)
        maxs = self.vertices.max(axis=0)
        return float(mins[0]), float(mins[1]), float(maxs[0]), float(maxs[1])


# ---------------------------------------------------------------------------
# Gridded data
# ---------------------------------------------------------------------------


def _axis(coords, start: float, step: float, n: int, name: str) -> np.ndarray:
    """A copy of ``coords`` as ``n`` finite floats, or the lattice
    ``start + step * arange(n)`` where ``coords`` is None."""
    if coords is None:
        return start + step * np.arange(n)
    try:
        axis = np.array(coords, dtype=float)
    except (TypeError, ValueError):
        axis = None
    if axis is None or axis.shape != (n,) or not np.all(np.isfinite(axis)):
        raise InvalidInputError(f"{name} must be {n} finite numbers, one per lattice line")
    return axis


@dataclass(frozen=True, eq=False)
class GridData(RoIMask):
    """Values on a regular lat/lon lattice; NaN cells are outside the RoI.

    As a region of interest it holds the points within the support radius
    of a non-missing cell, the same points where a :class:`GridField`
    answers with the nearest such cell's value.

    ``values[i, j]`` sits at latitude ``lat0 + i*dlat`` and longitude
    ``lon0 + j*dlon``.  ``lat_present``/``lon_present`` record which lattice
    rows and columns the source file actually mentioned, so serialization
    can preserve wholly absent rows instead of inventing coordinates.
    """

    lat0: float
    lon0: float
    dlat: float
    dlon: float
    values: np.ndarray
    lat_present: Optional[np.ndarray] = None
    lon_present: Optional[np.ndarray] = None
    lat_coords: Optional[np.ndarray] = field(default=None, repr=False)
    lon_coords: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        if not all(map(_finite, (self.lat0, self.lon0, self.dlat, self.dlon))):
            raise InvalidInputError("grid origin and cell sizes must be finite numbers")
        if not (self.dlat > 0 and self.dlon > 0):
            raise InvalidInputError("grid cell sizes must be positive")
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.size == 0:
            raise InvalidInputError("grid values must be a nonempty 2-D array")
        if not np.any(np.isfinite(vals)):
            raise InvalidInputError("grid must contain at least one non-missing cell")
        nlat, nlon = vals.shape
        lat_c = _axis(self.lat_coords, self.lat0, self.dlat, nlat, "lat_coords")
        lon_c = _axis(self.lon_coords, self.lon0, self.dlon, nlon, "lon_coords")
        lat_p = self.lat_present
        lon_p = self.lon_present
        lat_p = np.ones(nlat, dtype=bool) if lat_p is None else np.asarray(lat_p, dtype=bool)
        lon_p = np.ones(nlon, dtype=bool) if lon_p is None else np.asarray(lon_p, dtype=bool)
        if lat_p.shape != (nlat,) or lon_p.shape != (nlon,):
            raise InvalidInputError("presence masks must match the value array shape")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "lat_present", lat_p.copy())
        object.__setattr__(self, "lon_present", lon_p.copy())
        object.__setattr__(self, "lat_coords", lat_c)
        object.__setattr__(self, "lon_coords", lon_c)
        object.__setattr__(self, "_present", np.isfinite(vals))

    @property
    def cell_diagonal(self) -> float:
        return float(np.hypot(self.dlat, self.dlon))

    @property
    def support_radius(self) -> float:
        """Distance from a non-missing cell centre within which a point is
        inside the region."""
        return SUPPORT_DIAGONALS * self.cell_diagonal

    def _nearest_cells(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Distance from each row of ``pts`` to its nearest non-missing cell
        centre in the lattice window (``inf`` where the window holds none),
        and the row-major index of the lowest cell tied with it.

        The window spans ``ceil(R / dlat) + 1`` rows and ``ceil(R / dlon) +
        1`` columns either side of the query's nearest lattice index, for the
        support radius ``R``; the extra cell covers centres a little off the
        lattice.  Queries are searched a chunk at a time."""
        radius = self.support_radius
        nlat, nlon = self.values.shape
        hi, hj = math.ceil(radius / self.dlat) + 1, math.ceil(radius / self.dlon) + 1
        dist, cell = np.empty(len(pts)), np.empty(len(pts), dtype=np.intp)
        chunk = max(1, _SEARCH_BLOCK // ((2 * hi + 1) * (2 * hj + 1)))
        for s in range(0, len(pts), chunk):
            x, y = pts[s : s + chunk].T
            # Indices are clipped to the grid: the cells within R of a query
            # off its edge stay in the window, and positions off the grid
            # repeat its edge cells in row-major order, so the lowest tied
            # position is the lowest row-major cell.
            i = _window((y - self.lat0) / self.dlat, nlat, hi)
            j = _window((x - self.lon0) / self.dlon, nlon, hj)
            dy, dx = y[:, None] - self.lat_coords[i], x[:, None] - self.lon_coords[j]
            with np.errstate(over="ignore"):  # a far query is at distance inf
                d = np.sqrt(dx[:, None, :] ** 2 + dy[:, :, None] ** 2)
            d[~self._present[i[:, :, None], j[:, None, :]]] = np.inf
            dist[s : s + chunk], k = _lowest_tied(d.reshape(len(x), -1))
            rows = np.arange(len(x))
            cell[s : s + chunk] = i[rows, k // (2 * hj + 1)] * nlon + j[rows, k % (2 * hj + 1)]
        return dist, cell

    def contains(self, points) -> np.ndarray:
        dist, _ = self._nearest_cells(as_points(points))
        return dist <= self.support_radius

    def bounds(self):
        """The box around the non-missing cells' centres, half a cell wide."""
        ii, jj = np.nonzero(self._present)
        centres = np.column_stack([self.lon_coords[jj], self.lat_coords[ii]])
        half = np.array([0.5 * self.dlon, 0.5 * self.dlat])
        (xmin, ymin), (xmax, ymax) = centres.min(axis=0) - half, centres.max(axis=0) + half
        return float(xmin), float(ymin), float(xmax), float(ymax)


def _infer_spacing(coords: np.ndarray, axis_name: str, path: str) -> float:
    """Cell size from sorted unique coordinates; single coordinate -> 1.0."""
    if len(coords) < 2:
        return 1.0
    diffs = np.diff(coords)
    d = float(diffs.min())
    if d <= 0:
        raise DataError(f"{path}: duplicate {axis_name} coordinates")
    offsets = (coords - coords[0]) / d
    if np.max(np.abs(offsets - np.round(offsets))) > 1e-6:
        raise DataError(f"{path}: {axis_name} coordinates are not uniformly spaced")
    return d


def _lattice_axis(coords, axis_name: str, path: str):
    """One axis of a grid from its rows' coordinates: the first coordinate,
    the cell size, each lattice slot's coordinate (the file's where it has
    one), which slots the file has, and each coordinate's slot."""
    present = np.array(sorted(set(coords)))
    step = _infer_spacing(present, axis_name, path)
    start = float(present[0])
    lattice = start + step * np.arange(int(round((present[-1] - start) / step)) + 1)
    has = np.zeros(len(lattice), dtype=bool)
    slot = {}
    for c in present:
        i = int(round((c - start) / step))
        lattice[i] = c
        has[i] = True
        slot[c] = i
    return start, step, lattice, has, slot


def _csv_rows(path, header: tuple[str, ...], what: str):
    """``(line number, fields)`` of each nonblank data row of a CSV file that
    starts with ``header``; ``what`` names the file if it cannot be opened
    or decoded."""
    try:
        fh = open(str(path), newline="")
    except OSError as exc:
        raise DataError(f"{path}: cannot open {what} ({exc})") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            first = next(reader, None)
            if first is None or [h.strip() for h in first] != list(header):
                raise DataError(f"{path}:1: expected header '{','.join(header)}'")
            for lineno, row in enumerate(reader, start=2):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != len(header):
                    raise DataError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
                yield lineno, row
        except UnicodeDecodeError as exc:
            # Raised by the reads behind the rows, not by open().
            raise DataError(f"{path}: cannot decode {what} ({exc})") from exc


def load_grid_csv(path) -> GridData:
    """Parse a ``lat,lon,value`` CSV into :class:`GridData`.

    One row per cell center, decimal degrees.  Missing cells may be absent
    or carry the literal value token ``NA``.  Cell sizes are inferred as
    the minimal positive coordinate differences and the lattice must be
    uniform within 1e-6 (relative to the cell size).
    """
    path = str(path)
    rows: list[tuple[float, float, float]] = []
    for lineno, row in _csv_rows(path, ("lat", "lon", "value"), "grid CSV"):
        try:
            lat = float(row[0])
            lon = float(row[1])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: bad coordinate ({exc})") from exc
        token = row[2].strip()
        if token == "NA":
            val = np.nan
        else:
            try:
                val = float(token)
            except ValueError as exc:
                raise DataError(
                    f"{path}:{lineno}: bad value {token!r} (use 'NA' for missing)"
                ) from exc
            if not np.isfinite(val):
                raise DataError(f"{path}:{lineno}: non-finite value")
        if not (np.isfinite(lat) and np.isfinite(lon)):
            raise DataError(f"{path}:{lineno}: non-finite coordinate")
        rows.append((lat, lon, val))
    if not rows:
        raise DataError(f"{path}: no data rows")

    lat0, dlat, lat_coords, lat_present, lat_slot = _lattice_axis([r[0] for r in rows], "latitude", path)
    lon0, dlon, lon_coords, lon_present, lon_slot = _lattice_axis([r[1] for r in rows], "longitude", path)
    values = np.full((len(lat_coords), len(lon_coords)), np.nan)
    filled = np.zeros(values.shape, dtype=bool)
    for lat, lon, val in rows:
        i, j = lat_slot[lat], lon_slot[lon]
        if filled[i, j]:
            raise DataError(f"{path}: duplicate cell at lat={lat!r}, lon={lon!r}")
        filled[i, j] = True
        values[i, j] = val
    if not np.any(np.isfinite(values)):
        raise DataError(f"{path}: every cell is missing")
    return GridData(
        lat0=lat0,
        lon0=lon0,
        dlat=dlat,
        dlon=dlon,
        values=values,
        lat_present=lat_present,
        lon_present=lon_present,
        lat_coords=lat_coords,
        lon_coords=lon_coords,
    )


def save_grid_csv(grid: GridData, path) -> None:
    """Write ``lat,lon,value`` rows for every present lattice cell.

    Missing cells in present rows/columns are written with the ``NA``
    token; wholly absent rows and columns are skipped, so a load/save
    cycle reproduces the file's information exactly.
    """
    with open(str(path), "w", newline="") as fh:
        fh.write("lat,lon,value\n")
        for i in range(grid.values.shape[0]):
            if not grid.lat_present[i]:
                continue
            for j in range(grid.values.shape[1]):
                if not grid.lon_present[j]:
                    continue
                v = grid.values[i, j]
                token = "NA" if not np.isfinite(v) else repr(float(v))
                fh.write(f"{float(grid.lat_coords[i])!r},{float(grid.lon_coords[j])!r},{token}\n")


# ---------------------------------------------------------------------------
# Ground-truth fields
# ---------------------------------------------------------------------------


def _eval_linear(x: np.ndarray, y: np.ndarray, *, a=0.0, b=0.0, c=0.0) -> np.ndarray:
    return a * x + b * y + c


def _eval_sinusoid(x: np.ndarray, y: np.ndarray, *, a=1.0, b=1.0, c=1.0, d=0.0) -> np.ndarray:
    return a * np.sin(b * x) * np.cos(c * y) + d


def _eval_gauss_bumps(x: np.ndarray, y: np.ndarray, *, offset=0.0, bumps=()):
    total = float(offset)
    for amp, cx, cy, width in bumps:
        # float_power calls C pow() per entry, as a scalar's ``** 2`` does;
        # an array's ``** 2`` multiplies, which can round the last bit apart.
        r2 = np.float_power(x - cx, 2) + np.float_power(y - cy, 2)
        total = total + amp * np.exp(-r2 / (2.0 * width**2))
    return total


#: Named analytic test fields: smooth functions with known structure.  Each
#: takes the coordinate columns ``x`` and ``y`` of its points, and its
#: parameters as keyword arguments with defaults; it returns the values, or
#: one scalar for them all (gauss-bumps without bumps).
ANALYTIC_CATALOG = {
    "linear": _eval_linear,
    "sinusoid": _eval_sinusoid,
    "gauss-bumps": _eval_gauss_bumps,
}


def analytic_defaults(name: str) -> dict:
    """Each parameter of catalog field ``name`` with its default."""
    return dict(ANALYTIC_CATALOG[name].__kwdefaults__)


def _points_inside(region: RoIMask, points, grid_cells: bool = False):
    """``points`` as an ``(m, 2)`` array; raises FieldDomainError naming the
    first row outside ``region``.  With ``grid_cells`` the region is a
    :class:`GridData`, tested from one nearest-cell search, and the
    row-major index of each row's nearest cell comes back as well."""
    pts = as_points(points)
    if grid_cells:
        dist, cells = region._nearest_cells(pts)
        inside = dist <= region.support_radius
    else:
        inside = region.contains(pts)
    if not inside.all():
        raise FieldDomainError(f"point {tuple(pts[np.argmin(inside)].tolist())} is outside the region of interest")
    return (pts, cells) if grid_cells else pts


class GroundTruthField:
    """Deterministic scalar field over a region of interest."""

    def values(self, points) -> np.ndarray:
        """True value at each row of ``points``; raises FieldDomainError if
        any row lies outside the field's region."""
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class GridField(GroundTruthField):
    """Field backed by gridded data; nearest non-missing cell lookup, ties
    to the lowest row-major index."""

    grid: GridData

    def values(self, points) -> np.ndarray:
        _, cells = _points_inside(self.grid, points, grid_cells=True)
        return self.grid.values.reshape(-1)[cells]


@dataclass(frozen=True, eq=False)
class AnalyticField(GroundTruthField):
    """Closed-form field from :data:`ANALYTIC_CATALOG`, limited to a mask;
    ``params`` gets the function's defaults for the parameters it omits."""

    name: str
    params: Mapping[str, object]
    region: RoIMask

    def __post_init__(self):
        if self.name not in ANALYTIC_CATALOG:
            raise InvalidInputError(
                f"unknown analytic field {self.name!r}; "
                f"choose from {sorted(ANALYTIC_CATALOG)}"
            )
        params = analytic_defaults(self.name)
        if unknown := sorted(set(self.params) - set(params)):
            raise InvalidInputError(f"{self.name} fields take {sorted(params)}, not {unknown}")
        object.__setattr__(self, "params", {**params, **self.params})

    def values(self, points) -> np.ndarray:
        pts = _points_inside(self.region, points)
        # np.full broadcasts a scalar as it is: adding zeros would turn -0.0 into 0.0.
        return np.full(len(pts), ANALYTIC_CATALOG[self.name](pts[:, 0], pts[:, 1], **self.params), dtype=float)


@dataclass(frozen=True, eq=False)
class SampledField(GroundTruthField):
    """Field fixed by values at a node set; nearest-node lookup, ties to the
    lowest node index.  A query at a node is answered from a table of node
    coordinates to the lowest index there; only the others are searched."""

    nodes: np.ndarray
    node_values: np.ndarray
    region: RoIMask

    def __post_init__(self):
        nodes = as_points(self.nodes)
        vals = np.asarray(self.node_values, dtype=float).reshape(-1)
        if len(nodes) == 0 or len(nodes) != len(vals):
            raise InvalidInputError("sampled field needs one value per node")
        if not np.all(np.isfinite(vals)):
            raise InvalidInputError("sampled field values must be finite")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "node_values", vals)
        index: dict[tuple[float, float], int] = {}
        for i, node in enumerate(map(tuple, nodes.tolist())):
            index.setdefault(node, i)
        object.__setattr__(self, "_index", index)

    def values(self, points) -> np.ndarray:
        pts = _points_inside(self.region, points)
        near = np.fromiter((self._index.get(p, -1) for p in map(tuple, pts.tolist())), np.intp, len(pts))
        if len(off := np.flatnonzero(near < 0)):
            near[off] = _nearest(self.nodes, pts[off])
        return self.node_values[near]


def sample_field(
    mean: MeanSpec,
    kernel: KernelSpec,
    nodes,
    seed: int,
    region: RoIMask,
) -> SampledField:
    """Draw one prior field realization at ``nodes`` and wrap it as a field."""
    return SampledField(nodes, sample_prior_field(mean, kernel, nodes, seed), region)


def field_value(fld: GroundTruthField, x) -> float:
    """:meth:`~GroundTruthField.values` at the one location ``x``; raises
    FieldDomainError outside the RoI."""
    return float(fld.values(as_point(x)[None])[0])


# ---------------------------------------------------------------------------
# Scenario placement
# ---------------------------------------------------------------------------


def place_scenario(
    mask: RoIMask,
    n_targets: int,
    n_candidates: int,
    n_shared: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Uniformly place target and candidate sets inside ``mask``.

    Exactly ``n_shared`` locations appear (bitwise identical) in both
    returned sets; all points are distinct and deterministic given the
    seed.  Rejection sampling draws from the mask's bounding box.
    """
    if n_targets < 1 or n_candidates < 1:
        raise InvalidInputError("need at least one target and one candidate")
    if not (0 <= n_shared <= min(n_targets, n_candidates)):
        raise InvalidInputError("n_shared must be <= min(n_targets, n_candidates)")
    xmin, ymin, xmax, ymax = mask.bounds()
    rng = np.random.default_rng(seed)
    need = n_targets + n_candidates - n_shared
    found: dict[tuple[float, float], None] = {}
    for attempts in range(0, MAX_PLACEMENT_ATTEMPTS, PLACEMENT_BATCH):
        # Each row is the pair one unbatched ``uniform`` call would draw, so
        # the accepted points do not depend on the batch size.
        size = (min(PLACEMENT_BATCH, MAX_PLACEMENT_ATTEMPTS - attempts), 2)
        draws = rng.uniform((xmin, ymin), (xmax, ymax), size=size)
        accepted = draws[mask.contains(draws)]
        # Rows go into ``found`` only as many at a time as are still needed.
        while len(accepted) and len(found) < need:
            take = need - len(found)
            found.update(dict.fromkeys(map(tuple, accepted[:take].tolist())))
            accepted = accepted[take:]
        if len(found) >= need:
            pts = as_points(list(found)[:need])
            return pts[:n_targets], as_points(np.vstack([pts[:n_shared], pts[n_targets:]]))
    raise PlacementError(
        f"placed only {len(found)} of {need} points after "
        f"{MAX_PLACEMENT_ATTEMPTS} attempts; is the mask mostly empty?"
    )

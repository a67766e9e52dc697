"""Ground-truth fields, regions of interest, and scenario placement.

A ground-truth field is the deterministic scalar function that the sensor
observes through noise.  Fields and regions are queried with whole arrays
of locations: a field's ``values(points)`` gives one value and a region's
``contains(points)`` one flag per row.  Three kinds of field are supported:

``GridField``
    Values on a regular latitude/longitude lattice loaded from CSV, with
    missing cells defining the outside of the region of interest.  Queries
    return the nearest non-missing cell's value.
``AnalyticField``
    A named closed-form function (catalog below) restricted to a mask.
``SampledField``
    One draw of the Gaussian-process prior at a fixed node set, queried by
    nearest node.  Used as the synthetic surrogate for gridded data.

Nearest-cell and nearest-node ties go to the lowest index.  Locations are
``(x, y)`` pairs; for geodata ``x`` is longitude and ``y`` is latitude.
"""

from __future__ import annotations

import csv
import inspect
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np
from scipy.spatial import cKDTree

from .errors import (
    DataError,
    FieldDomainError,
    InvalidInputError,
    PlacementError,
)
from .gp import KernelSpec, MeanSpec, as_points, sample_prior_field

#: Queries farther than this many cell diagonals from every non-missing
#: cell are treated as outside the data support.
SUPPORT_DIAGONALS = 2.0

#: Total rejection-sampling attempts allowed when placing a scenario.
MAX_PLACEMENT_ATTEMPTS = 1_000_000

#: Rejection-sampling draws tested per region query.
PLACEMENT_BATCH = 1024


def _nearest(tree: cKDTree, pts: np.ndarray) -> np.ndarray:
    """Index of the tree point nearest each row of ``pts``; ties go to the
    lowest index."""
    dist, _ = tree.query(pts)
    near = tree.query_ball_point(pts, r=dist * (1.0 + 1e-12))
    return np.array([min(idx) for idx in near], dtype=np.intp)


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


@dataclass(frozen=True, eq=False)
class PolygonMask(RoIMask):
    """Planar polygon membership by the even-odd (ray casting) rule."""

    vertices: np.ndarray

    def __post_init__(self):
        verts = as_points(self.vertices)
        if len(verts) < 3:
            raise InvalidInputError("polygon needs at least 3 vertices")
        if np.linalg.matrix_rank(verts[1:] - verts[0]) < 2:
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
        if not (self.dlat > 0 and self.dlon > 0):
            raise InvalidInputError("grid cell sizes must be positive")
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.size == 0:
            raise InvalidInputError("grid values must be a nonempty 2-D array")
        if not np.any(np.isfinite(vals)):
            raise InvalidInputError("grid must contain at least one non-missing cell")
        nlat, nlon = vals.shape
        lat_c = self.lat_coords
        lon_c = self.lon_coords
        if lat_c is None:
            lat_c = self.lat0 + self.dlat * np.arange(nlat)
        if lon_c is None:
            lon_c = self.lon0 + self.dlon * np.arange(nlon)
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
        object.__setattr__(self, "lat_coords", np.asarray(lat_c, dtype=float).copy())
        object.__setattr__(self, "lon_coords", np.asarray(lon_c, dtype=float).copy())
        ii, jj = np.nonzero(np.isfinite(vals))
        centers = np.column_stack([self.lon_coords[jj], self.lat_coords[ii]])
        # np.nonzero is row-major, so tree order is row-major cell order.
        object.__setattr__(self, "_cell_values", vals[ii, jj])
        object.__setattr__(self, "_tree", cKDTree(centers))

    @property
    def cell_diagonal(self) -> float:
        return float(np.hypot(self.dlat, self.dlon))

    def contains(self, points) -> np.ndarray:
        dist, _ = self._tree.query(as_points(points))
        return dist <= SUPPORT_DIAGONALS * self.cell_diagonal

    def bounds(self):
        half = np.array([0.5 * self.dlon, 0.5 * self.dlat])
        (xmin, ymin), (xmax, ymax) = self._tree.mins - half, self._tree.maxes + half
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


def _csv_rows(path, header: tuple[str, ...], what: str):
    """``(line number, fields)`` of each nonblank data row of a CSV file that
    starts with ``header``; ``what`` names the file if it cannot be opened."""
    try:
        fh = open(str(path), newline="")
    except OSError as exc:
        raise DataError(f"{path}: cannot open {what} ({exc})") from exc
    with fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None or [h.strip() for h in first] != list(header):
            raise DataError(f"{path}:1: expected header '{','.join(header)}'")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise DataError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            yield lineno, row


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

    lats = np.array(sorted({r[0] for r in rows}))
    lons = np.array(sorted({r[1] for r in rows}))
    dlat = _infer_spacing(lats, "latitude", path)
    dlon = _infer_spacing(lons, "longitude", path)
    lat0, lon0 = float(lats[0]), float(lons[0])
    nlat = int(round((lats[-1] - lat0) / dlat)) + 1
    nlon = int(round((lons[-1] - lon0) / dlon)) + 1

    lat_coords = lat0 + dlat * np.arange(nlat)
    lon_coords = lon0 + dlon * np.arange(nlon)
    lat_present = np.zeros(nlat, dtype=bool)
    lon_present = np.zeros(nlon, dtype=bool)
    lat_slot = {}
    for c in lats:
        i = int(round((c - lat0) / dlat))
        lat_coords[i] = c
        lat_present[i] = True
        lat_slot[c] = i
    lon_slot = {}
    for c in lons:
        j = int(round((c - lon0) / dlon))
        lon_coords[j] = c
        lon_present[j] = True
        lon_slot[c] = j

    values = np.full((nlat, nlon), np.nan)
    filled = np.zeros((nlat, nlon), dtype=bool)
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


def _eval_linear(x: float, y: float, *, a=0.0, b=0.0, c=0.0) -> float:
    return a * x + b * y + c


def _eval_sinusoid(x: float, y: float, *, a=1.0, b=1.0, c=1.0, d=0.0) -> float:
    return a * np.sin(b * x) * np.cos(c * y) + d


def _eval_gauss_bumps(x: float, y: float, *, offset=0.0, bumps=()) -> float:
    total = float(offset)
    for amp, cx, cy, width in bumps:
        r2 = (x - cx) ** 2 + (y - cy) ** 2
        total += amp * np.exp(-r2 / (2.0 * width**2))
    return total


#: Named analytic test fields: smooth functions with known structure.  Each
#: takes its parameters as keyword arguments with defaults.
ANALYTIC_CATALOG = {
    "linear": _eval_linear,
    "sinusoid": _eval_sinusoid,
    "gauss-bumps": _eval_gauss_bumps,
}


def analytic_defaults(name: str) -> dict:
    """Each parameter of catalog field ``name`` with its default."""
    params = inspect.signature(ANALYTIC_CATALOG[name]).parameters.values()
    return {p.name: p.default for p in params if p.kind is p.KEYWORD_ONLY}


def _points_inside(region: RoIMask, points) -> np.ndarray:
    """``points`` as an ``(m, 2)`` array; raises FieldDomainError naming the
    first row outside ``region``."""
    pts = as_points(points)
    if not (inside := region.contains(pts)).all():
        raise FieldDomainError(f"point {tuple(pts[np.argmin(inside)].tolist())} is outside the region of interest")
    return pts


class GroundTruthField:
    """Deterministic scalar field over a region of interest."""

    def values(self, points) -> np.ndarray:
        """True value at each row of ``points``; raises FieldDomainError if
        any row lies outside :meth:`roi`."""
        raise NotImplementedError

    def value(self, point) -> float:
        """:meth:`values` at one point; more than one raises ValueError."""
        return self.values(point).item()

    def roi(self) -> RoIMask:
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class GridField(GroundTruthField):
    """Field backed by gridded data; nearest non-missing cell lookup, ties
    to the lowest row-major index."""

    grid: GridData

    def values(self, points) -> np.ndarray:
        return self.grid._cell_values[_nearest(self.grid._tree, _points_inside(self.grid, points))]

    def roi(self) -> RoIMask:
        return self.grid


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
        evaluate = ANALYTIC_CATALOG[self.name]
        return np.array([evaluate(x, y, **self.params) for x, y in _points_inside(self.region, points)])

    def roi(self) -> RoIMask:
        return self.region


@dataclass(frozen=True, eq=False)
class SampledField(GroundTruthField):
    """Field fixed by values at a node set; nearest-node lookup, ties to the
    lowest node index."""

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
        object.__setattr__(self, "_tree", cKDTree(nodes))

    def values(self, points) -> np.ndarray:
        return self.node_values[_nearest(self._tree, _points_inside(self.region, points))]

    def roi(self) -> RoIMask:
        return self.region


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
    """True field value at ``x``; raises FieldDomainError outside the RoI."""
    return fld.value(x)


def noisy_reading(value: float, noise_sd: float, rng: np.random.Generator) -> float:
    """``value + eps`` with ``eps ~ N(0, noise_sd^2)`` drawn from ``rng``;
    zero noise draws nothing."""
    if noise_sd == 0:
        return value
    return value + float(rng.normal(0.0, noise_sd))


def measure(fld: GroundTruthField, x, noise_sd: float, rng: np.random.Generator) -> float:
    """:func:`noisy_reading` of ``field_value(fld, x)``."""
    if not (np.isfinite(noise_sd) and noise_sd >= 0):
        raise InvalidInputError("noise_sd must be finite and >= 0")
    return noisy_reading(field_value(fld, x), noise_sd, rng)


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
        found.update(dict.fromkeys(map(tuple, draws[mask.contains(draws)].tolist())))
        if len(found) >= need:
            pts = as_points(list(found)[:need])
            return pts[:n_targets], as_points(np.vstack([pts[:n_shared], pts[n_targets:]]))
    raise PlacementError(
        f"placed only {len(found)} of {need} points after "
        f"{MAX_PLACEMENT_ATTEMPTS} attempts; is the mask mostly empty?"
    )

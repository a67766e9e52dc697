"""Exact Gaussian-process conditioning over finite sets of planar locations.

The prior is a constant mean plus an isotropic squared-exponential
covariance.  All operations take explicit location sets and return dense
means and covariances.  Linear systems are solved through Cholesky
factorizations, never through explicit inverses.  Each factorization is
LAPACK ``dpotrf`` and each triangular solve ``dtrtrs``, called from
scipy's extension ``scipy.linalg._flapack``, which :func:`_load_flapack`
loads from its file: the routines and bits of ``scipy.linalg.cholesky``
and ``solve_triangular``, without importing ``scipy.linalg``.  No LAPACK
routine is called on an empty array.

One rule covers every conditioning on a log: a reading whose Cholesky
pivot ``d^2`` is at or below ``JITTER_LADDER[0]`` of the prior variance
(a noise-free repeat, a near-duplicate) adds nothing given the readings
before it, so it adds no row.  :func:`jittered_cholesky` and its jitter
ladder serve only matrices that are not a log's Gram matrix.

The public functions are pure functions of their inputs and every
public container is immutable after construction, so values can be
shared freely across threads.  Nothing is cached between their calls:
each conditioning builds and factors its own Gram matrix, so callers that
need several quantities from one log ask :func:`predictive_moments` for
all of them at once.  A log that grows one reading at a time, as in a
planning episode, is instead carried by the private ``_CarriedRows``:
one Gram-factor row per reading, from its kernel row, updates the
variances (it holds no covariance and no means).  Variances do not
depend on the values read, so the means are replayed once from the kept
rows and their pivots, after the last reading (``_CarriedRows._means``).
A from-scratch factor with a degenerate pivot appends its log's rows
the same way, so both skip the same readings.  The targets' values
enter as noise-free rows appended by ``_targets_after``, after a log's
rows (:func:`_variance_pair`) or before an episode's: a planning episode
carries the candidates' variances given them in a ``_CarriedRows`` of
the candidates' columns, with the same row-append code and the
candidates' part of the same kernel row.

Location arrays are checked once, where they enter a public entry point
(:func:`posterior`, :func:`predictive_moments`, :func:`sample_prior_field`
and the constructors of :class:`MeasurementLog` and :class:`GaussianBelief`).
Code below that point, :func:`kernel_matrix` included, takes those
arrays as they are.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
from dataclasses import dataclass

import numpy as np
import scipy

from .errors import InvalidInputError, NumericalDegeneracyError

#: Relative diagonal inflations :func:`jittered_cholesky` tries, in order,
#: when a factorization fails.  A log's pivot at or below the first of
#: them, relative to the prior variance, adds no row.
JITTER_LADDER = (1e-10, 1e-8, 1e-6)

#: Rows of :func:`kernel_matrix`'s output filled per pass; its temporary
#: holds this many rows at most.
_KERNEL_BLOCK = 16


def _load_flapack():
    """scipy's LAPACK extension ``scipy.linalg._flapack``, loaded from its file.

    It is the extension, and the OpenBLAS, that ``scipy.linalg.cholesky``
    and ``solve_triangular`` call, so results keep their bits; importing
    ``scipy.linalg`` instead would also load scipy's array-API layer, which
    clones numpy's namespace (``numpy.f2py`` and ``numpy.testing`` with it).
    The extension registers under its own name, so a later ``import
    scipy.linalg`` reuses this module.  Raises ImportError naming the
    directory searched if the extension is not there.
    """
    where = f"{scipy.__path__[0]}/linalg"
    loader = (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES)
    spec = importlib.machinery.FileFinder(where, loader).find_spec("scipy.linalg._flapack")
    if spec is None:
        raise ImportError(f"scipy's LAPACK extension _flapack not found in {where}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: The LAPACK routines every factorization and triangular solve calls.
_FLAPACK = _load_flapack()


def _floats(values, what: str) -> np.ndarray:
    """``values`` as a float array; InvalidInputError if they are not real numbers."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{what}: not an array of real numbers ({exc})") from None


def as_points(locations) -> np.ndarray:
    """Coerce ``locations`` to a read-only ``(n, 2)`` float array.

    Accepts anything array-like holding coordinate pairs: a single pair, a
    list of pairs, or an existing ``(n, 2)`` array.  Non-finite coordinates
    are rejected.
    """
    pts = _floats(locations, "locations")
    if pts.size == 0:
        pts = pts.reshape(0, 2)
    pts = np.atleast_2d(pts)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise InvalidInputError(
            f"locations must be coordinate pairs, got array of shape {pts.shape}"
        )
    if not np.all(np.isfinite(pts)):
        raise InvalidInputError("location coordinates must be finite")
    pts = pts.copy()
    pts.flags.writeable = False
    return pts


def as_point(location) -> np.ndarray:
    """Coerce a single location to a read-only ``(2,)`` float array."""
    pt = _floats(location, "location").reshape(-1)
    if pt.shape != (2,):
        raise InvalidInputError(f"expected one coordinate pair, got shape {pt.shape}")
    if not np.all(np.isfinite(pt)):
        raise InvalidInputError("location coordinates must be finite")
    pt = pt.copy()
    pt.flags.writeable = False
    return pt


def _finite(value) -> bool:
    """Whether ``value`` is one finite real number; False, not numpy's
    TypeError, for a string or None, and False for a complex number or a
    sequence."""
    try:
        return np.ndim(value) == 0 and np.isrealobj(value) and bool(np.isfinite(value))
    except (TypeError, ValueError):
        return False


def _integer_at_least(value, least: int) -> bool:
    """Whether ``value`` is a Python or NumPy integer, not a bool, and ``>= least``."""
    return not isinstance(value, bool) and isinstance(value, (int, np.integer)) and value >= least


@dataclass(frozen=True)
class KernelSpec:
    """Isotropic squared-exponential covariance.

    Parameters
    ----------
    signal_variance : float
        Prior variance at any single point, in squared field units.
    lengthscale : float
        Correlation length in coordinate units.
    jitter : float, optional
        Baseline relative diagonal inflation applied to every Gram matrix
        before factorization (relative to the mean diagonal).  Only
        :func:`jittered_cholesky` escalates beyond it, on failure.
    """

    signal_variance: float
    lengthscale: float
    jitter: float = 0.0

    def __post_init__(self):
        if not (_finite(self.signal_variance) and self.signal_variance > 0):
            raise InvalidInputError("signal_variance must be finite and > 0")
        if not (_finite(self.lengthscale) and self.lengthscale > 0):
            raise InvalidInputError("lengthscale must be finite and > 0")
        if not (_finite(self.jitter) and self.jitter >= 0):
            raise InvalidInputError("jitter must be finite and >= 0")


@dataclass(frozen=True)
class MeanSpec:
    """Constant prior mean, in field units."""

    constant: float = 0.0

    def __post_init__(self):
        if not _finite(self.constant):
            raise InvalidInputError("mean constant must be finite")


@dataclass(frozen=True, eq=False)
class MeasurementLog:
    """Append-only record of sensing locations and the readings taken there.

    Parameters
    ----------
    locations : array-like, shape (k, 2)
    values : array-like, shape (k,)
        Readings in field units, one per location.
    noise_sd : float
        Standard deviation of the additive measurement noise.  Without
        noise, two different readings at one location contradict each
        other and are rejected; equal repeats are kept.
    """

    locations: np.ndarray
    values: np.ndarray
    noise_sd: float

    def __post_init__(self):
        pts = as_points(self.locations)
        vals = _floats(self.values, "measurement values").reshape(-1)
        if len(pts) != len(vals):
            raise InvalidInputError(
                f"{len(pts)} locations but {len(vals)} values in measurement log"
            )
        if not np.all(np.isfinite(vals)):
            raise InvalidInputError("measurement values must be finite")
        if not (_finite(self.noise_sd) and self.noise_sd >= 0):
            raise InvalidInputError("noise_sd must be finite and >= 0")
        if self.noise_sd == 0 and len(vals) > 1:
            # Sorting by coordinates puts the readings at one location side by side.
            order = np.lexsort(pts.T[::-1])
            p, v = pts[order], vals[order]
            clash = np.flatnonzero(np.all(p[1:] == p[:-1], axis=1) & (v[1:] != v[:-1]))
            if len(clash):
                i = clash[0]
                raise InvalidInputError(
                    f"noise-free readings {float(v[i])!r} and {float(v[i + 1])!r} at "
                    f"{tuple(p[i].tolist())} contradict each other"
                )
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "locations", pts)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "noise_sd", float(self.noise_sd))

    @classmethod
    def empty(cls, noise_sd: float) -> "MeasurementLog":
        return cls(np.empty((0, 2)), np.empty(0), noise_sd)

    def append(self, location, value: float) -> "MeasurementLog":
        """New log with one more (location, value) entry; self is unchanged."""
        pt = as_point(location)
        return MeasurementLog(
            np.vstack([self.locations, pt[None, :]]),
            np.append(self.values, float(value)),
            self.noise_sd,
        )

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True, eq=False)
class GaussianBelief:
    """Gaussian belief (mean vector and covariance) over a finite query set."""

    query: np.ndarray
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        query = as_points(self.query)
        mean = _floats(self.mean, "belief mean").reshape(-1)
        cov = _floats(self.cov, "belief covariance")
        n = len(query)
        if mean.shape != (n,) or cov.shape != (n, n):
            raise InvalidInputError(
                f"belief dimensions disagree: {n} query points, "
                f"mean {mean.shape}, cov {cov.shape}"
            )
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise InvalidInputError("belief mean and covariance must be finite")
        asym = float(np.max(np.abs(cov - cov.T))) if n else 0.0
        scale = float(np.max(np.abs(cov))) if n else 0.0
        if asym > 1e-10 * scale:
            raise InvalidInputError("belief covariance is not symmetric")
        mean = mean.copy()
        cov = cov.copy()
        mean.flags.writeable = False
        cov.flags.writeable = False
        object.__setattr__(self, "query", query)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    def __len__(self) -> int:
        return len(self.mean)

    def marginal_variances(self) -> np.ndarray:
        return np.diagonal(self.cov).copy()


def jittered_cholesky(matrix, base_jitter: float = 0.0):
    """Lower Cholesky factor of a symmetric PSD matrix, with jitter escalation.

    Factorizes ``matrix + r * scale * I`` where ``scale`` is the mean
    diagonal entry and ``r`` runs through ``base_jitter`` followed by the
    ladder ``1e-10, 1e-8, 1e-6`` (each floored by ``base_jitter``) until one
    attempt succeeds.  Each attempt is LAPACK ``dpotrf`` from scipy's
    extension (see :func:`_cholesky_in_place`), the call
    ``scipy.linalg.cholesky(lower=True)`` makes, so only the lower triangle
    is read; a non-finite entry anywhere raises ValueError.  ``matrix`` is
    left unchanged: it is copied once, the copy's strict upper triangle is
    made to mirror its lower one, and every rung factors that copy in place.

    Returns
    -------
    (L, r) : (ndarray, float)
        The lower-triangular factor and the relative jitter actually used.

    Raises
    ------
    NumericalDegeneracyError
        If every rung of the ladder fails; carries the last jitter tried.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    a = np.array(a, order="F")
    for j in range(1, len(a)):
        a[:j, j] = a[j, :j]
    return _cholesky_in_place(a, base_jitter)


def _cholesky_in_place(a: np.ndarray, base_jitter: float):
    """:func:`jittered_cholesky` of the square Fortran-ordered buffer ``a``,
    which must be finite and exactly symmetric (a kernel matrix is both) and
    which it overwrites with the factor; no rung copies it.

    Each rung calls ``_FLAPACK.dpotrf(a, lower=1, clean=0,
    overwrite_a=1)``, the double-precision LAPACK routine
    ``scipy.linalg.cholesky`` calls, which reads and writes only the lower
    triangle of the float64 buffer in place.  The strict upper triangle, a
    mirror of it, and the diagonal saved before the first rung restore the
    matrix after a failed rung; the upper triangle is zeroed once a rung
    succeeds.  Each rung factors the bits of ``a + r * scale * I``.  An
    empty ``a`` is returned as it is, with no LAPACK call.
    """
    n = len(a)
    if n == 0:
        return a, float(base_jitter)
    scale = float(np.mean(np.diagonal(a)))
    if not np.isfinite(scale) or scale <= 0.0:
        scale = 1.0
    diag = np.diagonal(a).copy()
    ladder = dict.fromkeys(
        (float(base_jitter), *(max(float(base_jitter), r) for r in JITTER_LADDER))
    )
    for rung, rel in enumerate(ladder):
        if rung:
            for j in range(n - 1):
                a[j + 1 :, j] = a[j, j + 1 :]
        if rel:
            np.fill_diagonal(a, diag + rel * scale)
        if _FLAPACK.dpotrf(a, lower=1, clean=0, overwrite_a=1)[1] == 0:
            for j in range(1, n):
                a[:j, j] = 0.0
            return a, rel
    raise NumericalDegeneracyError(
        f"covariance factorization failed up to relative jitter {rel:g}",
        jitter_attempted=rel,
    )


def _solve_lower(L: np.ndarray, B) -> np.ndarray:
    """``L^-1 B`` for a Fortran-ordered lower-triangular factor ``L`` (as
    ``dpotrf`` and :func:`_cholesky_in_place` leave it) and a vector or
    matrix ``B``: LAPACK ``dtrtrs``, the call and bits of
    ``scipy.linalg.solve_triangular(L, B, lower=True)``, without its
    finiteness check.  A zero-size ``B`` gives an empty array and no LAPACK
    call.  Raises LinAlgError on a zero pivot of ``L``.
    """
    if np.size(B) == 0:
        return np.empty(np.shape(B))
    x, info = _FLAPACK.dtrtrs(L, B, lower=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")
    return x


def kernel_matrix(spec: KernelSpec, X, Y) -> np.ndarray:
    """Cross-covariance matrix with entries ``k(x_i, y_j)``.

    ``X`` and ``Y`` are ``(n, 2)`` arrays of coordinate pairs (plain lists
    too) that the caller has already validated (for instance with
    :func:`as_points`); nothing is checked or copied here.

    The squared distances are ``(x_i - x_j)^2 + (y_i - y_j)^2``, one
    coordinate at a time from a column of ``X`` broadcast against ``Y``'s:
    the bits scipy's ``cdist(X, Y, "sqeuclidean")`` gives.  So when
    ``X`` and ``Y`` hold identical coordinates the result is exactly
    symmetric with diagonal ``spec.signal_variance``.

    The arithmetic runs in the output buffer, beside one temporary of at
    most ``_KERNEL_BLOCK`` rows: the squared distances are divided by
    ``-2 l^2``, exponentiated and scaled there, which rounds as
    ``sf^2 * exp(-d2 / (2 l^2))`` does.
    """
    X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    k = np.empty((len(X), len(Y)))
    tmp = np.empty((min(len(X), _KERNEL_BLOCK), len(Y)))
    for s in range(0, len(X), _KERNEL_BLOCK):
        block = X[s : s + _KERNEL_BLOCK]
        d2, dy2 = k[s : s + _KERNEL_BLOCK], tmp[: len(block)]
        np.subtract(block[:, :1], Y[:, 0], out=d2)
        d2 *= d2
        np.subtract(block[:, 1:], Y[:, 1], out=dy2)
        dy2 *= dy2
        d2 += dy2
    k /= -2.0 * spec.lengthscale**2
    np.exp(k, out=k)
    k *= spec.signal_variance
    return k


def posterior(mean: MeanSpec, kernel: KernelSpec, log: MeasurementLog, query) -> GaussianBelief:
    """Gaussian belief over ``query`` after conditioning on the log.

    With an empty log this is the prior ``(m(X), K(X, X))``; otherwise the
    usual conditioning of the joint Gaussian of readings and field values,
    solved via the Cholesky factor of the noisy Gram matrix; a reading with
    a degenerate pivot is skipped.  Raises InvalidInputError if ``query``
    is empty or malformed.
    """
    X = as_points(query)
    if len(X) == 0:
        raise InvalidInputError("query must contain at least one location")
    mu, _, cov = predictive_moments(mean, kernel, log, X)
    return GaussianBelief(X, mu, cov)


def predictive_moments(mean: MeanSpec, kernel: KernelSpec, log: MeasurementLog, points):
    """Posterior means ``(C,)``, variances ``(C,)`` and covariance ``(C, C)``
    of the field at ``points``, from one Gram factor and one triangular
    solve.  Variances below zero by at most ``1e-10`` of the prior variance
    are clamped to zero, larger negatives become NaN.
    """
    P = as_points(points)
    W, mu, var = _condition(mean, kernel, log.locations, log.values, log.noise_sd, P)
    return mu, _clamped(kernel, var), kernel_matrix(kernel, P, P) - W.T @ W


def _clamped(kernel: KernelSpec, var: np.ndarray) -> np.ndarray:
    """``var`` with round-off negatives set to 0 and larger ones to NaN."""
    return np.where(var < -1e-10 * kernel.signal_variance, np.nan, np.maximum(var, 0.0))


def _condition(mean: MeanSpec, kernel: KernelSpec, Y, y, noise_sd: float, P):
    """Condition the field at ``P`` on readings ``y`` at ``Y``, from scratch.

    Returns ``(W, mu, var)``: the rows ``W = L^-1 K(Y, P)`` of the Gram
    factor ``L`` and the raw (unclamped) means and variances at ``P``.  A
    Gram matrix that does not factor with every pivot above the
    threshold of ``_CarriedRows._push`` instead has the readings' rows
    appended in order (their kernel rows from one :func:`kernel_matrix`
    call), which skips the readings it should, and the means replayed
    from them by ``_CarriedRows._means``.  An empty log gives the prior,
    with no LAPACK call.
    """
    s2, sf2 = noise_sd**2, kernel.signal_variance
    if len(y) == 0:
        return np.empty((0, len(P))), mean.constant + np.zeros(len(P)), sf2 - np.zeros(len(P))
    G = kernel_matrix(kernel, Y, Y) + (s2 + kernel.jitter * (sf2 + s2)) * np.eye(len(y))
    L, info = _FLAPACK.dpotrf(G, lower=1)
    if info != 0 or np.any(np.diagonal(L) ** 2 <= JITTER_LADDER[0] * sf2):
        rows = _CarriedRows(kernel, np.vstack([P, Y]), len(y))
        for i, row in enumerate(kernel_matrix(kernel, Y, rows.P), len(P)):
            rows._push(i, row, s2, kernel.jitter)
        return rows.W[: rows.k, : len(P)], rows._means(mean.constant, y, len(P))[0][-1], rows.var[: len(P)]
    W = _solve_lower(L, kernel_matrix(kernel, Y, P))
    mu = mean.constant + _solve_lower(L, y - mean.constant) @ W
    return W, mu, sf2 - np.einsum("ij,ij->j", W, W)


class _CarriedRows:
    """Rows ``W = L^-1 K(Y, P)`` of the Gram factor of a growing log of
    readings at points of ``P``, and the variances ``var`` they leave at
    ``P``.  A reading appends one row (GPML Alg. 2.1 a row at a time):
    ``O(k |P|)`` for the ``k``-th reading, not ``O(k^3 + k^2 |P|)``.  The
    rows start as a copy of ``W0``, rows already appended that left
    ``var`` (by default no rows and the prior's variances); ``capacity``
    bounds the rows appended after them.
    """

    def __init__(self, kernel: KernelSpec, P, capacity: int, W0=(), var=None):
        self.kernel, self.P = kernel, P
        self.var = np.full(len(P), float(kernel.signal_variance)) if var is None else var
        self.k, self.pushed = len(W0), []
        self.W = np.empty((self.k + capacity, len(P)))
        self.W[: self.k] = np.reshape(W0, (self.k, len(P)))

    def _push(self, i: int, row: np.ndarray, s2: float, jitter: float):
        """Append the row of a reading at ``P[i]``, whose kernel row is
        ``row``, under relative jitter ``jitter``: with ``l = W[:k, i]``,
        ``d^2 = row[i] + s2 + jitter (sf^2 + s2) - l'l`` and
        ``w = (row - l'W[:k]) / d``, then ``var -= w^2``.  Where ``d^2``
        falls to ``JITTER_LADDER[0]`` of the prior variance or below, append
        nothing.  Either way ``(i, d)``, with None for ``d`` where no row was
        appended, goes to ``pushed`` for :meth:`_means`."""
        k, sf2 = self.k, self.kernel.signal_variance
        l = self.W[:k, i]
        d2 = row[i] + s2 + jitter * (sf2 + s2) - l @ l
        d = math.sqrt(d2) if d2 > JITTER_LADDER[0] * sf2 else None
        self.pushed.append((i, d))
        if d is not None:
            # Scale w by 1/d (_means divides by d), as _condition's matrix and
            # vector triangular solves round, so that the first reading gives
            # the bits of a fresh conditioning.
            w = (row - l @ self.W[:k]) * (1.0 / d)
            self.W[k] = w
            self.var -= w * w
            self.k = k + 1

    def _means(self, m: float, z, n: int):
        """Raw means at ``P[:n]`` under prior mean ``m``, given the readings
        ``z`` of the pushes in turn, the rows having started empty.

        Returns ``(means, after)``: row ``j`` of the ``(k + 1, n)`` array
        ``means`` is the mean given the first ``j`` appended rows, and
        ``after[s]`` the row that push ``s`` left.  Over the appended rows,
        ``a_j = (z_j - m - W[:j, i_j]' a[:j]) / d_j`` (``a = L^-1 (z - m)``
        by forward substitution), then ``np.add.accumulate`` sums ``[m;
        a_j W[j, :n]]`` down the rows in place, with the bits of a running
        ``mu += a_j W[j, :n]``.
        """
        j, a, after = 0, np.empty(self.k), []
        for (i, d), z_i in zip(self.pushed, z):
            if d is not None:
                a[j] = (z_i - m - self.W[:j, i] @ a[:j]) / d
                j += 1
            after.append(j)
        means = np.empty((j + 1, n))
        means[0] = m
        np.multiply(a[:j, None], self.W[:j, :n], out=means[1:])
        return np.add.accumulate(means, out=means), after


def _sorted_first(targets, points) -> np.ndarray:
    """``[targets; points]``, the targets sorted by their coordinates so that
    their rows, appended in turn, do not depend on the order they come in."""
    return np.vstack([targets[np.lexsort(targets.T[::-1])], points])


def _targets_after(kernel: KernelSpec, P, n: int, W0=(), var=None) -> _CarriedRows:
    """Rows that start from a log's rows ``W0`` over ``P`` and the variances
    ``var`` they left (by default no rows and the prior's variances), then
    append ``P[:n]``, the targets sorted by :func:`_sorted_first`, in turn
    as noise-free readings, their kernel rows from one :func:`kernel_matrix`
    call.  A target whose pivot is degenerate (a duplicate target; with zero
    noise, a target at a reading) adds no row.  ``var`` is updated in place.
    """
    rows = _CarriedRows(kernel, P, n, W0, var)
    for i, row in enumerate(kernel_matrix(kernel, P[:n], P)):
        rows._push(i, row, 0.0, 0.0)
    return rows


def _variance_pair(kernel: KernelSpec, log: MeasurementLog, targets, points):
    """Noise-free variances at ``points`` given the log, clamped as in
    :func:`predictive_moments`, and the part of each that knowing the
    targets' values as well would remove.

    The log is conditioned on once, from scratch; each target then appends
    a noise-free row after the log's, by :func:`_targets_after`.  The
    removed part sums the targets' rows (a degenerate target has none)
    rather than differencing two variances of the prior's size, so it stays
    accurate where it is tiny.  Arrays are taken as checked.
    """
    n = len(targets)
    P = _sorted_first(targets, points)
    W, _, var = _condition(MeanSpec(), kernel, log.locations, log.values, log.noise_sd, P)
    rows = _targets_after(kernel, P, n, W, var.copy())
    removed = rows.W[len(W) : rows.k, n:]
    return _clamped(kernel, var[n:]), np.einsum("ij,ij->j", removed, removed)


def sample_prior_field(mean: MeanSpec, kernel: KernelSpec, grid, seed: int) -> np.ndarray:
    """One draw of the prior field at ``grid``, deterministic given ``seed``.

    The kernel matrix is factored in its own buffer, as ``K.T``: it is
    exactly symmetric, and its transpose holds the same values in Fortran
    order.  The draw holds that one ``n x n`` matrix.
    """
    pts = as_points(grid)
    if len(pts) == 0:
        raise InvalidInputError("grid must contain at least one location")
    L, _ = _cholesky_in_place(kernel_matrix(kernel, pts, pts).T, kernel.jitter)
    rng = np.random.default_rng(seed)
    return mean.constant + L @ rng.standard_normal(len(pts))

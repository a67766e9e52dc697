"""Exact Gaussian-process conditioning over finite sets of planar locations.

The prior is a constant mean plus an isotropic squared-exponential
covariance.  All operations take explicit location sets and return dense
means and covariances.  Linear systems are solved through Cholesky
factorizations with an escalating relative diagonal jitter, never through
explicit inverses; a factorization that fails at the top of the jitter
ladder raises :class:`~senseplan.errors.NumericalDegeneracyError`.

Everything here is a pure function of its inputs and every container is
immutable after construction, so values can be shared freely across
threads.  Nothing is cached between calls: each conditioning builds and
factors its own Gram matrix, so callers that need several quantities from
one log ask :func:`predictive_moments` for all of them at once.  Its query
set is a prefix of its points, so one triangular solve serves both.

Location arrays are checked once, where they enter a public entry point
(:func:`posterior`, :func:`predictive_moments`, :func:`sample_prior_field`
and the constructors of :class:`MeasurementLog` and :class:`GaussianBelief`).
Code below that point, :func:`kernel_matrix` included, takes those
arrays as they are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cholesky, solve_triangular
from scipy.spatial.distance import cdist

from .errors import InvalidInputError, NumericalDegeneracyError

#: Relative diagonal inflations tried, in order, when a factorization fails.
JITTER_LADDER = (1e-10, 1e-8, 1e-6)


def as_points(locations) -> np.ndarray:
    """Coerce ``locations`` to a read-only ``(n, 2)`` float array.

    Accepts anything array-like holding coordinate pairs: a single pair, a
    list of pairs, or an existing ``(n, 2)`` array.  Non-finite coordinates
    are rejected.
    """
    pts = np.asarray(locations, dtype=float)
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
    pt = np.asarray(location, dtype=float).reshape(-1)
    if pt.shape != (2,):
        raise InvalidInputError(f"expected one coordinate pair, got shape {pt.shape}")
    if not np.all(np.isfinite(pt)):
        raise InvalidInputError("location coordinates must be finite")
    pt = pt.copy()
    pt.flags.writeable = False
    return pt


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
        before factorization (relative to the mean diagonal).  Escalation
        beyond this baseline happens automatically on failure.
    """

    signal_variance: float
    lengthscale: float
    jitter: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.signal_variance) and self.signal_variance > 0):
            raise InvalidInputError("signal_variance must be finite and > 0")
        if not (np.isfinite(self.lengthscale) and self.lengthscale > 0):
            raise InvalidInputError("lengthscale must be finite and > 0")
        if not (np.isfinite(self.jitter) and self.jitter >= 0):
            raise InvalidInputError("jitter must be finite and >= 0")


@dataclass(frozen=True)
class MeanSpec:
    """Constant prior mean, in field units."""

    constant: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.constant):
            raise InvalidInputError("mean constant must be finite")

    def at(self, locations) -> np.ndarray:
        """Mean vector over ``locations``."""
        return np.full(len(as_points(locations)), float(self.constant))


@dataclass(frozen=True, eq=False)
class MeasurementLog:
    """Append-only record of sensing locations and the readings taken there.

    Parameters
    ----------
    locations : array-like, shape (k, 2)
    values : array-like, shape (k,)
        Readings in field units, one per location.
    noise_sd : float
        Standard deviation of the additive measurement noise.
    """

    locations: np.ndarray
    values: np.ndarray
    noise_sd: float

    def __post_init__(self):
        pts = as_points(self.locations)
        vals = np.asarray(self.values, dtype=float).reshape(-1)
        if len(pts) != len(vals):
            raise InvalidInputError(
                f"{len(pts)} locations but {len(vals)} values in measurement log"
            )
        if not np.all(np.isfinite(vals)):
            raise InvalidInputError("measurement values must be finite")
        if not (np.isfinite(self.noise_sd) and self.noise_sd >= 0):
            raise InvalidInputError("noise_sd must be finite and >= 0")
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
        mean = np.asarray(self.mean, dtype=float).reshape(-1)
        cov = np.asarray(self.cov, dtype=float)
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
    attempt succeeds.

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
    n = a.shape[0]
    if n == 0:
        return np.zeros((0, 0)), float(base_jitter)
    scale = float(np.mean(np.diagonal(a)))
    if not np.isfinite(scale) or scale <= 0.0:
        scale = 1.0
    attempted = float(base_jitter)
    ladder = dict.fromkeys(
        (float(base_jitter), *(max(float(base_jitter), r) for r in JITTER_LADDER))
    )
    for rel in ladder:
        attempted = rel
        shifted = a if rel == 0.0 else a + (rel * scale) * np.eye(n)
        try:
            return cholesky(shifted, lower=True), rel
        except LinAlgError:
            continue
    raise NumericalDegeneracyError(
        f"covariance factorization failed up to relative jitter {attempted:g}",
        jitter_attempted=attempted,
    )


def _symmetrize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


def kernel_matrix(spec: KernelSpec, X, Y) -> np.ndarray:
    """Cross-covariance matrix with entries ``k(x_i, y_j)``.

    ``X`` and ``Y`` are ``(n, 2)`` float arrays that the caller has already
    validated (for instance with :func:`as_points`); nothing is checked or
    copied here.

    When ``X`` and ``Y`` hold identical coordinates the result is exactly
    symmetric with diagonal ``spec.signal_variance``: ``cdist`` computes
    ``(a - b)**2`` and ``(b - a)**2`` alike and gives 0 on the diagonal.
    """
    d2 = cdist(X, Y, "sqeuclidean")
    return spec.signal_variance * np.exp(-d2 / (2.0 * spec.lengthscale**2))


def _noisy_gram_factor(kernel: KernelSpec, log: MeasurementLog) -> np.ndarray:
    """Cholesky factor of ``K(Y, Y) + noise_sd^2 I`` under the jitter policy."""
    G = kernel_matrix(kernel, log.locations, log.locations) + log.noise_sd**2 * np.eye(len(log))
    L, _ = jittered_cholesky(G, base_jitter=kernel.jitter)
    return L


def posterior(mean: MeanSpec, kernel: KernelSpec, log: MeasurementLog, query) -> GaussianBelief:
    """Gaussian belief over ``query`` after conditioning on the log.

    With an empty log this is the prior ``(m(X), K(X, X))``; otherwise the
    usual conditioning of the joint Gaussian of readings and field values,
    solved via the (jittered) Cholesky factor of the noisy Gram matrix.

    Raises
    ------
    InvalidInputError
        If ``query`` is empty or malformed.
    NumericalDegeneracyError
        If the Gram matrix cannot be factorized even after jitter escalation.
    """
    X = as_points(query)
    if len(X) == 0:
        raise InvalidInputError("query must contain at least one location")
    mu, _, cov = predictive_moments(mean, kernel, log, X, len(X))
    return GaussianBelief(X, mu, _symmetrize(cov))


def predictive_moments(mean: MeanSpec, kernel: KernelSpec, log: MeasurementLog, points, n_query: int):
    """Posterior means ``(C,)`` and variances ``(C,)`` of the field at
    ``points``, and the posterior cross-covariance ``(n_query, C)`` of
    their first ``n_query`` rows with all of them.

    One Gram factor and one triangular solve serve every point; the query
    block reuses the solve's first ``n_query`` columns.  Variances below
    zero by at most ``1e-10`` of the prior variance are clamped to zero,
    larger negatives become NaN.
    """
    P = as_points(points)
    if not 0 <= n_query <= len(P):
        raise InvalidInputError(f"n_query must be in [0, {len(P)}], got {n_query}")
    mu = np.full(len(P), float(mean.constant))
    var = np.full(len(P), kernel.signal_variance)
    cross = kernel_matrix(kernel, P[:n_query], P)
    if len(log):
        L = _noisy_gram_factor(kernel, log)
        W = solve_triangular(L, kernel_matrix(kernel, log.locations, P), lower=True)
        mu += solve_triangular(L, log.values - mean.constant, lower=True) @ W
        var -= np.einsum("ij,ij->j", W, W)
        cross -= W[:, :n_query].T @ W
    var = np.where(var < -1e-10 * kernel.signal_variance, np.nan, np.maximum(var, 0.0))
    return mu, var, cross


def sample_prior_field(mean: MeanSpec, kernel: KernelSpec, grid, seed: int) -> np.ndarray:
    """One draw of the prior field at ``grid``, deterministic given ``seed``."""
    pts = as_points(grid)
    if len(pts) == 0:
        raise InvalidInputError("grid must contain at least one location")
    K = kernel_matrix(kernel, pts, pts)
    L, _ = jittered_cholesky(K, base_jitter=kernel.jitter)
    rng = np.random.default_rng(seed)
    return mean.constant + L @ rng.standard_normal(len(pts))

"""Information value of a prospective measurement.

A candidate sensing location is scored by the expected discrimination
gain (EDG): the expectation, over the predictive distribution of the
unseen reading, of the Kullback-Leibler divergence from the
post-measurement belief over the targets to the current belief.

Three evaluation routes are provided and cross-checked in the tests:

``edg_exact``
    Closed form for one candidate; the reference for the planner's batched
    scores.  The post-measurement covariance is independent of the reading
    and the KL divergence quadratic in it, so the expectation is a
    covariance-only ("structural") term plus the expected mean shift.
``edg_quadrature``
    Direct Gauss-Hermite quadrature of the defining integral; the
    integrand is a quadratic polynomial in the reading, so a handful of
    nodes already integrates it exactly.  This route is the independent
    oracle for the closed form.
``edg_unnormalized_form``
    A closed-form variant that weights the integrand by an unnormalized
    Gaussian (extra sqrt(pi) and spread-cubed factors) and omits the
    measurement-noise term from the predictive spread.  It does not agree
    with the exact expectation; it is retained so score tables can report
    the discrepancy and rank disagreements explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from .errors import InvalidInputError
from .gp import (
    GaussianBelief,
    KernelSpec,
    MeanSpec,
    MeasurementLog,
    _noisy_gram_factor,
    jittered_cholesky,
    kernel_matrix,
    posterior,
    predictive_measurement,
)


@dataclass(frozen=True)
class EDGResult:
    """Expected discrimination gain of a candidate, split into its two parts.

    ``value = structural_term + mean_shift_term``; the structural term
    collects the covariance-only part of the KL divergence (trace and
    log-determinant), the mean-shift term is the expectation of the
    quadratic form in the posterior-mean update.
    """

    value: float
    structural_term: float
    mean_shift_term: float


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Hermite rule used by the quadrature oracle."""

    node_count: int = 64

    def __post_init__(self):
        if int(self.node_count) < 1:
            raise InvalidInputError("node_count must be >= 1")
        object.__setattr__(self, "node_count", int(self.node_count))

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Physicists' nodes and weights; the raw weights sum to sqrt(pi)."""
        return np.polynomial.hermite.hermgauss(self.node_count)


@dataclass(frozen=True, eq=False)
class UnnormalizedFormTerms:
    """Intermediate matrices of the unnormalized closed-form variant.

    ``m1``/``m2`` are the target-to-log gain matrices built from the first
    k-1 and all k sensing locations, ``v1``/``v2`` the corresponding
    centered reading vectors (the unseen reading enters through its
    predictive mean), and ``d`` is the last diagonal component of
    ``m2.T @ inv(cov_prev) @ m2``.
    """

    m1: np.ndarray
    m2: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    d: float


@dataclass(frozen=True, eq=False)
class UnnormalizedFormResult:
    """Value of the unnormalized closed-form variant, with its terms.

    ``fallback`` is set when the log was empty, in which case the variant
    is undefined and the exact value is returned instead (terms = None).
    """

    value: float
    terms: Optional[UnnormalizedFormTerms]
    fallback: bool


def kl_gaussian(post: GaussianBelief, pre: GaussianBelief) -> float:
    """KL divergence D(post || pre) between Gaussian beliefs on one query set.

    Evaluates ``0.5 * (tr(Q^-1 P) - ln(det P / det Q) - n + dm' Q^-1 dm)``
    with ``P = post.cov``, ``Q = pre.cov`` and ``dm`` the mean difference,
    via Cholesky factors under the shared jitter policy.

    Raises
    ------
    InvalidInputError
        If the two beliefs are not over the identical query list.
    NumericalDegeneracyError
        If a covariance cannot be factorized after jitter escalation.
    """
    if not np.array_equal(post.query, pre.query):
        raise InvalidInputError("beliefs must be over the same query locations")
    n = len(pre)
    Lq, _ = jittered_cholesky(pre.cov)
    Lp, _ = jittered_cholesky(post.cov)
    trace_term = float(np.trace(cho_solve((Lq, True), post.cov)))
    logdet_q = 2.0 * float(np.sum(np.log(np.diagonal(Lq))))
    logdet_p = 2.0 * float(np.sum(np.log(np.diagonal(Lp))))
    dm = post.mean - pre.mean
    w = solve_triangular(Lq, dm, lower=True)
    return 0.5 * (trace_term - (logdet_p - logdet_q) - n + float(w @ w))


def _structural_term(cov_prev: np.ndarray, cov_next: np.ndarray, n: int) -> tuple[float, np.ndarray]:
    """Covariance-only KL part and the Cholesky factor of ``cov_prev``."""
    Lp, _ = jittered_cholesky(cov_prev)
    Ln, _ = jittered_cholesky(cov_next)
    trace_term = float(np.trace(cho_solve((Lp, True), cov_next)))
    logdet_prev = 2.0 * float(np.sum(np.log(np.diagonal(Lp))))
    logdet_next = 2.0 * float(np.sum(np.log(np.diagonal(Ln))))
    return 0.5 * (trace_term - (logdet_next - logdet_prev) - n), Lp


def edg_exact(
    mean: MeanSpec,
    kernel: KernelSpec,
    log: MeasurementLog,
    candidate,
    targets,
) -> EDGResult:
    """Expected discrimination gain of measuring at ``candidate``, closed form.

    The post-measurement covariance over the targets is independent of the
    reading, and the posterior mean is affine in it, so the expected KL
    divergence is the structural term plus
    ``0.5 * (a' cov_prev^-1 a) * var_z`` where ``a`` is the gain vector of
    the mean update and ``var_z`` the predictive variance of the reading
    (measurement noise included).
    """
    prev = posterior(mean, kernel, log, targets)
    pts = prev.query
    mu_z, var_z = predictive_measurement(mean, kernel, log, candidate, include_noise=True)
    at_mean = posterior(mean, kernel, log.append(candidate, mu_z), pts)
    shifted = posterior(mean, kernel, log.append(candidate, mu_z + 1.0), pts)
    gain = shifted.mean - at_mean.mean
    structural, Lp = _structural_term(prev.cov, at_mean.cov, len(pts))
    w = solve_triangular(Lp, gain, lower=True)
    mean_shift = 0.5 * float(w @ w) * var_z
    return EDGResult(structural + mean_shift, structural, mean_shift)


def edg_quadrature(
    mean: MeanSpec,
    kernel: KernelSpec,
    log: MeasurementLog,
    candidate,
    targets,
    quad: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Expected discrimination gain by Gauss-Hermite quadrature over the reading.

    Integrates ``KL(post-belief(z) || pre-belief)`` against the predictive
    density of the reading using the change of variables
    ``z = mu_z + sqrt(2 var_z) t``.  Deterministic; serves as the
    independent oracle for :func:`edg_exact`.
    """
    prev = posterior(mean, kernel, log, targets)
    pts = prev.query
    mu_z, var_z = predictive_measurement(mean, kernel, log, candidate, include_noise=True)
    t, w = quad.nodes()
    scale = math.sqrt(2.0 * var_z)
    total = 0.0
    for ti, wi in zip(t, w):
        z = mu_z + scale * ti
        post = posterior(mean, kernel, log.append(candidate, z), pts)
        total += wi * kl_gaussian(post, prev)
    return total / math.sqrt(math.pi)


def edg_unnormalized_form(
    mean: MeanSpec,
    kernel: KernelSpec,
    log: MeasurementLog,
    candidate,
    targets,
) -> UnnormalizedFormResult:
    """Closed-form EDG variant with an unnormalized Gaussian reading weight.

    Evaluates, literally,

        0.25 * d * s^3 * sqrt(pi)
        + 0.5 * s * sqrt(pi) * (trace and log-det terms + quadratic terms)

    where ``s`` is the noise-free predictive variance of the field value at
    the candidate.  The sqrt(pi) and cubed-spread prefactors mean this is
    *not* an expectation under the normalized predictive density, and its
    value differs from :func:`edg_exact`; both are reported side by side by
    the score command.  With an empty log the variant's matrices are empty,
    so the exact value is returned with ``fallback=True``.
    """
    if len(log) == 0:
        exact = edg_exact(mean, kernel, log, candidate, targets)
        return UnnormalizedFormResult(exact.value, None, fallback=True)

    prev = posterior(mean, kernel, log, targets)
    pts, cov_prev = prev.query, prev.cov
    mu_z, spread = predictive_measurement(mean, kernel, log, candidate, include_noise=False)
    next_log = log.append(candidate, mu_z)
    weights = lambda lg: cho_solve(  # noqa: E731
        (_noisy_gram_factor(kernel, lg), True), kernel_matrix(kernel, pts, lg.locations).T
    ).T
    m1, m2 = weights(log), weights(next_log)

    v1 = log.values - mean.constant
    v2 = np.append(v1, mu_z - mean.constant)

    cov_next = posterior(mean, kernel, next_log, pts).cov
    structural_sum, Lp = _structural_term(cov_prev, cov_next, len(pts))

    solve_prev = lambda b: cho_solve((Lp, True), b)  # noqa: E731
    m2t_sinv_m2 = m2.T @ solve_prev(m2)
    d = float(m2t_sinv_m2[-1, -1])
    quad1 = float(v1 @ (m1.T @ solve_prev(m1 @ v1 - 2.0 * (m2 @ v2))))
    quad2 = float(v2 @ (m2t_sinv_m2 @ v2))

    bracket = 2.0 * structural_sum + quad1 + quad2
    value = 0.25 * d * spread**3 * math.sqrt(math.pi) + 0.5 * spread * math.sqrt(math.pi) * bracket
    terms = UnnormalizedFormTerms(m1=m1, m2=m2, v1=v1, v2=v2, d=d)
    return UnnormalizedFormResult(value, terms, fallback=False)

"""Information value of a prospective measurement.

A candidate sensing location is scored by the expected discrimination
gain (EDG): the expectation, over the predictive distribution of the
unseen reading, of the Kullback-Leibler divergence from the
post-measurement belief over the targets to the current belief.  For a
Gaussian belief it is the reading's mutual information with the targets
(Lindley 1956), ``-0.5 * log1p(-rho)`` with ``rho = (v - u) / (v +
noise_sd^2)`` the share of the reading variance that the targets
explain: ``v`` is the noise-free variance at the candidate given the log,
and ``u`` the variance there once the targets' values are known as well
(the conditional-variance form of Krause, Singh & Guestrin 2008).  This
module owns that one closed form; the planner and :func:`edg_exact` both
evaluate it.  The routes, cross-checked in the tests:

``edg_exact``
    The closed form for one candidate, split into the mean-shift term
    ``0.5 * rho`` and the covariance-only ("structural") rest.
``edg_quadrature``
    Gauss-Hermite quadrature of the defining integral from the parts of
    :func:`kl_gaussian`; exact with a few nodes, as the integrand is
    quadratic in the reading.  The independent oracle for the closed form.
``edg_unnormalized_form``
    A closed-form variant that weights the integrand by an unnormalized
    Gaussian (extra sqrt(pi) and spread-cubed factors) and omits the
    measurement-noise term from the predictive spread.  Its quadratic terms
    cancel and its gain term is ``rho / (s + noise_sd^2)``, so it is
    ``sqrt(pi) * s * (structural + 0.25 * s^2 * rho / (s + noise_sd^2))``,
    ``s`` the noise-free variance at the candidate; not the exact expectation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalDegeneracyError
from .gp import (
    JITTER_LADDER,
    GaussianBelief,
    KernelSpec,
    MeanSpec,
    MeasurementLog,
    _solve_lower,
    _variance_pair,
    as_point,
    as_points,
    jittered_cholesky,
    predictive_moments,
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
class UnnormalizedFormResult:
    """Value of the unnormalized closed-form variant,
    ``sqrt(pi) * s * (structural_term + 0.25 * s^2 * rho / (s + noise_sd^2))``
    in :func:`edg_exact`'s terms (see :func:`edg_unnormalized_form`).

    ``fallback`` is set when the log was empty, in which case the variant
    is undefined and the exact value is returned instead.
    """

    value: float
    fallback: bool


def kl_gaussian(post: GaussianBelief, pre: GaussianBelief) -> float:
    """KL divergence D(post || pre) between Gaussian beliefs on one query set.

    ``0.5 * (sum(lam - log1p(lam)) + dm' Q^-1 dm)`` with ``Q = pre.cov``,
    ``dm`` the mean difference and ``lam`` the eigenvalues of
    ``L^-1 (P - Q) L^-T``, ``P = post.cov`` and ``L`` the jittered factor of
    ``Q``: the trace/log-det form per eigenvalue, with ``Q``'s jitter added
    to ``P`` too, so it does not cancel.  ``lam`` is clipped at -1, so a
    ``post`` singular where ``pre`` is not gives ``+inf``.

    Raises
    ------
    InvalidInputError
        If the two beliefs are not over the identical query list.
    NumericalDegeneracyError
        If ``pre.cov`` cannot be factorized after jitter escalation.
    """
    if not np.array_equal(post.query, pre.query):
        raise InvalidInputError("beliefs must be over the same query locations")
    L, spread = _covariance_part(pre.cov, post.cov - pre.cov)
    w = _solve_lower(L, post.mean - pre.mean)
    return spread + 0.5 * float(w @ w)


def _covariance_part(Q: np.ndarray, delta: np.ndarray) -> tuple[np.ndarray, float]:
    """The jittered factor ``L`` of ``Q`` and the covariance part ``0.5 *
    sum(lam - log1p(lam))`` of the KL divergence to ``Q`` from a covariance
    ``Q + delta`` (see :func:`kl_gaussian`)."""
    L, _ = jittered_cholesky(Q)
    half = _solve_lower(L, delta)
    lam = np.maximum(np.linalg.eigvalsh(_solve_lower(L, half.T)), -1.0)
    with np.errstate(divide="ignore"):
        return L, 0.5 * float(np.sum(lam - np.log1p(lam)))


def _explained_share(kernel: KernelSpec, noise_sd: float, var, explained) -> np.ndarray:
    """Share ``rho = (v - u) / (v + noise_sd^2)`` of each reading's variance
    that the targets explain.

    ``var`` holds the noise-free variances ``v`` at the candidates given the
    log, NaN where degenerate, and ``explained`` the part ``v - u`` that
    knowing the targets' values as well would remove, ``u`` the variance
    given both.  ``v + noise_sd^2`` is floored at ``JITTER_LADDER[0]`` of the
    prior variance and ``v - u`` clipped to ``[0, v + noise_sd^2 - floor]``,
    so noise-free readings score finite.  NaN marks a degenerate candidate.
    """
    floor = JITTER_LADDER[0] * kernel.signal_variance
    v = np.maximum(var + noise_sd**2, floor)
    return np.minimum(np.maximum(explained, 0.0), v - floor) / v


def _checked(candidate, targets):
    """``candidate`` and ``targets`` as checked arrays; the targets must be
    nonempty."""
    pts = as_points(targets)
    if len(pts) == 0:
        raise InvalidInputError("targets must contain at least one location")
    return as_point(candidate), pts


def _exact(kernel: KernelSpec, log: MeasurementLog, candidate, targets) -> tuple[float, EDGResult]:
    """The noise-free variance of the reading at ``candidate`` and its
    :class:`EDGResult` (see :func:`edg_exact`)."""
    cand, pts = _checked(candidate, targets)
    var, explained = _variance_pair(kernel, log, pts, cand[None, :])
    share = float(_explained_share(kernel, log.noise_sd, var, explained)[0])
    if math.isnan(share):
        raise NumericalDegeneracyError("predictive variance is negative beyond round-off")
    value = float(-0.5 * np.log1p(-share))
    return float(var[0]), EDGResult(value, value - 0.5 * share, 0.5 * share)


def edg_exact(kernel: KernelSpec, log: MeasurementLog, candidate, targets) -> EDGResult:
    """Expected discrimination gain of measuring at ``candidate``, closed form.

    The one-candidate case of the planner's scorer, from one conditioning
    on the log and the targets.  It depends on covariances alone, so it takes
    no prior mean and reads no logged value.  Raises InvalidInputError on
    empty targets and NumericalDegeneracyError on a degenerate candidate.
    """
    return _exact(kernel, log, candidate, targets)[1]


def edg_quadrature(mean: MeanSpec, kernel: KernelSpec, log: MeasurementLog, candidate, targets) -> float:
    """Expected discrimination gain by Gauss-Hermite quadrature over the reading.

    Integrates ``KL(post-belief(z) || pre-belief)`` against the predictive
    density of the reading, ``z = mu_z + sqrt(2 var_z) t``, over the 64
    nodes ``t`` of :func:`_hermite_rule`.  One conditioning gives both
    beliefs: with ``d^2`` the reading's Cholesky pivot and ``g`` its gain
    on the targets, the post covariance ``Q - d^2 g g'`` does not
    depend on ``z`` and the post mean moves by ``g (z - mu_z)``, so the
    covariance part of :func:`kl_gaussian` is computed once and each node
    adds its mean part.  A pivot at or below ``JITTER_LADDER[0]`` of the
    prior variance (a noise-free repeat) adds nothing and reads 0; a
    noise-free reading at a target with variance above that reads ``inf``.
    Deterministic; serves as the independent oracle for :func:`edg_exact`.
    Raises InvalidInputError on empty targets and NumericalDegeneracyError
    on a degenerate candidate.
    """
    cand, pts = _checked(candidate, targets)
    n = len(pts)
    mu, var, cov = predictive_moments(mean, kernel, log, np.vstack([pts, cand]))
    if math.isnan(var[n]):
        raise NumericalDegeneracyError("predictive variance is negative beyond round-off")
    s2, sf2 = log.noise_sd**2, kernel.signal_variance
    if log.noise_sd == 0 and var[n] > JITTER_LADDER[0] * sf2 and np.all(pts == cand, axis=1).any():
        return math.inf
    d2 = var[n] + s2 + kernel.jitter * (sf2 + s2)
    if d2 <= JITTER_LADDER[0] * sf2:
        return 0.0
    g = cov[:n, n] / d2
    L, spread = _covariance_part(cov[:n, :n], -d2 * np.outer(g, g))
    u = _solve_lower(L, g)
    t, w = _hermite_rule()
    return float(w @ (spread + (var[n] + s2) * t**2 * (u @ u))) / math.sqrt(math.pi)


@functools.cache
def _hermite_rule() -> tuple[np.ndarray, np.ndarray]:
    """The oracle's 64-node Gauss-Hermite rule, read-only: the physicists'
    nodes and weights, the raw weights summing to sqrt(pi).  Built on first
    use, so importing the package does not load ``numpy.polynomial``."""
    rule = np.polynomial.hermite.hermgauss(64)
    for part in rule:
        part.flags.writeable = False
    return rule


def edg_unnormalized_form(kernel: KernelSpec, log: MeasurementLog, candidate, targets) -> UnnormalizedFormResult:
    """Closed-form EDG variant with an unnormalized Gaussian reading weight.

    Literally ``sqrt(pi) * (0.25 * d * s^3 + 0.5 * s * (2 * structural +
    quad1 + quad2))``, ``s`` the noise-free predictive variance at the
    candidate.  The unseen reading enters at its predictive mean, which
    leaves the target mean shift ``dm`` in place, so ``quad1 = -dm' P^-1 dm``
    and ``quad2 = +dm' P^-1 dm`` cancel (``P`` the target covariance); and
    ``d = g' P^-1 g / (s + noise_sd^2)^2 = rho / (s + noise_sd^2)``, ``g``
    the reading's covariance with the targets and ``rho`` the explained
    share.  So the value is :func:`_unnormalized` of :func:`edg_exact`'s
    one conditioning.  It is *not* an expectation under the normalized
    predictive density; the score command reports it beside
    :func:`edg_exact`.  With an empty log the variant is undefined, and the
    exact value is returned with ``fallback=True``.
    """
    s, exact = _exact(kernel, log, candidate, targets)
    if len(log) == 0:
        return UnnormalizedFormResult(exact.value, fallback=True)
    value = _unnormalized(kernel, log.noise_sd, s, 2.0 * exact.mean_shift_term, exact.value)
    return UnnormalizedFormResult(float(value), fallback=False)


def _unnormalized(kernel: KernelSpec, noise_sd: float, s, rho, value):
    """``sqrt(pi) * s * (value - 0.5 * rho + 0.25 * s^2 * rho / v)`` of the
    noise-free variances ``s``, explained shares ``rho`` and exact gains
    ``value``, ``v = s + noise_sd^2`` floored as in the share."""
    v = np.maximum(s + noise_sd**2, JITTER_LADDER[0] * kernel.signal_variance)
    return math.sqrt(math.pi) * s * ((value - 0.5 * rho) + 0.25 * s**2 * rho / v)

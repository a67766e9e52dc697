"""Information value of a prospective measurement.

A candidate sensing location is scored by the expected discrimination
gain (EDG): the expectation, over the predictive distribution of the
unseen reading, of the Kullback-Leibler divergence from the
post-measurement belief over the targets to the current belief.  For a
Gaussian belief it is the reading's mutual information with the targets
(Lindley 1956), ``-0.5 * log1p(-rho)`` with ``rho = g' S^-1 g / v`` the
share of the reading variance ``v`` that the targets explain.  This
module owns that one closed form; the planner and :func:`edg_exact`
both evaluate it.  The routes, cross-checked in the tests:

``edg_exact``
    The closed form for one candidate, split into the mean-shift term
    ``0.5 * rho`` and the covariance-only ("structural") rest.
``edg_quadrature``
    Gauss-Hermite quadrature of the defining integral, through
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

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .errors import InvalidInputError, NumericalDegeneracyError
from .gp import (
    JITTER_LADDER,
    GaussianBelief,
    KernelSpec,
    MeanSpec,
    MeasurementLog,
    _symmetrize,
    as_point,
    as_points,
    jittered_cholesky,
    posterior,
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
    L, _ = jittered_cholesky(pre.cov)
    half = solve_triangular(L, post.cov - pre.cov, lower=True)
    lam = np.maximum(np.linalg.eigvalsh(solve_triangular(L, half.T, lower=True)), -1.0)
    w = solve_triangular(L, post.mean - pre.mean, lower=True)
    with np.errstate(divide="ignore"):
        return 0.5 * (float(np.sum(lam - np.log1p(lam))) + float(w @ w))


def _explained_share(kernel: KernelSpec, noise_sd: float, var, cross) -> np.ndarray:
    """Share ``g' S^-1 g / v`` of each reading's variance explained by the targets.

    ``var`` and ``cross`` are the predictive moments of the targets and then
    the candidates, queried against the targets: ``S`` is the target block
    of ``cross``, ``g`` a candidate's column and ``v`` its reading variance.
    ``v`` and ``v - g' S^-1 g`` are floored at ``JITTER_LADDER[0]`` of the
    prior variance, so noise-free readings score finite.  NaN marks a
    degenerate candidate; an ``S`` that cannot be factorized raises
    :class:`~senseplan.errors.NumericalDegeneracyError`.
    """
    n = len(cross)
    L, _ = jittered_cholesky(cross[:, :n])
    floor = JITTER_LADDER[0] * kernel.signal_variance
    v = np.maximum(var[n:] + noise_sd**2, floor)
    explained = np.minimum(np.sum(solve_triangular(L, cross[:, n:], lower=True) ** 2, axis=0), v - floor)
    return explained / v


def _conditioned(mean: MeanSpec, kernel: KernelSpec, log: MeasurementLog, candidate, targets):
    """What one conditioning of ``log`` over ``[targets; candidate]`` gives
    the EDG routes: the current target belief, the predictive mean and
    noise-free variance of the reading at ``candidate``, and its closed-form
    :class:`EDGResult`.

    Raises InvalidInputError on empty targets and NumericalDegeneracyError
    on a degenerate candidate.
    """
    pts = as_points(targets)
    if len(pts) == 0:
        raise InvalidInputError("targets must contain at least one location")
    n = len(pts)
    mu, var, cross = predictive_moments(mean, kernel, log, np.vstack([pts, as_point(candidate)]), n)
    share = float(_explained_share(kernel, log.noise_sd, var, cross)[0])
    if math.isnan(share):
        raise NumericalDegeneracyError("predictive variance is negative beyond round-off")
    value = float(-0.5 * np.log1p(-share))
    prev = GaussianBelief(pts, mu[:n], _symmetrize(cross[:, :n]))
    return prev, float(mu[n]), float(var[n]), EDGResult(value, value - 0.5 * share, 0.5 * share)


def edg_exact(
    mean: MeanSpec,
    kernel: KernelSpec,
    log: MeasurementLog,
    candidate,
    targets,
) -> EDGResult:
    """Expected discrimination gain of measuring at ``candidate``, closed form.

    The one-candidate case of the planner's scorer, from one conditioning
    over targets and candidate.  Raises InvalidInputError on empty targets
    and NumericalDegeneracyError on a degenerate candidate.
    """
    return _conditioned(mean, kernel, log, candidate, targets)[-1]


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
    ``z = mu_z + sqrt(2 var_z) t``.  The current belief and the reading's
    moments come from one conditioning; each node conditions afresh.
    Deterministic; serves as the independent oracle for :func:`edg_exact`.
    """
    prev, mu_z, var_z, _ = _conditioned(mean, kernel, log, candidate, targets)
    t, w = quad.nodes()
    scale = math.sqrt(2.0 * (var_z + log.noise_sd**2))
    total = 0.0
    for ti, wi in zip(t, w):
        z = mu_z + scale * ti
        post = posterior(mean, kernel, log.append(candidate, z), prev.query)
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

    Literally ``sqrt(pi) * (0.25 * d * s^3 + 0.5 * s * (2 * structural +
    quad1 + quad2))``, ``s`` the noise-free predictive variance at the
    candidate.  The unseen reading enters at its predictive mean, which
    leaves the target mean shift ``dm`` in place, so ``quad1 = -dm' P^-1 dm``
    and ``quad2 = +dm' P^-1 dm`` cancel (``P`` the target covariance); and
    ``d = g' P^-1 g / (s + noise_sd^2)^2 = rho / (s + noise_sd^2)``, ``g``
    the reading's covariance with the targets and ``rho`` the explained
    share.  So the value is ``sqrt(pi) * s * (structural_term + 0.25 * s^2
    * rho / (s + noise_sd^2))`` from :func:`edg_exact`'s one conditioning,
    the reading variance floored as in the share.  It is *not* an
    expectation under the normalized predictive density; the score command
    reports it beside :func:`edg_exact`.  With an empty log the variant is
    undefined, and the exact value is returned with ``fallback=True``.
    """
    _, _, s, exact = _conditioned(mean, kernel, log, candidate, targets)
    if len(log) == 0:
        return UnnormalizedFormResult(exact.value, fallback=True)
    rho = 2.0 * exact.mean_shift_term
    v = max(s + log.noise_sd**2, JITTER_LADDER[0] * kernel.signal_variance)
    value = math.sqrt(math.pi) * s * (exact.structural_term + 0.25 * s**2 * rho / v)
    return UnnormalizedFormResult(value, fallback=False)

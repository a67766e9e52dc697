"""Expected discrimination gain at 40 significant digits, for the tests.

:func:`edg_reference` takes the package's float inputs and evaluates the
defining expected KL divergence in mpmath, so it shares none of the
package's round-off.  For a Gaussian belief the posterior covariance does
not depend on the readings and the posterior mean is affine in them, so

    EDG = 0.5 * (tr(Q^-1 P) - ln(det P / det Q) - n) + 0.5 * var_z * a' Q^-1 a

with ``Q`` and ``P`` the target covariances before and after a reading at
the candidate, ``a`` the gain of that reading on the target means and
``var_z`` its predictive variance, noise included.  Every matrix is built
from scratch by dense conditioning on the log; nothing uses the
mutual-information identity the package's closed form rests on.

:func:`unnormalized_reference` evaluates the unnormalized EDG variant the
long way, in float: two gain matrices from their own Gram factors and the
quadratic terms against a factor of the current target covariance, none
of which the package's short form computes.
"""

import math

import numpy as np
from mpmath import mp
from scipy.linalg import cho_solve

from senseplan import edg_exact, posterior
from senseplan.gp import jittered_cholesky

DPS = 40


def _kernel(kernel, X, Y):
    s2 = mp.mpf(kernel.signal_variance)
    two_l2 = 2 * mp.mpf(kernel.lengthscale) ** 2
    return mp.matrix(
        [
            [s2 * mp.exp(-((mp.mpf(x[0]) - mp.mpf(y[0])) ** 2 + (mp.mpf(x[1]) - mp.mpf(y[1])) ** 2) / two_l2) for y in Y]
            for x in X
        ]
    )


def _condition(kernel, noise_sd, locations, query):
    """Posterior covariance over ``query`` after readings at ``locations``,
    and the ``(len(query), len(locations))`` gain matrix of the readings on
    the posterior mean."""
    cov = _kernel(kernel, query, query)
    if not locations:
        return cov, None
    gram = _kernel(kernel, locations, locations) + mp.mpf(noise_sd) ** 2 * mp.eye(len(locations))
    cross = _kernel(kernel, query, locations)
    gain = cross * gram**-1
    return cov - gain * cross.T, gain


def edg_reference(kernel, log, candidate, targets) -> float:
    """Expected KL gain of a reading at ``candidate`` about ``targets``,
    given the sensing locations and noise of ``log``, evaluated at
    :data:`DPS` digits and rounded to float at the end."""
    with mp.workdps(DPS):
        noise_sd = float(log.noise_sd)
        logged = [tuple(map(float, pt)) for pt in log.locations]
        cand = tuple(map(float, candidate))
        pts = [tuple(map(float, pt)) for pt in targets]
        prev, _ = _condition(kernel, noise_sd, logged, pts)
        nxt, gain = _condition(kernel, noise_sd, logged + [cand], pts)
        reading, _ = _condition(kernel, noise_sd, logged, [cand])
        var_z = reading[0, 0] + mp.mpf(noise_sd) ** 2
        a = gain.column(len(logged))
        prev_inv = prev**-1
        n = len(pts)
        trace = sum((prev_inv * nxt)[i, i] for i in range(n))
        structural = (trace - mp.log(mp.det(nxt) / mp.det(prev)) - n) / 2
        mean_shift = var_z * (a.T * prev_inv * a)[0, 0] / 2
        return float(structural + mean_shift)


def _se(kernel, X, Y):
    d2 = np.sum((X[:, None, :] - Y[None, :, :]) ** 2, axis=-1)
    return kernel.signal_variance * np.exp(-d2 / (2.0 * kernel.lengthscale**2))


def unnormalized_reference(mean, kernel, log, candidate, targets) -> float:
    """The unnormalized variant ``0.25 * d * s^3 * sqrt(pi) + 0.5 * s *
    sqrt(pi) * (2 * structural + quad1 + quad2)``, term by term.

    ``m1``/``m2`` are the target-to-log gain matrices of the log and of the
    log plus the candidate, ``v1``/``v2`` the centered readings (the unseen
    reading at its predictive mean), ``d`` the last diagonal entry of
    ``m2' P^-1 m2`` and ``s`` the noise-free predictive variance at the
    candidate.  The structural term is :func:`senseplan.edg_exact`'s.  The
    log must not be empty.
    """
    pts = np.asarray(targets, dtype=float)
    cand = np.asarray(candidate, dtype=float).reshape(1, 2)
    n = len(pts)
    belief = posterior(mean, kernel, log, np.vstack([pts, cand]))
    prev_cov, mu_z, spread = belief.cov[:n, :n], belief.mean[n], belief.cov[n, n]

    def weights(Y):
        gram = _se(kernel, Y, Y) + log.noise_sd**2 * np.eye(len(Y))
        L, _ = jittered_cholesky(gram, base_jitter=kernel.jitter)
        return cho_solve((L, True), _se(kernel, pts, Y).T).T

    m1 = weights(log.locations)
    m2 = weights(np.vstack([log.locations, cand]))
    v1 = log.values - mean.constant
    v2 = np.append(v1, mu_z - mean.constant)
    Lp, _ = jittered_cholesky(prev_cov)
    m2t_sinv_m2 = m2.T @ cho_solve((Lp, True), m2)
    d = m2t_sinv_m2[-1, -1]
    quad1 = v1 @ (m1.T @ cho_solve((Lp, True), m1 @ v1 - 2.0 * (m2 @ v2)))
    quad2 = v2 @ (m2t_sinv_m2 @ v2)
    bracket = 2.0 * edg_exact(mean, kernel, log, cand[0], pts).structural_term + quad1 + quad2
    return float(0.25 * d * spread**3 * math.sqrt(math.pi) + 0.5 * spread * math.sqrt(math.pi) * bracket)

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
"""

from mpmath import mp

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

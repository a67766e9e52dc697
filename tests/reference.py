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

:func:`ladder_cholesky` and :func:`prior_draw` are the jitter ladder and
the gp-sample draw as plain scipy calls, one fresh matrix per rung, for
checking the in-place factorization bit for bit.  :func:`scipy_condition`
is the from-scratch conditioning through ``scipy.linalg``'s checked
wrappers, for checking the package's direct LAPACK calls bit for bit;
:func:`same_bits` compares two results of either route.

:func:`render_series_csv` writes ``series.csv`` one value at a time, each
converted by ``float`` and written with ``repr``, for checking the
package's one-pass renderer byte for byte.

:func:`ini_text` writes an echoed configuration back as INI text with the
standard library's ``ConfigParser``.

:func:`greedy_on_log` is the greedy rule's pick and gain vector for a
fixed log, as ``greedy_select`` computes them, for the tests that read
every candidate's gain.
"""

import io
import math
from configparser import ConfigParser

import numpy as np
from mpmath import mp
from scipy.linalg import LinAlgError, cho_solve, cholesky, solve_triangular
from scipy.spatial.distance import cdist

from senseplan import NumericalDegeneracyError, edg_exact, posterior
from senseplan.gp import JITTER_LADDER, _CarriedRows, _variance_pair, jittered_cholesky, kernel_matrix
from senseplan.harness import METRIC_FIELDS
from senseplan.metrics import METRIC_NAMES
from senseplan.planner import _greedy_choice

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
    bracket = 2.0 * edg_exact(kernel, log, cand[0], pts).structural_term + quad1 + quad2
    return float(0.25 * d * spread**3 * math.sqrt(math.pi) + 0.5 * spread * math.sqrt(math.pi) * bracket)


def ladder_cholesky(matrix, base_jitter=0.0):
    """The jitter ladder a rung at a time: ``scipy.linalg.cholesky(a + r *
    scale * I, lower=True)`` on a fresh matrix for each ``r``."""
    a = np.asarray(matrix, dtype=float)
    scale = float(np.mean(np.diagonal(a)))
    if not np.isfinite(scale) or scale <= 0.0:
        scale = 1.0
    ladder = dict.fromkeys((float(base_jitter), *(max(float(base_jitter), r) for r in JITTER_LADDER)))
    for rel in ladder:
        shifted = a if rel == 0.0 else a + (rel * scale) * np.eye(len(a))
        try:
            return cholesky(shifted, lower=True), rel
        except LinAlgError:
            continue
    raise NumericalDegeneracyError(f"failed up to relative jitter {rel:g}", jitter_attempted=rel)


def prior_draw(mean, kernel, pts, seed):
    """A gp-sample draw with the kernel matrix written out as one
    expression and factored by :func:`ladder_cholesky`."""
    K = kernel.signal_variance * np.exp(-cdist(pts, pts, "sqeuclidean") / (2.0 * kernel.lengthscale**2))
    L, _ = ladder_cholesky(K, base_jitter=kernel.jitter)
    return mean.constant + L @ np.random.default_rng(seed).standard_normal(len(pts))


def scipy_condition(mean, kernel, Y, y, noise_sd, P):
    """``gp._condition`` with ``scipy.linalg.cholesky`` and
    ``solve_triangular`` in place of the direct ``dpotrf`` and ``dtrtrs``
    calls; scipy's wrappers check finiteness and return early on empty
    arrays, so an empty log needs no branch of its own."""
    s2, sf2 = noise_sd**2, kernel.signal_variance
    G = kernel_matrix(kernel, Y, Y) + (s2 + kernel.jitter * (sf2 + s2)) * np.eye(len(y))
    try:
        L = cholesky(G, lower=True)
        degenerate = np.any(np.diagonal(L) ** 2 <= JITTER_LADDER[0] * sf2)
    except LinAlgError:
        degenerate = True
    if degenerate:
        rows = _CarriedRows(kernel, np.vstack([P, Y]), len(y))
        for i, row in enumerate(kernel_matrix(kernel, Y, rows.P), len(P)):
            rows._push(i, row, s2, kernel.jitter)
        return rows.W[: rows.k, : len(P)], rows._means(mean.constant, y, len(P))[0][-1], rows.var[: len(P)]
    W = solve_triangular(L, kernel_matrix(kernel, Y, P), lower=True)
    mu = mean.constant + solve_triangular(L, y - mean.constant, lower=True) @ W
    return W, mu, sf2 - np.einsum("ij,ij->j", W, W)


def same_bits(x, y) -> bool:
    """Whether ``x`` and ``y`` have the same structure (dicts, tuples and
    lists) and the same dtype, shape and bytes at every leaf, so NaN and
    signed zero count too."""
    if isinstance(x, dict):
        return isinstance(y, dict) and x.keys() == y.keys() and all(same_bits(x[k], y[k]) for k in x)
    if isinstance(x, (tuple, list)):
        return type(x) is type(y) and len(x) == len(y) and all(map(same_bits, x, y))
    a, b = np.asarray(x), np.asarray(y)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def render_series_csv(record: dict) -> str:
    """Long-format per-step metric table, one value per row; a null value
    reads ``nan``."""
    buf = io.StringIO()
    buf.write("trial,planner,step,metric,value\n")
    for trace in record["traces"]:
        for step in trace["steps"]:
            for metric in METRIC_NAMES:
                value = step[METRIC_FIELDS[metric]]
                value = float("nan") if value is None else float(value)
                buf.write(f"{trace['trial']},{trace['planner']},{step['step']},{metric},{repr(value)}\n")
    return buf.getvalue()


def ini_text(sections: dict) -> str:
    """``{section: {key: value}}`` as INI text, as ``ConfigParser`` writes it."""
    parser = ConfigParser()
    parser.read_dict(sections)
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


def greedy_on_log(kernel, log, candidates, targets):
    """Index of the greedy pick and every candidate's gain, from one
    conditioning of ``log`` and the targets."""
    return _greedy_choice(kernel, log.noise_sd, *_variance_pair(kernel, log, targets, candidates))

"""Property tests of the greedy scorer and of conditioning.

Each draws kernels with lengthscales 0.05-50, noise 0 or 0.01-2,
targets in a 10 x 10 box (some coincident), and candidates up to 20
lengthscales from it.
"""

import itertools
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from senseplan import KernelSpec, MeanSpec, MeasurementLog
from senseplan.gp import predictive_moments
from senseplan.planner import TIE_RTOL

from reference import edg_reference, greedy_on_log

PROPERTY = settings(derandomize=True, deadline=None, max_examples=1500)
MEAN = MeanSpec(1.0)
NOISE = st.one_of(st.just(0.0), st.floats(0.01, 2.0))
POINT = st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0))
KERNEL_1 = KernelSpec(1.0, 1.0)
NOISE_FREE_LOG = MeasurementLog([(0.0, 0.0), (1.0, 0.0)], [0.3, -0.2], 0.0)


@st.composite
def problems(draw, noise=NOISE, distinct_targets=False):
    """``(kernel, log, candidates, targets)`` with 0-3 readings in the log."""
    lengthscale = draw(st.floats(0.05, 50.0))
    kernel = KernelSpec(draw(st.floats(0.1, 10.0)), lengthscale)
    targets = draw(st.lists(POINT, min_size=1, max_size=5, unique=distinct_targets))
    if not distinct_targets:
        targets += draw(st.lists(st.sampled_from(targets), max_size=2))
    candidates = []
    for x, y in draw(st.lists(POINT, min_size=1, max_size=5)):
        r = draw(st.floats(0.0, 20.0)) * lengthscale
        angle = draw(st.floats(0.0, 2.0 * math.pi))
        candidates.append((x + r * math.cos(angle), y + r * math.sin(angle)))
    readings = draw(st.lists(POINT, max_size=3))
    values = draw(st.lists(st.floats(-5.0, 5.0), min_size=len(readings), max_size=len(readings)))
    noise_sd = draw(noise)
    if noise_sd == 0:
        # A noise-free log holds one value per location.
        first = {}
        values = [first.setdefault(pt, z) for pt, z in zip(readings, values)]
    log = MeasurementLog(np.array(readings).reshape(-1, 2), values, noise_sd)
    return kernel, log, np.array(candidates), np.array(targets)


@PROPERTY
@given(problems())
def test_gains_are_finite_and_nonnegative(problem):
    kernel, log, candidates, targets = problem
    _, gains = greedy_on_log(kernel, log, candidates, targets)
    assert np.all(np.isfinite(gains)) and np.all(gains >= 0.0)


@PROPERTY
@given(problems(noise=st.floats(0.01, 2.0), distinct_targets=True), st.randoms())
def test_gains_follow_candidates_and_ignore_target_order(problem, random):
    """With noise and distinct targets, permuting the candidates permutes
    the gains and permuting the targets leaves them as they are."""
    kernel, log, candidates, targets = problem
    _, gains = greedy_on_log(kernel, log, candidates, targets)
    order = random.sample(range(len(candidates)), len(candidates))
    _, permuted = greedy_on_log(kernel, log, candidates[order], targets)
    np.testing.assert_allclose(permuted, gains[order], rtol=1e-9, atol=1e-12)
    shuffled = targets[random.sample(range(len(targets)), len(targets))]
    _, same = greedy_on_log(kernel, log, candidates, shuffled)
    np.testing.assert_allclose(same, gains, rtol=1e-9, atol=1e-12)


def test_nearly_coincident_targets_in_any_order():
    """Targets ``(0, 0)`` and ``(0, 1e-6)`` coincide to round-off at
    lengthscale 44.125.  Every order of the five targets gives the same
    gains within ``TIE_RTOL``, so no tie-break can follow the target order,
    and they agree with the 40-digit reference to 1e-10."""
    kernel = KernelSpec(4.0, 44.125)
    log = MeasurementLog([(1.5, 3.5)], [0.0], 1.948)
    targets = np.array([(0.0, 0.5), (0.0, 1.0), (0.0, 1e-6), (1.0, 0.0), (0.0, 0.0)])
    candidates = np.array([(0.0, 0.0), (44.125, 0.0)])
    ref = np.array([float(edg_reference(kernel, log, c, targets)) for c in candidates])
    _, gains = greedy_on_log(kernel, log, candidates, targets)
    np.testing.assert_allclose(gains, ref, rtol=1e-10)
    for order in itertools.permutations(range(len(targets))):
        _, permuted = greedy_on_log(kernel, log, candidates, targets[list(order)])
        np.testing.assert_allclose(permuted, gains, rtol=TIE_RTOL, atol=0)


@PROPERTY
@given(problems(), st.floats(-5.0, 5.0))
@example((KERNEL_1, NOISE_FREE_LOG, np.array([(1.0, 0.0)]), np.array([(0.0, 0.0)])), -0.2)
@example((KERNEL_1, NOISE_FREE_LOG, np.array([(0.0, 1e-10)]), np.array([(1.0, 0.0)])), 0.3)
def test_a_reading_never_raises_a_target_variance(problem, value):
    """Appending a reading at any candidate leaves every target's posterior
    variance where it was or lower, up to 1e-10 of the prior variance.  The
    examples append a noise-free repeat and a near-duplicate reading."""
    kernel, log, candidates, targets = problem
    _, before, _ = predictive_moments(MEAN, kernel, log, targets)
    for candidate in candidates:
        # Noise-free, a reading where the log holds one repeats its value.
        logged = log.values[np.all(log.locations == candidate, axis=1)] if log.noise_sd == 0 else []
        z = logged[0] if len(logged) else value
        _, after, _ = predictive_moments(MEAN, kernel, log.append(candidate, z), targets)
        assert np.all(after <= before + 1e-10 * kernel.signal_variance)

"""Gaussian-process core: kernels, factorization, posterior conditioning.

The posterior is checked against a dense-inverse oracle that applies the
textbook formulas with an explicit matrix inverse.  The library itself
never forms an inverse, so agreement is a real cross-check.
"""

import importlib.machinery
import re
import tracemalloc
from collections.abc import MutableMapping, MutableSequence, MutableSet
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from reference import ladder_cholesky, prior_draw, same_bits, scipy_condition
from scipy.spatial.distance import cdist

import senseplan.gp as gp_mod
from senseplan import (
    AnalyticField,
    GaussianBelief,
    InvalidInputError,
    KernelSpec,
    MeanSpec,
    MeasurementLog,
    NumericalDegeneracyError,
    PolygonMask,
    ScenarioConfig,
    edg_exact,
    edg_quadrature,
    edg_unnormalized_form,
    field_value,
    greedy_select,
    jittered_cholesky,
    kernel_matrix,
    posterior,
    sample_field,
    sample_prior_field,
)
from senseplan.gp import as_point, as_points, predictive_moments


def dense_posterior(mean, kernel, log, query):
    """Oracle: posterior moments via an explicit matrix inverse."""
    X = np.asarray(query, dtype=float)
    Y = log.locations
    Kxx = kernel_matrix(kernel, X, X)
    if len(Y) == 0:
        return np.full(len(X), mean.constant), Kxx
    Kxy = kernel_matrix(kernel, X, Y)
    G = kernel_matrix(kernel, Y, Y) + log.noise_sd**2 * np.eye(len(Y))
    Ginv = np.linalg.inv(G)
    mu = mean.constant + Kxy @ Ginv @ (log.values - mean.constant)
    cov = Kxx - Kxy @ Ginv @ Kxy.T
    return mu, cov


def random_instance(rng, n_obs=None, n_query=None):
    kernel = KernelSpec(
        signal_variance=rng.uniform(0.3, 5.0),
        lengthscale=rng.uniform(0.4, 3.0),
    )
    mean = MeanSpec(constant=rng.uniform(-2.0, 2.0))
    n_obs = rng.integers(1, 9) if n_obs is None else n_obs
    n_query = rng.integers(1, 7) if n_query is None else n_query
    Y = rng.uniform(0, 8, (n_obs, 2))
    Z = rng.normal(0, 1.5, n_obs)
    noise = rng.choice([0.1, 0.5, 1.0])
    log = MeasurementLog(Y, Z, noise_sd=noise)
    query = rng.uniform(0, 8, (n_query, 2))
    return mean, kernel, log, query


class TestPointCoercion:
    def test_accepts_lists_and_arrays(self):
        pts = as_points([[0.0, 1.0], [2.0, 3.0]])
        assert pts.shape == (2, 2)
        assert not pts.flags.writeable

    def test_empty_is_zero_by_two(self):
        assert as_points([]).shape == (0, 2)

    def test_rejects_bad_shapes_and_values(self):
        with pytest.raises(InvalidInputError):
            as_points([[1.0, 2.0, 3.0]])
        with pytest.raises(InvalidInputError):
            as_points([[np.inf, 0.0]])
        with pytest.raises(InvalidInputError):
            as_point([1.0])

    @pytest.mark.parametrize(
        "bad",
        [[[0, 0], [1]], [[0, "a"]], "ab", [[0, 1j]], {"x": 1}],
        ids=["ragged", "string entry", "string", "complex", "dict"],
    )
    @pytest.mark.parametrize("entry", ["posterior", "greedy_select", "edg_exact", "MeasurementLog"])
    def test_non_numeric_locations_raise_invalid_input(self, entry, bad):
        """Locations numpy cannot read as real numbers raise
        InvalidInputError, not numpy's ValueError or TypeError."""
        kernel = KernelSpec(signal_variance=2.0, lengthscale=1.0)
        log = MeasurementLog([[1.0, 1.0]], [0.3], noise_sd=0.4)
        good = np.array([[0.0, 0.0], [2.0, 1.0]])
        calls = {
            "posterior": lambda: posterior(MeanSpec(), kernel, log, bad),
            "greedy_select": lambda: greedy_select(kernel, log, bad, good),
            "edg_exact": lambda: edg_exact(kernel, log, bad, good),
            "MeasurementLog": lambda: MeasurementLog(bad, [0.0], 0.1),
        }
        with pytest.raises(InvalidInputError, match="not an array of real numbers"):
            calls[entry]()

    def test_non_numeric_values_raise_invalid_input(self):
        """So do readings, belief means and covariances that are not real
        numbers."""
        for make in (
            lambda: MeasurementLog([[0, 0]], ["x"], 0.1),
            lambda: GaussianBelief([[0, 0]], ["x"], [[1.0]]),
            lambda: GaussianBelief([[0, 0]], [0.0], [[1j]]),
        ):
            with pytest.raises(InvalidInputError, match="not an array of real numbers"):
                make()

    def test_predictive_moments_coerces_its_points_once(self, monkeypatch):
        """Points are checked where they enter; the kernel matrices and the
        prior mean below that use the checked array as it is."""
        mean, kernel, log, query = random_instance(np.random.default_rng(5), n_obs=4, n_query=3)
        calls = []

        def counting(locations):
            calls.append(locations)
            return as_points(locations)

        monkeypatch.setattr(gp_mod, "as_points", counting)
        predictive_moments(mean, kernel, log, query)
        assert len(calls) == 1

    def test_entry_points_reject_malformed_points(self):
        """Each public entry point that takes locations checks them: a
        non-finite coordinate or a three-column array raises
        InvalidInputError, and the EDG routes and ``greedy_select`` reject
        empty targets.  ``field_value`` takes exactly one point, so it
        also rejects none and two."""
        kernel = KernelSpec(signal_variance=2.0, lengthscale=1.0)
        mean = MeanSpec(constant=0.5)
        log = MeasurementLog([[1.0, 1.0]], [0.3], noise_sd=0.4)
        good = np.array([[0.0, 0.0], [2.0, 1.0]])
        region = PolygonMask.rectangle(-1.0, -1.0, 5.0, 5.0)
        fld = AnalyticField("linear", {"a": 1.0}, region)

        def scenario(targets, candidates):
            return ScenarioConfig(targets, candidates, 0.4, 2, kernel, mean, "random", seed=1)

        takes_points = {
            "posterior": lambda p: posterior(mean, kernel, log, p),
            "predictive_moments": lambda p: predictive_moments(mean, kernel, log, p),
            "greedy_select candidates": lambda p: greedy_select(kernel, log, p, good),
            "ScenarioConfig targets": lambda p: scenario(p, good),
            "ScenarioConfig candidates": lambda p: scenario(good, p),
            "MeasurementLog": lambda p: MeasurementLog(p, np.zeros(len(p)), noise_sd=0.4),
            "MeasurementLog.append": lambda p: log.append(p[-1:], 1.0),
            "sample_field": lambda p: sample_field(mean, kernel, p, 3, region),
            "edg_exact candidate": lambda p: edg_exact(kernel, log, p[-1:], good),
        }
        takes_targets = {
            "greedy_select targets": lambda p: greedy_select(kernel, log, good, p),
            "edg_exact": lambda p: edg_exact(kernel, log, (1.5, 0.5), p),
            "edg_quadrature": lambda p: edg_quadrature(mean, kernel, log, (1.5, 0.5), p),
            "edg_unnormalized_form": lambda p: edg_unnormalized_form(kernel, log, (1.5, 0.5), p),
        }
        takes_one_point = {"field_value": lambda p: field_value(fld, p)}
        malformed = {
            "non-finite": np.array([[0.0, 0.0], [np.nan, 1.0]]),
            "three columns": np.ones((2, 3)),
        }
        empty = np.empty((0, 2))
        cases = [(name, call, good, malformed) for name, call in takes_points.items()]
        cases += [(name, call, good, {**malformed, "empty": empty}) for name, call in takes_targets.items()]
        cases += [
            (name, call, good[:1], {**malformed, "empty": empty, "two rows": good})
            for name, call in takes_one_point.items()
        ]
        accepted = []
        for name, call, valid, inputs in cases:
            call(valid)
            for kind, points in inputs.items():
                try:
                    call(points)
                except InvalidInputError:
                    continue
                accepted.append(f"{name}: {kind}")
        assert accepted == []


class TestKernelMatrix:
    def test_value_at_zero_distance_is_signal_variance(self):
        k = KernelSpec(signal_variance=2.5, lengthscale=1.0)
        x = np.array([[1.0, 2.0]])
        np.testing.assert_allclose(kernel_matrix(k, x, x), [[2.5]])

    def test_value_at_one_lengthscale(self):
        """k(x, x') = s^2 exp(-1/2) when the points are one lengthscale apart."""
        k = KernelSpec(signal_variance=3.0, lengthscale=2.0)
        a = np.array([[0.0, 0.0]])
        b = np.array([[2.0, 0.0]])
        np.testing.assert_allclose(
            kernel_matrix(k, a, b), [[3.0 * np.exp(-0.5)]], rtol=1e-14
        )

    def test_symmetric_and_psd_on_random_points(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            k = KernelSpec(
                signal_variance=rng.uniform(0.1, 4.0),
                lengthscale=rng.uniform(0.2, 3.0),
            )
            pts = rng.uniform(-5, 5, (rng.integers(2, 12), 2))
            pts = np.vstack([pts, pts[:1]])  # a duplicated row
            K = kernel_matrix(k, pts, pts)
            np.testing.assert_array_equal(K, K.T)
            np.testing.assert_array_equal(np.diagonal(K), k.signal_variance)
            eigs = np.linalg.eigvalsh(K)
            assert eigs.min() >= -1e-10 * max(eigs.max(), 1.0)

    def test_bits_of_the_written_out_formula(self):
        """The in-place arithmetic rounds as ``sf^2 * exp(-d2 / (2 l^2))``."""
        rng = np.random.default_rng(11)
        X, Y = rng.uniform(-3, 3, (40, 2)), rng.uniform(-3, 3, (25, 2))
        k = KernelSpec(signal_variance=2.7, lengthscale=0.9)
        expected = 2.7 * np.exp(-cdist(X, Y, "sqeuclidean") / (2.0 * 0.9**2))
        np.testing.assert_array_equal(kernel_matrix(k, X, Y), expected)

    def test_holds_only_its_result(self):
        """No temporary the size of the result is alive beside it."""
        rng = np.random.default_rng(12)
        X, Y = rng.uniform(0, 10, (600, 2)), rng.uniform(0, 10, (500, 2))
        tracemalloc.start()
        try:
            K = kernel_matrix(KernelSpec(9.0, 1.5), X, Y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert K.shape == (600, 500)
        assert peak <= 1.1 * K.nbytes

    def test_hyperparameters_validated(self):
        with pytest.raises(InvalidInputError):
            KernelSpec(signal_variance=0.0, lengthscale=1.0)
        with pytest.raises(InvalidInputError):
            KernelSpec(signal_variance=1.0, lengthscale=-2.0)

    def test_non_numeric_hyperparameters_raise_invalid_input(self):
        """Not numpy's TypeError from ``np.isfinite``."""
        for make in (
            lambda: KernelSpec("a", 1.0),
            lambda: KernelSpec(1.0, None),
            lambda: KernelSpec(1.0, 1.0, "x"),
            lambda: KernelSpec(1j, 1.0),
            lambda: KernelSpec([1.0], 1.0),
        ):
            with pytest.raises(InvalidInputError):
                make()

    @pytest.mark.parametrize(
        "X, Y",
        [((200, 2), None), ((1, 2), (300, 2)), ((300, 2), (1, 2))],
        ids=["square", "one-by-m", "m-by-one"],
    )
    def test_bits_of_cdist(self, X, Y):
        """The squared distances are cdist's, bit for bit, also on plain
        lists, so the kernel is ``sf^2 * exp(-cdist / (2 l^2))`` exactly
        (m x n inputs: :meth:`test_bits_of_the_written_out_formula`)."""
        rng = np.random.default_rng(13)
        X = rng.uniform(-40, 40, X)
        Y = X if Y is None else rng.uniform(-40, 40, Y)
        k = KernelSpec(signal_variance=1.3, lengthscale=7.1)
        expected = 1.3 * np.exp(-cdist(X, Y, "sqeuclidean") / (2.0 * 7.1**2))
        np.testing.assert_array_equal(kernel_matrix(k, X, Y), expected)
        np.testing.assert_array_equal(kernel_matrix(k, X.tolist(), Y.tolist()), expected)


class TestJitteredCholesky:
    def test_singular_psd_matrix_is_rescued(self):
        """Duplicate rows make the Gram matrix exactly singular; the
        escalating jitter must still produce a usable factor."""
        k = KernelSpec(signal_variance=1.0, lengthscale=1.0)
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        K = kernel_matrix(k, pts, pts)
        L, used = jittered_cholesky(K)
        assert used > 0
        np.testing.assert_allclose(L @ L.T, K, atol=1e-5)

    def test_clean_spd_matrix_uses_no_jitter(self):
        L, used = jittered_cholesky(np.diag([2.0, 3.0]))
        assert used == 0.0
        np.testing.assert_allclose(L, np.diag(np.sqrt([2.0, 3.0])))

    def test_indefinite_matrix_raises_with_jitter_report(self):
        M = np.array([[1.0, 0.0], [0.0, -5.0]])
        with pytest.raises(NumericalDegeneracyError) as err:
            jittered_cholesky(M)
        assert err.value.jitter_attempted is not None

    @staticmethod
    def positive_definite():
        pts = np.random.default_rng(4).uniform(0, 5, (80, 2))
        return kernel_matrix(KernelSpec(2.0, 0.5), pts, pts)

    @staticmethod
    def rank_deficient():
        """300 points in a unit square at lengthscale 3: numerically
        singular, so rung 0 fails."""
        pts = np.random.default_rng(3).uniform(0, 1, (300, 2))
        return kernel_matrix(KernelSpec(1.0, 3.0), pts, pts)

    @staticmethod
    def round_off_asymmetric():
        """The rank-deficient matrix with its strict upper triangle one ulp
        up: only the lower triangle may be read, on every rung."""
        M = TestJitteredCholesky.rank_deficient()
        upper = np.triu_indices(len(M), 1)
        M[upper] = np.nextafter(M[upper], np.inf)
        return M

    @pytest.mark.parametrize(
        "make, base_jitter, rung",
        [
            (positive_definite, 0.0, 0.0),
            (rank_deficient, 0.0, 1e-10),
            (round_off_asymmetric, 0.0, 1e-10),
            (rank_deficient, 1e-9, 1e-9),
            (rank_deficient, 1e-15, 1e-10),
        ],
        ids=["positive-definite", "rung-0-fails", "asymmetric-round-off", "base-jitter", "base-jitter-fails"],
    )
    def test_bits_of_the_scipy_ladder(self, make, base_jitter, rung):
        """Each rung factors what ``scipy.linalg.cholesky(a + r*scale*I)``
        factors, bit for bit, and the argument is left as it was."""
        M = make()
        before = M.copy()
        L, used = jittered_cholesky(M, base_jitter=base_jitter)
        L_ref, used_ref = ladder_cholesky(before, base_jitter=base_jitter)
        assert used == used_ref == rung
        np.testing.assert_array_equal(L, L_ref)
        np.testing.assert_array_equal(M, before)

    def test_every_rung_failing_reports_the_reference_jitter(self):
        M = self.rank_deficient() - 1e-3 * np.eye(300)
        before = M.copy()
        with pytest.raises(NumericalDegeneracyError) as ref:
            ladder_cholesky(M)
        with pytest.raises(NumericalDegeneracyError) as err:
            jittered_cholesky(M)
        assert err.value.jitter_attempted == ref.value.jitter_attempted == 1e-6
        np.testing.assert_array_equal(M, before)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_raises_value_error(self, bad):
        M = np.eye(3)
        M[0, 2] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            jittered_cholesky(M)


class TestMeanSpec:
    def test_non_numeric_constant_raises_invalid_input(self):
        for bad in ("a", None, 1j):
            with pytest.raises(InvalidInputError, match="mean constant"):
                MeanSpec(bad)


class TestMeasurementLog:
    def test_append_is_persistent(self):
        log0 = MeasurementLog.empty(noise_sd=0.5)
        log1 = log0.append((1.0, 2.0), 3.0)
        assert len(log0) == 0
        assert len(log1) == 1
        assert not log1.locations.flags.writeable
        assert not log1.values.flags.writeable

    def test_noise_must_be_nonnegative(self):
        with pytest.raises(InvalidInputError):
            MeasurementLog.empty(noise_sd=-0.1)

    @pytest.mark.parametrize("bad", ["x", None])
    def test_non_numeric_noise_raises_invalid_input(self, bad):
        with pytest.raises(InvalidInputError, match="noise_sd"):
            MeasurementLog([[0, 0]], [1.0], bad)

    def test_noise_free_readings_at_one_location_must_agree(self):
        """Without noise two different readings at one location contradict
        each other, whether built at once or appended; equal repeats and
        noisy readings are kept."""
        pts = [[0.0, 0.0], [1.0, 0.0], [-0.0, 0.0]]
        with pytest.raises(InvalidInputError, match=r"0\.3 and 0\.9 at \(0\.0, 0\.0\)"):
            MeasurementLog(pts, [0.3, 0.5, 0.9], noise_sd=0.0)
        with pytest.raises(InvalidInputError, match="contradict"):
            MeasurementLog(pts[:2], [0.3, 0.5], noise_sd=0.0).append((0.0, 0.0), 0.9)
        assert len(MeasurementLog(pts, [0.3, 0.5, 0.3], noise_sd=0.0)) == 3
        assert len(MeasurementLog(pts, [0.3, 0.5, 0.9], noise_sd=0.1)) == 3


class TestPosterior:
    def test_matches_dense_inverse_oracle(self):
        """100 random instances against the explicit-inverse formulas."""
        rng = np.random.default_rng(123)
        for _ in range(100):
            mean, kernel, log, query = random_instance(rng)
            belief = posterior(mean, kernel, log, query)
            mu, cov = dense_posterior(mean, kernel, log, query)
            scale = max(1.0, np.abs(cov).max())
            np.testing.assert_allclose(belief.mean, mu, atol=1e-10, rtol=1e-10)
            np.testing.assert_allclose(belief.cov, cov, atol=1e-10 * scale)

    @pytest.mark.parametrize("case", ["empty log", "noisy log", "noise-free repeat"])
    def test_covariance_is_exactly_symmetric(self, monkeypatch, case):
        """``K(P, P) - W'W`` is symmetric bit for bit, so the covariance is
        returned as computed.  A noise-free log with a repeat takes the
        carried fallback of ``_condition``."""
        mean, kernel, log, query = random_instance(np.random.default_rng(31), n_obs=12, n_query=40)
        query = np.vstack([query, log.locations[:3]])
        if case == "empty log":
            log = MeasurementLog.empty(0.5)
        elif case == "noise-free repeat":
            repeated = np.vstack([log.locations, log.locations[:1]])
            log = MeasurementLog(repeated, np.append(log.values, log.values[0]), 0.0)
        built = []

        class Spied(gp_mod._CarriedRows):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(gp_mod, "_CarriedRows", Spied)
        cov = posterior(mean, kernel, log, query).cov
        assert np.array_equal(cov, cov.T)
        assert bool(built) == (case == "noise-free repeat")

    def test_empty_log_returns_prior_exactly(self):
        kernel = KernelSpec(signal_variance=2.0, lengthscale=1.5)
        mean = MeanSpec(constant=0.7)
        query = np.array([[0.0, 0.0], [1.0, 3.0]])
        belief = posterior(mean, kernel, MeasurementLog.empty(1.0), query)
        np.testing.assert_array_equal(belief.mean, [0.7, 0.7])
        np.testing.assert_array_equal(belief.cov, kernel_matrix(kernel, query, query))

    def test_empty_query_rejected(self):
        with pytest.raises(InvalidInputError):
            posterior(MeanSpec(), KernelSpec(1.0, 1.0), MeasurementLog.empty(1.0), [])

    def test_one_log_under_two_kernels(self):
        """Conditioning a log under one kernel does not affect conditioning
        the same log under another: the second posterior matches its dense
        oracle."""
        rng = np.random.default_rng(9)
        mean, kernel, log, query = random_instance(rng)
        other = KernelSpec(kernel.signal_variance * 3.0, kernel.lengthscale * 0.5)
        posterior(mean, kernel, log, query)
        belief = posterior(mean, other, log, query)
        mu, cov = dense_posterior(mean, other, log, query)
        np.testing.assert_allclose(belief.mean, mu, atol=1e-10, rtol=1e-10)
        np.testing.assert_allclose(belief.cov, cov, atol=1e-10 * max(1.0, np.abs(cov).max()))

    def test_sequential_equals_batch_conditioning(self):
        """Appending measurements one at a time or all at once must agree."""
        rng = np.random.default_rng(5)
        for _ in range(20):
            mean, kernel, log, query = random_instance(rng, n_obs=6)
            seq = MeasurementLog.empty(log.noise_sd)
            for pt, val in zip(log.locations, log.values):
                seq = seq.append(pt, val)
            b_batch = posterior(mean, kernel, log, query)
            b_seq = posterior(mean, kernel, seq, query)
            np.testing.assert_allclose(b_seq.mean, b_batch.mean, atol=1e-8)
            np.testing.assert_allclose(b_seq.cov, b_batch.cov, atol=1e-8)

    def test_order_of_measurements_is_irrelevant(self):
        rng = np.random.default_rng(17)
        mean, kernel, log, query = random_instance(rng, n_obs=7)
        perm = rng.permutation(7)
        shuffled = MeasurementLog(log.locations[perm], log.values[perm], log.noise_sd)
        a = posterior(mean, kernel, log, query)
        b = posterior(mean, kernel, shuffled, query)
        np.testing.assert_allclose(a.mean, b.mean, atol=1e-10)
        np.testing.assert_allclose(a.cov, b.cov, atol=1e-10)

    def test_variance_shrinks_under_conditioning(self):
        """prior covariance minus posterior covariance stays PSD."""
        rng = np.random.default_rng(29)
        for _ in range(20):
            mean, kernel, log, query = random_instance(rng)
            prior = kernel_matrix(kernel, query, query)
            belief = posterior(mean, kernel, log, query)
            gap = prior - belief.cov
            eigs = np.linalg.eigvalsh((gap + gap.T) / 2)
            assert eigs.min() >= -1e-8 * max(np.trace(prior) / len(query), 1.0)

    def test_interpolates_data_when_noise_free(self):
        kernel = KernelSpec(signal_variance=1.0, lengthscale=1.0)
        mean = MeanSpec(0.0)
        pts = np.array([[0.0, 0.0], [2.0, 1.0]])
        vals = np.array([1.3, -0.4])
        log = MeasurementLog(pts, vals, noise_sd=0.0)
        belief = posterior(mean, kernel, log, pts)
        np.testing.assert_allclose(belief.mean, vals, atol=1e-8)
        assert np.all(belief.marginal_variances() < 1e-6)

    @pytest.mark.parametrize("reading, value, target", [((1.0, 0.0), -0.2, 0), ((0.0, 1e-10), 0.3, 1)])
    def test_noise_free_repeat_adds_nothing(self, reading, value, target):
        """A noise-free reading at a point already read, or within
        round-off of one, adds no row: the variance left at a read point
        stays exactly 0, and the moments are those without the repeat."""
        kernel = KernelSpec(signal_variance=1.0, lengthscale=1.0)
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        log = MeasurementLog(pts, [0.3, -0.2], 0.0)
        mu, var, _ = predictive_moments(MeanSpec(), kernel, log.append(reading, value), pts)
        assert var[target] == 0.0
        before_mu, before_var, _ = predictive_moments(MeanSpec(), kernel, log, pts)
        np.testing.assert_allclose(mu, before_mu, rtol=1e-12)
        np.testing.assert_array_equal(var, before_var)


class TestPredictiveMoments:
    def test_matches_posterior_and_dense_oracle(self):
        """With points ``[targets; candidates]`` the target block is the
        targets' posterior and the candidate block is the dense oracle's
        cross-covariance."""
        rng = np.random.default_rng(41)
        for _ in range(20):
            mean, kernel, log, targets = random_instance(rng)
            points = np.vstack([targets, rng.uniform(0, 8, (5, 2))])
            n = len(targets)
            mu, var, cov = predictive_moments(mean, kernel, log, points)
            belief = posterior(mean, kernel, log, targets)
            dense_mu, dense_cov = dense_posterior(mean, kernel, log, points)
            np.testing.assert_allclose(mu[:n], belief.mean, rtol=1e-12)
            np.testing.assert_allclose(cov[:n, :n], belief.cov, rtol=1e-12)
            np.testing.assert_allclose(mu[n:], dense_mu[n:], rtol=1e-12)
            np.testing.assert_allclose(cov[:n, n:], dense_cov[:n, n:], rtol=1e-12)


def dense_given_targets(kernel, log, targets, points):
    """Oracle: noise-free variances at ``points`` given the log and the
    targets' values, via an explicit inverse of the stacked Gram matrix."""
    Z = np.vstack([log.locations, targets])
    G = kernel_matrix(kernel, Z, Z)
    G[: len(log), : len(log)] += log.noise_sd**2 * np.eye(len(log))
    K = kernel_matrix(kernel, Z, points)
    return kernel.signal_variance - np.einsum("ij,ij->j", K, np.linalg.inv(G) @ K)


def given_targets(kernel, targets, cands, capacity):
    """The candidates' rows given the targets' values, built as a greedy
    episode builds them, with room for ``capacity`` readings."""
    n = len(targets)
    given = gp_mod._targets_after(kernel, gp_mod._sorted_first(targets, cands), n)
    return gp_mod._CarriedRows(kernel, cands, capacity, given.W[: given.k, n:], given.var[n:])


class TestVariancesGivenTargets:
    """The variances the greedy score rests on: given the log, and given
    the log and the targets' values."""

    def test_variance_pair_matches_dense_conditioning(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            mean, kernel, log, targets = random_instance(rng)
            points = rng.uniform(0, 8, (5, 2))
            var, removed = gp_mod._variance_pair(kernel, log, targets, points)
            _, dense_cov = dense_posterior(mean, kernel, log, points)
            atol = 1e-10 * kernel.signal_variance
            np.testing.assert_allclose(var, np.diagonal(dense_cov), rtol=1e-10, atol=atol)
            np.testing.assert_allclose(var - removed, dense_given_targets(kernel, log, targets, points), atol=atol)

    def test_carried_state_matches_variance_pair(self):
        """Readings appended one at a time after the targets' rows, each with
        its kernel row over the candidates, leave the variances the one-shot
        pair gives for the same log.  The state keeps only the candidates'
        columns, as an episode's does."""
        rng = np.random.default_rng(44)
        for _ in range(20):
            _, kernel, log, targets = random_instance(rng)
            cands = np.vstack([log.locations, rng.uniform(0, 8, (4, 2))])
            known = given_targets(kernel, targets, cands, len(log))
            assert known.W.shape[1] == len(cands) == len(known.var)
            for i in range(len(log)):
                known._push(i, kernel_matrix(kernel, cands[i : i + 1], cands)[0], log.noise_sd**2, kernel.jitter)
            var, removed = gp_mod._variance_pair(kernel, log, targets, cands)
            np.testing.assert_allclose(known.var, var - removed, atol=1e-10 * kernel.signal_variance)

    def test_degenerate_rows_are_skipped(self):
        """A repeated target, and a noise-free reading at a target, add no
        row and leave the variances as they were."""
        kernel = KernelSpec(signal_variance=2.0, lengthscale=1.0)
        targets = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 0.0]])
        cands = np.array([[0.0, 0.0], [1.0, 1.0]])
        known = given_targets(kernel, targets, cands, 1)
        assert known.k == 2
        before = known.var.copy()
        known._push(0, kernel_matrix(kernel, cands[:1], cands)[0], 0.0, kernel.jitter)
        assert known.k == 2
        np.testing.assert_array_equal(known.var, before)


class TestGaussianBelief:
    def test_rejects_asymmetric_covariance(self):
        with pytest.raises(InvalidInputError):
            GaussianBelief(
                query=np.array([[0.0, 0.0], [1.0, 1.0]]),
                mean=np.zeros(2),
                cov=np.array([[1.0, 0.5], [0.1, 1.0]]),
            )

    def test_arrays_are_read_only(self):
        b = GaussianBelief(
            query=np.array([[0.0, 0.0]]), mean=np.array([1.0]), cov=np.array([[2.0]])
        )
        assert not b.mean.flags.writeable
        assert not b.cov.flags.writeable
        np.testing.assert_array_equal(b.marginal_variances(), [2.0])


class TestPredictiveMeasurement:
    """The next reading's prediction at one point is the one-point case of
    ``predictive_moments``."""

    def test_prior_prediction(self):
        kernel = KernelSpec(signal_variance=3.0, lengthscale=1.0)
        mu, var, cov = predictive_moments(MeanSpec(1.5), kernel, MeasurementLog.empty(0.5), (0.0, 0.0))
        np.testing.assert_array_equal(mu, [1.5])
        np.testing.assert_allclose(var, [3.0])
        np.testing.assert_allclose(cov, [[3.0]])

    def test_matches_posterior_marginal(self):
        rng = np.random.default_rng(11)
        mean, kernel, log, _ = random_instance(rng)
        cand = rng.uniform(0, 8, 2)
        mu, var, _ = predictive_moments(mean, kernel, log, cand)
        belief = posterior(mean, kernel, log, cand[np.newaxis, :])
        np.testing.assert_allclose(mu[0], belief.mean[0], rtol=1e-12)
        np.testing.assert_allclose(var[0], belief.cov[0, 0], atol=1e-12)


class TestPriorSampling:
    def test_deterministic_given_seed(self):
        kernel = KernelSpec(1.0, 1.0)
        grid = np.random.default_rng(0).uniform(0, 4, (15, 2))
        a = sample_prior_field(MeanSpec(0.0), kernel, grid, seed=99)
        b = sample_prior_field(MeanSpec(0.0), kernel, grid, seed=99)
        np.testing.assert_array_equal(a, b)
        c = sample_prior_field(MeanSpec(0.0), kernel, grid, seed=100)
        assert not np.array_equal(a, c)

    def test_bits_of_the_scipy_ladder_in_one_matrix(self):
        """A draw over 800 nodes (rung 0 fails) equals the draw through a
        fresh kernel matrix and a fresh matrix per rung, bit for bit, while
        holding one ``n x n`` matrix (the scipy ladder holds about three)."""
        nodes = np.random.default_rng(5).uniform(0, 10, (800, 2))
        kernel, mean = KernelSpec(9.0, 1.5), MeanSpec(0.5)
        tracemalloc.start()
        try:
            draw = sample_prior_field(mean, kernel, nodes, seed=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(draw, prior_draw(mean, kernel, nodes, seed=8))
        assert peak <= 1.25 * 8 * len(nodes) ** 2

    def test_first_two_moments(self):
        """Empirical mean and covariance of many draws approach m and K."""
        kernel = KernelSpec(signal_variance=2.0, lengthscale=1.0)
        mean = MeanSpec(constant=1.0)
        grid = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 2.0]])
        draws = np.array(
            [sample_prior_field(mean, kernel, grid, seed=s) for s in range(4000)]
        )
        K = kernel_matrix(kernel, grid, grid)
        np.testing.assert_allclose(draws.mean(axis=0), [1.0, 1.0, 1.0], atol=0.1)
        np.testing.assert_allclose(np.cov(draws.T), K, atol=0.15)


class TestLapackCalls:
    """The factorizations and triangular solves call scipy's LAPACK
    extension directly and give the bits of ``scipy.linalg``'s wrappers."""

    @pytest.mark.parametrize("n", [1, 7, 116])
    @pytest.mark.parametrize("rhs", ["vector", "C-ordered matrix", "F-ordered matrix"])
    def test_solve_lower_bits_of_solve_triangular(self, n, rhs):
        rng = np.random.default_rng(n)
        A = rng.standard_normal((n, n))
        L = scipy.linalg.cholesky(A @ A.T + n * np.eye(n), lower=True)
        B = {
            "vector": rng.standard_normal(n),
            "C-ordered matrix": rng.standard_normal((n, 5)),
            "F-ordered matrix": np.asfortranarray(rng.standard_normal((n, 5))),
        }[rhs]
        before = B.copy()
        assert same_bits(gp_mod._solve_lower(L, B), scipy.linalg.solve_triangular(L, B, lower=True))
        assert same_bits(B, before)

    @pytest.mark.parametrize("shape", [(0,), (0, 4), (3, 0)])
    def test_zero_size_right_side_gives_an_empty_array(self, capfd, shape):
        L = np.asfortranarray(np.eye(shape[0]))
        B = np.empty(shape)
        assert same_bits(gp_mod._solve_lower(L, B), scipy.linalg.solve_triangular(L, B, lower=True))
        assert capfd.readouterr() == ("", "")

    def test_condition_factor_bits_of_scipy_cholesky(self, monkeypatch):
        """``_condition`` factors its Gram matrix as
        ``scipy.linalg.cholesky(lower=True)`` does, and returns what the
        conditioning through ``scipy.linalg`` returns."""
        mean, kernel, log, query = random_instance(np.random.default_rng(7), n_obs=12, n_query=30)
        args = (mean, kernel, log.locations, log.values, log.noise_sd, query)
        flapack, factored = gp_mod._FLAPACK, []

        def dpotrf(G, **kwargs):
            L, info = flapack.dpotrf(G, **kwargs)
            factored.append((G, L))
            return L, info

        monkeypatch.setattr(gp_mod, "_FLAPACK", SimpleNamespace(dpotrf=dpotrf, dtrtrs=flapack.dtrtrs))
        conditioned = gp_mod._condition(*args)
        [(G, L)] = factored
        assert same_bits(L, scipy.linalg.cholesky(G, lower=True))
        assert same_bits(conditioned, scipy_condition(*args))

    def test_zero_pivot_raises_linalg_error(self):
        L = np.asfortranarray(np.tril(np.ones((3, 3))))
        L[1, 1] = 0.0
        assert scipy.linalg.LinAlgError is np.linalg.LinAlgError
        for solve in (gp_mod._solve_lower, lambda L, b: scipy.linalg.solve_triangular(L, b, lower=True)):
            with pytest.raises(scipy.linalg.LinAlgError):
                solve(L, np.ones(3))

    def test_scipy_linalg_reuses_the_extension(self):
        assert scipy.linalg.lapack._flapack is gp_mod._FLAPACK

    def test_missing_extension_raises_import_error(self, monkeypatch):
        monkeypatch.setattr(importlib.machinery.FileFinder, "find_spec", lambda self, name, target=None: None)
        with pytest.raises(ImportError, match=re.escape(f"{scipy.__path__[0]}/linalg")):
            gp_mod._load_flapack()


def test_module_holds_no_mutable_state():
    """``senseplan.gp`` keeps no module-level container or cache, so its
    functions stay pure functions of their inputs, safe to share across
    threads."""
    held = [
        name
        for name, value in vars(gp_mod).items()
        if not name.startswith("__")
        and (isinstance(value, (MutableMapping, MutableSequence, MutableSet)) or hasattr(value, "cache_info"))
    ]
    assert held == []

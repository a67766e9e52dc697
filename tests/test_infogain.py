"""Expected discrimination gain and its oracles.

Three independent routes to the same quantity are compared: the closed
form, Gauss-Hermite quadrature over the predictive reading, and (for the
KL kernel itself) Monte Carlo estimation of the log density ratio.
"""

import math
import warnings

import numpy as np
import pytest

import senseplan.infogain as infogain_mod
from senseplan import (
    GaussianBelief,
    InvalidInputError,
    KernelSpec,
    MeanSpec,
    MeasurementLog,
    QuadratureSpec,
    edg_exact,
    edg_quadrature,
    edg_unnormalized_form,
    kl_gaussian,
)


def random_gaussian_pair(rng, dim):
    """Two full-rank beliefs over one query set."""
    query = rng.uniform(0, 5, (dim, 2))
    mu_p = rng.normal(0, 1, dim)
    mu_q = rng.normal(0, 1, dim)
    A = rng.normal(0, 1, (dim, dim))
    B = rng.normal(0, 1, (dim, dim))
    cov_p = A @ A.T + 0.5 * np.eye(dim)
    cov_q = B @ B.T + 0.5 * np.eye(dim)
    P = GaussianBelief(query=query, mean=mu_p, cov=cov_p)
    Q = GaussianBelief(query=query, mean=mu_q, cov=cov_q)
    return P, Q


def random_scenario(rng, n_obs=None, n_targets=None):
    kernel = KernelSpec(
        signal_variance=rng.uniform(0.5, 4.0),
        lengthscale=rng.uniform(0.5, 2.5),
    )
    mean = MeanSpec(constant=rng.uniform(-1.0, 1.0))
    n_obs = int(rng.integers(0, 8)) if n_obs is None else n_obs
    n_targets = int(rng.integers(1, 8)) if n_targets is None else n_targets
    noise = float(rng.choice([0.1, 1.0]))
    if n_obs:
        log = MeasurementLog(
            rng.uniform(0, 6, (n_obs, 2)), rng.normal(0, 1, n_obs), noise
        )
    else:
        log = MeasurementLog.empty(noise)
    targets = rng.uniform(0, 6, (n_targets, 2))
    candidate = rng.uniform(0, 6, 2)
    return mean, kernel, log, candidate, targets


def count_calls(monkeypatch, *names):
    """Wrap each named function of ``senseplan.infogain`` so that its calls
    are recorded; returns the argument tuples of each, by name."""
    calls = {name: [] for name in names}
    for name in names:
        original = getattr(infogain_mod, name)

        def recorded(*args, _calls=calls[name], _original=original, **kwargs):
            _calls.append(args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(infogain_mod, name, recorded)
    return calls


class TestKLGaussian:
    def test_identical_beliefs_give_zero(self):
        rng = np.random.default_rng(1)
        for dim in (1, 2, 5):
            P, _ = random_gaussian_pair(rng, dim)
            assert abs(kl_gaussian(P, P)) < 1e-12

    def test_unit_variance_mean_shift(self):
        """KL(N(1,1) || N(0,1)) = 1/2."""
        q = np.array([[0.0, 0.0]])
        P = GaussianBelief(query=q, mean=np.array([1.0]), cov=np.array([[1.0]]))
        Q = GaussianBelief(query=q, mean=np.array([0.0]), cov=np.array([[1.0]]))
        assert abs(kl_gaussian(P, Q) - 0.5) < 1e-12

    def test_scalar_closed_form(self):
        """KL between 1-D Gaussians from the direct formula."""
        rng = np.random.default_rng(2)
        q = np.array([[0.0, 0.0]])
        for _ in range(25):
            m1, m2 = rng.normal(0, 2, 2)
            v1, v2 = rng.uniform(0.2, 3.0, 2)
            P = GaussianBelief(query=q, mean=np.array([m1]), cov=np.array([[v1]]))
            Q = GaussianBelief(query=q, mean=np.array([m2]), cov=np.array([[v2]]))
            expected = 0.5 * (v1 / v2 - math.log(v1 / v2) - 1 + (m1 - m2) ** 2 / v2)
            np.testing.assert_allclose(kl_gaussian(P, Q), expected, rtol=1e-12)

    def test_matches_monte_carlo_log_ratio(self):
        """KL = E_P[log p(x) - log q(x)], estimated by sampling from P."""
        rng = np.random.default_rng(3)
        for _ in range(5):
            P, Q = random_gaussian_pair(rng, 4)
            exact = kl_gaussian(P, Q)
            n = 200_000
            x = rng.multivariate_normal(P.mean, P.cov, size=n)
            lp = _log_density(x, P.mean, P.cov)
            lq = _log_density(x, Q.mean, Q.cov)
            ratios = lp - lq
            estimate = ratios.mean()
            se = ratios.std(ddof=1) / math.sqrt(n)
            assert abs(estimate - exact) < 4 * se + 1e-12

    def test_requires_matching_query(self):
        rng = np.random.default_rng(4)
        P, _ = random_gaussian_pair(rng, 3)
        Q2, _ = random_gaussian_pair(rng, 3)
        with pytest.raises(InvalidInputError):
            kl_gaussian(P, Q2)

    def test_singular_post_against_nonsingular_pre_is_infinite(self):
        """A post with zero variance where the pre has some is infinitely
        far from it, and saying so raises no floating-point warning."""
        q = np.array([[0.0, 0.0], [1.0, 0.0]])
        P = GaussianBelief(query=q, mean=np.zeros(2), cov=np.diag([2.0, 0.0]))
        Q = GaussianBelief(query=q, mean=np.zeros(2), cov=np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kl_gaussian(P, Q) == math.inf


def _log_density(x, mu, cov):
    dim = len(mu)
    L = np.linalg.cholesky(cov)
    diff = x - mu
    w = np.linalg.solve(L, diff.T)
    quad = np.sum(w * w, axis=0)
    logdet = 2 * np.sum(np.log(np.diag(L)))
    return -0.5 * (quad + logdet + dim * math.log(2 * math.pi))


class TestEDGExact:
    def test_scalar_prior_case_half_log_two(self):
        """Unit prior variance, unit noise, empty log, target == candidate:
        the gain is log(2)/2."""
        kernel = KernelSpec(signal_variance=1.0, lengthscale=1.0)
        pt = np.array([0.0, 0.0])
        result = edg_exact(
            MeanSpec(0.0), kernel, MeasurementLog.empty(1.0), pt, pt[np.newaxis]
        )
        assert abs(result.value - 0.34657359027997264) < 1e-12

    def test_scalar_prior_case_general(self):
        """Same setting with arbitrary prior variance v and noise s:
        gain = log(1 + v/s^2) / 2."""
        rng = np.random.default_rng(8)
        pt = np.array([1.0, -2.0])
        for _ in range(20):
            v = rng.uniform(0.2, 5.0)
            s = rng.uniform(0.3, 2.0)
            kernel = KernelSpec(signal_variance=v, lengthscale=1.0)
            result = edg_exact(
                MeanSpec(0.0), kernel, MeasurementLog.empty(s), pt, pt[np.newaxis]
            )
            np.testing.assert_allclose(
                result.value, 0.5 * math.log1p(v / s**2), rtol=1e-12
            )

    def test_agrees_with_quadrature(self):
        """The closed form equals the 64-node quadrature oracle."""
        rng = np.random.default_rng(9)
        for _ in range(60):
            mean, kernel, log, cand, targets = random_scenario(rng)
            exact = edg_exact(mean, kernel, log, cand, targets).value
            quad = edg_quadrature(mean, kernel, log, cand, targets)
            assert np.isclose(exact, quad, rtol=1e-8, atol=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(10)
        for _ in range(60):
            mean, kernel, log, cand, targets = random_scenario(rng)
            assert edg_exact(mean, kernel, log, cand, targets).value >= -1e-10

    def test_terms_sum_to_value(self):
        rng = np.random.default_rng(11)
        mean, kernel, log, cand, targets = random_scenario(rng, n_obs=4)
        r = edg_exact(mean, kernel, log, cand, targets)
        np.testing.assert_allclose(r.structural_term + r.mean_shift_term, r.value)

    def test_distant_candidate_gains_nothing(self):
        kernel = KernelSpec(signal_variance=1.0, lengthscale=0.5)
        targets = np.array([[0.0, 0.0], [1.0, 0.0]])
        far = np.array([100.0, 100.0])
        r = edg_exact(MeanSpec(0.0), kernel, MeasurementLog.empty(0.5), far, targets)
        assert abs(r.value) < 1e-12

    def test_one_conditioning_per_call(self, monkeypatch):
        """One ``edg_exact`` call conditions on the log once: one
        ``predictive_moments`` call, and no ``posterior`` call."""
        calls = count_calls(monkeypatch, "predictive_moments", "posterior")
        mean, kernel, log, cand, targets = random_scenario(np.random.default_rng(17), n_obs=3)
        edg_exact(mean, kernel, log, cand, targets)
        assert {name: len(c) for name, c in calls.items()} == {"predictive_moments": 1, "posterior": 0}

    def test_diminishing_returns_on_repeat(self):
        """Measuring the same spot again is worth strictly less, sigma > 0."""
        rng = np.random.default_rng(12)
        for _ in range(10):
            mean, kernel, _, cand, targets = random_scenario(rng, n_obs=0)
            log = MeasurementLog.empty(1.0)
            first = edg_exact(mean, kernel, log, cand, targets).value
            log = log.append(cand, mean.constant + rng.normal())
            second = edg_exact(mean, kernel, log, cand, targets).value
            assert second < first


class TestEDGQuadrature:
    def test_weights_are_normalized(self):
        _, w = QuadratureSpec(32).nodes()
        np.testing.assert_allclose(w.sum(), math.sqrt(math.pi), rtol=1e-12)

    def test_node_count_does_not_matter(self):
        """The integrand is quadratic in the reading, so even a four-node
        rule is already exact."""
        rng = np.random.default_rng(13)
        mean, kernel, log, cand, targets = random_scenario(rng, n_obs=5)
        small = edg_quadrature(mean, kernel, log, cand, targets, QuadratureSpec(4))
        large = edg_quadrature(mean, kernel, log, cand, targets, QuadratureSpec(64))
        np.testing.assert_allclose(small, large, rtol=1e-10)

    def test_one_conditioning_then_one_per_node(self, monkeypatch):
        """The current belief and the reading's moments come from one
        ``predictive_moments`` call on the log; each node then conditions
        the log extended by its reading once."""
        calls = count_calls(monkeypatch, "predictive_moments", "posterior")
        mean, kernel, log, cand, targets = random_scenario(np.random.default_rng(17), n_obs=3)
        edg_quadrature(mean, kernel, log, cand, targets, QuadratureSpec(node_count=9))
        assert [args[2] for args in calls["predictive_moments"]] == [log]
        assert [len(args[2]) for args in calls["posterior"]] == [len(log) + 1] * 9

    def test_node_count_validated(self):
        with pytest.raises(InvalidInputError):
            QuadratureSpec(0)


class TestUnnormalizedForm:
    @pytest.mark.parametrize("n_obs", [0, 3])
    def test_one_conditioning_per_call(self, monkeypatch, n_obs):
        """The variant, its empty-log fallback included, conditions on the
        log once, takes its structural term from that conditioning and makes
        one factorization, the explained share's."""
        calls = count_calls(monkeypatch, "predictive_moments", "posterior", "edg_exact", "jittered_cholesky")
        mean, kernel, log, cand, targets = random_scenario(np.random.default_rng(17), n_obs=n_obs)
        edg_unnormalized_form(mean, kernel, log, cand, targets)
        assert {name: len(c) for name, c in calls.items()} == {
            "predictive_moments": 1,
            "posterior": 0,
            "edg_exact": 0,
            "jittered_cholesky": 1,
        }

    def test_empty_log_falls_back_to_exact(self):
        rng = np.random.default_rng(14)
        mean, kernel, log, cand, targets = random_scenario(rng, n_obs=0)
        u = edg_unnormalized_form(mean, kernel, log, cand, targets)
        e = edg_exact(mean, kernel, log, cand, targets)
        assert u.fallback
        np.testing.assert_allclose(u.value, e.value)

    def test_finite_and_deterministic(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            mean, kernel, log, cand, targets = random_scenario(rng, n_obs=5)
            a = edg_unnormalized_form(mean, kernel, log, cand, targets)
            b = edg_unnormalized_form(mean, kernel, log, cand, targets)
            assert not a.fallback
            assert np.isfinite(a.value)
            assert a.value == b.value

    @pytest.mark.parametrize("values", [(1.0, -0.5, 2.0), (0.3, -1.2, 0.8)])
    def test_zero_noise_known_targets_read_zero(self, values):
        """Noise-free readings at both targets leave nothing to learn, so
        the variant reads 0, whatever the readings were."""
        kernel = KernelSpec(signal_variance=2.9314442739284154, lengthscale=2.576874920536818)
        log = MeasurementLog([(3.0, 0.0), (0.0, 4.0), (1.0, 0.0)], values, 0.0)
        u = edg_unnormalized_form(MeanSpec(), kernel, log, (3.0, 2.0), [(1.0, 0.0), (3.0, 0.0)])
        assert not u.fallback
        assert abs(u.value) <= 1e-12

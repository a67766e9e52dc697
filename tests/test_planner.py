"""Greedy and random planners, episode execution, trace invariants."""

import math
import tracemalloc

import numpy as np
import pytest

import senseplan.gp as gp_mod
import senseplan.planner as planner_mod
from senseplan import (
    PLANNER_KINDS,
    AnalyticField,
    FieldDomainError,
    InvalidInputError,
    KernelSpec,
    MeanSpec,
    MeasurementLog,
    PlanningError,
    PolygonMask,
    ScenarioConfig,
    edg_exact,
    edg_quadrature,
    field_value,
    greedy_select,
    intersection_indices,
    kernel_matrix,
    place_scenario,
    posterior,
    run_episode,
    sample_field,
)
from senseplan.seeding import STREAM_NOISE, STREAM_PLANNER, substream

from reference import greedy_on_log, same_bits

MASK = PolygonMask.rectangle(0.0, 0.0, 10.0, 10.0)
KERNEL = KernelSpec(signal_variance=4.0, lengthscale=2.0)
MEAN = MeanSpec(constant=0.0)


def linear_field():
    return AnalyticField("linear", {"a": 1.0, "b": 1.0}, MASK)


def make_config(**kw):
    rng = np.random.default_rng(kw.pop("placement_seed", 0))
    n_t = kw.pop("n_targets", 6)
    n_c = kw.pop("n_candidates", 5)
    n_s = kw.pop("n_shared", 2)
    targets, candidates = place_scenario(MASK, n_t, n_c, n_s, seed=int(rng.integers(1 << 30)))
    defaults = dict(
        targets=targets,
        candidates=candidates,
        noise_sd=0.5,
        horizon=4,
        kernel=KERNEL,
        mean=MEAN,
        planner_kind="greedy-edg",
        seed=7,
    )
    defaults.update(kw)
    return ScenarioConfig(**defaults)


def step_metrics(step):
    """A step's five metrics, with NaN where run.json prints null."""
    keys = ("error", "variance", "error_shared", "variance_shared", "rmse")
    return tuple(math.nan if step[key] is None else step[key] for key in keys)


def written_out_metrics(belief, truth, shared):
    """The five step metrics of ``belief``, from their formulas: the error
    ``||mu - truth||_2 / N`` and the variance ``tr(Sigma) / N`` over all N
    targets and over the ``shared`` ones, and the rmse
    ``||mu - truth||_2 / sqrt(N)``."""
    residual, var = belief.mean - truth, np.diag(belief.cov)
    n, m = len(truth), len(shared)
    return (
        np.linalg.norm(residual) / n,
        var.sum() / n,
        np.linalg.norm(residual[shared]) / m,
        var[shared].sum() / m,
        np.linalg.norm(residual) / np.sqrt(n),
    )


def fresh_metrics(cfg, fld, steps):
    """A step's five metrics from a fresh posterior on the readings of
    ``steps``."""
    truth = fld.values(cfg.targets)
    shared, _ = intersection_indices(cfg.targets, cfg.candidates)
    log = MeasurementLog([s["chosen"] for s in steps], [s["measurement"] for s in steps], cfg.noise_sd)
    return written_out_metrics(posterior(cfg.mean, cfg.kernel, log, cfg.targets), truth, shared)


class TestGreedySelect:
    def test_singleton_candidate(self):
        targets = np.array([[1.0, 1.0], [2.0, 2.0]])
        cand = np.array([[1.5, 1.5]])
        log = MeasurementLog.empty(0.5)
        loc, score = greedy_select(KERNEL, log, cand, targets)
        np.testing.assert_array_equal(loc, cand[0])
        np.testing.assert_allclose(
            score, edg_exact(KERNEL, log, cand[0], targets).value
        )

    def test_zero_information_candidate_loses(self):
        """A candidate 20 lengthscales from every target cannot beat one
        sitting on a target."""
        targets = np.array([[1.0, 1.0]])
        cands = np.array([[90.0, 90.0], [1.0, 1.0]])
        loc, _ = greedy_select(KERNEL, MeasurementLog.empty(0.5), cands, targets)
        np.testing.assert_array_equal(loc, [1.0, 1.0])

    def test_matches_exhaustive_quadrature_rescoring(self):
        """The greedy pick agrees with brute-force re-scoring of every
        candidate through the quadrature oracle."""
        rng = np.random.default_rng(21)
        for _ in range(5):
            targets = rng.uniform(0, 10, (6, 2))
            cands = rng.uniform(0, 10, (10, 2))
            log = MeasurementLog(rng.uniform(0, 10, (3, 2)), rng.normal(0, 1, 3), 0.5)
            loc, score = greedy_select(KERNEL, log, cands, targets)
            oracle = [edg_quadrature(MEAN, KERNEL, log, c, targets) for c in cands]
            best = int(np.argmax(oracle))
            np.testing.assert_array_equal(loc, cands[best])
            np.testing.assert_allclose(score, oracle[best], rtol=1e-8)

    def test_tie_breaks_to_lowest_index(self):
        """Duplicate candidates score identically; the first one wins."""
        targets = np.array([[0.0, 0.0]])
        cands = np.array([[3.0, 3.0], [1.0, 1.0], [1.0, 1.0]])
        log = MeasurementLog.empty(0.5)
        loc, _ = greedy_select(KERNEL, log, cands, targets)
        scores = [edg_exact(KERNEL, log, c, targets).value for c in cands]
        assert scores[1] == scores[2] and scores[1] > scores[0]
        np.testing.assert_array_equal(loc, cands[1])

    def test_round_off_ties_break_to_lowest_index(self):
        """At an empty log every candidate on a target scores the largest
        possible gain, 0.5 * ln(1 + s^2 / noise^2), up to round-off; the
        first of them wins whatever the round-off."""
        log = MeasurementLog.empty(0.5)
        expected = 0.5 * math.log1p(KERNEL.signal_variance / 0.25)
        rng = np.random.default_rng(5)
        for _ in range(20):
            targets = rng.uniform(0, 10, (8, 2))
            on_targets = targets[rng.permutation(8)[:3]]
            cands = np.vstack([rng.uniform(0, 10, (2, 2)), on_targets])
            idx, gains = greedy_on_log(KERNEL, log, cands, targets)
            assert idx == 2
            np.testing.assert_allclose(gains[2:], expected, rtol=1e-12)

    def test_score_vector_matches_edg_exact(self):
        """Every candidate's score, not just the pick, agrees with the
        per-candidate closed form."""
        rng = np.random.default_rng(33)
        for _ in range(20):
            kernel = KernelSpec(rng.uniform(0.5, 5.0), rng.uniform(0.3, 4.0))
            rng.normal()  # a prior mean; the gains do not read it
            targets = rng.uniform(0, 10, (7, 2))
            cands = np.vstack([rng.uniform(0, 10, (9, 2)), targets[:2]])
            k = int(rng.integers(0, 6))
            noise = rng.uniform(0.1, 1.0)
            log = MeasurementLog(rng.uniform(0, 10, (k, 2)), rng.normal(0, 1, k), noise)
            _, gains = greedy_on_log(kernel, log, cands, targets)
            ref = [edg_exact(kernel, log, c, targets).value for c in cands]
            np.testing.assert_allclose(gains, ref, rtol=1e-8, atol=1e-12)

    def test_one_conditioning_per_decision(self, monkeypatch):
        """A greedy decision conditions on the log once: one from-scratch
        ``gp._condition`` and no ``posterior`` call."""
        calls = []
        conditioning = gp_mod._condition

        def counted(*args, **kwargs):
            calls.append(args)
            return conditioning(*args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("greedy scoring called posterior")

        monkeypatch.setattr(gp_mod, "_condition", counted)
        monkeypatch.setattr(planner_mod, "posterior", forbidden, raising=False)
        rng = np.random.default_rng(4)
        log = MeasurementLog(rng.uniform(0, 10, (3, 2)), rng.normal(0, 1, 3), 0.5)
        greedy_select(KERNEL, log, rng.uniform(0, 10, (6, 2)), rng.uniform(0, 10, (4, 2)))
        assert len(calls) == 1

    def test_all_candidates_degenerate_raises_planning_error(self, monkeypatch):
        def always_degenerate(kernel, log, targets, points):
            return np.full(len(points), np.nan), np.zeros(len(points))

        monkeypatch.setattr(planner_mod, "_variance_pair", always_degenerate)
        targets = np.array([[0.0, 0.0]])
        cands = np.array([[1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(PlanningError) as err:
            greedy_select(KERNEL, MeasurementLog.empty(0.5), cands, targets)
        assert err.value.failed_candidates == [0, 1]

    def test_empty_candidates_rejected(self):
        with pytest.raises(InvalidInputError):
            greedy_select(KERNEL, MeasurementLog.empty(0.5), [], [[0.0, 0.0]])


class TestZeroNoiseScores:
    """Noise-free readings, one of them at a target: its posterior
    variance is zero, so the target covariance given the log is singular,
    and every route must still score finite."""

    KERNEL = KernelSpec(signal_variance=4.0, lengthscale=1.0)
    TARGETS = np.array([[1.0, 1.0], [8.0, 1.0], [4.5, 4.5]])
    LOG = MeasurementLog(np.array([[1.0, 1.0]]), np.array([0.3]), 0.0)

    def test_gains_finite_and_nonnegative(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            targets = rng.uniform(0, 10, (6, 2))
            cands = np.vstack([targets[:3], rng.uniform(0, 10, (5, 2))])
            visits = rng.integers(0, len(cands), 4)
            values = rng.normal(0, 1, 4)
            # Noise-free repeats read the value of the first visit.
            log = MeasurementLog(cands[visits], [values[list(visits).index(i)] for i in visits], 0.0)
            _, gains = greedy_on_log(self.KERNEL, log, cands, targets)
            assert np.all(np.isfinite(gains)) and np.all(gains >= 0)

    def test_repeat_scores_about_zero(self):
        """A noise-free repeat reading adds no row to the log's
        conditioning, so the scorer, the closed form and the quadrature
        oracle all read its gain as 0.  After three more readings the
        predictive mean at the repeat differs from its reading by round-off,
        and the quadrature's readings must still repeat the logged one."""
        pts = np.random.default_rng(1).uniform(0, 5, (3, 2))
        longer = MeasurementLog(np.vstack([pts, self.LOG.locations]), np.append(np.arange(3.0), self.LOG.values), 0.0)
        cand = np.array([1.0, 1.0])
        for log in (self.LOG, longer):
            _, gains = greedy_on_log(self.KERNEL, log, cand[None], self.TARGETS)
            exact = edg_exact(self.KERNEL, log, cand, self.TARGETS).value
            quad = edg_quadrature(MEAN, self.KERNEL, log, cand, self.TARGETS)
            for gain in (gains[0], exact, quad):
                assert 0.0 <= gain <= 1e-12

    def test_unmeasured_target_outranks_every_other_candidate(self):
        cands = np.array([[2.0, 2.0], [1.0, 1.0], [8.0, 1.0], [4.5, 4.5]])
        idx, gains = greedy_on_log(self.KERNEL, self.LOG, cands, self.TARGETS)
        assert idx == 2 and np.all(np.isfinite(gains))
        assert gains[2] > max(gains[0], gains[1])

    def test_near_candidate_matches_direct_conditioning(self):
        """With the reading at a target, the gain at (2, 2) is
        0.5 * ln(var(f | reading) / var(f | all targets)), both variances
        taken by conditioning on noise-free points directly."""

        def cond_var(points):
            k = kernel_matrix(self.KERNEL, [[2.0, 2.0]], points)[0]
            return 4.0 - k @ np.linalg.solve(kernel_matrix(self.KERNEL, points, points), k)

        expected = 0.5 * math.log(cond_var([[1.0, 1.0]]) / cond_var(self.TARGETS))
        _, gains = greedy_on_log(self.KERNEL, self.LOG, np.array([[2.0, 2.0]]), self.TARGETS)
        np.testing.assert_allclose(gains[0], expected, rtol=1e-6)

    def test_all_targets_measured_scores_finite(self):
        """Once every target has a noise-free reading the targets are known,
        so a candidate gains 0: finite and not negative.  The target
        covariance given the log is pure round-off there (eigenvalues of
        -2.2e-16 to 4.4e-16), which no jitter relative to its own diagonal
        could make factorizable."""
        kernel = KernelSpec(signal_variance=2.0, lengthscale=8.0)
        targets = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        log = MeasurementLog(targets, [0.1, 0.2, 0.3], 0.0)
        _, gain = greedy_select(kernel, log, [[5.0, 5.0]], targets)
        assert math.isfinite(gain) and gain >= 0.0

    @pytest.mark.parametrize(
        "readings, cand",
        [((), (4.5, 4.5)), (((4.0, 1.0),), (4.5, 4.5)), (((1.0, 1.0),), (8.0, 1.0))],
    )
    def test_quadrature_is_infinite_at_an_unmeasured_target(self, readings, cand):
        """A noise-free reading at a target the log leaves uncertain makes
        that target known, so the KL divergence is infinite at every node:
        the quadrature reads inf whether round-off leaves the post variance
        there at exactly 0 or not (before, 18.37 and 11.72 for the last two)."""
        log = MeasurementLog(np.array(readings).reshape(-1, 2), np.full(len(readings), 0.3), 0.0)
        assert edg_quadrature(MEAN, self.KERNEL, log, cand, self.TARGETS) == math.inf

    def test_edg_routes_match_direct_conditioning(self):
        """``edg_exact`` and the quadrature oracle give the gain at (2, 2)
        of the test above, 2.15104633e-6 when its two noise-free
        conditionings are done at 40 digits."""
        expected = 2.1510463332e-6
        cand = np.array([2.0, 2.0])
        exact = edg_exact(self.KERNEL, self.LOG, cand, self.TARGETS).value
        quad = edg_quadrature(MEAN, self.KERNEL, self.LOG, cand, self.TARGETS)
        np.testing.assert_allclose([exact, quad], expected, rtol=1e-6)


class TestRandomSelect:
    """The random planner draws each step's candidate from its own substream."""

    def test_singleton(self):
        """With one candidate, every step measures it."""
        cfg = make_config(planner_kind="random", n_candidates=1, n_shared=0, horizon=3)
        assert [s["chosen_index"] for s in run_episode(cfg, linear_field()).steps] == [0, 0, 0]

    def test_reproducible_sequence(self):
        """The chosen indices are the planner substream's uniform draws over
        the candidate count, one per step."""
        cfg = make_config(planner_kind="random", n_candidates=7, horizon=12, trial_index=3)
        trace = run_episode(cfg, linear_field())
        rng = substream(cfg.seed, STREAM_PLANNER, cfg.trial_index, PLANNER_KINDS.index("random"))
        expected = [int(rng.integers(len(cfg.candidates))) for _ in range(cfg.horizon)]
        assert [s["chosen_index"] for s in trace.steps] == expected
        assert [s["chosen"] for s in trace.steps] == [cfg.candidates[i].tolist() for i in expected]


class TestRunEpisode:
    @pytest.mark.parametrize("kind", PLANNER_KINDS)
    def test_final_covariance_is_exactly_symmetric(self, kind):
        """The final belief's covariance, ``K(T, T) - W_T' W_T`` with the
        carried variances on its diagonal, is symmetric bit for bit."""
        cfg = make_config(planner_kind=kind, n_targets=30, n_candidates=20, n_shared=5, horizon=12)
        cov = run_episode(cfg, linear_field()).final_belief.cov
        assert np.array_equal(cov, cov.T)

    def test_horizon_one_single_candidate(self):
        """One step, one candidate: the belief is the one-measurement
        posterior."""
        cfg = make_config(
            targets=np.array([[1.0, 1.0], [4.0, 4.0]]),
            candidates=np.array([[2.0, 2.0]]),
            horizon=1,
        )
        trace = run_episode(cfg, linear_field())
        assert len(trace.steps) == 1
        step = trace.steps[0]
        assert step["chosen"] == [2.0, 2.0]
        log = MeasurementLog.empty(cfg.noise_sd).append(step["chosen"], step["measurement"])
        belief = posterior(MEAN, KERNEL, log, cfg.targets)
        np.testing.assert_array_equal(trace.final_belief.mean, belief.mean)
        np.testing.assert_array_equal(trace.final_belief.cov, belief.cov)

    def test_no_fresh_conditioning_per_step(self, monkeypatch):
        """An episode carries one conditioning across its steps, whichever
        planner runs it, however long it is and whatever the noise: it
        makes no ``predictive_moments`` or ``posterior`` call, conditions
        nothing from scratch and factors no matrix (the greedy planner's
        targets enter as rows too).  A noise-free repeat reading is skipped
        rather than rebuilt."""

        def forbidden(*args, **kwargs):
            raise AssertionError("run_episode conditioned on the whole log")

        monkeypatch.setattr(gp_mod, "_condition", forbidden)
        monkeypatch.setattr(gp_mod, "jittered_cholesky", forbidden)
        monkeypatch.setattr(planner_mod, "predictive_moments", forbidden, raising=False)
        monkeypatch.setattr(planner_mod, "posterior", forbidden, raising=False)
        for kind in PLANNER_KINDS:
            for horizon in (5, 50):
                run_episode(make_config(planner_kind=kind, horizon=horizon), linear_field())
                for n_candidates in (1, 5):
                    cfg = make_config(
                        planner_kind=kind, n_candidates=n_candidates, n_shared=1, horizon=horizon, noise_sd=0.0
                    )
                    run_episode(cfg, linear_field())

    @pytest.mark.parametrize("kind", PLANNER_KINDS)
    def test_integer_kernel_parameters_give_the_float_results(self, kind):
        """``KernelSpec`` accepts integers; the carried variances are floats
        all the same, in an episode and in a noise-free repeat's fallback
        conditioning."""
        cfg = make_config(planner_kind=kind, noise_sd=0.0, n_candidates=2, horizon=6)
        ints = ScenarioConfig(**{**cfg.__dict__, "kernel": KernelSpec(signal_variance=4, lengthscale=2)})
        trace, expected = run_episode(ints, linear_field()), run_episode(cfg, linear_field())
        assert trace.steps == expected.steps
        log = MeasurementLog([s["chosen"] for s in trace.steps], [s["measurement"] for s in trace.steps], 0.0)
        belief = posterior(MEAN, ints.kernel, log, cfg.targets)
        assert same_bits(belief.cov, posterior(MEAN, KERNEL, log, cfg.targets).cov)

    @pytest.mark.parametrize("noise_sd", [0.0, 2e-6])
    def test_degenerate_repeat_adds_no_row(self, noise_sd):
        """With zero noise, or noise below about 1e-5 of the prior standard
        deviation (2 here), a repeat reading's pivot is at most 1e-10 of the
        prior variance, so it adds no row: the final belief is the posterior
        on the first reading alone, bit for bit, and a fresh posterior on
        the whole log skips the repeats as well."""
        cfg = make_config(planner_kind="random", n_candidates=1, n_shared=1, horizon=3, noise_sd=noise_sd)
        trace = run_episode(cfg, linear_field())
        whole = MeasurementLog([s["chosen"] for s in trace.steps], [s["measurement"] for s in trace.steps], noise_sd)
        for log in (MeasurementLog(whole.locations[:1], whole.values[:1], noise_sd), whole):
            belief = posterior(MEAN, KERNEL, log, cfg.targets)
            np.testing.assert_array_equal(trace.final_belief.mean, belief.mean)
            np.testing.assert_array_equal(trace.final_belief.cov, belief.cov)

    def test_one_truth_query_per_episode(self):
        """An episode reads the field once, at the targets and candidates
        stacked, whichever planner runs it."""

        class CountingField(AnalyticField):
            def __post_init__(self):
                super().__post_init__()
                object.__setattr__(self, "queries", [])

            def values(self, points):
                self.queries.append(np.array(points))
                return super().values(points)

        for kind in ("greedy-edg", "random"):
            fld = CountingField("linear", {"a": 1.0, "b": 1.0}, MASK)
            cfg = make_config(planner_kind=kind, horizon=5)
            run_episode(cfg, fld)
            assert len(fld.queries) == 1
            np.testing.assert_array_equal(fld.queries[0], np.vstack([cfg.targets, cfg.candidates]))

    def test_candidate_outside_region_fails_before_step_one(self):
        """A candidate the field cannot answer at fails up front, even one
        the planner would never choose."""
        for kind in ("greedy-edg", "random"):
            cfg = make_config(
                targets=np.array([[1.0, 1.0], [4.0, 4.0]]),
                candidates=np.array([[1.0, 1.0], [30.0, 30.0]]),
                planner_kind=kind,
            )
            with pytest.raises(FieldDomainError, match="30.0, 30.0") as err:
                run_episode(cfg, linear_field())
            assert not hasattr(err.value, "partial_trace")

    def test_step_metrics_match_fresh_posterior(self):
        """Every step's metrics equal those of a fresh posterior on that
        step's log prefix, noise-free repeat readings included."""
        for kind in ("greedy-edg", "random"):
            for noise_sd, n_candidates in ((0.5, 5), (0.0, 2)):
                cfg = make_config(planner_kind=kind, horizon=6, noise_sd=noise_sd, n_candidates=n_candidates)
                fld = linear_field()
                trace = run_episode(cfg, fld)
                truth = np.array([field_value(fld, pt) for pt in cfg.targets])
                shared, _ = intersection_indices(cfg.targets, cfg.candidates)
                log = MeasurementLog.empty(cfg.noise_sd)
                for step in trace.steps:
                    log = log.append(step["chosen"], step["measurement"])
                    expected = written_out_metrics(posterior(MEAN, KERNEL, log, cfg.targets), truth, shared)
                    np.testing.assert_allclose(step_metrics(step), expected, rtol=1e-12)

    def test_carried_conditioning_does_not_drift(self):
        """Over a 300-step random episode, every 50th step's metrics equal
        those of a fresh posterior on that step's log prefix."""
        cfg = make_config(planner_kind="random", horizon=300)
        fld = linear_field()
        trace = run_episode(cfg, fld)
        for step in trace.steps[49::50]:
            np.testing.assert_allclose(
                step_metrics(step), fresh_metrics(cfg, fld, trace.steps[: step["step"]]), rtol=1e-12
            )

    def test_baseline_jitter_matches_fresh_posterior(self):
        """Under a baseline jitter, every step's metrics equal those of a
        fresh posterior, whose Gram matrix carries the same jitter."""
        kernel = KernelSpec(signal_variance=4.0, lengthscale=2.0, jitter=1e-6)
        for kind in PLANNER_KINDS:
            cfg = make_config(planner_kind=kind, horizon=8, kernel=kernel)
            fld = linear_field()
            trace = run_episode(cfg, fld)
            for step in trace.steps:
                np.testing.assert_allclose(
                    step_metrics(step), fresh_metrics(cfg, fld, trace.steps[: step["step"]]), rtol=1e-12
                )

    def test_final_belief_agrees_with_the_last_step(self):
        """With noise, the last step's variance and error are those of the
        final belief, bit for bit, and the final belief, formed once from
        the carried rows, is a fresh posterior's on the whole log."""
        for kind in PLANNER_KINDS:
            cfg = make_config(planner_kind=kind, horizon=12)
            fld = linear_field()
            trace = run_episode(cfg, fld)
            last, belief = trace.steps[-1], trace.final_belief
            n = len(cfg.targets)
            assert last["variance"] == np.diag(belief.cov).sum() / n
            assert last["error"] == np.linalg.norm(belief.mean - fld.values(cfg.targets)) / n
            log = MeasurementLog([s["chosen"] for s in trace.steps], [s["measurement"] for s in trace.steps], cfg.noise_sd)
            fresh = posterior(cfg.mean, cfg.kernel, log, cfg.targets)
            assert np.max(np.abs(belief.cov - fresh.cov)) <= 1e-10 * np.max(np.abs(fresh.cov))
            np.testing.assert_array_equal(belief.cov, belief.cov.T)

    def test_one_kernel_row_per_reading(self, monkeypatch):
        """A greedy episode computes the targets' kernel rows in one call,
        and each episode one kernel row per distinct reading location,
        shared by both carried states in a greedy one, then the targets'
        kernel matrix for the final belief."""
        calls = []
        kernel_matrix_ = gp_mod.kernel_matrix

        def counted(spec, X, Y):
            calls.append(len(X))
            return kernel_matrix_(spec, X, Y)

        monkeypatch.setattr(gp_mod, "kernel_matrix", counted)
        monkeypatch.setattr(planner_mod, "kernel_matrix", counted)
        for kind in PLANNER_KINDS:
            calls.clear()
            cfg = make_config(planner_kind=kind, horizon=9, n_targets=7)
            trace = run_episode(cfg, linear_field())
            distinct = len({step["chosen_index"] for step in trace.steps})
            assert distinct < 9
            assert calls == [7] * (kind == "greedy-edg") + [1] * distinct + [7]

    def test_choices_stay_in_candidate_set(self):
        for kind in ("greedy-edg", "random"):
            cfg = make_config(planner_kind=kind, horizon=6)
            trace = run_episode(cfg, linear_field())
            cand_keys = cfg.candidates.tolist()
            assert all(s["chosen"] in cand_keys for s in trace.steps)

    def test_greedy_argmax_is_replayable(self):
        """Re-scoring all candidates on the log prefix reproduces every
        recorded choice and score."""
        cfg = make_config(horizon=5)
        trace = run_episode(cfg, linear_field())
        log = MeasurementLog.empty(cfg.noise_sd)
        for step in trace.steps:
            loc, score = greedy_select(KERNEL, log, cfg.candidates, cfg.targets)
            assert loc.tolist() == step["chosen"]
            np.testing.assert_allclose(score, step["score"], rtol=1e-12)
            log = log.append(step["chosen"], step["measurement"])

    def test_deterministic_bit_for_bit(self):
        for kind in ("greedy-edg", "random"):
            cfg = make_config(planner_kind=kind)
            fld = linear_field()
            a = run_episode(cfg, fld)
            b = run_episode(cfg, fld)
            assert a.steps == b.steps

    def test_variance_non_increasing(self):
        for kind in ("greedy-edg", "random"):
            cfg = make_config(planner_kind=kind, horizon=8)
            trace = run_episode(cfg, linear_field())
            vs = [s["variance"] for s in trace.steps]
            assert all(b <= a + 1e-10 for a, b in zip(vs, vs[1:]))

    def test_random_score_is_nan_and_noise_streams_differ(self):
        cfg_r = make_config(planner_kind="random")
        trace_r = run_episode(cfg_r, linear_field())
        assert all(s["score"] is None for s in trace_r.steps)
        cfg_g = make_config(planner_kind="greedy-edg")
        trace_g = run_episode(cfg_g, linear_field())
        assert all(s["score"] is not None and not math.isnan(s["score"]) for s in trace_g.steps)

    def test_random_sequence_ignores_field_values(self):
        """Two very different fields, same seed: the random planner visits
        the same location sequence."""
        cfg = make_config(planner_kind="random", horizon=6, noise_sd=0.0)
        f1 = AnalyticField("linear", {"a": 1.0, "b": 1.0}, MASK)
        f2 = AnalyticField("linear", {"a": -20.0, "b": 3.0, "c": 100.0}, MASK)
        t1 = run_episode(cfg, f1)
        t2 = run_episode(cfg, f2)
        assert [s["chosen"] for s in t1.steps] == [s["chosen"] for s in t2.steps]

    def test_noise_free_coverage_drives_error_to_zero(self):
        """sigma = 0 and candidates equal to targets: once the greedy has
        measured every target, the error is numerically zero.  Targets sit
        several lengthscales apart so each unmeasured one keeps a large
        gain and the greedy covers the whole set within the horizon."""
        targets = np.array(
            [[1.0, 1.0], [8.0, 1.0], [1.0, 8.0], [8.0, 8.0], [4.5, 4.5]]
        )
        cfg = ScenarioConfig(
            targets=targets,
            candidates=targets,
            noise_sd=0.0,
            horizon=5,
            kernel=KernelSpec(signal_variance=4.0, lengthscale=1.0),
            mean=MEAN,
            planner_kind="greedy-edg",
            seed=3,
        )
        trace = run_episode(cfg, linear_field())
        covered = {tuple(s["chosen"]) for s in trace.steps}
        assert covered == {tuple(t) for t in targets}
        assert trace.steps[-1]["error"] < 1e-6

    def test_shared_metrics_nan_without_intersection(self):
        targets = np.array([[1.0, 1.0], [2.0, 2.0]])
        cands = np.array([[3.0, 3.0], [4.0, 4.0]])
        cfg = make_config(targets=targets, candidates=cands, horizon=2)
        trace = run_episode(cfg, linear_field())
        assert all(s["error_shared"] is None for s in trace.steps)
        assert all(s["variance_shared"] is None for s in trace.steps)
        assert all(np.isfinite(s["error"]) for s in trace.steps)

    def test_partial_trace_attached_on_mid_episode_failure(self, monkeypatch):
        """If scoring degenerates at step 3, the raised error carries the
        two completed steps, and the final belief after them: bit for bit
        that of the same episode run with horizon 2."""
        calls = {"n": 0}
        real = planner_mod._explained_share

        def flaky(*args, **kwargs):
            share = real(*args, **kwargs)
            calls["n"] += 1
            return share if calls["n"] <= 2 else np.full_like(share, np.nan)  # one share per decision

        monkeypatch.setattr(planner_mod, "_explained_share", flaky)
        cfg = make_config(n_candidates=3, n_shared=1, horizon=5)
        with pytest.raises(PlanningError) as err:
            run_episode(cfg, linear_field())
        partial = err.value.partial_trace
        assert len(partial.steps) == 2
        monkeypatch.setattr(planner_mod, "_explained_share", real)
        short = run_episode(make_config(n_candidates=3, n_shared=1, horizon=2), linear_field())
        assert partial.steps == short.steps
        assert same_bits(partial.final_belief.mean, short.final_belief.mean)
        assert same_bits(partial.final_belief.cov, short.final_belief.cov)

    @pytest.mark.parametrize("bad", ["x", None])
    def test_non_numeric_noise_raises_invalid_input(self, bad):
        with pytest.raises(InvalidInputError, match="noise_sd"):
            make_config(noise_sd=bad)

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            make_config(horizon=0)
        with pytest.raises(InvalidInputError):
            make_config(noise_sd=-1.0)
        with pytest.raises(InvalidInputError):
            make_config(planner_kind="exhaustive")
        for bad in ({"seed": -1}, {"trial_index": -1}, {"seed": 1.7}, {"trial_index": 0.5}, {"horizon": True}, {"seed": True}):
            with pytest.raises(InvalidInputError):
                make_config(**bad)
        cfg = make_config(seed=np.int64(3), trial_index=np.int64(2), horizon=np.int64(2))
        assert (type(cfg.seed), type(cfg.trial_index), type(cfg.horizon)) == (int, int, int)


@pytest.mark.parametrize("noise_sd", [0.0, 0.5])
def test_greedy_plan_is_open_loop(noise_sd):
    """A GP's posterior variances do not depend on the values read, so the
    greedy plan does not either: one placement under gp-sample and analytic
    fields, field seeds, noise seeds and prior means picks the same
    candidate with a bit-identical score at every step, while the readings
    differ."""
    targets, candidates = place_scenario(MASK, 8, 10, 3, seed=12)
    nodes = np.vstack([targets, candidates])
    fields = [linear_field(), AnalyticField("sinusoid", {"a": 3.0, "b": 0.8, "c": 0.6, "d": 10.0}, MASK)]
    fields += [sample_field(MeanSpec(constant), KERNEL, nodes, seed, MASK) for constant, seed in ((0.0, 1), (2.5, 2))]
    plans, readings = set(), set()
    for fld in fields:
        for seed, trial_index in ((7, 0), (8, 3)):
            for constant in (0.0, -2.5):
                cfg = make_config(
                    targets=targets,
                    candidates=candidates,
                    noise_sd=noise_sd,
                    horizon=14,
                    mean=MeanSpec(constant),
                    seed=seed,
                    trial_index=trial_index,
                )
                steps = run_episode(cfg, fld).steps
                plans.add(tuple((s["chosen_index"], s["score"].hex()) for s in steps))
                readings.add(tuple(s["measurement"] for s in steps))
    assert len(plans) == 1
    assert len(readings) == len(fields) * (1 if noise_sd == 0 else 2)


#: A scenario at A2's target count with 13 shared targets, so that both
#: the full and the shared vectors are long enough for a blocked dot or sum
#: to round differently from a strided one.
BOOKKEEPING = dict(n_targets=61, n_candidates=20, n_shared=13, horizon=40, placement_seed=4)


def substream_of(cfg, stream):
    return substream(cfg.seed, stream, cfg.trial_index, PLANNER_KINDS.index(cfg.planner_kind))


class TestStepBookkeeping:
    """Each step's record, built after the loop from batched rows, holds the
    bits of the per-step formulas; the up-front noise draws are the per-call
    ones (``TestRandomSelect`` pins the random planner's picks)."""

    @pytest.mark.parametrize(
        "kind, noise_sd",
        [("greedy-edg", 0.5), ("random", 0.5), ("greedy-edg", 0.0), ("random", 0.0)],
    )
    def test_metrics_equal_the_per_step_formulas_bit_for_bit(self, kind, noise_sd):
        """Appending the logged readings' rows one step at a time, updating
        the means as each row is appended (``a = (z - m - l'alpha) / d``,
        then ``mu += a * w``), and scoring each step's fresh contiguous
        vectors with ``sqrt(r @ r)`` and ``v.sum() / n`` gives every metric
        exactly, under a prior mean that is not 0.  At zero noise the random
        planner repeats readings, whose rows are skipped."""
        cfg = make_config(planner_kind=kind, noise_sd=noise_sd, mean=MeanSpec(1.5), **BOOKKEEPING)
        fld = linear_field()
        trace = run_episode(cfg, fld)
        n = len(cfg.targets)
        shared, _ = intersection_indices(cfg.targets, cfg.candidates)
        m = len(shared)
        truth = fld.values(cfg.targets)
        points = np.vstack([cfg.targets, cfg.candidates])
        state = gp_mod._CarriedRows(cfg.kernel, points, cfg.horizon)
        mu, alpha = np.full(len(points), float(cfg.mean.constant)), []
        for step in trace.steps:
            i, k = n + step["chosen_index"], state.k
            state._push(i, kernel_matrix(cfg.kernel, points[i : i + 1], points)[0], cfg.noise_sd**2, cfg.kernel.jitter)
            if state.k > k:
                d = state.pushed[-1][1]
                alpha.append((step["measurement"] - cfg.mean.constant - state.W[:k, i] @ np.array(alpha)) / d)
                mu += alpha[-1] * state.W[k]
            r, v = mu[:n] - truth, state.var[:n].copy()
            r_s, v_s = r[shared], v[shared]
            norm = math.sqrt(r @ r)
            assert step["error"] == norm / n
            assert step["rmse"] == norm / math.sqrt(n)
            assert step["variance"] == float(v.sum() / n)
            assert step["error_shared"] == math.sqrt(r_s @ r_s) / m
            assert step["variance_shared"] == float(v_s.sum() / m)

    @pytest.mark.parametrize("kind", PLANNER_KINDS)
    def test_measurements_are_truth_plus_the_noise_substream(self, kind):
        """A step's reading is the truth at its candidate plus that step's
        entry of ``normal(0, sd, size=H)`` from the episode's noise
        substream, which are also the draws of one call per step."""
        cfg = make_config(planner_kind=kind, **BOOKKEEPING)
        fld = linear_field()
        trace = run_episode(cfg, fld)
        truth = fld.values(cfg.candidates)[[s["chosen_index"] for s in trace.steps]]
        batched = substream_of(cfg, STREAM_NOISE).normal(0.0, cfg.noise_sd, size=cfg.horizon)
        rng = substream_of(cfg, STREAM_NOISE)
        per_call = [float(rng.normal(0.0, cfg.noise_sd)) for _ in range(cfg.horizon)]
        assert [s["measurement"] for s in trace.steps] == (truth + batched).tolist()
        assert batched.tolist() == per_call

    @pytest.mark.parametrize("kind", PLANNER_KINDS)
    def test_zero_noise_measurement_is_the_truth(self, kind):
        cfg = make_config(planner_kind=kind, noise_sd=0.0, horizon=6)
        fld = linear_field()
        trace = run_episode(cfg, fld)
        truth = fld.values(cfg.candidates)
        assert [s["measurement"] for s in trace.steps] == [truth[s["chosen_index"]] for s in trace.steps]

    def test_partial_trace_steps_are_the_full_run_steps(self, monkeypatch):
        """An episode aborted at step 4 carries its first three steps with
        the bits the uninterrupted episode gives them."""
        cfg = make_config(planner_kind="greedy-edg", **BOOKKEEPING)
        full = run_episode(cfg, linear_field()).steps[:3]
        calls = {"n": 0}
        real = planner_mod._explained_share

        def flaky(*args, **kwargs):
            share = real(*args, **kwargs)
            calls["n"] += 1
            return share if calls["n"] <= 3 else np.full_like(share, np.nan)

        monkeypatch.setattr(planner_mod, "_explained_share", flaky)
        with pytest.raises(PlanningError) as err:
            run_episode(cfg, linear_field())
        partial = err.value.partial_trace.steps
        assert partial == full


def sinusoid_episode(side, n_candidates, horizon, noise_sd, kind="greedy-edg"):
    """An episode at A2's kernel and target count, 5 targets shared, on the
    analytic ``sinusoid`` field over a ``side`` x ``side`` square."""
    square = PolygonMask.rectangle(0.0, 0.0, side, side)
    targets, cands = place_scenario(square, 61, n_candidates, 5, seed=1)
    cfg = ScenarioConfig(targets, cands, noise_sd, horizon, KernelSpec(9.0, 1.5), MEAN, kind, seed=7)
    return cfg, AnalyticField("sinusoid", {}, square)


def assert_scores_add_up(cfg, trace):
    """A greedy step's score is the reading's mutual information with the
    targets given the readings before it, so by the chain rule the scores
    sum to ``I(T; y_1..y_H) = 0.5 (log det K(T, T) - log det Sigma)``,
    ``Sigma`` the final belief's covariance."""
    _, prior = np.linalg.slogdet(kernel_matrix(cfg.kernel, cfg.targets, cfg.targets))
    _, final = np.linalg.slogdet(trace.final_belief.cov)
    information = 0.5 * (prior - final)
    assert abs(sum(step["score"] for step in trace.steps) - information) <= 1e-9 * information


class TestEpisodeInformation:
    """The greedy scores of a whole episode add up to what it learned.

    Noise 0 is left out: there a reading at an unmeasured target scores
    the floor ``0.5 ln 1e10`` of the explained share, while the
    information it carries is infinite."""

    @pytest.mark.parametrize("noise_sd", [0.1, 1.0])
    @pytest.mark.parametrize("n_candidates, horizon", [(60, 60), (1000, 300)])
    def test_scores_sum_to_the_information_gained(self, n_candidates, horizon, noise_sd):
        cfg, fld = sinusoid_episode(10.0, n_candidates, horizon, noise_sd)
        assert_scores_add_up(cfg, run_episode(cfg, fld))


class TestEpisodeMemory:
    """An episode holds its carried rows and no covariance matrix.

    In float64s, over ``n`` targets, ``C`` candidates and horizon ``H``:
    ``2 H (n + C)`` for the carried rows' ``W`` over targets and
    candidates and the kernel rows kept per distinct pick; a greedy
    episode adds ``(n + H) C`` for its rows of the candidates' columns and
    ``2 n (n + C)`` while the targets' rows are set up.  The means, replayed
    after the loop, add ``O(H n)``.  Measured peaks were 0.86 to 1.07 of
    these counts at C = 10,000 and 2,000, H = 100 and 300; the random
    episode at H = 100 reads 1.20, as about 3.3 MB that does not grow with
    H (mostly the shared targets' lookup in ``_steps``, a dict of C
    coordinate tuples) weighs more beside its smaller count.  A C x C
    matrix would be 800 MB."""

    N, C, H = 61, 10_000, 100
    FACTOR = 1.3

    def traced_episode(self, kind):
        cfg, fld = sinusoid_episode(100.0, self.C, self.H, 1.0, kind)
        tracemalloc.start()
        try:
            trace = run_episode(cfg, fld)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return cfg, trace, peak

    def test_greedy_peak_is_its_carried_state(self):
        n, C, H = self.N, self.C, self.H
        cfg, trace, peak = self.traced_episode("greedy-edg")
        assert peak <= self.FACTOR * 8 * (2 * H * (n + C) + (n + H) * C + 2 * n * (n + C))
        assert_scores_add_up(cfg, trace)

    def test_random_peak_is_its_carried_state(self):
        n, C, H = self.N, self.C, self.H
        _, _, peak = self.traced_episode("random")
        assert peak <= self.FACTOR * 8 * 2 * H * (n + C)


class TestPairedSeeding:
    def test_same_trial_different_planners_draw_independent_noise(self):
        """Greedy and random use separate noise substreams even when they
        happen to measure the same location first."""
        targets = np.array([[5.0, 5.0]])
        cands = np.array([[5.0, 5.0]])
        fld = linear_field()
        base = dict(
            targets=targets,
            candidates=cands,
            noise_sd=1.0,
            horizon=1,
            kernel=KERNEL,
            mean=MEAN,
            seed=77,
        )
        g = run_episode(ScenarioConfig(planner_kind="greedy-edg", **base), fld)
        r = run_episode(ScenarioConfig(planner_kind="random", **base), fld)
        assert g.steps[0]["chosen"] == r.steps[0]["chosen"]
        assert g.steps[0]["measurement"] != r.steps[0]["measurement"]

    def test_trial_index_shifts_noise(self):
        cfg0 = make_config(horizon=2)
        cfg1 = make_config(horizon=2, trial_index=1)
        fld = linear_field()
        t0 = run_episode(cfg0, fld)
        t1 = run_episode(cfg1, fld)
        assert [s["measurement"] for s in t0.steps] != [s["measurement"] for s in t1.steps]


def test_sample_field_works_as_ground_truth():
    """gp-sample fields evaluate exactly at scenario nodes, so the
    noise-free posterior can interpolate them."""
    targets, cands = place_scenario(MASK, 4, 4, 4, seed=2)
    nodes = targets
    fld = sample_field(MEAN, KERNEL, nodes, seed=6, region=MASK)
    cfg = ScenarioConfig(
        targets=targets,
        candidates=cands,
        noise_sd=0.0,
        horizon=4,
        kernel=KERNEL,
        mean=MEAN,
        planner_kind="greedy-edg",
        seed=1,
    )
    trace = run_episode(cfg, fld)
    assert trace.steps[-1]["error"] < 1e-5

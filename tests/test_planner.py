"""Greedy and random planners, episode execution, trace invariants."""

import math

import numpy as np
import pytest

import senseplan.infogain as infogain_mod
import senseplan.planner as planner_mod
from senseplan import (
    AnalyticField,
    FieldDomainError,
    InvalidInputError,
    KernelSpec,
    MeanSpec,
    MeasurementLog,
    NumericalDegeneracyError,
    PlanningError,
    PolygonMask,
    ScenarioConfig,
    edg_exact,
    edg_quadrature,
    estimating_error,
    estimating_variance,
    greedy_select,
    intersection_indices,
    kernel_matrix,
    place_scenario,
    posterior,
    random_select,
    rmse,
    run_episode,
    sample_field,
)

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


class TestGreedySelect:
    def test_singleton_candidate(self):
        targets = np.array([[1.0, 1.0], [2.0, 2.0]])
        cand = np.array([[1.5, 1.5]])
        log = MeasurementLog.empty(0.5)
        loc, score = greedy_select(MEAN, KERNEL, log, cand, targets)
        np.testing.assert_array_equal(loc, cand[0])
        np.testing.assert_allclose(
            score, edg_exact(MEAN, KERNEL, log, cand[0], targets).value
        )

    def test_zero_information_candidate_loses(self):
        """A candidate 20 lengthscales from every target cannot beat one
        sitting on a target."""
        targets = np.array([[1.0, 1.0]])
        cands = np.array([[90.0, 90.0], [1.0, 1.0]])
        loc, _ = greedy_select(MEAN, KERNEL, MeasurementLog.empty(0.5), cands, targets)
        np.testing.assert_array_equal(loc, [1.0, 1.0])

    def test_matches_exhaustive_quadrature_rescoring(self):
        """The greedy pick agrees with brute-force re-scoring of every
        candidate through the quadrature oracle."""
        rng = np.random.default_rng(21)
        for _ in range(5):
            targets = rng.uniform(0, 10, (6, 2))
            cands = rng.uniform(0, 10, (10, 2))
            log = MeasurementLog(rng.uniform(0, 10, (3, 2)), rng.normal(0, 1, 3), 0.5)
            loc, score = greedy_select(MEAN, KERNEL, log, cands, targets)
            oracle = [edg_quadrature(MEAN, KERNEL, log, c, targets) for c in cands]
            best = int(np.argmax(oracle))
            np.testing.assert_array_equal(loc, cands[best])
            np.testing.assert_allclose(score, oracle[best], rtol=1e-8)

    def test_tie_breaks_to_lowest_index(self):
        """Duplicate candidates score identically; the first one wins."""
        targets = np.array([[0.0, 0.0]])
        cands = np.array([[3.0, 3.0], [1.0, 1.0], [1.0, 1.0]])
        log = MeasurementLog.empty(0.5)
        loc, _ = greedy_select(MEAN, KERNEL, log, cands, targets)
        scores = [edg_exact(MEAN, KERNEL, log, c, targets).value for c in cands]
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
            idx, gains = planner_mod._greedy_on_log(MEAN, KERNEL, log, cands, targets)
            assert idx == 2
            np.testing.assert_allclose(gains[2:], expected, rtol=1e-12)

    def test_score_vector_matches_edg_exact(self):
        """Every candidate's score, not just the pick, agrees with the
        per-candidate closed form."""
        rng = np.random.default_rng(33)
        for _ in range(20):
            kernel = KernelSpec(rng.uniform(0.5, 5.0), rng.uniform(0.3, 4.0))
            mean = MeanSpec(rng.normal())
            targets = rng.uniform(0, 10, (7, 2))
            cands = np.vstack([rng.uniform(0, 10, (9, 2)), targets[:2]])
            k = int(rng.integers(0, 6))
            noise = rng.uniform(0.1, 1.0)
            log = MeasurementLog(rng.uniform(0, 10, (k, 2)), rng.normal(0, 1, k), noise)
            _, gains = planner_mod._greedy_on_log(mean, kernel, log, cands, targets)
            ref = [edg_exact(mean, kernel, log, c, targets).value for c in cands]
            np.testing.assert_allclose(gains, ref, rtol=1e-8, atol=1e-12)

    def test_one_conditioning_per_decision(self, monkeypatch):
        """A greedy decision conditions on the log once: one
        ``predictive_moments`` call and no ``posterior`` call."""
        calls = []
        conditioning = planner_mod.predictive_moments

        def counted(*args, **kwargs):
            calls.append(args)
            return conditioning(*args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("greedy scoring called posterior")

        monkeypatch.setattr(planner_mod, "predictive_moments", counted)
        monkeypatch.setattr(planner_mod, "posterior", forbidden, raising=False)
        rng = np.random.default_rng(4)
        log = MeasurementLog(rng.uniform(0, 10, (3, 2)), rng.normal(0, 1, 3), 0.5)
        greedy_select(MEAN, KERNEL, log, rng.uniform(0, 10, (6, 2)), rng.uniform(0, 10, (4, 2)))
        assert len(calls) == 1

    def test_all_candidates_degenerate_raises_planning_error(self, monkeypatch):
        def always_degenerate(*args, **kwargs):
            raise NumericalDegeneracyError("forced")

        monkeypatch.setattr(planner_mod, "predictive_moments", always_degenerate)
        targets = np.array([[0.0, 0.0]])
        cands = np.array([[1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(PlanningError) as err:
            greedy_select(MEAN, KERNEL, MeasurementLog.empty(0.5), cands, targets)
        assert err.value.failed_candidates == [0, 1]

    def test_empty_candidates_rejected(self):
        with pytest.raises(InvalidInputError):
            greedy_select(MEAN, KERNEL, MeasurementLog.empty(0.5), [], [[0.0, 0.0]])


class TestZeroNoiseScores:
    """Noise-free readings, one of them at a target: its posterior
    variance is zero, so the target covariance is singular and every route
    must factor it under jitter."""

    KERNEL = KernelSpec(signal_variance=4.0, lengthscale=1.0)
    TARGETS = np.array([[1.0, 1.0], [8.0, 1.0], [4.5, 4.5]])
    LOG = MeasurementLog(np.array([[1.0, 1.0]]), np.array([0.3]), 0.0)

    def test_gains_finite_and_nonnegative(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            targets = rng.uniform(0, 10, (6, 2))
            cands = np.vstack([targets[:3], rng.uniform(0, 10, (5, 2))])
            visited = cands[rng.integers(0, len(cands), 4)]
            log = MeasurementLog(visited, rng.normal(0, 1, 4), 0.0)
            _, gains = planner_mod._greedy_on_log(MEAN, self.KERNEL, log, cands, targets)
            assert np.all(np.isfinite(gains)) and np.all(gains >= 0)

    def test_repeat_scores_about_zero(self):
        _, gains = planner_mod._greedy_on_log(
            MEAN, self.KERNEL, self.LOG, np.array([[1.0, 1.0]]), self.TARGETS
        )
        assert 0.0 <= gains[0] < 1e-9

    def test_unmeasured_target_outranks_every_other_candidate(self):
        cands = np.array([[2.0, 2.0], [1.0, 1.0], [8.0, 1.0], [4.5, 4.5]])
        idx, gains = planner_mod._greedy_on_log(MEAN, self.KERNEL, self.LOG, cands, self.TARGETS)
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
        _, gains = planner_mod._greedy_on_log(
            MEAN, self.KERNEL, self.LOG, np.array([[2.0, 2.0]]), self.TARGETS
        )
        np.testing.assert_allclose(gains[0], expected, rtol=1e-6)

    def test_edg_routes_match_direct_conditioning(self):
        """``edg_exact`` and the quadrature oracle give the gain at (2, 2)
        of the test above, 2.15104633e-6 when its two noise-free
        conditionings are done at 40 digits."""
        expected = 2.1510463332e-6
        cand = np.array([2.0, 2.0])
        exact = edg_exact(MEAN, self.KERNEL, self.LOG, cand, self.TARGETS).value
        quad = edg_quadrature(MEAN, self.KERNEL, self.LOG, cand, self.TARGETS)
        np.testing.assert_allclose([exact, quad], expected, rtol=1e-6)


class TestRandomSelect:
    def test_singleton(self):
        loc = random_select(np.array([[2.0, 3.0]]), np.random.default_rng(0))
        np.testing.assert_array_equal(loc, [2.0, 3.0])

    def test_uniform_frequencies(self):
        """10^5 draws over 4 candidates: each frequency within 1% of 1/4."""
        cands = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        rng = np.random.default_rng(123)
        counts = np.zeros(4)
        for _ in range(100_000):
            loc = random_select(cands, rng)
            counts[int(loc[0]) + 2 * int(loc[1])] += 1
        np.testing.assert_allclose(counts / 100_000, 0.25, atol=0.01)

    def test_reproducible_sequence(self):
        cands = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        rng1 = np.random.default_rng(5)
        rng2 = np.random.default_rng(5)
        s1 = [tuple(random_select(cands, rng1)) for _ in range(20)]
        s2 = [tuple(random_select(cands, rng2)) for _ in range(20)]
        assert s1 == s2


class TestRunEpisode:
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
        assert step.chosen == (2.0, 2.0)
        log = MeasurementLog.empty(cfg.noise_sd).append(step.chosen, step.measurement)
        belief = posterior(MEAN, KERNEL, log, cfg.targets)
        np.testing.assert_array_equal(trace.final_belief.mean, belief.mean)
        np.testing.assert_array_equal(trace.final_belief.cov, belief.cov)

    def test_one_conditioning_per_step(self, monkeypatch):
        """An episode conditions once before the first step and once after
        each reading, whichever planner runs it, and never calls
        ``posterior``."""
        calls = []
        conditioning = planner_mod.predictive_moments

        def counted(*args, **kwargs):
            calls.append(args)
            return conditioning(*args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("run_episode called posterior")

        monkeypatch.setattr(planner_mod, "predictive_moments", counted)
        monkeypatch.setattr(planner_mod, "posterior", forbidden, raising=False)
        for kind in ("greedy-edg", "random"):
            calls.clear()
            cfg = make_config(planner_kind=kind, horizon=5)
            run_episode(cfg, linear_field())
            assert len(calls) == cfg.horizon + 1

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
        step's log prefix."""
        for kind in ("greedy-edg", "random"):
            cfg = make_config(planner_kind=kind, horizon=6)
            fld = linear_field()
            trace = run_episode(cfg, fld)
            truth = np.array([fld.value(pt) for pt in cfg.targets])
            shared, _ = intersection_indices(cfg.targets, cfg.candidates)
            log = MeasurementLog.empty(cfg.noise_sd)
            for step in trace.steps:
                log = log.append(step.chosen, step.measurement)
                belief = posterior(MEAN, KERNEL, log, cfg.targets)
                expected = (
                    estimating_error(belief.mean, truth),
                    estimating_variance(belief.cov),
                    estimating_error(belief.mean[shared], truth[shared]),
                    estimating_variance(belief.cov[np.ix_(shared, shared)]),
                    rmse(belief.mean, truth),
                )
                got = (step.error, step.variance, step.error_shared, step.variance_shared, step.rmse)
                np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_choices_stay_in_candidate_set(self):
        for kind in ("greedy-edg", "random"):
            cfg = make_config(planner_kind=kind, horizon=6)
            trace = run_episode(cfg, linear_field())
            cand_keys = {tuple(c) for c in cfg.candidates}
            assert all(s.chosen in cand_keys for s in trace.steps)

    def test_greedy_argmax_is_replayable(self):
        """Re-scoring all candidates on the log prefix reproduces every
        recorded choice and score."""
        cfg = make_config(horizon=5)
        trace = run_episode(cfg, linear_field())
        log = MeasurementLog.empty(cfg.noise_sd)
        for step in trace.steps:
            loc, score = greedy_select(MEAN, KERNEL, log, cfg.candidates, cfg.targets)
            assert tuple(loc) == step.chosen
            assert score == step.score
            log = log.append(step.chosen, step.measurement)

    def test_deterministic_bit_for_bit(self):
        for kind in ("greedy-edg", "random"):
            cfg = make_config(planner_kind=kind)
            fld = linear_field()
            a = run_episode(cfg, fld)
            b = run_episode(cfg, fld)
            for sa, sb in zip(a.steps, b.steps):
                assert sa == sb or (
                    sa.chosen == sb.chosen
                    and sa.measurement == sb.measurement
                    and sa.error == sb.error
                    and sa.variance == sb.variance
                )

    def test_variance_non_increasing(self):
        for kind in ("greedy-edg", "random"):
            cfg = make_config(planner_kind=kind, horizon=8)
            trace = run_episode(cfg, linear_field())
            vs = [s.variance for s in trace.steps]
            assert all(b <= a + 1e-10 for a, b in zip(vs, vs[1:]))

    def test_random_score_is_nan_and_noise_streams_differ(self):
        cfg_r = make_config(planner_kind="random")
        trace_r = run_episode(cfg_r, linear_field())
        assert all(math.isnan(s.score) for s in trace_r.steps)
        cfg_g = make_config(planner_kind="greedy-edg")
        trace_g = run_episode(cfg_g, linear_field())
        assert all(not math.isnan(s.score) for s in trace_g.steps)

    def test_random_sequence_ignores_field_values(self):
        """Two very different fields, same seed: the random planner visits
        the same location sequence."""
        cfg = make_config(planner_kind="random", horizon=6, noise_sd=0.0)
        f1 = AnalyticField("linear", {"a": 1.0, "b": 1.0}, MASK)
        f2 = AnalyticField("linear", {"a": -20.0, "b": 3.0, "c": 100.0}, MASK)
        t1 = run_episode(cfg, f1)
        t2 = run_episode(cfg, f2)
        assert [s.chosen for s in t1.steps] == [s.chosen for s in t2.steps]

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
        covered = {s.chosen for s in trace.steps}
        assert covered == {tuple(t) for t in targets}
        assert trace.steps[-1].error < 1e-6

    def test_shared_metrics_nan_without_intersection(self):
        targets = np.array([[1.0, 1.0], [2.0, 2.0]])
        cands = np.array([[3.0, 3.0], [4.0, 4.0]])
        cfg = make_config(targets=targets, candidates=cands, horizon=2)
        trace = run_episode(cfg, linear_field())
        assert all(math.isnan(s.error_shared) for s in trace.steps)
        assert all(math.isnan(s.variance_shared) for s in trace.steps)
        assert all(np.isfinite(s.error) for s in trace.steps)

    def test_partial_trace_attached_on_mid_episode_failure(self, monkeypatch):
        """If scoring degenerates at step 3, the raised error carries the
        two completed steps."""
        calls = {"n": 0}
        real = infogain_mod.jittered_cholesky

        def flaky(*args, **kwargs):
            if calls["n"] >= 2:  # one target-covariance factor per decision
                raise NumericalDegeneracyError("forced")
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(infogain_mod, "jittered_cholesky", flaky)
        cfg = make_config(n_candidates=3, n_shared=1, horizon=5)
        with pytest.raises(PlanningError) as err:
            run_episode(cfg, linear_field())
        partial = err.value.partial_trace
        assert len(partial.steps) == 2
        assert partial.final_belief is not None

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            make_config(horizon=0)
        with pytest.raises(InvalidInputError):
            make_config(noise_sd=-1.0)
        with pytest.raises(InvalidInputError):
            make_config(planner_kind="exhaustive")


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
        assert g.steps[0].chosen == r.steps[0].chosen
        assert g.steps[0].measurement != r.steps[0].measurement

    def test_trial_index_shifts_noise(self):
        cfg0 = make_config(horizon=2)
        cfg1 = make_config(horizon=2, trial_index=1)
        fld = linear_field()
        t0 = run_episode(cfg0, fld)
        t1 = run_episode(cfg1, fld)
        assert [s.measurement for s in t0.steps] != [s.measurement for s in t1.steps]


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
    assert trace.steps[-1].error < 1e-5

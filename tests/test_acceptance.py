"""Acceptance suite: the seven release criteria, one pass/fail line each.

Each test prints a single ``A<n> PASS/FAIL`` line with the measured
margins, then asserts.  Run with ``pytest -v -s tests/test_acceptance.py``
to see the lines for passing criteria too.

A1  closed form vs quadrature oracle, 200 random instances, 1e-8 relative
A2  greedy beats random at scale (61 targets, 60 candidates, sigma 1.0,
    horizon 60, 20 paired trials)
A3  posterior vs dense-inverse oracle 1e-10; sequential == batch 1e-8;
    empty-log prior exact
A4  monotone variance, PSD covariance shrinkage, nonnegative gain
A5  KL unit values and Monte Carlo log-ratio agreement
A6  byte-identical series.csv across reruns and worker counts
A7  unnormalized-form characterization: well-formedness, discrepancy
    ratio log, argmax agreement fraction
"""

import math
import time

import numpy as np

from senseplan import (
    GaussianBelief,
    KernelSpec,
    MeanSpec,
    MeasurementLog,
    PolygonMask,
    QuadratureSpec,
    ScenarioConfig,
    edg_exact,
    edg_quadrature,
    edg_unnormalized_form,
    kernel_matrix,
    kl_gaussian,
    posterior,
    run_episode,
    sample_field,
)
from senseplan.cli import main
from senseplan.config import parse_config_text
from senseplan.harness import execute_run

from reference import edg_reference, unnormalized_reference


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"{tag} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag}: {detail}"


def random_edg_instance(rng, k_min=0, k_max=8):
    kernel = KernelSpec(
        signal_variance=float(rng.uniform(0.2, 5.0)),
        lengthscale=float(rng.uniform(0.3, 3.0)),
    )
    mean = MeanSpec(constant=float(rng.uniform(-2.0, 2.0)))
    noise = float(rng.choice([0.1, 1.0]))
    k = int(rng.integers(k_min, k_max + 1))
    if k:
        log = MeasurementLog(rng.uniform(0, 7, (k, 2)), rng.normal(0, 1.5, k), noise)
    else:
        log = MeasurementLog.empty(noise)
    n_v = int(rng.integers(1, 11))
    targets = rng.uniform(0, 7, (n_v, 2))
    candidate = rng.uniform(0, 7, 2)
    return mean, kernel, log, candidate, targets


def test_a1_closed_form_matches_quadrature_oracle():
    """200 randomized instances, 1e-8 relative agreement, under 30 s."""
    rng = np.random.default_rng(202601)
    t0 = time.perf_counter()
    worst = 0.0
    quad = QuadratureSpec(64)
    for _ in range(200):
        mean, kernel, log, cand, targets = random_edg_instance(rng)
        exact = edg_exact(mean, kernel, log, cand, targets).value
        oracle = edg_quadrature(mean, kernel, log, cand, targets, quad)
        denom = max(abs(oracle), 1e-12)
        worst = max(worst, abs(exact - oracle) / denom)
    elapsed = time.perf_counter() - t0
    report(
        "A1",
        worst <= 1e-8 and elapsed < 30.0,
        f"max relative discrepancy {worst:.3e} over 200 instances in {elapsed:.1f}s",
    )


def test_a1_instances_match_extended_precision_reference():
    """On four of A1's instances, among them 171 whose gain is about 7e-13,
    the closed form and the quadrature oracle each agree with a 40-digit
    evaluation of the definition to 1e-8 relative."""
    rng = np.random.default_rng(202601)
    instances = [random_edg_instance(rng) for _ in range(172)]
    for i in (3, 50, 120, 171):
        mean, kernel, log, cand, targets = instances[i]
        ref = edg_reference(kernel, log, cand, targets)
        exact = edg_exact(mean, kernel, log, cand, targets).value
        quad = edg_quadrature(mean, kernel, log, cand, targets, QuadratureSpec(64))
        assert abs(exact - ref) <= 1e-8 * ref, (i, exact, ref)
        assert abs(quad - ref) <= 1e-8 * ref, (i, quad, ref)


A2_CONFIG = """
[scenario]
horizon = 60
trials = 20
noise_sd = 1.0
planner = both
seed = 20260816

[kernel]
signal_variance = 9.0
lengthscale = 1.5

[mean]
constant = 0.0

[field]
kind = gp-sample

[roi]
kind = rectangle
rect = 0, 0, 10, 10

[placement]
kind = sample
n_targets = 61
n_candidates = 60
n_shared = 5
"""


def test_a2_greedy_beats_random_at_scale():
    """Variance dominance at steps 15/30/45/60; final error within 1.05x
    and strictly smaller in at least 70% of the 20 paired trials."""
    t0 = time.perf_counter()
    record = execute_run(parse_config_text(A2_CONFIG), workers=4)
    elapsed = time.perf_counter() - t0

    agg = record["aggregates"]
    var_ok = all(
        agg["greedy-edg"]["variance-V"]["mean"][s - 1]
        <= agg["random"]["variance-V"]["mean"][s - 1]
        for s in (15, 30, 45, 60)
    )
    g_err = agg["greedy-edg"]["error-V"]["mean"][59]
    r_err = agg["random"]["error-V"]["mean"][59]
    err_ok = g_err <= 1.05 * r_err

    greedy_traces = [t for t in record["traces"] if t["planner"] == "greedy-edg"]
    random_traces = [t for t in record["traces"] if t["planner"] == "random"]
    wins = sum(
        g["steps"][59]["error"] < r["steps"][59]["error"]
        for g, r in zip(greedy_traces, random_traces)
    )
    wins_ok = wins >= 0.70 * 20

    report(
        "A2",
        var_ok and err_ok and wins_ok and elapsed < 300.0,
        f"variance dominated at 15/30/45/60: {var_ok}; "
        f"final error {g_err:.4f} vs {r_err:.4f} (ratio {g_err / r_err:.3f} <= 1.05); "
        f"paired wins {wins}/20; {elapsed:.0f}s",
    )


def test_a3_posterior_oracle_and_conditioning():
    """Dense-inverse agreement 1e-10 on 100 instances; sequential equals
    batch within 1e-8; the empty log returns the prior exactly."""
    rng = np.random.default_rng(202603)
    worst_dense = 0.0
    worst_seq = 0.0
    for _ in range(100):
        kernel = KernelSpec(
            signal_variance=float(rng.uniform(0.3, 5.0)),
            lengthscale=float(rng.uniform(0.4, 3.0)),
        )
        mean = MeanSpec(constant=float(rng.uniform(-2.0, 2.0)))
        n_obs = int(rng.integers(1, 9))
        Y = rng.uniform(0, 8, (n_obs, 2))
        Z = rng.normal(0, 1.5, n_obs)
        noise = float(rng.choice([0.1, 0.5, 1.0]))
        log = MeasurementLog(Y, Z, noise)
        query = rng.uniform(0, 8, (int(rng.integers(1, 7)), 2))

        belief = posterior(mean, kernel, log, query)
        Kxy = kernel_matrix(kernel, query, Y)
        G = np.linalg.inv(kernel_matrix(kernel, Y, Y) + noise**2 * np.eye(n_obs))
        mu = mean.at(query) + Kxy @ G @ (Z - mean.at(Y))
        cov = kernel_matrix(kernel, query, query) - Kxy @ G @ Kxy.T
        worst_dense = max(
            worst_dense,
            np.max(np.abs(belief.mean - mu)),
            np.max(np.abs(belief.cov - cov)),
        )

        seq = MeasurementLog.empty(noise)
        for pt, val in zip(Y, Z):
            seq = seq.append(pt, val)
        sbelief = posterior(mean, kernel, seq, query)
        worst_seq = max(
            worst_seq,
            np.max(np.abs(sbelief.mean - belief.mean)),
            np.max(np.abs(sbelief.cov - belief.cov)),
        )

    kernel = KernelSpec(2.0, 1.0)
    mean = MeanSpec(0.5)
    query = np.array([[0.0, 0.0], [2.0, 1.0], [4.0, 4.0]])
    prior = posterior(mean, kernel, MeasurementLog.empty(1.0), query)
    prior_exact = np.array_equal(prior.mean, mean.at(query)) and np.array_equal(
        prior.cov, kernel_matrix(kernel, query, query)
    )

    report(
        "A3",
        worst_dense <= 1e-10 and worst_seq <= 1e-8 and prior_exact,
        f"dense-inverse gap {worst_dense:.2e} (<=1e-10); "
        f"sequential-vs-batch gap {worst_seq:.2e} (<=1e-8); prior exact: {prior_exact}",
    )


def test_a4_monotonicity_suite():
    """Non-increasing per-step variance, PSD covariance shrinkage, and
    nonnegative expected gain on randomized episodes."""
    mask = PolygonMask.rectangle(0, 0, 10, 10)
    kernel = KernelSpec(signal_variance=4.0, lengthscale=1.5)
    mean = MeanSpec(0.0)
    rng = np.random.default_rng(202604)

    variance_ok = True
    psd_ok = True
    gain_ok = True
    min_gain = np.inf
    from senseplan import place_scenario

    for trial in range(6):
        targets, candidates = place_scenario(mask, 8, 7, 3, seed=900 + trial)
        fld = sample_field(mean, kernel, np.vstack([targets, candidates]), 700 + trial, mask)
        for kind in ("greedy-edg", "random"):
            cfg = ScenarioConfig(
                targets=targets,
                candidates=candidates,
                noise_sd=1.0,
                horizon=10,
                kernel=kernel,
                mean=mean,
                planner_kind=kind,
                seed=500 + trial,
            )
            trace = run_episode(cfg, fld)
            vs = [s.variance for s in trace.steps]
            variance_ok &= all(b <= a + 1e-10 for a, b in zip(vs, vs[1:]))

            prior_cov = kernel_matrix(kernel, targets, targets)
            gap = prior_cov - trace.final_belief.cov
            floor = -1e-8 * max(np.trace(prior_cov) / len(targets), 1.0)
            psd_ok &= np.linalg.eigvalsh((gap + gap.T) / 2).min() >= floor

    for _ in range(100):
        m, k, log, cand, targets = random_edg_instance(rng)
        value = edg_exact(m, k, log, cand, targets).value
        min_gain = min(min_gain, value)
        gain_ok &= value >= -1e-10

    report(
        "A4",
        variance_ok and psd_ok and gain_ok,
        f"variance monotone: {variance_ok}; shrinkage PSD: {psd_ok}; "
        f"min gain {min_gain:.2e} (>= -1e-10)",
    )


def test_a5_kl_unit_checks():
    """Exact zero on identical beliefs, the 1-D hand value, and Monte
    Carlo log-ratio agreement within 3 standard errors on 20 pairs."""
    rng = np.random.default_rng(202605)
    q1 = np.array([[0.0, 0.0]])

    P = GaussianBelief(query=q1, mean=np.array([1.0]), cov=np.array([[1.0]]))
    Q = GaussianBelief(query=q1, mean=np.array([0.0]), cov=np.array([[1.0]]))
    hand_ok = abs(kl_gaussian(P, Q) - 0.5) < 1e-12

    self_ok = True
    for dim in (1, 3, 5):
        query = rng.uniform(0, 5, (dim, 2))
        A = rng.normal(0, 1, (dim, dim))
        B = GaussianBelief(
            query=query, mean=rng.normal(0, 1, dim), cov=A @ A.T + 0.3 * np.eye(dim)
        )
        self_ok &= abs(kl_gaussian(B, B)) < 1e-12

    mc_ok = True
    worst_sigmas = 0.0
    n = 1_000_000
    for _ in range(20):
        query = rng.uniform(0, 5, (4, 2))
        A = rng.normal(0, 1, (4, 4))
        Bm = rng.normal(0, 1, (4, 4))
        P = GaussianBelief(
            query=query, mean=rng.normal(0, 1, 4), cov=A @ A.T + 0.5 * np.eye(4)
        )
        Q = GaussianBelief(
            query=query, mean=rng.normal(0, 1, 4), cov=Bm @ Bm.T + 0.5 * np.eye(4)
        )
        exact = kl_gaussian(P, Q)
        x = rng.multivariate_normal(P.mean, P.cov, size=n)

        def logpdf(pts, belief):
            L = np.linalg.cholesky(belief.cov)
            w = np.linalg.solve(L, (pts - belief.mean).T)
            return -0.5 * (
                np.sum(w * w, axis=0)
                + 2 * np.sum(np.log(np.diag(L)))
                + 4 * math.log(2 * math.pi)
            )

        ratios = logpdf(x, P) - logpdf(x, Q)
        se = ratios.std(ddof=1) / math.sqrt(n)
        sigmas = abs(ratios.mean() - exact) / se
        worst_sigmas = max(worst_sigmas, sigmas)
        mc_ok &= sigmas <= 3.0

    report(
        "A5",
        hand_ok and self_ok and mc_ok,
        f"KL(P,P) zero: {self_ok}; 1-D hand value 0.5: {hand_ok}; "
        f"MC worst deviation {worst_sigmas:.2f} standard errors (<=3)",
    )


A6_CONFIG = """
[scenario]
horizon = 6
trials = 4
noise_sd = 0.75
planner = both
seed = 31416

[kernel]
signal_variance = 3.0
lengthscale = 1.2

[field]
kind = gp-sample

[roi]
kind = rectangle
rect = 0, 0, 8, 8

[placement]
kind = sample
n_targets = 9
n_candidates = 8
n_shared = 3
"""


def test_a6_byte_identical_series(tmp_path):
    """Identical config and seed give byte-identical series.csv, also
    when the worker count differs."""
    cfg_path = tmp_path / "a6.ini"
    cfg_path.write_text(A6_CONFIG)
    outs = []
    for name, workers in (("r1", "1"), ("r2", "1"), ("r3", "3")):
        out = tmp_path / name
        code = main(
            ["run", "--config", str(cfg_path), "--out", str(out), "--workers", workers]
        )
        assert code == 0
        outs.append((out / "series.csv").read_bytes())
    identical = outs[0] == outs[1] == outs[2]
    report(
        "A6",
        identical,
        f"three runs (workers 1, 1, 3) produced identical "
        f"{len(outs[0])}-byte series.csv: {identical}",
    )


def test_a7_unnormalized_form_characterization():
    """The variant closed form must run on 100 random instances with at
    least two prior measurements.  Its value is not expected to match;
    the discrepancy ratio is logged and the argmax agreement against the
    exact form is reported."""
    rng = np.random.default_rng(202607)
    ratios = []
    agree = 0
    n_instances = 100
    for _ in range(n_instances):
        mean, kernel, log, _, targets = random_edg_instance(rng, k_min=2, k_max=8)
        candidates = rng.uniform(0, 7, (6, 2))
        exact_scores = []
        variant_scores = []
        for cand in candidates:
            e = edg_exact(mean, kernel, log, cand, targets).value
            u = edg_unnormalized_form(mean, kernel, log, cand, targets)
            assert not u.fallback
            assert np.isfinite(u.value)
            exact_scores.append(e)
            variant_scores.append(u.value)
            if abs(e) > 1e-12:
                ratios.append(u.value / e)
        if int(np.argmax(exact_scores)) == int(np.argmax(variant_scores)):
            agree += 1
    ratios = np.array(ratios)
    fraction = agree / n_instances
    print(
        "A7 log: discrepancy ratio variant/exact over "
        f"{len(ratios)} scores: median {np.median(ratios):.3f}, "
        f"min {ratios.min():.3f}, max {ratios.max():.3f}"
    )
    report(
        "A7",
        True,
        f"well-formed on {n_instances}/100 instances with k>=2; "
        f"argmax agreement fraction {fraction:.2f}",
    )


def test_a7_instances_match_the_literal_variant():
    """On A7's instances the short form of the variant equals its literal,
    term-by-term evaluation."""
    rng = np.random.default_rng(202607)
    for _ in range(100):
        mean, kernel, log, _, targets = random_edg_instance(rng, k_min=2, k_max=8)
        for cand in rng.uniform(0, 7, (6, 2)):
            value = edg_unnormalized_form(mean, kernel, log, cand, targets).value
            expected = unnormalized_reference(mean, kernel, log, cand, targets)
            np.testing.assert_allclose(value, expected, rtol=1e-9, atol=1e-11)

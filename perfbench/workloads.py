"""Workloads and metric definitions of the senseplan benchmark.

Every workload is one generated INI configuration.  All of them share the
A2 field model (signal variance 9, lengthscale 1.5, noise sd 1.0, prior
mean 0, one GP sample per trial on the rectangle 0,0,10,10) and differ in
candidate count, horizon and planner.  The workload seed becomes the
config's master seed, so the same seed always gives the same placement,
field, noise and choices.

``BENCHMARK.json`` is generated from this module (``run.py
--write-manifest``), so the definitions here are the single source.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The A2 experiment's master seed; the default workload seed.
A2_SEED = 20260816

#: Seconds one untraced run keeps repeating its timed call.
RUN_SECONDS = 25


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_candidates: int
    horizon: int
    planner: str
    #: Trials per timed ``execute_run`` call.
    trials: int
    #: Worker count of the pool run made in the traced run (0: no pool run).
    pool_workers: int = 0

    def config_text(self, seed: int) -> str:
        """The INI text the program receives for this workload and seed."""
        return f"""\
[scenario]
horizon = {self.horizon}
trials = {self.trials}
noise_sd = 1.0
planner = {self.planner}
seed = {seed}

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
n_candidates = {self.n_candidates}
n_shared = 5
"""


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="a2",
            why="the paper's A2 experiment run serially; greedy scoring is over 99% "
            "of the time, and its traced run also times the 2-worker pool",
            n_candidates=60,
            horizon=60,
            planner="both",
            trials=2,
            pool_workers=2,
        ),
        Workload(
            name="long-log",
            why="A2 placement, random planner, horizon 600: the scorer is bypassed and "
            "time goes to re-conditioning on a 600-reading log and to output",
            n_candidates=60,
            horizon=600,
            planner="random",
            trials=1,
        ),
        Workload(
            name="wide",
            why="1000 candidates, horizon 4: per-call scoring overhead, placement "
            "and the field draw over 1061 nodes dominate",
            n_candidates=1000,
            horizon=4,
            planner="both",
            trials=1,
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None

    def manifest(self) -> dict:
        entry = {"name": self.name, "unit": self.unit, "better": self.better}
        if self.bound is not None:
            entry["bound"] = self.bound
        return entry


#: Reported by untraced runs (``--trace 0``).
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("trials_per_s", "1/s", "higher", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
    Metric("greedy_variance_ratio", "ratio", "lower", 0.25),
    Metric("completed_frac", "ratio", "higher", 0.01),
)

#: Reported by traced runs (``--trace 1``).  A metric a workload does not
#: exercise reads 0 there (for example the pool metrics outside ``a2``).
PER_LAYER = (
    Metric("infogain.edg_exact.calls", "count", "lower"),
    Metric("infogain.edg_exact.s", "s", "lower"),
    Metric("infogain.edg_exact.us_p50", "us", "lower"),
    Metric("planner.greedy_select.calls", "count", "lower"),
    Metric("planner.greedy_select.self_s", "s", "lower"),
    Metric("planner.greedy_select.ms_p50", "ms", "lower"),
    Metric("planner.greedy_select.ms_p90", "ms", "lower"),
    Metric("planner.posteriors_per_decision", "count", "lower"),
    Metric("gp.posterior.calls", "count", "lower"),
    Metric("gp.posterior.s", "s", "lower"),
    Metric("gp.posterior.ms_p50", "ms", "lower"),
    Metric("gp.kernel_matrix.calls", "count", "lower"),
    Metric("gp.kernel_matrix.s", "s", "lower"),
    Metric("gp.predictive_measurement.calls", "count", "lower"),
    Metric("gp.predictive_measurement.s", "s", "lower"),
    Metric("environment.place_scenario.s", "s", "lower"),
    Metric("environment.sample_field.s", "s", "lower"),
    Metric("environment.measure.calls", "count", "lower"),
    Metric("environment.measure.s", "s", "lower"),
    Metric("metrics.s", "s", "lower"),
    Metric("harness.render_series_csv.s", "s", "lower"),
    Metric("harness.write_outputs.s", "s", "lower"),
    Metric("harness.series_bytes", "bytes", "lower"),
    Metric("harness.pool_trials_per_s", "1/s", "higher"),
    Metric("harness.pool_scaling_eff", "ratio", "higher"),
    Metric("config.parse_config_text.s", "s", "lower"),
    Metric("planner.run_episode.greedy_s", "s", "lower"),
    Metric("planner.run_episode.random_s", "s", "lower"),
    Metric("trace_overhead_frac", "ratio", "lower"),
    Metric("greedy_error_ratio", "ratio", "lower"),
    Metric("failed_frac", "ratio", "lower"),
)

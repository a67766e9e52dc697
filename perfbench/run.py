#!/usr/bin/env python3
"""senseplan benchmark.

Runs one workload through the public API (``parse_config_text``,
``execute_run``, ``write_outputs``), checks the outputs and prints every
metric by name and unit.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.

    python3 perfbench/run.py --workload a2 --seed 20260816 --seconds 25 --trace 0
    python3 perfbench/run.py --workload a2 --trace 1
    python3 perfbench/run.py --bench-record BENCH_7.json --runs 10
    python3 perfbench/run.py --write-manifest

The program is imported from ``src/`` beside this directory; results go
under ``perfbench/results/<workload>/seed-<seed>/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, sleep
from types import SimpleNamespace

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

from machine import machine_facts  # noqa: E402
from setup_probe import scenario_digest  # noqa: E402
from tracing import END, NAME, START, TAG, Tracer, count_under, layer_report  # noqa: E402
from workloads import (  # noqa: E402
    A2_SEED,
    END_TO_END,
    PER_LAYER,
    RUN_SECONDS,
    WORKLOADS,
)

#: Timed calls an untraced run makes at least, so a same-seed rerun is
#: always compared.
MIN_CALLS = 2
#: Fresh-interpreter set-ups per untraced run; setup_s is their median.
SETUP_PROBES = 5
#: Agreement required between a greedy score and the quadrature oracle.
QUAD_REL = 1e-8
QUAD_ABS = 1e-12
#: A traced run stops its pool call once it has run this long, so that it
#: ends within the 180 s a benchmark run may take.
TRACED_DEADLINE_S = 165.0
TIMED_OUT = "stopped at the traced run's deadline"


class ProgramMissing(Exception):
    pass


def load_program() -> SimpleNamespace:
    """The senseplan entry points, imported from this checkout's ``src/``."""
    init = SRC / "senseplan" / "__init__.py"
    if not init.is_file():
        raise ProgramMissing(f"no senseplan package at {init.parent}")
    sys.path.insert(0, str(SRC))
    import senseplan

    if Path(senseplan.__file__).resolve() != init.resolve():
        raise ProgramMissing(f"senseplan was imported from {senseplan.__file__}, not {init}")
    from senseplan.config import parse_config_text
    from senseplan.errors import SensorPlanError
    from senseplan.gp import KernelSpec, MeanSpec, MeasurementLog
    from senseplan.harness import (
        build_mask,
        execute_run,
        resolve_mean_constant,
        trial_field,
        trial_placement,
        write_outputs,
    )
    from senseplan.infogain import edg_quadrature

    return SimpleNamespace(
        parse_config_text=parse_config_text,
        SensorPlanError=SensorPlanError,
        KernelSpec=KernelSpec,
        MeanSpec=MeanSpec,
        MeasurementLog=MeasurementLog,
        build_mask=build_mask,
        execute_run=execute_run,
        resolve_mean_constant=resolve_mean_constant,
        trial_field=trial_field,
        trial_placement=trial_placement,
        write_outputs=write_outputs,
        edg_quadrature=edg_quadrature,
    )


class Checks:
    """Correctness checks; each one counts as an operation, a failed one as failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.results: list[dict] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        self.failed += not ok
        self.results.append({"check": name, "ok": bool(ok), "detail": detail})
        if not ok:
            print(f"check failed: {name}: {detail}", file=sys.stderr)


def timed_call(sp, text: str, workers: int, out_dir: Path):
    """What ``senseplan run`` does: parse, run every trial, write outputs."""
    t0 = perf_counter()
    cfg = sp.parse_config_text(text)
    record = sp.execute_run(cfg, workers=workers)
    sp.write_outputs(record, out_dir)
    seconds = perf_counter() - t0
    return seconds, record, (out_dir / "series.csv").read_bytes()


def check_outputs(checks: Checks, record: dict, series: bytes, wl) -> None:
    rows = series.decode().splitlines()
    expected = 1 + wl.trials * len(record["planners"]) * wl.horizon * 4
    checks.check(
        "series.csv has one row per trial, planner, step and metric",
        len(rows) == expected,
        f"{len(rows)} lines, expected {expected}",
    )
    values = [float(row.rsplit(",", 1)[1]) for row in rows[1:]]
    checks.check("series.csv values are finite", all(math.isfinite(v) for v in values))
    worst = 0.0
    for trace in record["traces"]:
        var = [step["variance"] for step in trace["steps"]]
        worst = max([worst] + [(b - a) / var[0] for a, b in zip(var, var[1:])])
    checks.check(
        "variance-V never grows within an episode",
        worst <= 1e-9,
        f"largest relative increase {worst:.3g}",
    )


def greedy_ratio(record: dict, metric: str, final: bool) -> float:
    """Mean of ``metric`` over trials, greedy over random, at the final step
    or summed over every step; 1.0 when the workload runs one planner."""
    agg = record["aggregates"]
    if "greedy-edg" not in agg or "random" not in agg:
        return 1.0
    greedy, rand = agg["greedy-edg"][metric]["mean"], agg["random"][metric]["mean"]
    return greedy[-1] / rand[-1] if final else sum(greedy) / sum(rand)


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def setup_probes(sp, text: str, checks: Checks) -> list[float]:
    """Set-up seconds of each fresh-interpreter probe; checks that every
    process builds the same trial-0 scenario as this one."""
    times, digests = [], set()
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC)],
            input=text,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            checks.check("set-up probe runs", False, proc.stderr.strip()[-500:])
            continue
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(out["setup_s"])
        digests.add(out["digest"])
    cfg = sp.parse_config_text(text)
    mask = sp.build_mask(cfg)
    targets, candidates = sp.trial_placement(cfg, mask, 0)
    here = scenario_digest(targets, candidates, sp.trial_field(cfg, mask, 0, targets, candidates))
    checks.check(
        "separate processes build the same trial-0 placement and field",
        digests == {here},
        f"{len(digests | {here})} distinct digests",
    )
    return times


def run_untraced(sp, wl, seed: int, seconds: float, out_dir: Path) -> dict:
    checks = Checks()
    text = wl.config_text(seed)
    setup_times = setup_probes(sp, text, checks)

    call_seconds, first, record = [], None, None
    attempted_trials = failed_trials = 0
    start = perf_counter()
    while attempted_trials < MIN_CALLS * wl.trials or perf_counter() - start < seconds:
        attempted_trials += wl.trials
        try:
            secs, record, series = timed_call(sp, text, 1, out_dir / "out")
        except sp.SensorPlanError as exc:
            failed_trials += wl.trials
            print(f"execute_run failed: {exc}", file=sys.stderr)
            continue
        call_seconds.append(secs)
        if first is None:
            first = series
            check_outputs(checks, record, series, wl)
        else:
            checks.check("a rerun with the same seed writes byte-identical series.csv", series == first)

    metrics = {
        "setup_s": statistics.median(setup_times) if setup_times else 0.0,
        "trials_per_s": statistics.median(wl.trials / s for s in call_seconds) if call_seconds else 0.0,
        "peak_rss_mb": peak_rss_mb(),
        "greedy_variance_ratio": greedy_ratio(record, "variance-V", final=False) if record else 0.0,
        "completed_frac": 1.0 - failed_trials / attempted_trials,
    }
    return {
        "metrics": metrics,
        "units": {m.name: m.unit for m in END_TO_END},
        "attempted": attempted_trials + checks.attempted,
        "failed": failed_trials + checks.failed,
        "checks": checks.results,
        "setup_seconds": setup_times,
        "call_seconds": call_seconds,
        "trials_per_call": wl.trials,
    }


def check_greedy_scores(checks: Checks, sp, cfg, record: dict) -> None:
    """At the greedy steps taken with 0, H/4, H/2, 3H/4 and H-1 readings, the
    recorded score must agree with ``edg_quadrature`` at the chosen location.

    Each step's log is rebuilt from the locations and readings the earlier
    steps of its trace recorded, so the check reads only the run record.
    """
    h = cfg.horizon
    sampled = sorted({0, h // 4, h // 2, 3 * h // 4, h - 1})
    mean = sp.MeanSpec(constant=sp.resolve_mean_constant(cfg))
    kernel = sp.KernelSpec(
        signal_variance=cfg.signal_variance, lengthscale=cfg.lengthscale, jitter=cfg.jitter
    )
    worst, ok, count = 0.0, True, 0
    for trace in record["traces"]:
        if trace["planner"] != "greedy-edg":
            continue
        targets, steps = np.array(trace["targets"]), trace["steps"]
        for k in sampled:
            log = sp.MeasurementLog(
                np.array([s["chosen"] for s in steps[:k]]).reshape(-1, 2),
                np.array([s["measurement"] for s in steps[:k]]),
                cfg.noise_sd,
            )
            ref = sp.edg_quadrature(mean, kernel, log, steps[k]["chosen"], targets)
            diff = abs(steps[k]["score"] - ref)
            ok &= diff <= QUAD_REL * abs(ref) + QUAD_ABS
            worst = max(worst, diff / max(abs(ref), QUAD_ABS))
            count += 1
    checks.check(
        "greedy scores agree with edg_quadrature at sampled steps",
        ok,
        f"{count} steps, largest relative difference {worst:.3g}",
    )


def pool_call(text: str, workers: int, out_dir: Path, seconds_left: float):
    """Seconds of a ``workers``-process call made in a child process, and a
    note; the child and its pool are killed if they outlast ``seconds_left``."""
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "pool_probe.py"), str(SRC), str(out_dir), str(workers)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(text, timeout=max(seconds_left, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        for _ in range(100):  # wait for the pool workers, reparented on kill, to go
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            sleep(0.05)
        return None, TIMED_OUT
    if proc.returncode != 0:
        return None, err.strip()[-500:]
    return json.loads(out.strip().splitlines()[-1])["seconds"], ""


def run_traced(sp, wl, seed: int, out_dir: Path, deadline: float) -> dict:
    checks = Checks()
    text = wl.config_text(seed)
    first_s, base_record, base_series = timed_call(sp, text, 1, out_dir / "out")
    check_outputs(checks, base_record, base_series, wl)

    tracer = Tracer()
    attempted_trials, failed_trials = 3 * wl.trials, 0
    with tracer.installed():
        t0 = perf_counter()
        try:
            cfg = tracer.wrap("config.parse_config_text", sp.parse_config_text)(text)
            record = tracer.wrap("harness.execute_run", sp.execute_run)(cfg, workers=1)
            tracer.wrap("harness.write_outputs", sp.write_outputs)(record, out_dir / "traced")
        except sp.SensorPlanError as exc:
            failed_trials, record = failed_trials + wl.trials, None
            print(f"traced execute_run failed: {exc}", file=sys.stderr)
        traced_s = perf_counter() - t0
    # The untraced baseline is the faster of two calls around the traced one:
    # a process's first call pays one-time costs (allocator growth on
    # long-log and wide), and a single call can land in a slow spell.
    warm_s, _, warm_series = timed_call(sp, text, 1, out_dir / "out")
    base_s = min(first_s, warm_s)
    checks.check("a rerun with the same seed writes byte-identical series.csv", warm_series == base_series)
    if tracer.missing:
        # A refactor may remove a seam; its metrics then read 0.
        print(f"no span for missing seams: {', '.join(tracer.missing)}", file=sys.stderr)
    if record is not None:
        traced_series = (out_dir / "traced" / "series.csv").read_bytes()
        checks.check("tracing leaves series.csv byte-identical", traced_series == base_series)
        if "greedy-edg" in record["planners"]:
            check_greedy_scores(checks, sp, cfg, record)

    pool_rate = pool_eff = 0.0
    pool_note = ""
    if wl.pool_workers:
        attempted_trials += wl.trials
        pool_s, pool_note = pool_call(text, wl.pool_workers, out_dir / "pool", deadline - perf_counter())
        if pool_s is not None:
            checks.check(
                f"workers={wl.pool_workers} writes the serial series.csv byte for byte",
                (out_dir / "pool" / "series.csv").read_bytes() == base_series,
            )
            pool_rate = wl.trials / pool_s
            pool_eff = pool_rate / (wl.pool_workers * wl.trials / base_s)
        elif pool_note != TIMED_OUT:
            failed_trials += wl.trials
        if pool_note:
            print(f"pool call: {pool_note}", file=sys.stderr)

    report = layer_report(tracer.spans, traced_s)
    names = report["names"]
    overhead = traced_s / base_s - 1.0
    unaccounted = abs(traced_s - report["self_total_s"]) / traced_s
    checks.check(
        "per-layer self times account for the traced wall time",
        unaccounted <= max(abs(overhead), 0.01),
        f"unaccounted {unaccounted:.3g} of {traced_s:.3f} s, trace overhead {overhead:.3g}",
    )

    def inclusive(name):
        return names[name]["s"] if name in names else 0.0

    def calls(name):
        return names[name]["calls"] if name in names else 0

    def percentile(name, q, scale):
        return float(np.percentile(names[name]["durations"], q)) * scale if name in names else 0.0

    episodes = [s for s in tracer.spans if s[NAME] == "planner.run_episode"]
    decisions = sum(
        len(t["steps"]) for t in (record or base_record)["traces"] if t["planner"] == "greedy-edg"
    )
    scoring_posteriors = count_under(tracer.spans, "gp.posterior", "planner.greedy_select")
    metrics = {
        "infogain.edg_exact.calls": calls("infogain.edg_exact"),
        "infogain.edg_exact.s": inclusive("infogain.edg_exact"),
        "infogain.edg_exact.us_p50": percentile("infogain.edg_exact", 50, 1e6),
        "planner.greedy_select.calls": calls("planner.greedy_select"),
        "planner.greedy_select.self_s": names.get("planner.greedy_select", {}).get("self_s", 0.0),
        "planner.greedy_select.ms_p50": percentile("planner.greedy_select", 50, 1e3),
        "planner.greedy_select.ms_p90": percentile("planner.greedy_select", 90, 1e3),
        "planner.posteriors_per_decision": scoring_posteriors / decisions if decisions else 0.0,
        "gp.posterior.calls": calls("gp.posterior"),
        "gp.posterior.s": inclusive("gp.posterior"),
        "gp.posterior.ms_p50": percentile("gp.posterior", 50, 1e3),
        "gp.kernel_matrix.calls": calls("gp.kernel_matrix"),
        "gp.kernel_matrix.s": inclusive("gp.kernel_matrix"),
        "gp.predictive_measurement.calls": calls("gp.predictive_measurement"),
        "gp.predictive_measurement.s": inclusive("gp.predictive_measurement"),
        "environment.place_scenario.s": inclusive("environment.place_scenario"),
        "environment.sample_field.s": inclusive("environment.sample_field"),
        "environment.measure.calls": calls("environment.measure"),
        "environment.measure.s": inclusive("environment.measure"),
        "metrics.s": report["layers"].get("metrics", {}).get("self_s", 0.0),
        "harness.render_series_csv.s": inclusive("harness.render_series_csv"),
        "harness.write_outputs.s": inclusive("harness.write_outputs"),
        "harness.series_bytes": len(base_series),
        "harness.pool_trials_per_s": pool_rate,
        "harness.pool_scaling_eff": pool_eff,
        "config.parse_config_text.s": inclusive("config.parse_config_text"),
        "planner.run_episode.greedy_s": sum((s[END] - s[START] for s in episodes if s[TAG] == "greedy-edg"), 0.0),
        "planner.run_episode.random_s": sum((s[END] - s[START] for s in episodes if s[TAG] == "random"), 0.0),
        "trace_overhead_frac": overhead,
        "greedy_error_ratio": greedy_ratio(base_record, "error-V", final=True),
        "failed_frac": failed_trials / attempted_trials,
    }

    trace_dir = out_dir / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(trace_dir / "spans.csv.gz", t0)
    table = {
        "traced_wall_s": traced_s,
        "untraced_wall_s": base_s,
        "trace_overhead_frac": overhead,
        "spans": len(tracer.spans),
        "layers": report["layers"],
        "names": {
            name: {k: v for k, v in row.items() if k != "durations"}
            for name, row in sorted(names.items(), key=lambda kv: -kv[1]["self_s"])
        },
    }
    (trace_dir / "layers.json").write_text(json.dumps(table, indent=1) + "\n")
    print_layer_table(table)
    return {
        "metrics": metrics,
        "units": {m.name: m.unit for m in PER_LAYER},
        "attempted": attempted_trials + checks.attempted,
        "failed": failed_trials + checks.failed,
        "checks": checks.results,
        "missing_seams": tracer.missing,
        "pool_note": pool_note,
        "trace_files": [str(p.relative_to(ROOT)) for p in sorted(trace_dir.iterdir())],
    }


def print_layer_table(table: dict) -> None:
    wall = table["traced_wall_s"]
    print(f"traced wall {wall:.3f} s, untraced {table['untraced_wall_s']:.3f} s, "
          f"trace overhead {table['trace_overhead_frac']:+.4f}, {table['spans']} spans")
    print(f"{'layer':<12} {'self_s':>10} {'calls':>9} {'share':>7}")
    for layer, row in sorted(table["layers"].items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{layer:<12} {row['self_s']:>10.4f} {row['calls']:>9d} {row['share']:>7.2%}")
    print(f"{'span':<32} {'self_s':>10} {'s':>10} {'calls':>9}")
    for name, row in table["names"].items():
        print(f"{name:<32} {row['self_s']:>10.4f} {row['s']:>10.4f} {row['calls']:>9d}")


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [m.manifest() for m in END_TO_END],
        "per_layer": [m.manifest() for m in PER_LAYER],
    }


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "iqr_frac": (q3 - q1) / med if med else math.nan}


def bench_record(args) -> int:
    """Run every workload ``--runs`` times with consecutive seeds and write
    the machine facts and each end-to-end metric's median and quartiles."""
    names = [args.workload] if args.workload else list(WORKLOADS)
    seeds = [args.seed + i for i in range(args.runs)]
    out = {"machine": machine_facts(), "run_seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for name in names:
        runs = []
        for seed in seeds:
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        summary = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {},
        }
        for m in END_TO_END:
            values = [r["metrics"][m.name]["value"] for r in runs]
            summary["metrics"][m.name] = {"unit": m.unit, **spread(values), "values": values}
            s = summary["metrics"][m.name]
            print(f"{name} {m.name}: median {s['median']:.6g} {m.unit}, "
                  f"quartiles {s['q1']:.6g}..{s['q3']:.6g}, spread {s['iqr_frac']:.4f} (bound {m.bound})")
        out["workloads"][name] = summary
    Path(args.bench_record).write_text(json.dumps(out, indent=1) + "\n")
    print(json.dumps({k: v["correct"] for k, v in out["workloads"].items()}))
    return 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=A2_SEED)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS,
                   help="an untraced run repeats its timed call until this many seconds pass")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--bench-record", metavar="PATH",
                   help="run every workload --runs times and write BENCH_<pr>.json to PATH")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--write-manifest", action="store_true",
                   help="regenerate BENCHMARK.json from workloads.py")
    args = p.parse_args(argv)
    if not (args.workload or args.bench_record or args.write_manifest):
        p.error("one of --workload, --bench-record or --write-manifest is required")
    return args


def main(argv=None) -> int:
    started = perf_counter()
    args = parse_args(argv)
    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0
    try:
        sp = load_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.bench_record:
        return bench_record(args)

    wl = WORKLOADS[args.workload]
    out_dir = RESULTS / wl.name / f"seed-{args.seed}"
    facts = machine_facts()
    if args.trace:
        result = run_traced(sp, wl, args.seed, out_dir, started + TRACED_DEADLINE_S)
    else:
        result = run_untraced(sp, wl, args.seed, args.seconds, out_dir)
    result.update(workload=wl.name, seed=args.seed, trace=args.trace, machine=facts)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"result-trace{args.trace}.json").write_text(json.dumps(result, indent=1) + "\n")

    print(f"machine: {facts['nproc']} cpus, {facts['cpu_model']}, python {facts['python']}, "
          f"numpy {facts['numpy']}, scipy {facts['scipy']}")
    for lib in facts["blas_libraries"]:
        print(f"blas: {lib['library']} threads={lib.get('threads')} {lib.get('config', '')}")
    for name, value in result["metrics"].items():
        print(f"{name} = {value:.6g} {result['units'][name]}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": result["units"][name]}
            for name, value in result["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

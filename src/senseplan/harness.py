"""Experiment driver: paired planner trials, score tables, validation.

A run executes ``trials`` independent scenarios.  Within a trial every
configured planner sees the same ground-truth field and the same
target/candidate placement but draws independent measurement noise, so
per-trial comparisons are paired.  Trials may run in parallel; results
are collected, sorted by trial index, and written once by the parent
process, which keeps the output bytes independent of the worker count.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import io
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .config import RunConfig, echo_config
from .environment import (
    AnalyticField,
    GridField,
    GroundTruthField,
    PolygonMask,
    RoIMask,
    _csv_rows,
    load_grid_csv,
    place_scenario,
    sample_field,
)
from .errors import ConfigError, DataError, NumericalDegeneracyError, SensorPlanError
from .gp import KernelSpec, MeanSpec, MeasurementLog, as_points, jittered_cholesky, kernel_matrix
from .infogain import edg_exact, edg_quadrature, edg_unnormalized_form
from .metrics import METRIC_NAMES, aggregate_series
from .planner import EpisodeTrace, ScenarioConfig, _greedy_on_log, run_episode
from .seeding import (
    SEED_SCHEME,
    STREAM_FIELD,
    STREAM_PLACEMENT,
    substream_seed,
)

#: Map from aggregated metric name to the EpisodeStep attribute behind it;
#: series.csv writes the METRIC_NAMES among them.
METRIC_FIELDS = {
    "error-V": "error",
    "variance-V": "variance",
    "error-I": "error_shared",
    "variance-I": "variance_shared",
    "rmse-V": "rmse",
}


@functools.lru_cache(maxsize=8)
def _grid_cached(path: str):
    return load_grid_csv(path)


def build_mask(cfg: RunConfig) -> RoIMask:
    """Region of interest implied by the configuration."""
    if cfg.field_kind == "grid":
        return GridField(_grid_cached(cfg.grid_csv)).roi()
    if cfg.roi_kind == "rectangle":
        return PolygonMask.rectangle(*cfg.roi_rect)
    if cfg.roi_kind == "polygon":
        return PolygonMask(np.array(cfg.roi_polygon))
    raise ConfigError(f"no region of interest defined for field kind {cfg.field_kind!r}")


def resolve_mean_constant(cfg: RunConfig) -> float:
    """Numeric mean constant; 'auto' is the grid mean for grid fields,
    otherwise zero."""
    if cfg.mean_constant is not None:
        return float(cfg.mean_constant)
    if cfg.field_kind == "grid":
        values = _grid_cached(cfg.grid_csv).values
        return float(np.nanmean(values))
    return 0.0


def _specs(cfg: RunConfig) -> tuple[MeanSpec, KernelSpec]:
    mean = MeanSpec(constant=resolve_mean_constant(cfg))
    kernel = KernelSpec(
        signal_variance=cfg.signal_variance,
        lengthscale=cfg.lengthscale,
        jitter=cfg.jitter,
    )
    return mean, kernel


def trial_placement(cfg: RunConfig, mask: RoIMask, trial: int):
    """Target and candidate sets for one trial (shared across planners)."""
    if cfg.placement_kind == "explicit":
        return as_points(cfg.explicit_targets), as_points(cfg.explicit_candidates)
    seed = substream_seed(cfg.seed, STREAM_PLACEMENT, trial)
    return place_scenario(mask, cfg.n_targets, cfg.n_candidates, cfg.n_shared, seed)


def trial_field(
    cfg: RunConfig,
    mask: RoIMask,
    trial: int,
    targets: np.ndarray,
    candidates: np.ndarray,
) -> GroundTruthField:
    """Ground-truth field for one trial."""
    if cfg.field_kind == "grid":
        return GridField(_grid_cached(cfg.grid_csv))
    if cfg.field_kind == "analytic":
        return AnalyticField(cfg.analytic_name, dict(cfg.analytic_params), mask)
    mean, kernel = _specs(cfg)
    nodes = _unique_points(targets, candidates)
    return sample_field(
        mean, kernel, nodes, substream_seed(cfg.seed, STREAM_FIELD, trial), mask
    )


def _unique_points(*arrays) -> np.ndarray:
    seen = {}
    for arr in arrays:
        for pt in arr:
            seen.setdefault((float(pt[0]), float(pt[1])), pt)
    return np.array(list(seen.values()))


def _jf(x: float):
    """JSON-safe float: NaN becomes null."""
    x = float(x)
    return None if np.isnan(x) else x


def _trace_to_dict(trace: EpisodeTrace, trial: int, planner: str) -> dict:
    rec = {
        "trial": trial,
        "planner": planner,
        "steps": [
            {
                "step": s.index,
                "chosen_index": s.chosen_index,
                "chosen": [s.chosen[0], s.chosen[1]],
                "score": _jf(s.score),
                "measurement": s.measurement,
                "error": s.error,
                "variance": s.variance,
                "error_shared": _jf(s.error_shared),
                "variance_shared": _jf(s.variance_shared),
                "rmse": s.rmse,
            }
            for s in trace.steps
        ],
        "targets": trace.config.targets.tolist(),
        "candidates": trace.config.candidates.tolist(),
    }
    if trace.final_belief is not None:
        rec["final_mean"] = trace.final_belief.mean.tolist()
        rec["final_marginal_variance"] = trace.final_belief.marginal_variances().tolist()
    return rec


def run_trial(cfg: RunConfig, trial: int) -> dict:
    """Play every configured planner on one shared scenario draw."""
    t0 = time.perf_counter()
    mask = build_mask(cfg)
    targets, candidates = trial_placement(cfg, mask, trial)
    fld = trial_field(cfg, mask, trial, targets, candidates)
    mean, kernel = _specs(cfg)
    traces = {}
    for kind in cfg.planner_kinds:
        scenario = ScenarioConfig(
            targets=targets,
            candidates=candidates,
            noise_sd=cfg.noise_sd,
            horizon=cfg.horizon,
            kernel=kernel,
            mean=mean,
            planner_kind=kind,
            seed=cfg.seed,
            trial_index=trial,
        )
        traces[kind] = run_episode(scenario, fld)
    return {
        "trial": trial,
        "traces": {k: _trace_to_dict(t, trial, k) for k, t in traces.items()},
        "seconds": time.perf_counter() - t0,
    }


def _field_provenance(cfg: RunConfig) -> dict:
    if cfg.field_kind == "grid":
        with open(cfg.grid_csv, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        grid = _grid_cached(cfg.grid_csv)
        return {
            "kind": "grid",
            "path": cfg.grid_csv,
            "sha256": digest,
            "shape": list(grid.values.shape),
            "missing_cells": int(np.sum(~np.isfinite(grid.values))),
        }
    if cfg.field_kind == "analytic":
        return {"kind": "analytic", "name": cfg.analytic_name, "params": dict(cfg.analytic_params)}
    return {
        "kind": "gp-sample",
        "note": "one prior draw per trial at the trial's scenario nodes",
    }


def execute_run(cfg: RunConfig, workers: int = 1) -> dict:
    """Run all trials and assemble the JSON-ready run record.

    With ``workers`` > 1 the trials run in a process pool whose workers
    each use one BLAS thread; the calling process keeps its own BLAS
    threading.
    """
    t0 = time.perf_counter()
    if workers < 1:
        raise ConfigError("workers must be >= 1")
    trials = list(range(cfg.trials))
    if workers == 1 or cfg.trials == 1:
        results = [run_trial(cfg, t) for t in trials]
    else:
        # The pool starts every worker at once, so start no more than trials.
        with ProcessPoolExecutor(max_workers=min(workers, cfg.trials), initializer=_one_blas_thread) as pool:
            results = list(pool.map(functools.partial(run_trial, cfg), trials))
    results.sort(key=lambda r: r["trial"])

    aggregates = {}
    for kind in cfg.planner_kinds:
        per_metric = {}
        stacked = {
            name: np.array(
                [
                    [
                        _step_value(step, name)
                        for step in res["traces"][kind]["steps"]
                    ]
                    for res in results
                ]
            )
            for name in METRIC_FIELDS
        }
        for name, arr in stacked.items():
            series = aggregate_series(name, arr)
            per_metric[name] = {
                "mean": [_jf(v) for v in series.mean],
                "sd": [_jf(v) for v in series.sd],
            }
        aggregates[kind] = per_metric

    record = {
        "artifact": {"name": "senseplan", "version": __version__},
        "master_seed": cfg.seed,
        "seed_scheme": dict(SEED_SCHEME),
        "config": echo_config(cfg, resolve_mean_constant(cfg)),
        "field": _field_provenance(cfg),
        "planners": list(cfg.planner_kinds),
        "trials": cfg.trials,
        "traces": [res["traces"][kind] for res in results for kind in cfg.planner_kinds],
        "aggregates": aggregates,
        "timings": {
            "total_seconds": time.perf_counter() - t0,
            "per_trial_seconds": [res["seconds"] for res in results],
            "workers": workers,
        },
    }
    return record


def _step_value(step: dict, metric: str) -> float:
    value = step[METRIC_FIELDS[metric]]
    return float("nan") if value is None else float(value)


_OPENBLAS_SET_THREADS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def _loaded_openblas() -> list:
    """Each OpenBLAS library mapped into this process, opened by ctypes.

    numpy and scipy each bundle their own copy.  Empty without ``/proc``.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = {
                line.split(maxsplit=5)[-1].strip()
                for line in fh
                if "openblas" in line.lower()
            }
    except OSError:
        return []
    libs = []
    for path in sorted(paths):
        try:
            libs.append(ctypes.CDLL(path))
        except OSError:
            continue
    return libs


def _one_blas_thread() -> None:
    """Pool initializer: set every OpenBLAS loaded here to one thread.

    Each worker otherwise starts a BLAS thread pool as wide as the
    machine, so ``workers`` processes run several times more busy
    threads than there are cores on small matrices.  With another BLAS,
    or without ``/proc``, this does nothing.
    """
    for lib in _loaded_openblas():
        for name in _OPENBLAS_SET_THREADS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)
                break


def render_series_csv(record: dict) -> str:
    """Long-format per-step metric table, one value per row."""
    buf = io.StringIO()
    buf.write("trial,planner,step,metric,value\n")
    for trace in record["traces"]:
        for step in trace["steps"]:
            for metric in METRIC_NAMES:
                value = _step_value(step, metric)
                buf.write(
                    f"{trace['trial']},{trace['planner']},{step['step']},"
                    f"{metric},{repr(value)}\n"
                )
    return buf.getvalue()


def write_outputs(record: dict, out_dir) -> tuple[str, str]:
    """Write run.json and series.csv; returns their paths."""
    os.makedirs(str(out_dir), exist_ok=True)
    run_path = os.path.join(str(out_dir), "run.json")
    series_path = os.path.join(str(out_dir), "series.csv")
    with open(run_path, "w") as fh:
        json.dump(record, fh, indent=1, allow_nan=False)
        fh.write("\n")
    with open(series_path, "w", newline="") as fh:
        fh.write(render_series_csv(record))
    return run_path, series_path


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------


def load_log_csv(path, noise_sd: float) -> MeasurementLog:
    """Read prior measurements from an ``x,y,value`` CSV.

    A file with only the header row yields an empty log.  Without noise,
    two different readings at one location contradict each other and are
    rejected; equal repeats are kept.
    """
    rows = []
    first_at = {}
    for lineno, row in _csv_rows(path, ("x", "y", "value"), "measurement log"):
        try:
            rows.append([float(p) for p in row])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: non-numeric field ({exc})") from exc
        if not np.all(np.isfinite(rows[-1])):
            raise DataError(f"{path}:{lineno}: non-finite field")
        x, y, value = rows[-1]
        line, seen = first_at.setdefault((x, y), (lineno, value))
        if noise_sd == 0 and seen != value:
            raise DataError(f"{path}:{lineno}: noise-free reading {value!r} contradicts line {line}'s {seen!r}")
    table = np.array(rows).reshape(-1, 3)
    return MeasurementLog(table[:, :2], table[:, 2], noise_sd)


def score_table(cfg: RunConfig, log: MeasurementLog) -> dict:
    """Expected-gain table over all candidates for a fixed log.

    Uses the trial-0 scenario placement.  Returns row dicts plus the
    argmax row index as chosen by the greedy rule.
    """
    mask = build_mask(cfg)
    targets, candidates = trial_placement(cfg, mask, 0)
    if not (inside := mask.contains(log.locations)).all():
        i = int(np.argmin(inside))
        raise DataError(f"measurement log row {i + 1} at {tuple(log.locations[i])} lies outside the region of interest")
    mean, kernel = _specs(cfg)
    columns = {
        "edg_exact": lambda c: edg_exact(mean, kernel, log, c, targets).value,
        "edg_quadrature": lambda c: edg_quadrature(mean, kernel, log, c, targets),
        "edg_unnormalized": lambda c: edg_unnormalized_form(mean, kernel, log, c, targets).value,
    }
    rows = []
    for idx, cand in enumerate(candidates):
        row = {"index": idx, "x": float(cand[0]), "y": float(cand[1])}
        for name, evaluate in columns.items():
            try:
                row[name] = evaluate(cand)
            except NumericalDegeneracyError:
                row[name] = float("nan")
        rows.append(row)
    argmax, gains = _greedy_on_log(mean, kernel, log, candidates, targets)
    return {"rows": rows, "argmax": argmax, "argmax_score": float(gains[argmax])}


def render_score_table(table: dict) -> str:
    header = f"{'index':>5}  {'x':>12}  {'y':>12}  {'edg_exact':>14}  {'edg_quadrature':>14}  {'edg_unnormalized':>16}"
    lines = [header, "-" * len(header)]
    for row in table["rows"]:
        lines.append(
            f"{row['index']:>5}  {row['x']:>12.6f}  {row['y']:>12.6f}  "
            f"{row['edg_exact']:>14.8g}  {row['edg_quadrature']:>14.8g}  "
            f"{row['edg_unnormalized']:>16.8g}"
        )
    lines.append(
        f"argmax: index {table['argmax']} with planner score {table['argmax_score']!r}"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def validate_run_config(cfg: RunConfig) -> tuple[list[str], list[str]]:
    """Semantic checks beyond parsing.

    Returns (config_issues, data_issues); both empty means the
    configuration is runnable.
    """
    config_issues: list[str] = []
    data_issues: list[str] = []

    if cfg.field_kind == "grid":
        try:
            _grid_cached(cfg.grid_csv)
        except (DataError, OSError) as exc:
            data_issues.append(str(exc))
            return config_issues, data_issues

    try:
        mask = build_mask(cfg)
    except SensorPlanError as exc:
        config_issues.append(str(exc))
        return config_issues, data_issues

    _, kernel = _specs(cfg)

    if cfg.placement_kind == "explicit":
        for name, pts in (("target", cfg.explicit_targets), ("candidate", cfg.explicit_candidates)):
            for i in np.flatnonzero(~mask.contains(pts)):
                config_issues.append(f"{name} {i} at {pts[i]} lies outside the region of interest")
        if config_issues:
            return config_issues, data_issues

    try:
        targets, candidates = trial_placement(cfg, mask, 0)
    except SensorPlanError as exc:
        config_issues.append(f"placement probe failed: {exc}")
        return config_issues, data_issues

    pts = _unique_points(targets, candidates)
    try:
        jittered_cholesky(kernel_matrix(kernel, pts, pts), base_jitter=kernel.jitter)
    except NumericalDegeneracyError as exc:
        config_issues.append(f"kernel matrix on configured points is not usable: {exc}")
    return config_issues, data_issues

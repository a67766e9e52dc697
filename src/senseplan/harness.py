"""Experiment driver: paired planner trials, score tables, validation.

A run executes ``trials`` independent scenarios.  Within a trial every
configured planner sees the same ground-truth field and the same
target/candidate placement but draws independent measurement noise, so
per-trial comparisons are paired.  Trials may run in parallel; results
are collected in trial order and written once by the parent process,
which keeps the output bytes independent of the worker count.
"""

from __future__ import annotations

import concurrent.futures
import ctypes
import functools
import hashlib
import json
import math
import os
import time
from json.encoder import encode_basestring_ascii

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
from .gp import KernelSpec, MeanSpec, MeasurementLog, _variance_pair, as_points
from .infogain import _explained_share, _unnormalized, edg_quadrature
from .metrics import METRIC_NAMES, aggregate_series
from .planner import EpisodeTrace, ScenarioConfig, _greedy_choice, run_episode
from .seeding import (
    SEED_SCHEME,
    STREAM_FIELD,
    STREAM_PLACEMENT,
    substream_seed,
)

#: Map from aggregated metric name to the step key behind it in run.json;
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
        return _grid_cached(cfg.grid_csv)
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
    """Ground-truth field for one trial; a gp-sample draw runs on one BLAS
    thread, whatever the caller's, so that its bits do not depend on it."""
    if cfg.field_kind == "grid":
        return GridField(_grid_cached(cfg.grid_csv))
    if cfg.field_kind == "analytic":
        return AnalyticField(cfg.analytic_name, dict(cfg.analytic_params), mask)
    mean, kernel = _specs(cfg)
    nodes = _unique_points(targets, candidates)
    # A threaded OpenBLAS Cholesky rounds differently from about 150 nodes up.
    restore = _one_blas_thread()
    try:
        return sample_field(
            mean, kernel, nodes, substream_seed(cfg.seed, STREAM_FIELD, trial), mask
        )
    finally:
        for setter, threads in restore:
            setter(threads)


def _unique_points(*arrays) -> np.ndarray:
    seen = {}
    for arr in arrays:
        seen.update(dict.fromkeys(map(tuple, arr.tolist())))
    return np.array(list(seen))


def _trace_to_dict(trace: EpisodeTrace, trial: int, planner: str) -> dict:
    rec = {
        "trial": trial,
        "planner": planner,
        "steps": list(trace.steps),
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
    threading, apart from the field draw (see :func:`trial_field`).
    """
    t0 = time.perf_counter()
    if workers < 1:
        raise ConfigError("workers must be >= 1")
    trials = list(range(cfg.trials))
    if workers == 1 or cfg.trials == 1:
        results = [run_trial(cfg, t) for t in trials]
    else:
        # The pool starts every worker at once, so start no more than trials.
        # concurrent.futures loads its process module (and multiprocessing)
        # on this first attribute access, so a serial run never loads them.
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(workers, cfg.trials), initializer=_one_blas_thread
        ) as pool:
            results = list(pool.map(functools.partial(run_trial, cfg), trials))

    # A null (None) value reads as NaN in the float array.
    aggregates = {
        kind: {
            name: aggregate_series([[step[field] for step in res["traces"][kind]["steps"]] for res in results])
            for name, field in METRIC_FIELDS.items()
        }
        for kind in cfg.planner_kinds
    }

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


_OPENBLAS_SET_THREADS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


@functools.lru_cache(maxsize=1)
def _loaded_openblas() -> tuple:
    """Each OpenBLAS library mapped into this process, opened by ctypes;
    looked up once per process.

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
        return ()
    libs = []
    for path in sorted(paths):
        try:
            libs.append(ctypes.CDLL(path))
        except OSError:
            continue
    return tuple(libs)


def _one_blas_thread() -> list:
    """Set every OpenBLAS loaded here to one thread; return each one's
    thread-count setter with the count it had before.

    The pool initializer: each worker otherwise starts a BLAS thread pool
    as wide as the machine, so ``workers`` processes run several times
    more busy threads than there are cores on small matrices.  A library
    without both a thread-count setter and getter is left as it is, as is
    every BLAS without ``/proc`` or of another kind.
    """
    restore = []
    for lib in _loaded_openblas():
        for name in _OPENBLAS_SET_THREADS:
            setter = getattr(lib, name, None)
            getter = getattr(lib, name.replace("_set_", "_get_"), None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                restore.append((setter, getter()))
                setter(1)
                break
    return restore


class _FloatText(dict):
    """``float.__repr__`` of each float, computed once per run and shared by
    run.json and series.csv, whose step values and one-trial means repeat.

    Zero is not stored: ``0.0 == -0.0`` would make the two one key.
    """

    def __missing__(self, x: float) -> str:
        text = float.__repr__(x)
        if x:
            self[x] = text
        return text


#: JSON text of each plain scalar type but float, keyed on the exact type.
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _json_text(value, nl: str, floats: _FloatText) -> str:
    """``value`` as ``json.dumps(value, indent=1)`` prints it, with each of
    its lines after the first starting with ``nl`` (a newline and the
    indent of ``value``'s own level); floats are printed through
    ``floats``.

    Dicts with ``str`` keys, lists (items by :func:`_items`), tuples and
    the plain scalars are built here, one join per container; anything
    else is json's own text, re-indented, which is exact because JSON
    strings hold no raw newline.  The brackets go onto the first and last
    item before the join, so a container's text is not copied again.
    """
    if type(value) is float:
        text = floats[value]
        if "n" in text:  # nan, inf or -inf
            raise ValueError(text)
        return text
    scalar = _SCALAR_TEXT.get(type(value))
    if scalar is not None:
        return scalar(value)
    inner = nl + " "
    sep = "," + inner
    if type(value) in (list, tuple):
        if not value:
            return "[]"
        if set(map(type, value)) == {float}:
            # Most lists in a run are floats: one join of the memo's texts,
            # with no item list and no bracket edits, is measurably faster.
            body = sep.join(map(floats.__getitem__, value))
            if "n" in body:
                raise ValueError(body)
            return "[" + inner + body + nl + "]"
        items, brackets = _items(value, inner, floats), "[]"
    elif type(value) is dict and set(map(type, value)) == {str}:
        items = [encode_basestring_ascii(k) + ": " + _json_text(v, inner, floats) for k, v in value.items()]
        brackets = "{}"
    else:
        return json.dumps(value, indent=1, allow_nan=False).replace("\n", nl)
    items[0] = brackets[0] + inner + items[0]
    items[-1] += nl + brackets[1]
    return sep.join(items)


def _items(values, nl: str, floats: _FloatText) -> list[str]:
    """The text of each of ``values`` at the level whose lines start with
    ``nl``: values of one plain type in one pass, and two or more dicts with
    the same ``str`` keys in the same order through one ``%`` template that
    holds the keys, each key's column printed by this function."""
    types = set(map(type, values))
    kind = types.pop() if len(types) == 1 else None
    if kind is float:
        if not all(map(math.isfinite, values)):
            raise ValueError("non-finite float")
        return list(map(floats.__getitem__, values))
    if kind in _SCALAR_TEXT:
        return list(map(_SCALAR_TEXT[kind], values))
    keys = list(values[0]) if kind is dict and len(values) > 1 else None
    if keys and set(map(type, keys)) == {str} and all(list(row) == keys for row in values):
        inner = nl + " "
        fields = ("," + inner).join(encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in keys)
        template = "{" + inner + fields + nl + "}"
        columns = [_items([row[k] for row in values], inner, floats) for k in keys]
        return [template % texts for texts in zip(*columns)]
    return [_json_text(v, nl, floats) for v in values]


def render_run_json(record, floats: _FloatText | None = None) -> str:
    """``record`` as ``json.dumps(record, indent=1, allow_nan=False)``
    prints it, byte for byte, built a container at a time; ``floats`` is
    the run's float-text memo, a new one if not given.

    A record json cannot encode raises json's own error: NaN or an
    infinity raises ``ValueError``, an unknown type ``TypeError``.
    """
    try:
        return _json_text(record, "\n", _FloatText() if floats is None else floats)
    except (TypeError, ValueError, RecursionError):
        # Let json raise its own error, with its own message.
        return json.dumps(record, indent=1, allow_nan=False)


def render_series_csv(record: dict, floats: _FloatText | None = None) -> str:
    """Long-format per-step metric table, one value per row: a step's
    float written with ``repr``, or ``nan`` where it is null; ``floats``
    is the run's float-text memo, a new one if not given."""
    floats = _FloatText() if floats is None else floats
    fields = [(f",{metric},", METRIC_FIELDS[metric]) for metric in METRIC_NAMES]
    parts = ["trial,planner,step,metric,value\n"]
    for trace in record["traces"]:
        head = f"{trace['trial']},{trace['planner']},"
        for step in trace["steps"]:
            prefix = head + str(step["step"])
            for label, field in fields:
                value = step[field]
                parts += (prefix, label, "nan" if value is None else floats[value], "\n")
    return "".join(parts)


def write_outputs(record: dict, out_dir) -> tuple[str, str]:
    """Write run.json and series.csv; returns their paths.

    Both texts are rendered before either file is opened, so a record that
    cannot be encoded raises and leaves the directory as it was.
    """
    floats = _FloatText()
    run_text = render_run_json(record, floats) + "\n"
    series_text = render_series_csv(record, floats)
    os.makedirs(str(out_dir), exist_ok=True)
    run_path = os.path.join(str(out_dir), "run.json")
    series_path = os.path.join(str(out_dir), "series.csv")
    with open(run_path, "w") as fh:
        fh.write(run_text)
    with open(series_path, "w", newline="") as fh:
        fh.write(series_text)
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
    argmax row index as chosen by the greedy rule.  One conditioning gives
    the ``edg_exact`` column, the greedy rule's own gain vector, and the
    ``edg_unnormalized`` one, NaN where degenerate; only the quadrature
    oracle runs per candidate.
    """
    mask = build_mask(cfg)
    targets, candidates = trial_placement(cfg, mask, 0)
    if not (inside := mask.contains(log.locations)).all():
        i = int(np.argmin(inside))
        raise DataError(f"measurement log row {i + 1} at {tuple(log.locations[i])} lies outside the region of interest")
    mean, kernel = _specs(cfg)
    var, explained = _variance_pair(kernel, log, targets, candidates)
    argmax, gains = _greedy_choice(kernel, log.noise_sd, var, explained)
    exact = np.where(gains == -np.inf, np.nan, gains)
    rho = _explained_share(kernel, log.noise_sd, var, explained)
    unnormalized = _unnormalized(kernel, log.noise_sd, var, rho, exact) if len(log) else exact
    rows = []
    for idx, cand in enumerate(candidates):
        try:
            quadrature = edg_quadrature(mean, kernel, log, cand, targets)
        except NumericalDegeneracyError:
            quadrature = float("nan")
        row = {"index": idx, "x": float(cand[0]), "y": float(cand[1]), "edg_exact": float(exact[idx])}
        rows.append({**row, "edg_quadrature": quadrature, "edg_unnormalized": float(unnormalized[idx])})
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
    configuration is runnable.  A gp-sample config is probed by drawing
    trial 0's field as the run does; the other field kinds factor nothing.
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

    if cfg.field_kind == "gp-sample":
        try:
            trial_field(cfg, mask, 0, targets, candidates)
        except NumericalDegeneracyError as exc:
            config_issues.append(f"kernel matrix on configured points is not usable: {exc}")
    return config_issues, data_issues

"""Run configuration: one key table for defaults, parsing, validation and echo.

A run is described by a sectioned key-value file (configparser syntax).
``_KEYS`` lists every section and key with its default text, in the
order the run record echoes them; every key has a default except the
field and region definitions.  ``_KIND_KEYS`` names the keys each kind
of field (grid, analytic, gp-sample), region (rectangle, polygon, grid)
and placement (sample, explicit) takes besides ``kind``; an analytic
field also takes its function's parameters, each with the default in
its signature (:func:`~senseplan.environment.analytic_defaults`).  Any
other key is reported.  Parsing, the unknown-key check and the echo all
read these tables, and the resolved value of every key, default or not,
is echoed into the run record so a record can be re-validated and re-run
without the original file.

Command-line overrides (``--seed``, ``--trials``, ``--horizon``,
``--planner``) replace the file's ``[scenario]`` values before
validation, so they pass the same checks (``seed`` must be >= 0) and any
problem with one is reported, naming the file, together with the file's
own problems.  Coordinate pairs use ``x,y`` order (longitude, latitude
for geodata).
"""

from __future__ import annotations

import configparser
import operator
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .environment import ANALYTIC_CATALOG, analytic_defaults
from .errors import ConfigError
from .planner import PLANNER_KINDS

#: Planner choices accepted by configs and the command line.
PLANNER_CHOICES = PLANNER_KINDS + ("both",)

#: Every section and key with its default text ("" for none), in echo
#: order.  A key named like an int, float or str field of ``RunConfig``
#: is a scalar and parses into that field.
_KEYS = {
    "scenario": {"horizon": "10", "trials": "20", "noise_sd": "1.0", "planner": "both", "seed": "0"},
    "kernel": {"signal_variance": "1.0", "lengthscale": "1.0", "jitter": "0.0"},
    "mean": {"constant": "auto"},
    "field": {"kind": ""},
    "roi": {"kind": ""},
    "placement": {
        "kind": "sample",
        "n_targets": "61",
        "n_candidates": "60",
        "n_shared": "5",
        "targets": "",
        "candidates": "",
    },
}

#: The keys each kind of field, region and placement reads besides
#: ``kind``, each with the ``RunConfig`` field it fills.  An analytic
#: field also takes its function's parameters (``analytic_defaults``).
_KIND_KEYS = {
    "field": {"grid": {"grid_csv": "grid_csv"}, "analytic": {"name": "analytic_name"}, "gp-sample": {}},
    "roi": {"rectangle": {"rect": "roi_rect"}, "polygon": {"polygon": "roi_polygon"}, "grid": {}},
    "placement": {
        "sample": {key: key for key in ("n_targets", "n_candidates", "n_shared")},
        "explicit": {"targets": "explicit_targets", "candidates": "explicit_candidates"},
    },
}
#: What the problems of each kind section call the thing it describes.
_NOUNS = {"field": "fields", "roi": "regions", "placement": "placement"}

#: Bounds on scalar values, written as the problem they raise states them.
_BOUNDS = {
    "horizon": ">= 1",
    "trials": ">= 1",
    "noise_sd": ">= 0",
    "seed": ">= 0",
    "signal_variance": "> 0",
    "lengthscale": "> 0",
    "jitter": ">= 0",
    "n_targets": ">= 1",
    "n_candidates": ">= 1",
}
_COMPARE = {">=": operator.ge, ">": operator.gt}


@dataclass(frozen=True)
class RunConfig:
    """Validated, picklable run description (plain values only)."""

    horizon: int
    trials: int
    noise_sd: float
    planner: str
    seed: int
    signal_variance: float
    lengthscale: float
    jitter: float
    mean_constant: Optional[float]  # None means "auto"
    field_kind: str
    grid_csv: Optional[str]
    analytic_name: Optional[str]
    analytic_params: tuple
    roi_kind: str
    roi_rect: Optional[tuple]
    roi_polygon: Optional[tuple]
    placement_kind: str
    n_targets: int
    n_candidates: int
    n_shared: int
    explicit_targets: Optional[tuple]
    explicit_candidates: Optional[tuple]

    @property
    def planner_kinds(self) -> tuple[str, ...]:
        return PLANNER_KINDS if self.planner == "both" else (self.planner,)


#: ``RunConfig`` field types by name ("int", "float", ...), which say how
#: a scalar key parses.
_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _finite(tokens, label: str, issues: list[str], bad=None, count=None) -> Optional[tuple]:
    """``tokens`` as finite floats, or None after one issue naming ``label``.

    A token that is not a number, or a token count other than ``count``,
    reports ``bad`` (by default ``<label>: not a number (<first token>)``).
    """
    try:
        values = tuple(float(t) for t in tokens)
    except (TypeError, ValueError):
        values = None
    if values is None or count not in (None, len(values)):
        issues.append(bad or f"{label}: not a number ({tokens[0]!r})")
        return None
    if not np.all(np.isfinite(values)):
        issues.append(f"{label}: must be finite")
        return None
    return values


def _parse_pairs(text: str, what: str, issues: list[str]) -> tuple:
    """Parse 'x,y; x,y; ...' into a tuple of (float, float) pairs."""
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [p.strip() for p in chunk.split(",")]
        if len(parts) != 2:
            issues.append(f"{what}: expected 'x,y' pairs separated by ';', got {chunk!r}")
            return ()
        pair = _finite(parts, what, issues, f"{what}: non-numeric coordinate in {chunk!r}")
        if pair is None:
            return ()
        pairs.append(pair)
    if not pairs:
        issues.append(f"{what}: no coordinate pairs given")
    return tuple(pairs)


def _parse_bumps(text: str, issues: list[str]) -> tuple:
    """Parse 'amp,cx,cy,width; ...' into 4-tuples, skipping bad groups."""
    bumps = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [p.strip() for p in chunk.split(",")]
        bad = f"field.bumps: expected 'amp,cx,cy,width' groups, got {chunk!r}"
        bump = _finite(parts, "field.bumps", issues, bad, count=4)
        if bump is None:
            continue
        if bump[3] <= 0:
            issues.append("field.bumps: widths must be > 0")
        bumps.append(bump)
    return tuple(bumps)


def _scalars(section: str, body: dict, issues: list[str]) -> dict:
    """The section's scalar keys, each parsed as its ``RunConfig`` field's
    type; a key that fails to parse reports one issue and reads None."""
    values = {}
    for key in _KEYS[section]:
        label, raw, kind = f"{section}.{key}", body[key], _TYPES.get(key)
        if kind == "str":
            values[key] = raw.strip()
        elif kind == "float":
            value = _finite([raw], label, issues)
            values[key] = None if value is None else value[0]
        elif kind == "int":
            try:
                values[key] = int(raw)
            except ValueError:
                issues.append(f"{label}: not an integer ({raw!r})")
                values[key] = None
    return values


def _check_bounds(section: str, values: dict, issues: list[str]) -> None:
    """Report every parsed value outside its bound in ``_BOUNDS``; a value
    that failed to parse has been reported already."""
    for key, value in values.items():
        if key in _BOUNDS and value is not None:
            op, limit = _BOUNDS[key].split()
            if not _COMPARE[op](value, float(limit)):
                issues.append(f"{section}.{key}: must be {_BOUNDS[key]}")


def _unknown(section: str, keys, allowed, issues: list[str], suffix: str = "") -> None:
    issues.extend(f"{section}.{key}: unknown key{suffix}" for key in keys if key not in allowed)


def parse_config_text(
    text: str, source: str = "<config>", overrides: Optional[dict] = None
) -> RunConfig:
    """Parse and validate configuration text.

    The non-None values of ``overrides`` replace the ``[scenario]`` keys
    of the same name before validation.  All violations are collected and
    reported together in the raised ConfigError, one line per offending
    field.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError(f"{source}: cannot parse config: {exc}") from exc
    if overrides:
        parser.read_dict({"scenario": {k: v for k, v in overrides.items() if v is not None}})

    issues = [f"unknown section [{name}]" for name in parser.sections() if name not in _KEYS]
    given = {sec: parser[sec] if parser.has_section(sec) else {} for sec in _KEYS}
    body = {sec: dict(keys, **given[sec]) for sec, keys in _KEYS.items()}

    values = _scalars("scenario", body["scenario"], issues)
    _check_bounds("scenario", values, issues)
    if values["planner"] not in PLANNER_CHOICES:
        issues.append(f"scenario.planner: {values['planner']!r} not in {PLANNER_CHOICES}")
    _unknown("scenario", body["scenario"], _KEYS["scenario"], issues)

    kernel = _scalars("kernel", body["kernel"], issues)
    _check_bounds("kernel", kernel, issues)
    _unknown("kernel", body["kernel"], _KEYS["kernel"], issues)
    values.update(kernel)

    mean_raw = body["mean"]["constant"].strip()
    values["mean_constant"] = None
    if mean_raw.lower() != "auto":
        bad = f"mean.constant: expected a number or 'auto', got {mean_raw!r}"
        value = _finite([mean_raw], "mean.constant", issues, bad)
        values["mean_constant"] = None if value is None else value[0]
    _unknown("mean", body["mean"], _KEYS["mean"], issues)

    fld = body["field"]
    field_kind = values["field_kind"] = fld["kind"].strip()
    values.update(grid_csv=None, analytic_name=None, analytic_params=())
    if field_kind == "grid":
        values["grid_csv"] = fld.get("grid_csv", "").strip()
        if not values["grid_csv"]:
            issues.append("field.grid_csv: required for grid fields")
    elif field_kind == "analytic":
        name = values["analytic_name"] = fld.get("name", "").strip()
        if name in ANALYTIC_CATALOG:
            params = analytic_defaults(name)
            # A parameter parses by its default's type: a tuple holds bump groups.
            for key, raw in fld.items():
                if isinstance(params.get(key), tuple):
                    params[key] = _parse_bumps(raw, issues)
                elif key in params and (value := _finite([raw], f"field.{key}", issues)):
                    params[key] = value[0]
            values["analytic_params"] = tuple(sorted(params.items()))
        else:
            issues.append(f"field.name: {name!r} not in {sorted(ANALYTIC_CATALOG)}")
    elif not field_kind:
        issues.append(f"field.kind: required ({' | '.join(_KIND_KEYS['field'])})")
    elif field_kind != "gp-sample":
        issues.append(f"field.kind: {field_kind!r} not one of {', '.join(_KIND_KEYS['field'])}")

    roi = body["roi"]
    roi_kind = roi["kind"].strip() or None
    values.update(roi_rect=None, roi_polygon=None)
    if field_kind == "grid":
        if roi_kind not in (None, "grid"):
            issues.append("roi.kind: grid fields take their RoI from the data support")
        roi_kind = "grid"
    elif roi_kind == "rectangle":
        raw = roi.get("rect", "")
        parts = [p.strip() for p in raw.replace(";", ",").split(",") if p.strip()]
        bad = f"roi.rect: expected 'xmin, ymin, xmax, ymax', got {raw!r}"
        rect = values["roi_rect"] = _finite(parts, "roi.rect", issues, bad, count=4)
        if rect is not None and not (rect[2] > rect[0] and rect[3] > rect[1]):
            issues.append("roi.rect: max coordinates must exceed min coordinates")
    elif roi_kind == "polygon":
        polygon = values["roi_polygon"] = _parse_pairs(roi.get("polygon", ""), "roi.polygon", issues)
        if polygon and len(polygon) < 3:
            issues.append("roi.polygon: need at least 3 vertices")
    elif roi_kind is None and field_kind in ("analytic", "gp-sample"):
        issues.append("roi.kind: required for analytic and gp-sample fields")
    elif roi_kind is not None:
        choices = ", ".join(kind for kind in _KIND_KEYS["roi"] if kind != "grid")
        issues.append(f"roi.kind: {roi_kind!r} not one of {choices}")
        roi_kind = None  # a grid region comes only with a grid field
    values["roi_kind"] = roi_kind

    plc = body["placement"]
    placement_kind = values["placement_kind"] = plc["kind"].strip()
    counts = _scalars("placement", plc, issues)
    values.update(counts, explicit_targets=None, explicit_candidates=None)
    if placement_kind == "sample":
        _check_bounds("placement", counts, issues)
        n_targets, n_candidates, n_shared = counts.values()
        if None not in counts.values() and not (
            0 <= n_shared <= min(max(n_targets, 0), max(n_candidates, 0))
        ):
            issues.append("placement.n_shared: must satisfy 0 <= n_shared <= min(n_targets, n_candidates)")
    elif placement_kind == "explicit":
        targets = _parse_pairs(plc["targets"], "placement.targets", issues)
        candidates = _parse_pairs(plc["candidates"], "placement.candidates", issues)
        values.update(
            explicit_targets=targets,
            explicit_candidates=candidates,
            n_targets=len(targets),
            n_candidates=len(candidates),
            n_shared=len(set(targets) & set(candidates)),
        )
    else:
        issues.append(f"placement.kind: {placement_kind!r} not one of {', '.join(_KIND_KEYS['placement'])}")

    # Field, region and placement take only their kind's keys (an analytic
    # field, its function's parameters too).  An unknown kind or name is
    # reported above and leaves its section's keys unchecked.
    for sec, kinds in _KIND_KEYS.items():
        kind = values[f"{sec}_kind"]
        allowed = kinds.get(kind)
        if kind == "analytic":
            kind = values["analytic_name"]
            allowed = {**allowed, **analytic_defaults(kind)} if kind in ANALYTIC_CATALOG else None
        if allowed is not None:
            _unknown(sec, sorted(given[sec]), {"kind", *allowed}, issues, f" for {kind} {_NOUNS[sec]}")

    if issues:
        raise ConfigError(
            f"{source}: {len(issues)} configuration problem(s):\n  - "
            + "\n  - ".join(issues)
        )
    return RunConfig(**values)


def load_config(path, overrides: Optional[dict] = None) -> RunConfig:
    """Read a config file and validate it with ``overrides`` in place of
    its ``[scenario]`` values (see :func:`parse_config_text`)."""
    try:
        with open(str(path)) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text, source=str(path), overrides=overrides)


def _text(value) -> str:
    """``value`` as config text: ``a, b, ...`` for a tuple of numbers and
    ``a,b; c,d; ...`` for a tuple of tuples.  ``str`` gives the shortest
    text that parses back to the same float."""
    if isinstance(value, tuple):
        if value and isinstance(value[0], tuple):
            return "; ".join(",".join(map(str, group)) for group in value)
        return ", ".join(map(str, value))
    return str(value)


def echo_config(cfg: RunConfig, resolved_mean: float) -> dict:
    """Render the fully-resolved configuration as {section: {key: str}}.

    The result round-trips through configparser, so a run record can be
    re-validated and re-run without the original file.  ``resolved_mean``
    is the numeric value an 'auto' mean resolved to.  A grid field's
    region is implied and not echoed.
    """
    sections = {
        sec: {key: _text(getattr(cfg, key)) for key in _KEYS[sec]} for sec in ("scenario", "kernel")
    }
    sections["mean"] = {"constant": _text(resolved_mean)}
    for sec, kinds in _KIND_KEYS.items():
        kind = getattr(cfg, f"{sec}_kind")
        sections[sec] = {"kind": kind}
        sections[sec].update((key, _text(getattr(cfg, attr))) for key, attr in kinds[kind].items())
    sections["field"].update((key, _text(value)) for key, value in cfg.analytic_params)
    if cfg.roi_kind == "grid":
        del sections["roi"]
    return sections

"""Run configuration: INI-style files, defaults, validation, and echo.

A run is described by a sectioned key-value file (configparser syntax).
Every key has a default except the field definition, and the resolved
value of every key, default or not, is echoed into the run record so a
record can be re-validated and re-run without the original file.

Sections and keys::

    [scenario]  horizon, trials, noise_sd, planner, seed
    [kernel]    signal_variance, lengthscale, jitter
    [mean]      constant            (number or "auto")
    [field]     kind = grid | analytic | gp-sample
                grid:      grid_csv
                analytic:  name (+ per-name parameters, e.g. a, b, c, d
                           or bumps/offset for gauss-bumps)
                gp-sample: no extra keys (one prior draw per trial)
    [roi]       kind = rectangle | polygon | grid
                rect = xmin, ymin, xmax, ymax
                polygon = x1,y1; x2,y2; ...
    [placement] kind = sample | explicit
                sample:   n_targets, n_candidates, n_shared
                explicit: targets, candidates ("x,y; x,y; ...")

Coordinate pairs use ``x,y`` order (longitude, latitude for geodata).
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError
from .planner import PLANNER_KINDS

#: Planner choices accepted by configs and the command line.
PLANNER_CHOICES = PLANNER_KINDS + ("both",)

_DEFAULTS = {
    "scenario": {
        "horizon": "10",
        "trials": "20",
        "noise_sd": "1.0",
        "planner": "both",
        "seed": "0",
    },
    "kernel": {
        "signal_variance": "1.0",
        "lengthscale": "1.0",
        "jitter": "0.0",
    },
    "mean": {
        "constant": "auto",
    },
    "placement": {
        "kind": "sample",
        "n_targets": "61",
        "n_candidates": "60",
        "n_shared": "5",
    },
}


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
    grid_csv: Optional[str] = None
    analytic_name: Optional[str] = None
    analytic_params: tuple = ()
    roi_kind: Optional[str] = None
    roi_rect: Optional[tuple] = None
    roi_polygon: Optional[tuple] = None
    placement_kind: str = "sample"
    n_targets: int = 61
    n_candidates: int = 60
    n_shared: int = 5
    explicit_targets: Optional[tuple] = None
    explicit_candidates: Optional[tuple] = None

    @property
    def planner_kinds(self) -> tuple[str, ...]:
        return PLANNER_KINDS if self.planner == "both" else (self.planner,)


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


def _get_float(section, key: str, issues: list[str], label: str) -> float:
    value = _finite([section.get(key)], f"{label}.{key}", issues)
    return float("nan") if value is None else value[0]


def _get_int(section, key: str, issues: list[str], label: str) -> int:
    raw = section.get(key)
    try:
        return int(raw)
    except (TypeError, ValueError):
        issues.append(f"{label}.{key}: not an integer ({raw!r})")
        return 0


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    """Parse and validate configuration text.

    All violations are collected and reported together in the raised
    ConfigError, one line per offending field.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError(f"{source}: cannot parse config: {exc}") from exc

    issues: list[str] = []
    known = {"scenario", "kernel", "mean", "field", "roi", "placement"}
    for name in parser.sections():
        if name not in known:
            issues.append(f"unknown section [{name}]")

    merged = {
        sec: dict(_DEFAULTS.get(sec, {}), **(dict(parser[sec]) if parser.has_section(sec) else {}))
        for sec in known
    }

    scen = merged["scenario"]
    horizon = _get_int(scen, "horizon", issues, "scenario")
    trials = _get_int(scen, "trials", issues, "scenario")
    noise_sd = _get_float(scen, "noise_sd", issues, "scenario")
    seed = _get_int(scen, "seed", issues, "scenario")
    planner = scen.get("planner", "both").strip()
    if horizon < 1:
        issues.append("scenario.horizon: must be >= 1")
    if trials < 1:
        issues.append("scenario.trials: must be >= 1")
    if np.isfinite(noise_sd) and noise_sd < 0:
        issues.append("scenario.noise_sd: must be >= 0")
    if planner not in PLANNER_CHOICES:
        issues.append(f"scenario.planner: {planner!r} not in {PLANNER_CHOICES}")
    for key in scen:
        if key not in _DEFAULTS["scenario"]:
            issues.append(f"scenario.{key}: unknown key")

    kern = merged["kernel"]
    signal_variance = _get_float(kern, "signal_variance", issues, "kernel")
    lengthscale = _get_float(kern, "lengthscale", issues, "kernel")
    jitter = _get_float(kern, "jitter", issues, "kernel")
    if np.isfinite(signal_variance) and signal_variance <= 0:
        issues.append("kernel.signal_variance: must be > 0")
    if np.isfinite(lengthscale) and lengthscale <= 0:
        issues.append("kernel.lengthscale: must be > 0")
    if np.isfinite(jitter) and jitter < 0:
        issues.append("kernel.jitter: must be >= 0")
    for key in kern:
        if key not in _DEFAULTS["kernel"]:
            issues.append(f"kernel.{key}: unknown key")

    mean_raw = merged["mean"].get("constant", "auto").strip()
    if mean_raw.lower() == "auto":
        mean_constant = None
    else:
        bad = f"mean.constant: expected a number or 'auto', got {mean_raw!r}"
        value = _finite([mean_raw], "mean.constant", issues, bad)
        mean_constant = None if value is None else value[0]
    for key in merged["mean"]:
        if key not in _DEFAULTS["mean"]:
            issues.append(f"mean.{key}: unknown key")

    fld = merged["field"]
    field_kind = fld.get("kind", "").strip()
    grid_csv = None
    analytic_name = None
    analytic_params: tuple = ()
    if field_kind == "grid":
        grid_csv = fld.get("grid_csv", "").strip()
        if not grid_csv:
            issues.append("field.grid_csv: required for grid fields")
        extra = set(fld) - {"kind", "grid_csv"}
        for key in sorted(extra):
            issues.append(f"field.{key}: unknown key for grid fields")
    elif field_kind == "analytic":
        analytic_name = fld.get("name", "").strip()
        from .environment import ANALYTIC_CATALOG

        if analytic_name not in ANALYTIC_CATALOG:
            issues.append(
                f"field.name: {analytic_name!r} not in {sorted(ANALYTIC_CATALOG)}"
            )
        params = []
        for key, raw in fld.items():
            if key in ("kind", "name"):
                continue
            if key == "bumps":
                bumps = []
                for chunk in raw.split(";"):
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
                params.append(("bumps", tuple(bumps)))
            else:
                value = _finite([raw], f"field.{key}", issues)
                if value is not None:
                    params.append((key, value[0]))
        analytic_params = tuple(sorted(params))
    elif field_kind == "gp-sample":
        extra = set(fld) - {"kind"}
        for key in sorted(extra):
            issues.append(f"field.{key}: unknown key for gp-sample fields")
    elif not field_kind:
        issues.append("field.kind: required (grid | analytic | gp-sample)")
    else:
        issues.append(f"field.kind: {field_kind!r} not one of grid, analytic, gp-sample")

    roi = merged["roi"]
    roi_kind = roi.get("kind", "").strip() or None
    roi_rect = None
    roi_polygon = None
    if field_kind == "grid":
        if roi_kind not in (None, "grid"):
            issues.append("roi.kind: grid fields take their RoI from the data support")
        roi_kind = "grid"
    elif roi_kind == "rectangle":
        raw = roi.get("rect", "")
        parts = [p.strip() for p in raw.replace(";", ",").split(",") if p.strip()]
        bad = f"roi.rect: expected 'xmin, ymin, xmax, ymax', got {raw!r}"
        vals = _finite(parts, "roi.rect", issues, bad, count=4)
        if vals is not None:
            if not (vals[2] > vals[0] and vals[3] > vals[1]):
                issues.append("roi.rect: max coordinates must exceed min coordinates")
            roi_rect = vals
    elif roi_kind == "polygon":
        roi_polygon = _parse_pairs(roi.get("polygon", ""), "roi.polygon", issues)
        if roi_polygon and len(roi_polygon) < 3:
            issues.append("roi.polygon: need at least 3 vertices")
    elif roi_kind is None and field_kind in ("analytic", "gp-sample"):
        issues.append("roi.kind: required for analytic and gp-sample fields")
    elif roi_kind is not None:
        issues.append(f"roi.kind: {roi_kind!r} not one of rectangle, polygon, grid")

    plc = merged["placement"]
    placement_kind = plc.get("kind", "sample").strip()
    n_targets = _get_int(plc, "n_targets", issues, "placement")
    n_candidates = _get_int(plc, "n_candidates", issues, "placement")
    n_shared = _get_int(plc, "n_shared", issues, "placement")
    explicit_targets = None
    explicit_candidates = None
    if placement_kind == "sample":
        if n_targets < 1:
            issues.append("placement.n_targets: must be >= 1")
        if n_candidates < 1:
            issues.append("placement.n_candidates: must be >= 1")
        if not (0 <= n_shared <= min(max(n_targets, 0), max(n_candidates, 0))):
            issues.append("placement.n_shared: must satisfy 0 <= n_shared <= min(n_targets, n_candidates)")
    elif placement_kind == "explicit":
        explicit_targets = _parse_pairs(plc.get("targets", ""), "placement.targets", issues)
        explicit_candidates = _parse_pairs(
            plc.get("candidates", ""), "placement.candidates", issues
        )
        n_targets = len(explicit_targets)
        n_candidates = len(explicit_candidates)
        shared = {t for t in explicit_targets} & {c for c in explicit_candidates}
        n_shared = len(shared)
    else:
        issues.append(f"placement.kind: {placement_kind!r} not one of sample, explicit")
    allowed_plc = {"kind", "n_targets", "n_candidates", "n_shared", "targets", "candidates"}
    for key in plc:
        if key not in allowed_plc:
            issues.append(f"placement.{key}: unknown key")

    if issues:
        raise ConfigError(
            f"{source}: {len(issues)} configuration problem(s):\n  - "
            + "\n  - ".join(issues)
        )

    return RunConfig(
        horizon=horizon,
        trials=trials,
        noise_sd=noise_sd,
        planner=planner,
        seed=seed,
        signal_variance=signal_variance,
        lengthscale=lengthscale,
        jitter=jitter,
        mean_constant=mean_constant,
        field_kind=field_kind,
        grid_csv=grid_csv,
        analytic_name=analytic_name,
        analytic_params=analytic_params,
        roi_kind=roi_kind,
        roi_rect=roi_rect,
        roi_polygon=roi_polygon,
        placement_kind=placement_kind,
        n_targets=n_targets,
        n_candidates=n_candidates,
        n_shared=n_shared,
        explicit_targets=explicit_targets,
        explicit_candidates=explicit_candidates,
    )


def load_config(path, overrides: Optional[dict] = None) -> RunConfig:
    """Read a config file, apply command-line overrides, and validate."""
    try:
        with open(str(path)) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    cfg = parse_config_text(text, source=str(path))
    if overrides:
        cfg = apply_overrides(cfg, overrides)
    return cfg


def apply_overrides(cfg: RunConfig, overrides: dict) -> RunConfig:
    """Return a copy of ``cfg`` with non-None override values applied."""
    from dataclasses import replace

    clean = {k: v for k, v in overrides.items() if v is not None}
    if not clean:
        return cfg
    allowed = {"seed", "trials", "horizon", "planner"}
    unknown = set(clean) - allowed
    if unknown:
        raise ConfigError(f"unsupported overrides: {sorted(unknown)}")
    if "planner" in clean and clean["planner"] not in PLANNER_CHOICES:
        raise ConfigError(f"planner override {clean['planner']!r} not in {PLANNER_CHOICES}")
    for key in ("seed", "trials", "horizon"):
        if key in clean:
            clean[key] = int(clean[key])
    if clean.get("trials", cfg.trials) < 1:
        raise ConfigError("trials override must be >= 1")
    if clean.get("horizon", cfg.horizon) < 1:
        raise ConfigError("horizon override must be >= 1")
    return replace(cfg, **clean)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def echo_config(cfg: RunConfig, resolved_mean: float) -> dict:
    """Render the fully-resolved configuration as {section: {key: str}}.

    The result round-trips through configparser, so a run record can be
    re-validated and re-run without the original file.  ``resolved_mean``
    is the numeric value an 'auto' mean resolved to.
    """
    sections: dict[str, dict[str, str]] = {
        "scenario": {
            "horizon": str(cfg.horizon),
            "trials": str(cfg.trials),
            "noise_sd": _fmt(cfg.noise_sd),
            "planner": cfg.planner,
            "seed": str(cfg.seed),
        },
        "kernel": {
            "signal_variance": _fmt(cfg.signal_variance),
            "lengthscale": _fmt(cfg.lengthscale),
            "jitter": _fmt(cfg.jitter),
        },
        "mean": {"constant": _fmt(resolved_mean)},
    }
    fld: dict[str, str] = {"kind": cfg.field_kind}
    if cfg.field_kind == "grid":
        fld["grid_csv"] = cfg.grid_csv or ""
    elif cfg.field_kind == "analytic":
        fld["name"] = cfg.analytic_name or ""
        for key, value in cfg.analytic_params:
            if key == "bumps":
                fld["bumps"] = "; ".join(
                    ",".join(_fmt(x) for x in bump) for bump in value
                )
            else:
                fld[key] = _fmt(value)
    sections["field"] = fld
    if cfg.roi_kind and cfg.roi_kind != "grid":
        roi: dict[str, str] = {"kind": cfg.roi_kind}
        if cfg.roi_kind == "rectangle":
            roi["rect"] = ", ".join(_fmt(v) for v in cfg.roi_rect)
        else:
            roi["polygon"] = "; ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in cfg.roi_polygon)
        sections["roi"] = roi
    plc: dict[str, str] = {"kind": cfg.placement_kind}
    if cfg.placement_kind == "sample":
        plc["n_targets"] = str(cfg.n_targets)
        plc["n_candidates"] = str(cfg.n_candidates)
        plc["n_shared"] = str(cfg.n_shared)
    else:
        plc["targets"] = "; ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in cfg.explicit_targets)
        plc["candidates"] = "; ".join(
            f"{_fmt(x)},{_fmt(y)}" for x, y in cfg.explicit_candidates
        )
    sections["placement"] = plc
    return sections


def render_config_ini(sections: dict) -> str:
    """Write an echoed config mapping back to INI text."""
    lines = []
    for name, body in sections.items():
        lines.append(f"[{name}]")
        for key, value in body.items():
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)

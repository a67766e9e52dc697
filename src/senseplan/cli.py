"""Command-line interface: ``run``, ``score``, and ``validate``.

Exit codes: 0 success, 2 configuration or validation error, 3 data
error, 4 numerical degeneracy or planning abort.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .config import PLANNER_CHOICES, load_config
from .errors import (
    DataError,
    FieldDomainError,
    NumericalDegeneracyError,
    PlanningError,
    SensorPlanError,
)
from .gp import MeasurementLog
from .harness import (
    METRIC_NAMES,
    execute_run,
    load_log_csv,
    render_score_table,
    score_table,
    validate_run_config,
    write_outputs,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DEGENERACY = 4


def _exit_code_for(exc: SensorPlanError) -> int:
    if isinstance(exc, (NumericalDegeneracyError, PlanningError)):
        return EXIT_DEGENERACY
    if isinstance(exc, (DataError, FieldDomainError)):
        return EXIT_DATA
    return EXIT_CONFIG


def positive_int(text: str) -> int:
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {count}")
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="senseplan",
        description="Plan sensor placements with Gaussian-process information gain.",
    )
    parser.add_argument("--version", action="version", version=f"senseplan {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, metavar="PATH", help="scenario config file")
        p.add_argument("--seed", type=int, metavar="N", help="override master seed")
        p.add_argument("--trials", type=int, metavar="N", help="override trial count")
        p.add_argument("--horizon", type=int, metavar="N", help="override episode length")
        p.add_argument("--planner", choices=PLANNER_CHOICES, help="override planner selection")

    p_run = sub.add_parser("run", help="execute paired planning trials")
    add_common(p_run)
    p_run.add_argument(
        "--out", default="senseplan-run", metavar="DIR", help="output directory"
    )
    p_run.add_argument(
        "--workers", type=positive_int, default=1, metavar="N", help="parallel trial workers"
    )

    p_score = sub.add_parser("score", help="tabulate candidate gains for a fixed log")
    add_common(p_score)
    p_score.add_argument(
        "--log", metavar="PATH", help="x,y,value CSV of prior measurements (default: empty log)"
    )

    p_val = sub.add_parser("validate", help="check a config without running it")
    add_common(p_val)
    return parser


def _overrides(args) -> dict:
    return {key: getattr(args, key) for key in ("seed", "trials", "horizon", "planner")}


def cmd_run(args) -> int:
    cfg = load_config(args.config, _overrides(args))
    config_issues, data_issues = validate_run_config(cfg)
    if config_issues or data_issues:
        for line in config_issues + data_issues:
            print(f"invalid: {line}", file=sys.stderr)
        return EXIT_DATA if (data_issues and not config_issues) else EXIT_CONFIG
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot write outputs to {args.out}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    record = execute_run(cfg, workers=args.workers)
    run_path, series_path = write_outputs(record, args.out)
    n_rows = sum(len(t["steps"]) for t in record["traces"]) * len(METRIC_NAMES)
    print(f"wrote {run_path}")
    print(f"wrote {series_path} ({n_rows} metric rows)")
    return EXIT_OK


def cmd_score(args) -> int:
    cfg = load_config(args.config, _overrides(args))
    if args.log is not None:
        log = load_log_csv(args.log, cfg.noise_sd)
    else:
        log = MeasurementLog.empty(cfg.noise_sd)
    table = score_table(cfg, log)
    print(render_score_table(table))
    return EXIT_OK


def cmd_validate(args) -> int:
    cfg = load_config(args.config, _overrides(args))
    config_issues, data_issues = validate_run_config(cfg)
    for line in config_issues + data_issues:
        print(f"invalid: {line}")
    if data_issues and not config_issues:
        return EXIT_DATA
    if config_issues:
        return EXIT_CONFIG
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": cmd_run, "score": cmd_score, "validate": cmd_validate}
    try:
        return handlers[args.command](args)
    except SensorPlanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())

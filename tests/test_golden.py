"""Golden outputs: what ``senseplan run`` and ``senseplan score`` print,
held as sha256 digests in ``golden.json`` beside this file.

Each run case renders ``series.csv`` and ``run.json`` without its
``timings`` (the only part that varies between runs); each score case
renders the ``score`` table.  The run cases are the benchmark's three
workloads (a2, long-log and wide) at two seeds, ``demos/scale-greedy.ini``,
and a2 without noise.  The score cases take a2's placement with an empty
log, a 40-reading log, and a noise-free log with three repeated readings,
which conditions through ``gp._condition``'s degenerate path.

A mismatch names the case and the file, prints the new digest, and says
whether the machine facts (numpy and scipy versions, the processor
architecture, numpy's BLAS build) differ from those the digests were
recorded under, so a changed machine can be told from a changed program.

A change that moves output bits on purpose records new digests: run

    PYTHONPATH=src python tests/test_golden.py > tests/golden.json

and say which outputs moved and why.
"""

import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest
import scipy

from senseplan import MeasurementLog
from senseplan.config import parse_config_text
from senseplan.harness import execute_run, render_run_json, render_score_table, render_series_csv, score_table

GOLDEN = Path(__file__).with_name("golden.json")
SCALE_GREEDY = Path(__file__).resolve().parents[1] / "demos" / "scale-greedy.ini"

A2_SEED = 20260816


def workload_text(n_candidates, horizon, planner, trials, seed, noise_sd=1.0):
    """The INI text of a benchmark workload: the A2 field model with
    ``n_candidates`` candidates, ``horizon`` readings per episode and
    ``trials`` trials of ``planner``."""
    return f"""\
[scenario]
horizon = {horizon}
trials = {trials}
noise_sd = {noise_sd}
planner = {planner}
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
n_candidates = {n_candidates}
n_shared = 5
"""


def a2(seed=A2_SEED, noise_sd=1.0):
    return workload_text(60, 60, "both", 2, seed, noise_sd)


def long_log(seed):
    return workload_text(60, 600, "random", 1, seed)


def wide(seed):
    return workload_text(1000, 4, "both", 1, seed)


def uniform_log(k, noise_sd):
    """``k`` readings at uniform points of the 10 x 10 square, values
    drawn from ``normal(0, 3)``, all from ``default_rng(5)``."""
    rng = np.random.default_rng(5)
    return MeasurementLog(rng.uniform(0, 10, (k, 2)), rng.normal(0, 3, k), noise_sd)


def repeated_log():
    """A noise-free 12-reading log whose first three readings are taken
    again, with the same values."""
    log = uniform_log(12, 0.0)
    return MeasurementLog(np.vstack([log.locations, log.locations[:3]]), np.append(log.values, log.values[:3]), 0.0)


#: Run cases: name and config text.
RUNS = {
    **{f"run a2 seed {seed}": a2(seed) for seed in (A2_SEED, 777000)},
    **{f"run long-log seed {seed}": long_log(seed) for seed in (A2_SEED, 777000)},
    **{f"run wide seed {seed}": wide(seed) for seed in (A2_SEED, 777000)},
    "run demos/scale-greedy.ini": SCALE_GREEDY.read_text(),
    "run a2 noise_sd 0": a2(noise_sd=0.0),
}

#: Score cases: name, config text and log.
SCORES = {
    "score a2 empty log": (a2(), MeasurementLog.empty(1.0)),
    "score a2 40-reading log": (a2(), uniform_log(40, 1.0)),
    "score a2 noise-free log with 3 repeats": (a2(noise_sd=0.0), repeated_log()),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests(case: str) -> dict:
    """``{file: sha256}`` of what ``case`` prints."""
    if case in RUNS:
        record = execute_run(parse_config_text(RUNS[case]))
        del record["timings"]
        return {"series.csv": sha256(render_series_csv(record)), "run.json": sha256(render_run_json(record))}
    config, log = SCORES[case]
    return {"score": sha256(render_score_table(score_table(parse_config_text(config), log)))}


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "numpy_blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
    }


def golden_text() -> str:
    """The text of ``golden.json``, from digests computed afresh."""
    cases = {case: digests(case) for case in (*RUNS, *SCORES)}
    return json.dumps({"machine": machine_facts(), "digests": cases}, indent=1) + "\n"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_every_case_is_recorded(golden):
    assert sorted(golden["digests"]) == sorted((*RUNS, *SCORES))


@pytest.mark.parametrize("case", [*RUNS, *SCORES])
def test_outputs_match_the_recorded_digests(golden, case):
    recorded, facts = golden["digests"][case], machine_facts()
    machine = (
        "the machine facts are the recorded ones"
        if facts == golden["machine"]
        else f"the machine facts differ: recorded {golden['machine']}, now {facts}"
    )
    for name, digest in digests(case).items():
        assert digest == recorded[name], f"{case}: {name} has sha256 {digest}, recorded {recorded[name]}; {machine}"


if __name__ == "__main__":
    print(golden_text(), end="")

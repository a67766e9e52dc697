"""End-to-end run driver, output files, score tables, validate command."""

import concurrent.futures
import ctypes
import json
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import senseplan.gp as gp_mod
import senseplan.harness as harness_mod
import senseplan.infogain as infogain_mod
import senseplan.planner as planner_mod
from senseplan import (
    NumericalDegeneracyError,
    ScenarioConfig,
    edg_exact,
    edg_quadrature,
    edg_unnormalized_form,
    posterior,
    run_episode,
)
from senseplan.cli import main
from senseplan.config import parse_config_text
from senseplan.gp import MeasurementLog, predictive_moments
from senseplan.harness import (
    _OPENBLAS_SET_THREADS,
    _loaded_openblas,
    _one_blas_thread,
    aggregate_series,
    execute_run,
    load_log_csv,
    render_run_json,
    render_score_table,
    render_series_csv,
    score_table,
    validate_run_config,
    write_outputs,
)

from reference import ini_text, render_series_csv as reference_series_csv, same_bits, scipy_condition

MINI = """
[scenario]
horizon = 5
trials = 2
noise_sd = 0.5
planner = both
seed = 11

[kernel]
signal_variance = 4.0
lengthscale = 2.0

[field]
kind = analytic
name = sinusoid
a = 3.0
b = 0.8
c = 0.6
d = 10.0

[roi]
kind = rectangle
rect = 0, 0, 10, 10

[placement]
kind = sample
n_targets = 5
n_candidates = 4
n_shared = 2
"""


def write_config(tmp_path, text=MINI, name="run.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


_OPENBLAS_GET_THREADS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def openblas_thread_counts() -> dict:
    """Thread count of each OpenBLAS in this process that has both a
    thread-count getter and setter, keyed by library path."""
    counts = {}
    for lib in _loaded_openblas():
        if not any(hasattr(lib, name) for name in _OPENBLAS_SET_THREADS):
            continue
        for name in _OPENBLAS_GET_THREADS:
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                counts[lib._name] = getter()
                break
    return counts


@pytest.mark.skipif(
    not openblas_thread_counts(), reason="no OpenBLAS thread-count getter and setter found"
)
def test_pool_workers_use_one_blas_thread():
    """The pool initializer leaves each OpenBLAS in a worker at one
    thread and does not touch the parent's threading."""
    before = openblas_thread_counts()
    with concurrent.futures.ProcessPoolExecutor(max_workers=1, initializer=_one_blas_thread) as pool:
        in_worker = pool.submit(openblas_thread_counts).result()
    assert in_worker == {path: 1 for path in before}
    assert openblas_thread_counts() == before


#: A gp-sample run over 61 targets and 100 candidates (156 field nodes): a
#: threaded Cholesky factor of this many nodes rounds differently from a
#: single-threaded one.
WIDE_GP_SAMPLE = """
[scenario]
horizon = 2
trials = 2
noise_sd = 1.0
planner = both
seed = 20260816

[kernel]
signal_variance = 9.0
lengthscale = 1.5

[field]
kind = gp-sample

[roi]
kind = rectangle
rect = 0, 0, 10, 10

[placement]
kind = sample
n_targets = 61
n_candidates = 100
n_shared = 5
"""


@pytest.mark.skipif(
    not openblas_thread_counts(), reason="no OpenBLAS thread-count getter and setter found"
)
def test_field_draw_runs_on_one_blas_thread(monkeypatch):
    """A gp-sample field is drawn with every OpenBLAS at one thread, and the
    caller's thread counts are restored afterwards."""
    before = openblas_thread_counts()
    during = []
    sample_field = harness_mod.sample_field

    def spied(*args):
        during.append(openblas_thread_counts())
        return sample_field(*args)

    monkeypatch.setattr(harness_mod, "sample_field", spied)
    execute_run(parse_config_text(WIDE_GP_SAMPLE))
    assert during == [{path: 1 for path in before}] * 2
    assert openblas_thread_counts() == before


def test_validate_factors_the_kernel_matrix_in_place():
    """validate's probe factorization holds one ``n x n`` matrix over the
    trial-0 nodes (the copying ladder held about three) and passes a
    runnable config."""
    cfg = parse_config_text(WIDE_GP_SAMPLE.replace("n_candidates = 100", "n_candidates = 600"))
    tracemalloc.start()
    try:
        issues = validate_run_config(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert issues == ([], [])
    assert peak <= 1.25 * 8 * (61 + 600 - 5) ** 2


def test_validate_factors_nothing_for_an_analytic_field():
    """An analytic run factors no kernel matrix, and neither does its
    validation: 3,061 nodes validate in under 10 MB, where factoring
    their kernel matrix held 75 MB."""
    text = MINI.replace("horizon = 5", "horizon = 10").replace("n_targets = 5", "n_targets = 61")
    text = text.replace("n_candidates = 4", "n_candidates = 3000").replace("n_shared = 2", "n_shared = 5")
    cfg = parse_config_text(text)
    tracemalloc.start()
    try:
        issues = validate_run_config(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert issues == ([], [])
    assert peak < 10e6


def test_validate_reports_a_failed_field_draw(tmp_path, capsys, monkeypatch):
    """validate probes a gp-sample config by drawing trial 0's field, and
    reports a draw that cannot factor its kernel matrix; an analytic
    config draws nothing."""

    def degenerate(*args):
        raise NumericalDegeneracyError("no jitter rung factored")

    monkeypatch.setattr(harness_mod, "sample_field", degenerate)
    assert main(["validate", "--config", write_config(tmp_path, WIDE_GP_SAMPLE)]) == 2
    out = capsys.readouterr().out
    assert out == "invalid: kernel matrix on configured points is not usable: no jitter rung factored\n"
    assert main(["validate", "--config", write_config(tmp_path)]) == 0


def test_run_record_holds_the_episode_steps():
    """Each trace's steps in the run record are the steps ``run_episode``
    returns for the scenario and field ``run_trial`` builds, for both
    planners, and run.json still prints the record as ``json.dumps`` does."""
    text = WIDE_GP_SAMPLE.replace("horizon = 2\ntrials = 2", "horizon = 60\ntrials = 1")
    cfg = parse_config_text(text.replace("n_candidates = 100", "n_candidates = 60"))
    record = execute_run(cfg)
    mask = harness_mod.build_mask(cfg)
    targets, candidates = harness_mod.trial_placement(cfg, mask, 0)
    fld = harness_mod.trial_field(cfg, mask, 0, targets, candidates)
    mean, kernel = harness_mod._specs(cfg)
    assert [t["planner"] for t in record["traces"]] == ["greedy-edg", "random"]
    for trace in record["traces"]:
        scenario = ScenarioConfig(
            targets=targets,
            candidates=candidates,
            noise_sd=cfg.noise_sd,
            horizon=cfg.horizon,
            kernel=kernel,
            mean=mean,
            planner_kind=trace["planner"],
            seed=cfg.seed,
            trial_index=0,
        )
        assert trace["steps"] == list(run_episode(scenario, fld).steps)
    assert render_run_json(record) == json.dumps(record, indent=1, allow_nan=False)


def test_unique_points_keep_the_first_of_each_location():
    a = np.array([[1.0, 2.0], [0.0, 0.5], [1.0, 2.0]])
    b = np.array([[-0.0, 0.5], [3.0, 4.0]])
    out = harness_mod._unique_points(a, b)
    np.testing.assert_array_equal(out, [[1.0, 2.0], [0.0, 0.5], [3.0, 4.0]])
    assert not np.signbit(out[1, 0])


class TestAggregation:
    def test_mean_and_sample_sd(self):
        per_trial = np.array([[1.0, 2.0], [3.0, 6.0]])
        series = aggregate_series(per_trial)
        assert series["mean"] == [2.0, 4.0]
        np.testing.assert_allclose(series["sd"], np.std(per_trial, axis=0, ddof=1))

    def test_single_trial_sd_is_zero(self):
        series = aggregate_series(np.array([[5.0, 4.0, 3.0]]))
        assert series["sd"] == [0.0, 0.0, 0.0]

    def test_nan_prints_as_none(self):
        """A step with no value in some trial (NaN, as run.json's null reads)
        has no mean and no sd; a single trial's sd stays 0.0 beside it."""
        assert aggregate_series([[1.0, None], [3.0, 5.0]]) == {"mean": [2.0, None], "sd": [math.sqrt(2.0), None]}
        assert aggregate_series([[1.0, None]]) == {"mean": [1.0, None], "sd": [0.0, 0.0]}


class TestExecuteRun:
    def test_minimal_bookkeeping(self):
        """2 trials x 2 planners x 5 steps x 4 metrics = 80 rows."""
        cfg = parse_config_text(MINI)
        record = execute_run(cfg)
        assert record["planners"] == ["greedy-edg", "random"]
        assert len(record["traces"]) == 4
        assert all(len(t["steps"]) == 5 for t in record["traces"])
        csv_text = render_series_csv(record)
        lines = csv_text.strip().split("\n")
        assert lines[0] == "trial,planner,step,metric,value"
        assert len(lines) - 1 == 2 * 2 * 5 * 4

    def test_rerun_is_byte_identical(self):
        cfg = parse_config_text(MINI)
        a = render_series_csv(execute_run(cfg))
        b = render_series_csv(execute_run(cfg))
        assert a == b

    def test_worker_count_does_not_change_output(self):
        cfg = parse_config_text(MINI)
        serial = render_series_csv(execute_run(cfg, workers=1))
        parallel = render_series_csv(execute_run(cfg, workers=2))
        assert serial == parallel

    def test_pool_starts_no_more_workers_than_trials(self, monkeypatch):
        """The pool starts all its workers at once, so asking for more
        workers than trials must not start the extra ones."""
        sizes = []

        class SerialPool:
            def __init__(self, max_workers, initializer=None):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        cfg = parse_config_text(MINI)
        record = execute_run(cfg, workers=64)
        assert sizes == [cfg.trials] == [2]
        assert render_series_csv(record) == render_series_csv(execute_run(cfg))

    def test_aggregates_match_series(self):
        """The aggregate mean equals the hand-computed mean of the
        per-trial series values."""
        cfg = parse_config_text(MINI)
        record = execute_run(cfg)
        greedy = [t for t in record["traces"] if t["planner"] == "greedy-edg"]
        per_trial = np.array([[s["error"] for s in t["steps"]] for t in greedy])
        np.testing.assert_allclose(
            record["aggregates"]["greedy-edg"]["error-V"]["mean"],
            per_trial.mean(axis=0),
        )
        sd = record["aggregates"]["greedy-edg"]["error-V"]["sd"]
        np.testing.assert_allclose(sd, per_trial.std(axis=0, ddof=1))

    def test_aggregates_include_auxiliary_rmse(self):
        cfg = parse_config_text(MINI)
        record = execute_run(cfg)
        assert "rmse-V" in record["aggregates"]["greedy-edg"]
        # but the series table keeps exactly the four headline metrics
        csv_text = render_series_csv(record)
        assert "rmse-V" not in csv_text

    def test_config_echo_revalidates_and_reproduces(self, tmp_path):
        """The echoed config is a complete, runnable description: parsing
        it back yields the identical traces."""
        cfg = parse_config_text(MINI)
        record = execute_run(cfg)
        echoed_text = ini_text(record["config"])
        cfg2 = parse_config_text(echoed_text)
        issues = validate_run_config(cfg2)
        assert issues == ([], [])
        record2 = execute_run(cfg2)
        assert record["traces"] == record2["traces"]

    def test_run_json_is_valid_json(self, tmp_path):
        cfg = parse_config_text(MINI)
        record = execute_run(cfg)
        run_path, series_path = write_outputs(record, tmp_path / "out")
        loaded = json.loads(open(run_path).read())
        assert loaded["master_seed"] == 11
        assert loaded["artifact"]["name"] == "senseplan"
        assert "seed_scheme" in loaded
        assert open(series_path).readline().strip() == "trial,planner,step,metric,value"

    def test_run_json_format(self, tmp_path):
        """run.json is the record as ``json.dumps(indent=1)`` prints it, with
        NaN refused and one trailing newline."""
        record = execute_run(parse_config_text(MINI))
        run_path, _ = write_outputs(record, tmp_path / "out")
        with open(run_path) as fh:
            assert fh.read() == json.dumps(record, indent=1, allow_nan=False) + "\n"

    def test_zero_noise_scores_are_finite_in_run_json(self, tmp_path):
        """Noise-free readings, repeats included (horizon 8 over 4
        candidates), keep every greedy score finite and non-negative, so
        run.json, written with allow_nan=False, is written at all.  A
        repeat scores 0, so every candidate is read before any repeats."""
        text = (
            MINI.replace("noise_sd = 0.5", "noise_sd = 0")
            .replace("horizon = 5", "horizon = 8")
            .replace("planner = both", "planner = greedy-edg")
        )
        record = execute_run(parse_config_text(text))
        run_path, _ = write_outputs(record, tmp_path / "out")
        traces = json.loads(open(run_path).read())["traces"]
        scores = [step["score"] for trace in traces for step in trace["steps"]]
        assert len(scores) == 16
        assert all(isinstance(s, float) and math.isfinite(s) and s >= 0 for s in scores)
        for trace in traces:
            assert len({step["chosen_index"] for step in trace["steps"][:4]}) == 4


#: Floats at json's edges: signed zero, the smallest subnormal, the first
#: float that prints with an exponent, and the largest finite float.
EDGE_FLOATS = st.sampled_from([-0.0, 5e-324, 1e16, 1.7976931348623157e308])
FINITE = st.one_of(EDGE_FLOATS, st.floats(allow_nan=False, allow_infinity=False))
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=10**80),
    FINITE,
    FINITE.map(np.float64),
    st.text(),
)
JSON_KEYS = st.one_of(st.text(), st.integers(), FINITE, st.booleans(), st.none())
#: Keys json and a ``%`` template could print differently.
ROW_KEYS = st.one_of(st.text(), st.sampled_from(["%", "%s", "a%%b", '"q"', "\\", "\u00e9", "\u2603", "\n"]))


def same_key_rows(children):
    """Lists of two or more dicts with one key order, each column drawn from
    one plain scalar type or from ``children``."""
    column = st.one_of(
        st.just(st.none()), st.just(st.booleans()), st.just(st.integers()),
        st.just(FINITE), st.just(st.text()), st.just(children),
    )
    return st.lists(st.tuples(ROW_KEYS, column), min_size=1, max_size=4, unique_by=lambda kv: kv[0]).flatmap(
        lambda spec: st.lists(
            st.tuples(*[values for _, values in spec]).map(lambda row: dict(zip([k for k, _ in spec], row))),
            min_size=2,
            max_size=4,
        )
    )


JSON_TREES = st.recursive(
    JSON_SCALARS,
    lambda children: st.one_of(
        same_key_rows(children),
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(FINITE, max_size=5),
        st.lists(st.one_of(FINITE, FINITE.map(np.float64)), min_size=1, max_size=5),
        st.lists(st.one_of(st.integers(), st.booleans()), max_size=5),
        st.dictionaries(JSON_KEYS, children, max_size=5),
        st.dictionaries(st.text(), children, max_size=5),
    ),
    max_leaves=30,
)


def json_error(value):
    """The exception ``json.dumps(value, indent=1, allow_nan=False)`` raises."""
    with pytest.raises((TypeError, ValueError)) as exc:
        json.dumps(value, indent=1, allow_nan=False)
    return exc.value


class TestOutputText:
    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(JSON_TREES)
    def test_run_json_text_is_json_dumps(self, tree):
        """The renderer prints any JSON-like tree as ``json.dumps`` does:
        empty and nested containers, tuples, bools among ints, big ints,
        non-ASCII and control characters, non-``str`` keys and
        ``np.float64`` values."""
        assert render_run_json(tree) == json.dumps(tree, indent=1, allow_nan=False)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64(math.nan), object()])
    @pytest.mark.parametrize(
        "place",
        [
            lambda v: v,
            lambda v: [1.0, v, 2.0],
            lambda v: {"a": [0, {"b": v}]},
            lambda v: {1: v},
            lambda v: (v,),
        ],
    )
    def test_unencodable_values_raise_as_json_does(self, bad, place):
        """NaN and the infinities raise json's ``ValueError``, an unknown
        type its ``TypeError``, with json's message."""
        tree = place(bad)
        expected = json_error(tree)
        with pytest.raises(type(expected)) as exc:
            render_run_json(tree)
        assert str(exc.value) == str(expected)

    @pytest.mark.parametrize(
        "rows",
        [
            [{"a": 1.5, "b": 2}, {"a": -0.25, "b": 3}],
            [{"%": 1.0, "%s": "x", "a%%b": None}, {"%": 2.0, "%s": "y", "a%%b": None}],
            [{'"q"': [1.0, [2.0, "\u00e9"]], "\u00e9\u2603": True}, {'"q"': [], "\u00e9\u2603": False}],
            [{"k": {"in": [0.5]}, "j": (1, 2.0)}, {"k": {}, "j": ()}],
            [{"v": 1.0}, {"v": 1}, {"v": None}, {"v": np.float64(2.5)}],
            [{"a": 1, "b": 2}, {"b": 2, "a": 1}],
            [{"a": 1}, {"a": 1, "b": 2}],
            [{"a": 1}, {1: 1}],
            [{}, {}],
            [{"a": 1}, [1]],
            [1, -2, 10**20, 0],
            ["a", "\u00e9", "", '"q"', "%s"],
            [True, False, True],
            [None, None],
            [1, "a", True, None, 2.5],
            [{"a": 1.5, "b": [2.0, "x"]}],
            [{"p": {"x": 1.0, "y": "a"}, "n": 1}, {"p": {"x": -0.0, "y": "b"}, "n": 2}],
            [{"r": [{"x": 1.0, "y": None}, {"x": 2.0, "y": None}]}, {"r": [{"x": 3.0, "y": True}, {"x": 4.0, "y": 5}]}],
            [{"v": 1.0, "w": None}, {"v": None, "w": 2.0}, {"v": 0.5, "w": None}],
        ],
        ids=["plain", "percent-keys", "quotes-non-ascii-nested", "nested", "mixed-column",
             "key-order-differs", "keys-differ", "non-str-key", "empty-dicts", "not-all-dicts",
             "ints", "strings", "bools", "nulls", "mixed-scalars", "one-dict",
             "column-of-rows", "column-of-row-lists", "floats-and-nulls-column"],
    )
    def test_lists_of_rows_print_as_json_does(self, rows):
        """Lists print as json prints them: dicts whether their keys match
        in order (one template, whose columns may be rows again or mix
        floats with nulls) or not (one dict at a time), one dict alone,
        and items of one plain type or of several."""
        for tree in (rows, {"rows": rows, "again": [rows]}):
            assert render_run_json(tree) == json.dumps(tree, indent=1, allow_nan=False)

    def test_signed_zeros_print_apart_through_one_memo(self):
        """``0.0 == -0.0``, so the shared float memo must not keep either:
        each prints its own sign, in a float list, a row column, a scalar
        and series.csv, whichever comes first."""
        tree = [0.0, -0.0, [-0.0, 0.0], [{"z": 0.0}, {"z": -0.0}], {"s": -0.0, "t": 0.0}]
        floats = harness_mod._FloatText()
        assert render_run_json(tree, floats) == json.dumps(tree, indent=1, allow_nan=False)
        assert render_run_json(tree[::-1], floats) == json.dumps(tree[::-1], indent=1, allow_nan=False)
        record = execute_run(parse_config_text(MINI))
        record["traces"][0]["steps"][0]["error"] = -0.0
        record["traces"][0]["steps"][1]["error"] = 0.0
        assert render_series_csv(record, floats) == reference_series_csv(record)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_in_a_row_column_raises_as_json_does(self, bad):
        rows = [{"a": 1.0, "b": "x"}, {"a": bad, "b": "y"}, {"a": 2.0, "b": "z"}]
        expected = json_error(rows)
        with pytest.raises(type(expected)) as exc:
            render_run_json(rows)
        assert str(exc.value) == str(expected)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_in_a_nested_column_raises_as_json_does(self, bad):
        rows = [{"p": {"x": 1.0, "y": 0}, "n": 1}, {"p": {"x": bad, "y": 1}, "n": 2}]
        expected = json_error(rows)
        assert isinstance(expected, ValueError)
        with pytest.raises(ValueError) as exc:
            render_run_json(rows)
        assert str(exc.value) == str(expected)

    def test_unencodable_record_leaves_outputs_untouched(self, tmp_path):
        """Both texts are rendered before a file is opened: a record with a
        NaN timing raises json's error and leaves the earlier run.json and
        series.csv as they were."""
        record = execute_run(parse_config_text(MINI))
        run_path, series_path = write_outputs(record, tmp_path)
        before = [open(p, "rb").read() for p in (run_path, series_path)]
        record["timings"]["total_seconds"] = math.nan
        expected = json_error(record)
        with pytest.raises(ValueError) as exc:
            write_outputs(record, tmp_path)
        assert str(exc.value) == str(expected)
        assert [open(p, "rb").read() for p in (run_path, series_path)] == before

    @pytest.mark.parametrize("n_shared", [2, 0])
    def test_series_csv_matches_the_per_value_reference(self, n_shared):
        """The one-pass table equals the per-value one byte for byte on two
        trials of both planners; with no shared points the error-I and
        variance-I rows read nan."""
        record = execute_run(parse_config_text(MINI.replace("n_shared = 2", f"n_shared = {n_shared}")))
        text = render_series_csv(record)
        assert text == reference_series_csv(record)
        nan_rows = [row for row in text.splitlines() if row.endswith(",nan")]
        assert len(nan_rows) == (0 if n_shared else 2 * 2 * 5 * 2)


SYMMETRIC = """
[scenario]
horizon = 1
trials = 1
noise_sd = 0.5
planner = greedy-edg
seed = 0

[kernel]
signal_variance = 1.0
lengthscale = 1.0

[field]
kind = analytic
name = linear
a = 1.0
b = 1.0

[roi]
kind = rectangle
rect = -5, -5, 5, 5

[placement]
kind = explicit
targets = 0,0
candidates = 1,0; -1,0
"""


class TestScore:
    @pytest.mark.skipif(
        not openblas_thread_counts(), reason="no OpenBLAS thread-count getter and setter found"
    )
    def test_table_bits_do_not_depend_on_blas_threads(self):
        """A 200-reading log's table prints the same text whether the caller
        runs every OpenBLAS on one thread or two: a threaded factor of its
        Gram matrix would round differently."""
        cfg = parse_config_text(WIDE_GP_SAMPLE)
        rng = np.random.default_rng(5)
        log = MeasurementLog(rng.uniform(0, 10, (200, 2)), rng.normal(0, 3, 200), cfg.noise_sd)
        texts = []
        restore = _one_blas_thread()
        try:
            for threads in (1, 2):
                for setter, _ in restore:
                    setter(threads)
                texts.append(render_score_table(score_table(cfg, log)))
        finally:
            for setter, threads in restore:
                setter(threads)
        assert texts[0] == texts[1]

    def test_mirror_symmetric_candidates_tie(self):
        """Two candidates mirror-symmetric about a lone target score the
        same gain with an empty log."""
        cfg = parse_config_text(SYMMETRIC)
        table = score_table(cfg, MeasurementLog.empty(cfg.noise_sd))
        rows = table["rows"]
        assert abs(rows[0]["edg_exact"] - rows[1]["edg_exact"]) < 1e-10
        assert table["argmax"] == 0  # tie resolves to the lowest index

    def test_exact_and_quadrature_columns_agree(self):
        cfg = parse_config_text(MINI)
        log = MeasurementLog(
            np.array([[2.0, 2.0], [7.0, 5.0]]), np.array([9.5, 11.0]), cfg.noise_sd
        )
        table = score_table(cfg, log)
        for row in table["rows"]:
            assert np.isclose(
                row["edg_exact"], row["edg_quadrature"], rtol=1e-8, atol=1e-12
            )

    def test_argmax_equals_best_row(self):
        cfg = parse_config_text(MINI)
        table = score_table(cfg, MeasurementLog.empty(cfg.noise_sd))
        best = max(table["rows"], key=lambda r: r["edg_exact"])
        assert table["argmax"] == best["index"]

    def test_exact_column_is_the_planner_gain(self, monkeypatch):
        """The ``edg_exact`` column is read from the greedy rule's gain
        vector, with no ``edg_exact`` call, and agrees with ``edg_exact``
        on each candidate."""
        cfg = parse_config_text(MINI)
        log = MeasurementLog(np.array([[2.0, 2.0], [7.0, 5.0]]), np.array([9.5, 11.0]), cfg.noise_sd)
        targets, candidates = harness_mod.trial_placement(cfg, harness_mod.build_mask(cfg), 0)
        _, kernel = harness_mod._specs(cfg)
        expected = [edg_exact(kernel, log, c, targets).value for c in candidates]

        def forbidden(*args, **kwargs):
            raise AssertionError("score_table called edg_exact")

        monkeypatch.setattr(infogain_mod, "edg_exact", forbidden)
        table = score_table(cfg, log)
        np.testing.assert_allclose([row["edg_exact"] for row in table["rows"]], expected, rtol=1e-12)

    @pytest.mark.parametrize("n_readings", [0, 2])
    def test_one_conditioning_per_table(self, monkeypatch, n_readings):
        """One ``_variance_pair`` call over every candidate gives both the
        ``edg_exact`` and the ``edg_unnormalized`` columns: no candidate is
        conditioned on alone through ``edg_unnormalized_form`` or
        ``_exact``.  The column still agrees with ``edg_unnormalized_form``."""
        cfg = parse_config_text(MINI)
        log = MeasurementLog([[2.0, 2.0], [7.0, 5.0]][:n_readings], [9.5, 11.0][:n_readings], cfg.noise_sd)
        targets, candidates = harness_mod.trial_placement(cfg, harness_mod.build_mask(cfg), 0)
        _, kernel = harness_mod._specs(cfg)
        assert len(candidates) >= 3
        expected = [edg_unnormalized_form(kernel, log, c, targets).value for c in candidates]
        calls = []

        def counted(*args, _real=gp_mod._variance_pair):
            calls.append(args)
            return _real(*args)

        def forbidden(*args, **kwargs):
            raise AssertionError("score_table conditioned on one candidate alone")

        for module in (planner_mod, infogain_mod, harness_mod):
            monkeypatch.setattr(module, "_variance_pair", counted, raising=False)
        for module in (infogain_mod, harness_mod):
            monkeypatch.setattr(module, "edg_unnormalized_form", forbidden, raising=False)
        monkeypatch.setattr(infogain_mod, "_exact", forbidden)
        table = score_table(cfg, log)
        assert len(calls) == 1
        np.testing.assert_allclose([row["edg_unnormalized"] for row in table["rows"]], expected, rtol=1e-12)

    @pytest.mark.parametrize("entry", ["predictive_moments", "posterior", "_variance_pair", "edg_quadrature", "score_table"])
    def test_empty_log_gives_the_scipy_bits_and_prints_nothing(self, monkeypatch, capfd, entry):
        """An empty log is conditioned on with no LAPACK call of size 0
        (which LAPACK may report on stdout), prints nothing, and gives the
        bits of the conditioning through ``scipy.linalg``'s wrappers."""
        cfg = parse_config_text(MINI)
        log = MeasurementLog.empty(cfg.noise_sd)
        mean, kernel = harness_mod._specs(cfg)
        targets, candidates = harness_mod.trial_placement(cfg, harness_mod.build_mask(cfg), 0)
        points = np.vstack([targets, candidates])
        call = {
            "predictive_moments": lambda: predictive_moments(mean, kernel, log, points),
            "posterior": lambda: vars(posterior(mean, kernel, log, points)),
            "_variance_pair": lambda: gp_mod._variance_pair(kernel, log, targets, candidates),
            "edg_quadrature": lambda: edg_quadrature(mean, kernel, log, candidates[0], targets),
            "score_table": lambda: score_table(cfg, log),
        }[entry]
        flapack = gp_mod._FLAPACK

        def sized(routine):
            def checked(*arrays, **kwargs):
                assert all(np.size(a) for a in arrays), "LAPACK called with an empty array"
                return routine(*arrays, **kwargs)

            return checked

        with monkeypatch.context() as m:
            m.setattr(gp_mod, "_FLAPACK", SimpleNamespace(dpotrf=sized(flapack.dpotrf), dtrtrs=sized(flapack.dtrtrs)))
            direct = call()
        assert capfd.readouterr() == ("", "")
        monkeypatch.setattr(gp_mod, "_condition", scipy_condition)
        monkeypatch.setattr(infogain_mod, "_solve_lower", lambda L, B: scipy.linalg.solve_triangular(L, B, lower=True))
        assert same_bits(direct, call())

    def test_out_of_roi_log_rejected(self):
        cfg = parse_config_text(MINI)
        log = MeasurementLog(np.array([[50.0, 50.0]]), np.array([1.0]), cfg.noise_sd)
        from senseplan.errors import DataError

        with pytest.raises(DataError, match="outside"):
            score_table(cfg, log)


class TestLogCSV:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "log.csv"
        p.write_text("x,y,value\n1.0,2.0,3.5\n4.0,5.0,-1.25\n")
        log = load_log_csv(p, noise_sd=0.5)
        assert len(log) == 2
        np.testing.assert_array_equal(log.locations, [[1.0, 2.0], [4.0, 5.0]])
        np.testing.assert_array_equal(log.values, [3.5, -1.25])

    def test_header_only_gives_empty_log(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("x,y,value\n")
        assert len(load_log_csv(p, noise_sd=0.5)) == 0

    def test_noise_free_repeats_must_agree(self, tmp_path):
        """Without noise, equal repeats are kept and different readings at
        one location are rejected naming both lines; with noise both are
        kept."""
        from senseplan.errors import DataError

        p = tmp_path / "log.csv"
        p.write_text("x,y,value\n1,1,0.5\n2,2,0.1\n1,1,0.5\n")
        assert len(load_log_csv(p, noise_sd=0.0)) == 3
        p.write_text("x,y,value\n1,1,0.5\n2,2,0.1\n1,1,-0.7\n")
        assert len(load_log_csv(p, noise_sd=0.5)) == 3
        with pytest.raises(DataError, match=r":4: .*-0\.7.* line 2"):
            load_log_csv(p, noise_sd=0.0)

    def test_bad_rows_name_the_line(self, tmp_path):
        from senseplan.errors import DataError

        p = tmp_path / "bad.csv"
        for bad_row in ("1.0,oops,3.0", "1.0,2.0,nan", "inf,2.0,3.0"):
            p.write_text(f"x,y,value\n1.0,2.0,3.0\n{bad_row}\n")
            with pytest.raises(DataError, match=":3"):
                load_log_csv(p, noise_sd=0.5)


class TestCLI:
    def test_run_writes_outputs(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "results"
        code = main(["run", "--config", cfg_path, "--out", str(out)])
        assert code == 0
        assert (out / "run.json").exists()
        assert (out / "series.csv").exists()
        text = (out / "series.csv").read_text()
        assert len(text.strip().split("\n")) == 81

    def test_run_out_on_a_regular_file_fails_before_the_trials(self, tmp_path, capsys, monkeypatch):
        """An ``--out`` that cannot be a directory is a configuration error,
        reported before any trial runs."""
        cfg_path = write_config(tmp_path)
        out = tmp_path / "taken"
        out.write_text("not a directory\n")

        def forbidden(*args, **kwargs):
            raise AssertionError("trials ran before the output directory was checked")

        monkeypatch.setattr("senseplan.cli.execute_run", forbidden)
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 2
        assert f"error: cannot write outputs to {out}: " in capsys.readouterr().err
        assert out.read_text() == "not a directory\n"

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_run_rejects_worker_count_before_creating_out(self, tmp_path, capsys, monkeypatch, workers):
        """A worker count below 1 is an argument error: nothing runs and
        ``--out`` is not created."""
        cfg_path = write_config(tmp_path)
        out = tmp_path / "never"

        def forbidden(*args, **kwargs):
            raise AssertionError("trials ran with an invalid worker count")

        monkeypatch.setattr("senseplan.cli.execute_run", forbidden)
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--config", cfg_path, "--out", str(out), "--workers", workers])
        assert exit_info.value.code == 2
        assert f"argument --workers: must be >= 1, got {workers}" in capsys.readouterr().err
        assert not out.exists()

    def test_run_determinism_across_workers(self, tmp_path):
        cfg_path = write_config(tmp_path)
        main(["run", "--config", cfg_path, "--out", str(tmp_path / "a")])
        main(["run", "--config", cfg_path, "--out", str(tmp_path / "b"), "--workers", "2"])
        assert (tmp_path / "a" / "series.csv").read_bytes() == (
            tmp_path / "b" / "series.csv"
        ).read_bytes()

    def test_gp_sample_field_determinism_across_workers(self, tmp_path):
        """A field of more than 150 nodes gives the same series.csv bytes
        serially, where the caller's BLAS may run several threads, and in a
        pool of one-thread workers."""
        cfg_path = write_config(tmp_path, WIDE_GP_SAMPLE)
        main(["run", "--config", cfg_path, "--out", str(tmp_path / "a"), "--workers", "1"])
        main(["run", "--config", cfg_path, "--out", str(tmp_path / "b"), "--workers", "2"])
        assert (tmp_path / "a" / "series.csv").read_bytes() == (
            tmp_path / "b" / "series.csv"
        ).read_bytes()

    def test_flag_overrides_change_the_run(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "o"
        code = main(
            [
                "run", "--config", cfg_path, "--out", str(out),
                "--trials", "1", "--horizon", "3", "--planner", "random", "--seed", "5",
            ]
        )
        assert code == 0
        record = json.loads((out / "run.json").read_text())
        assert record["master_seed"] == 5
        assert record["planners"] == ["random"]
        assert len(record["traces"]) == 1
        assert len(record["traces"][0]["steps"]) == 3

    def test_validate_good_config_is_silent(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        assert main(["validate", "--config", cfg_path]) == 0
        assert capsys.readouterr().out == ""

    def test_validate_rejects_negative_noise(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, MINI.replace("noise_sd = 0.5", "noise_sd = -1"))
        code = main(["validate", "--config", cfg_path])
        assert code == 2

    def test_validate_names_out_of_roi_target(self, tmp_path, capsys):
        text = SYMMETRIC.replace("targets = 0,0", "targets = 0,0; 40,40")
        cfg_path = write_config(tmp_path, text)
        code = main(["validate", "--config", cfg_path])
        assert code == 2
        out = capsys.readouterr().out
        assert "target 1" in out

    def test_missing_grid_file_is_a_data_error(self, tmp_path):
        text = "[field]\nkind = grid\ngrid_csv = %s\n" % (tmp_path / "ghost.csv")
        cfg_path = write_config(tmp_path, text)
        assert main(["validate", "--config", cfg_path]) == 3
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 3

    def test_score_prints_table_and_argmax(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, SYMMETRIC)
        code = main(["score", "--config", cfg_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "edg_exact" in out and "argmax: index 0" in out

    def test_score_with_log_file(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        log_path = tmp_path / "log.csv"
        log_path.write_text("x,y,value\n5.0,5.0,10.0\n")
        code = main(["score", "--config", cfg_path, "--log", str(log_path)])
        assert code == 0
        assert "argmax" in capsys.readouterr().out

    def test_score_rejects_contradictory_noise_free_log(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, MINI.replace("noise_sd = 0.5", "noise_sd = 0"))
        log_path = tmp_path / "log.csv"
        log_path.write_text("x,y,value\n1,1,0.5\n1,1,-0.7\n")
        assert main(["score", "--config", cfg_path, "--log", str(log_path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{log_path}:3:" in captured.err and "line 2" in captured.err

    def test_validate_rejects_collinear_polygon(self, tmp_path, capsys):
        text = MINI.replace("kind = rectangle\nrect = 0, 0, 10, 10", "kind = polygon\npolygon = 0,0; 5,5; 10,10")
        cfg_path = write_config(tmp_path, text)
        assert main(["validate", "--config", cfg_path]) == 2
        assert "collinear" in capsys.readouterr().out

    def test_unparseable_config_exits_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, "[scenario]\nhorizon = many\n[field]\nkind = gp-sample\n")
        assert main(["validate", "--config", cfg_path]) == 2

    def test_undecodable_config_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.ini"
        cfg_path.write_bytes(MINI.replace("[scenario]", "# caf\u00e9\n[scenario]").encode("latin-1"))
        assert main(["validate", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read config file {cfg_path}: ")

    def test_undecodable_grid_csv_exits_3(self, tmp_path, capsys):
        grid_path = tmp_path / "grid.csv"
        grid_path.write_bytes(b"lat,lon,value\n0,0,1.0\n0,1,\xff\n")
        text = f"[scenario]\nhorizon = 2\n[field]\nkind = grid\ngrid_csv = {grid_path}\n[placement]\nkind = sample\nn_targets = 2\nn_candidates = 2\nn_shared = 0\n"
        assert main(["validate", "--config", write_config(tmp_path, text)]) == 3
        assert capsys.readouterr().out.startswith(f"invalid: {grid_path}: cannot decode grid CSV (")

    def test_undecodable_log_exits_3(self, tmp_path, capsys):
        log_path = tmp_path / "log.csv"
        log_path.write_bytes(b"x,y,value\n5.0,5.0,\xff\n")
        assert main(["score", "--config", write_config(tmp_path), "--log", str(log_path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {log_path}: cannot decode")


class TestGridRuns:
    def grid_csv(self, tmp_path):
        rng = np.random.default_rng(0)
        lines = ["lat,lon,value"]
        for i in range(8):
            for j in range(8):
                lines.append(f"{i * 0.5},{j * 0.5},{rng.normal(10, 2):.6f}")
        p = tmp_path / "field.csv"
        p.write_text("\n".join(lines) + "\n")
        return p

    def test_grid_run_with_auto_mean(self, tmp_path):
        grid_path = self.grid_csv(tmp_path)
        text = f"""
[scenario]
horizon = 3
trials = 2
noise_sd = 0.5
seed = 4

[field]
kind = grid
grid_csv = {grid_path}

[placement]
kind = sample
n_targets = 6
n_candidates = 5
n_shared = 2
"""
        cfg_path = write_config(tmp_path, text)
        out = tmp_path / "gridout"
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
        record = json.loads((out / "run.json").read_text())
        assert record["field"]["kind"] == "grid"
        assert "sha256" in record["field"]
        # auto mean resolved to the grid average and echoed as a number
        echoed = float(record["config"]["mean"]["constant"])
        assert 8.0 < echoed < 12.0

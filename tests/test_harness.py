"""End-to-end run driver, output files, score tables, validate command."""

import ctypes
import json
import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import senseplan.harness as harness_mod
import senseplan.infogain as infogain_mod
from senseplan import edg_exact
from senseplan.cli import main
from senseplan.config import parse_config_text, render_config_ini
from senseplan.gp import MeasurementLog
from senseplan.harness import (
    _OPENBLAS_SET_THREADS,
    _loaded_openblas,
    _one_blas_thread,
    execute_run,
    load_log_csv,
    render_series_csv,
    score_table,
    validate_run_config,
    write_outputs,
)

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
    with ProcessPoolExecutor(max_workers=1, initializer=_one_blas_thread) as pool:
        in_worker = pool.submit(openblas_thread_counts).result()
    assert in_worker == {path: 1 for path in before}
    assert openblas_thread_counts() == before


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

        monkeypatch.setattr(harness_mod, "ProcessPoolExecutor", SerialPool)
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
        echoed_text = render_config_ini(record["config"])
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
        mean, kernel = harness_mod._specs(cfg)
        expected = [edg_exact(mean, kernel, log, c, targets).value for c in candidates]

        def forbidden(*args, **kwargs):
            raise AssertionError("score_table called edg_exact")

        monkeypatch.setattr(infogain_mod, "edg_exact", forbidden)
        table = score_table(cfg, log)
        np.testing.assert_allclose([row["edg_exact"] for row in table["rows"]], expected, rtol=1e-12)

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

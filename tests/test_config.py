"""Configuration parsing, defaults, override handling, and echo."""

import math
import typing

import pytest

from senseplan.config import (
    _BOUNDS,
    _KEYS,
    _KIND_KEYS,
    RunConfig,
    echo_config,
    load_config,
    parse_config_text,
)
from senseplan.environment import ANALYTIC_CATALOG, analytic_defaults
from senseplan.errors import ConfigError

from reference import ini_text

MINIMAL = """
[field]
kind = gp-sample

[roi]
kind = rectangle
rect = 0, 0, 10, 10
"""

FULL = """
[scenario]
horizon = 12
trials = 3
noise_sd = 0.25
planner = greedy-edg
seed = 99

[kernel]
signal_variance = 2.0
lengthscale = 1.25
jitter = 1e-9

[mean]
constant = 4.5

[field]
kind = analytic
name = gauss-bumps
offset = 2.0
bumps = 3.0,2.0,2.0,1.0; -1.5,7.0,6.0,2.0

[roi]
kind = polygon
polygon = 0,0; 10,0; 10,10; 0,10

[placement]
kind = explicit
targets = 1,1; 2,2; 3,3
candidates = 1,1; 5,5
"""

#: An analytic field that sets one of its three parameters.
LINEAR_A = """
[roi]
kind = rectangle
rect = 0, 0, 10, 10

[field]
kind = analytic
name = linear
a = 2.0
"""


class TestDefaults:
    def test_minimal_config_fills_defaults(self):
        cfg = parse_config_text(MINIMAL)
        assert cfg.horizon == 10
        assert cfg.trials == 20
        assert cfg.noise_sd == 1.0
        assert cfg.planner == "both"
        assert cfg.seed == 0
        assert cfg.signal_variance == 1.0
        assert cfg.mean_constant is None  # auto
        assert (cfg.n_targets, cfg.n_candidates, cfg.n_shared) == (61, 60, 5)

    def test_full_config_parsed(self):
        cfg = parse_config_text(FULL)
        assert cfg.horizon == 12
        assert cfg.planner == "greedy-edg"
        assert cfg.mean_constant == 4.5
        assert cfg.analytic_name == "gauss-bumps"
        params = dict(cfg.analytic_params)
        assert params["offset"] == 2.0
        assert params["bumps"] == ((3.0, 2.0, 2.0, 1.0), (-1.5, 7.0, 6.0, 2.0))
        assert cfg.explicit_targets == ((1.0, 1.0), (2.0, 2.0), (3.0, 3.0))
        assert cfg.n_shared == 1  # (1,1) appears in both lists


class TestValidationGathersEverything:
    def test_all_issues_reported_at_once(self):
        bad = """
[scenario]
horizon = 0
noise_sd = -2
planner = oracle

[kernel]
lengthscale = -1

[field]
kind = teleport
"""
        with pytest.raises(ConfigError) as err:
            parse_config_text(bad)
        msg = str(err.value)
        for token in (
            "scenario.horizon",
            "scenario.noise_sd",
            "scenario.planner",
            "kernel.lengthscale",
            "field.kind",
        ):
            assert token in msg
        assert "5 configuration problem(s)" in msg

    def test_unknown_keys_and_sections_flagged(self):
        bad = MINIMAL + "\n[extras]\nfoo = 1\n"
        with pytest.raises(ConfigError, match=r"unknown section \[extras\]"):
            parse_config_text(bad)
        bad2 = MINIMAL + "\n[kernel]\nbandwidth = 2\n"
        with pytest.raises(ConfigError, match="kernel.bandwidth"):
            parse_config_text(bad2)

    def test_non_finite_numbers_name_their_key(self):
        """``nan`` and ``inf`` are rejected at parse time, each naming the
        key it came from."""
        rectangle = """
[mean]
constant = inf

[field]
kind = analytic
name = gauss-bumps
offset = nan
bumps = 1,2,2,inf

[roi]
kind = rectangle
rect = 0, 0, inf, 10

[placement]
kind = explicit
targets = 1,1; nan,2
candidates = 1,1; 2,-inf
"""
        polygon = MINIMAL.replace("rectangle", "polygon").replace(
            "rect = 0, 0, 10, 10", "polygon = 0,0; 10,0; nan,10"
        )
        keys = {
            rectangle: (
                "mean.constant",
                "field.offset",
                "field.bumps",
                "roi.rect",
                "placement.targets",
                "placement.candidates",
            ),
            polygon: ("roi.polygon",),
        }
        for text, named in keys.items():
            with pytest.raises(ConfigError) as err:
                parse_config_text(text)
            msg = str(err.value)
            for key in named:
                assert f"{key}: must be finite" in msg
            assert f"{len(named)} configuration problem(s)" in msg

    def test_a_key_that_fails_to_parse_skips_its_range_checks(self):
        """An unparsable number is one problem: neither its own bound nor a
        bound that depends on it (``n_shared``) is checked."""
        cases = {
            "[scenario]\nhorizon = ten\n": "scenario.horizon: not an integer ('ten')",
            "[scenario]\ntrials = x\n": "scenario.trials: not an integer ('x')",
            "[scenario]\nnoise_sd = x\n": "scenario.noise_sd: not a number ('x')",
            "[placement]\nn_targets = x\n": "placement.n_targets: not an integer ('x')",
            "[placement]\nn_candidates = 1.5\n": "placement.n_candidates: not an integer ('1.5')",
        }
        for section, problem in cases.items():
            with pytest.raises(ConfigError) as err:
                parse_config_text(MINIMAL + section)
            assert str(err.value) == f"<config>: 1 configuration problem(s):\n  - {problem}"

    def test_roi_rejects_keys_its_kind_does_not_take(self):
        grid = "[field]\nkind = grid\ngrid_csv = field.csv\n[roi]\nrect = 0, 0, 1, 1\n"
        cases = {
            MINIMAL + "rectt = 1\n": "roi.rectt: unknown key for rectangle regions",
            MINIMAL + "polygon = 0,0; 1,0; 1,1\n": "roi.polygon: unknown key for rectangle regions",
            grid: "roi.rect: unknown key for grid regions",
        }
        for text, problem in cases.items():
            with pytest.raises(ConfigError) as err:
                parse_config_text(text)
            assert str(err.value) == f"<config>: 1 configuration problem(s):\n  - {problem}"

    def test_kinds_reject_keys_they_do_not_take(self):
        """Field, region and placement share one unknown-key check: an
        analytic field takes only its function's parameters, a placement
        only the keys of its kind, and a non-grid field no ``grid`` region."""
        explicit = "[placement]\nkind = explicit\ntargets = 1,1\ncandidates = 1,1\n"
        cases = {
            LINEAR_A + "zz = 1\n": "field.zz: unknown key for linear fields",
            LINEAR_A + "bumps = 1,2,2,1\n": "field.bumps: unknown key for linear fields",
            MINIMAL + "[placement]\ntargets = 1,1\n": "placement.targets: unknown key for sample placement",
            MINIMAL + explicit + "n_targets = 3\n": "placement.n_targets: unknown key for explicit placement",
            LINEAR_A.replace("rectangle", "grid"): "roi.kind: 'grid' not one of rectangle, polygon",
        }
        for text, problem in cases.items():
            with pytest.raises(ConfigError) as err:
                parse_config_text(text)
            assert str(err.value) == f"<config>: 1 configuration problem(s):\n  - {problem}"

    def test_negative_seed_is_rejected(self):
        """A negative seed, from the file or an override, is a configuration
        problem and not a crash in the seed scheme."""
        problem = "<config>: 1 configuration problem(s):\n  - scenario.seed: must be >= 0"
        with pytest.raises(ConfigError) as err:
            parse_config_text(MINIMAL + "[scenario]\nseed = -1\n")
        assert str(err.value) == problem
        with pytest.raises(ConfigError) as err:
            parse_config_text(MINIMAL, overrides={"seed": -1})
        assert str(err.value) == problem

    def test_missing_roi_for_synthetic_field(self):
        with pytest.raises(ConfigError, match="roi.kind"):
            parse_config_text("[field]\nkind = gp-sample\n")

    def test_grid_field_requires_csv_path(self):
        with pytest.raises(ConfigError, match="grid_csv"):
            parse_config_text("[field]\nkind = grid\n")


class TestOverrides:
    """Overrides replace ``[scenario]`` values before validation, so they
    pass the same checks as the file's own values."""

    def test_cli_style_overrides(self):
        cfg = parse_config_text(MINIMAL)
        out = parse_config_text(
            MINIMAL, overrides={"seed": 5, "trials": 2, "horizon": 7, "planner": "random"}
        )
        assert (out.seed, out.trials, out.horizon, out.planner) == (5, 2, 7, "random")
        # untouched fields survive
        assert out.field_kind == cfg.field_kind

    def test_none_values_are_ignored(self):
        cfg = parse_config_text(MINIMAL)
        out = parse_config_text(MINIMAL, overrides={"seed": None, "trials": None})
        assert out == cfg

    def test_invalid_override_values(self):
        with pytest.raises(ConfigError):
            parse_config_text(MINIMAL, overrides={"trials": 0})
        with pytest.raises(ConfigError):
            parse_config_text(MINIMAL, overrides={"planner": "oracle"})

    def test_override_problems_are_gathered_and_name_the_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(MINIMAL)
        with pytest.raises(ConfigError) as err:
            load_config(path, {"trials": 0, "horizon": 0})
        msg = str(err.value)
        assert msg.startswith(f"{path}: 2 configuration problem(s)")
        assert "scenario.trials: must be >= 1" in msg
        assert "scenario.horizon: must be >= 1" in msg

    def test_override_replaces_a_bad_file_value(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[scenario]\ntrials = 0\n" + MINIMAL)
        with pytest.raises(ConfigError, match="scenario.trials: must be >= 1"):
            load_config(path)
        assert load_config(path, {"trials": 3}).trials == 3


class TestEcho:
    def test_echo_round_trips_through_parser(self):
        """The echoed configuration is complete: feeding it back through
        the parser reproduces the same resolved settings."""
        for text in (MINIMAL, FULL, LINEAR_A):
            cfg = parse_config_text(text)
            sections = echo_config(cfg, resolved_mean=cfg.mean_constant or 0.0)
            again = parse_config_text(ini_text(sections))
            assert again.horizon == cfg.horizon
            assert again.trials == cfg.trials
            assert again.noise_sd == cfg.noise_sd
            assert again.seed == cfg.seed
            assert again.signal_variance == cfg.signal_variance
            assert again.field_kind == cfg.field_kind
            assert again.analytic_params == cfg.analytic_params
            assert again.explicit_targets == cfg.explicit_targets
            assert again.n_shared == cfg.n_shared

    def test_every_default_is_visible(self):
        sections = echo_config(parse_config_text(MINIMAL), resolved_mean=0.0)
        assert sections["scenario"]["trials"] == "20"
        assert sections["kernel"]["jitter"] == "0.0"
        assert sections["mean"]["constant"] == "0.0"
        assert sections["placement"]["n_shared"] == "5"
        field = echo_config(parse_config_text(LINEAR_A), resolved_mean=0.0)["field"]
        assert (field["a"], field["b"], field["c"]) == ("2.0", "0.0", "0.0")


class TestTables:
    """The key tables agree with ``RunConfig`` and the analytic catalog."""

    def test_bounds_name_numeric_scalar_keys(self):
        types = typing.get_type_hints(RunConfig)
        scalars = {key for keys in _KEYS.values() for key in keys}
        for key in _BOUNDS:
            assert key in scalars and types[key] in (int, float), key

    def test_kind_keys_fill_run_config_fields(self):
        names = set(typing.get_type_hints(RunConfig))
        for kinds in _KIND_KEYS.values():
            for keys in kinds.values():
                assert set(keys.values()) <= names, keys

    def test_analytic_fields_are_finite_at_their_defaults(self):
        for name, function in ANALYTIC_CATALOG.items():
            assert math.isfinite(float(function(1.5, -2.5, **analytic_defaults(name)))), name


def test_config_file_loading(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text(MINIMAL)
    cfg = load_config(p, {"seed": 42})
    assert cfg.seed == 42
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.ini")

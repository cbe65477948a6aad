"""Tests for JSON run-configuration parsing."""

import dataclasses
import json
import math
from typing import get_type_hints

import numpy as np
import pytest

from delayheat import (
    CheckSettings,
    ConfigError,
    DelayHeatProblem,
    HeatProblem,
    Sampled1DFunction,
    Sampled2DFunction,
    build_function,
    config_from_dict,
    load_config,
)
from delayheat.config import SolverSettings, settings_from_dict
from delayheat.quadrature import QuadratureConfig


def _delay_dict(**overrides):
    data = {
        "problem": {
            "kind": "delay",
            "diffusion": 1.0,
            "reaction_lag": -0.5,
            "delay": 1.0,
            "length": math.pi,
            "horizon": 2.0,
            "source": "0",
            "initial": "sin(x)",
            "trace_left": 0,
            "trace_right": 0,
        },
    }
    data.update(overrides)
    return data


def _nodelay_dict(**overrides):
    data = {
        "problem": {
            "kind": "nodelay", "diffusion": 1.0, "length": 1.0,
            "horizon": 0.5, "source": "0", "initial": "sin(pi*x)",
            "trace_left": 0, "trace_right": 0,
        },
    }
    data.update(overrides)
    return data


# ---------------------------------------------------------------------------
# Whole-config parsing
# ---------------------------------------------------------------------------


def test_minimal_delay_config():
    cfg = config_from_dict(_delay_dict())
    assert cfg.kind == "delay"
    p = cfg.problem
    assert isinstance(p, DelayHeatProblem)
    assert p.a1 == 1.0 and p.a2 == 0.0 and p.d2 == -0.5
    assert p.tau == 1.0 and p.length == pytest.approx(math.pi)
    assert p.psi(math.pi / 2.0, -0.3) == pytest.approx(1.0)
    # Defaults everywhere else.
    assert cfg.solver.modes == 64 and cfg.solver.nx == 200
    assert cfg.solver.nt_per_tau == 16 and cfg.solver.nt is None
    assert cfg.check.delta == 0.5 and cfg.check.m is None
    assert cfg.outputs == {}


def test_delay_keys_reach_their_fields():
    # Distinct values, so that a swapped row of the key table shows.
    keys = ("diffusion", "diffusion_lag", "drift", "drift_lag", "reaction",
            "reaction_lag")
    data = _delay_dict()
    data["problem"].update({key: 1.5 + k for k, key in enumerate(keys)})
    data["problem"].update(delay=0.25, source="1", initial="2",
                           trace_left="3", trace_right="4")
    p = config_from_dict(data).problem
    assert (p.a1, p.a2, p.b1, p.b2, p.d1, p.d2) == (1.5, 2.5, 3.5, 4.5, 5.5, 6.5)
    assert p.tau == 0.25
    assert [float(f(0.5, 0.1)) for f in (p.g, p.psi, p.theta1, p.theta2)] == [
        1.0, 2.0, 3.0, 4.0]


def test_full_nodelay_config():
    data = {
        "problem": {
            "kind": "nodelay", "diffusion": 2.0, "drift": 0.5, "reaction": 0.1,
            "length": 1.0, "horizon": 0.5, "source": "x*t",
            "initial": "sin(pi*x/l)", "trace_left": "0", "trace_right": 0.0,
        },
        "solver": {"modes": 8, "nx": 40, "nt": 20,
                   "quadrature": {"nodes_per_panel": 8, "max_panel_splits": 4,
                                  "abs_tol": 1e-9}},
        "check": {"fit_slack": 0.1, "tol": 1e-6},
        "outputs": {"field_csv": "out.csv", "report_json": "report.json"},
        "mode": "solve",
    }
    # The subcommand picks what runs; a "mode" key is an unknown key.
    with pytest.raises(ConfigError, match=r"unknown key\(s\) \['mode'\]"):
        config_from_dict(data)
    del data["mode"]
    cfg = config_from_dict(data)
    assert cfg.kind == "nodelay"
    p = cfg.problem
    assert isinstance(p, HeatProblem)
    assert (p.a, p.b, p.c) == (2.0, 0.5, 0.1)
    assert p.psi(0.5, 0.0) == pytest.approx(1.0)  # l is bound in expressions
    assert cfg.solver.modes == 8
    assert cfg.solver.quadrature.nodes_per_panel == 8
    assert cfg.check.fit_slack == 0.1 and cfg.check.tol == 1e-6
    assert cfg.outputs == {"field_csv": "out.csv", "report_json": "report.json"}
    assert cfg.solver.nt == 20 and cfg.solver.nt_per_tau is None


def test_delay_check_settings_are_rejected_without_a_delay():
    # check.m and check.delta set the delay proxies only; a no-delay run
    # must not ignore them silently.
    cfg = config_from_dict(_delay_dict(check={"m": 3, "delta": 0.25}))
    assert cfg.check.m == 3 and cfg.check.delta == 0.25
    for key, value in (("m", 3), ("delta", 7.5)):
        with pytest.raises(ConfigError,
                           match=f"check.{key} does not apply to nodelay"):
            config_from_dict(_nodelay_dict(check={key: value}))
    assert config_from_dict(_nodelay_dict(check={"m": None})).check.m is None


def test_time_grid_defaults_follow_the_problem_kind():
    cfg = config_from_dict(_nodelay_dict())
    assert cfg.solver.nt == 200 and cfg.solver.nt_per_tau is None
    cfg = config_from_dict(_delay_dict(solver={"nt_per_tau": 8, "nt": None}))
    assert cfg.solver.nt_per_tau == 8 and cfg.solver.nt is None


def test_solver_settings_are_checked_by_the_basis_and_the_grid():
    for data, message in (
            (_delay_dict(solver={"modes": 0}), "n_modes must be at least 1"),
            (_delay_dict(solver={"nx": 1}), "nx must be at least 2, got 1"),
            (_delay_dict(solver={"nt_per_tau": 0}), "nt_per_tau must be at least 1"),
            (_nodelay_dict(solver={"nt": 0}), "nt must be at least 1, got 0")):
        with pytest.raises(ConfigError,
                           match=f"invalid solver settings: {message}"):
            config_from_dict(data)
    cfg = config_from_dict(_delay_dict(solver={"modes": 5, "nx": 7}))
    assert cfg.basis().n_modes == 5 and cfg.basis(9).n_modes == 9
    assert cfg.grid().nx == 7 and cfg.grid().nt_per_tau == 16


def test_time_grid_setting_of_the_other_kind_is_rejected():
    with pytest.raises(ConfigError, match="solver.nt does not apply to delay"):
        config_from_dict(_delay_dict(solver={"nt": 3}))
    with pytest.raises(ConfigError,
                       match="solver.nt_per_tau does not apply to nodelay"):
        config_from_dict(_nodelay_dict(solver={"nt_per_tau": 8}))


def test_tau_is_bound_in_delay_expressions():
    data = _delay_dict()
    data["problem"]["initial"] = "sin(x)*(1 + t/tau)"
    p = config_from_dict(data).problem
    assert p.psi(math.pi / 2.0, -0.5) == pytest.approx(0.5)


def test_unknown_keys_are_rejected_everywhere():
    for mutate in (
        lambda d: d.update(extra=1),
        lambda d: d["problem"].update(lag=2.0),
        lambda d: d.update(solver={"modez": 8}),
        lambda d: d.update(solver={"quadrature": {"nodes": 4}}),
        lambda d: d.update(check={"slack": 0.1}),
        lambda d: d.update(outputs={"field": "x.csv"}),
    ):
        data = _delay_dict()
        mutate(data)
        with pytest.raises(ConfigError):
            config_from_dict(data)


def test_kind_gates_the_allowed_problem_keys():
    data = _delay_dict()
    data["problem"]["kind"] = "nodelay"  # delay-only keys now invalid
    with pytest.raises(ConfigError):
        config_from_dict(data)
    with pytest.raises(ConfigError):
        config_from_dict(_delay_dict(problem={"kind": "heat"}))


def test_missing_and_malformed_sections():
    with pytest.raises(ConfigError):
        config_from_dict([1, 2, 3])
    with pytest.raises(ConfigError):
        config_from_dict({})  # no problem section
    data = _delay_dict()
    del data["problem"]["initial"]
    with pytest.raises(ConfigError):
        config_from_dict(data)
    data = _delay_dict(mode="fly")
    with pytest.raises(ConfigError):
        config_from_dict(data)
    data = _delay_dict(solver={"modes": 0})
    with pytest.raises(ConfigError):
        config_from_dict(data)
    data = _delay_dict(check={"tol": -1.0})
    with pytest.raises(ConfigError):
        config_from_dict(data)
    data = _delay_dict(outputs={"field_csv": 7})
    with pytest.raises(ConfigError):
        config_from_dict(data)


def test_numbers_are_validated():
    data = _delay_dict()
    data["problem"]["diffusion"] = "one"
    with pytest.raises(ConfigError):
        config_from_dict(data)
    data = _delay_dict()
    data["problem"]["delay"] = True  # booleans are not numbers
    with pytest.raises(ConfigError):
        config_from_dict(data)
    data = _delay_dict(solver={"nx": 2.5})
    with pytest.raises(ConfigError):
        config_from_dict(data)
    for bad in ({"nodes_per_panel": "16"}, {"nodes_per_panel": 2.5},
                {"max_panel_splits": 1.5}, {"abs_tol": "1e-10"},
                {"abs_tol": True}, {"abs_tol": None}):
        with pytest.raises(ConfigError):
            config_from_dict(_delay_dict(solver={"quadrature": bad}))
    # Settings that would empty a gate: JSON's Infinity and NaN literals, a
    # non-positive tolerance and an m that covers no delay interval.
    for bad in ({"abs_tol": math.inf}, {"abs_tol": math.nan}, {"abs_tol": 0.0}):
        with pytest.raises(ConfigError, match="abs_tol must be finite"):
            config_from_dict(_delay_dict(solver={"quadrature": bad}))
    for bad in ({"tol": math.inf}, {"tol": math.nan}, {"tol": 0.0},
                {"delta": math.nan}, {"delta": math.inf},
                {"fit_slack": math.nan}, {"fit_slack": math.inf},
                {"fit_slack": -math.inf}, {"m": 0}, {"m": -3}):
        with pytest.raises(ConfigError, match=f"check {next(iter(bad))} must"):
            config_from_dict(_delay_dict(check=bad))
    cfg = config_from_dict(_delay_dict(check={"m": 1, "delta": -0.5,
                                              "fit_slack": 0.0}))
    assert (cfg.check.m, cfg.check.delta, cfg.check.fit_slack) == (1, -0.5, 0.0)
    # A null integer keeps its default, as "modes" and "nx" do.
    cfg = config_from_dict(_delay_dict(
        solver={"quadrature": {"nodes_per_panel": None, "abs_tol": 1e-9}}))
    assert cfg.solver.quadrature.nodes_per_panel == 16
    assert cfg.solver.quadrature.abs_tol == 1e-9


@pytest.mark.parametrize("where, key, message", [
    ("problem", "length", "'length' in problem: number out of float range"),
    ("problem", "reaction_lag",
     "'reaction_lag' in problem: number out of float range"),
    ("solver.quadrature", "abs_tol",
     "'abs_tol' in solver.quadrature: number out of float range"),
    ("check", "tol", "'tol' in check: number out of float range"),
    ("problem", "source", "problem.source: number out of float range"),
    ("problem", "trace_left", "problem.trace_left: number out of float range"),
])
def test_an_integer_past_float_range_is_a_config_error(tmp_path, where, key,
                                                       message):
    # JSON reads an integer literal of any size as a Python int, which
    # float() refuses with OverflowError: the key or slot is named instead.
    data = _delay_dict()
    section = data
    for part in where.split("."):
        section = section.setdefault(part, {})
    section[key] = 10**400
    path = tmp_path / "run.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value) == message


def _section(where, body):
    """``body`` nested at the dotted path ``where`` of a config."""
    for part in reversed(where.split(".")):
        body = {part: body}
    return body


def test_a_settings_section_takes_exactly_its_class_fields():
    # One rule reads solver, solver.quadrature and check: the keys are the
    # class's dataclass fields, each at its default loads, and any other
    # key is unknown.
    sections = (("solver", SolverSettings), ("solver.quadrature", QuadratureConfig),
                ("check", CheckSettings))
    for where, cls in sections:
        types = get_type_hints(cls)
        assert list(types) == [f.name for f in dataclasses.fields(cls)]
        for name, kind in types.items():
            nested = dataclasses.is_dataclass(kind)
            assert nested or kind in (int, float)
            value = {} if nested else getattr(cls(), name)
            got = config_from_dict(_delay_dict(**_section(where, {name: value})))
            for part in (*where.split("."), name):
                got = getattr(got, part)
            # A null leaves the default; the time grid resolves it per kind.
            assert value is None or got == (kind() if nested else value)
        with pytest.raises(ConfigError,
                           match=rf"^unknown key\(s\) \['surplus'\] in {where}$"):
            config_from_dict(_delay_dict(**_section(where, {"surplus": 1})))


def test_a_field_added_to_a_settings_class_is_read_by_the_same_rule():
    @dataclasses.dataclass(frozen=True)
    class Extended(CheckSettings):
        max_modes: int = None

    got = settings_from_dict(Extended, {"max_modes": 3, "tol": 1e-6}, "check")
    assert (got.max_modes, got.tol) == (3, 1e-6)
    assert settings_from_dict(Extended, {"max_modes": None}, "check").max_modes is None
    with pytest.raises(ConfigError,
                       match=r"^'max_modes' in check must be an integer, got 2.5$"):
        settings_from_dict(Extended, {"max_modes": 2.5}, "check")


def test_refusals_of_every_section_read_alike():
    for section, message in (
            ({"check": {"tol": 0.0}},
             "invalid check settings: check tol must be positive"),
            ({"solver": {"quadrature": {"abs_tol": 0.0}}},
             "invalid solver.quadrature settings: abs_tol must be finite and positive"),
            ({"solver": {"nx": 1}},
             "invalid solver settings: nx must be at least 2, got 1")):
        with pytest.raises(ConfigError) as info:
            config_from_dict(_delay_dict(**section))
        assert str(info.value) == message


def test_invalid_problem_data_becomes_config_error():
    data = _delay_dict()
    data["problem"]["delay"] = -1.0
    with pytest.raises(ConfigError):
        config_from_dict(data)


# ---------------------------------------------------------------------------
# Function slots
# ---------------------------------------------------------------------------


def test_function_slot_number_and_expression():
    f = build_function(2.5, length=1.0)
    assert f(0.3, 0.7) == 2.5
    g = build_function("x + l", length=2.0)
    assert g(0.5, 0.0) == pytest.approx(2.5)


def test_function_slot_bad_expression():
    with pytest.raises(ConfigError):
        build_function("sin(", length=1.0, slot="problem.source")
    with pytest.raises(ConfigError):
        build_function(True, length=1.0)
    with pytest.raises(ConfigError):
        build_function(["not", "a", "function"], length=1.0)


def test_function_slot_1d_table():
    f = build_function(
        {"table": "1d", "var": "t", "points": [0.0, 1.0, 2.0, 3.0],
         "values": [0.0, 1.0, 4.0, 9.0], "interp": "cubic"},
        length=1.0,
    )
    assert isinstance(f, Sampled1DFunction)
    assert f(0.0, 2.0) == pytest.approx(4.0)
    with pytest.raises(ConfigError):
        build_function({"table": "1d", "var": "t", "points": [0, 1],
                        "values": [0, 1], "interp": "spline"}, length=1.0)


def test_function_slot_2d_table():
    xs = [0.0, 0.5, 1.0, 1.5]
    ts = [0.0, 1.0, 2.0, 3.0]
    values = [[x * t for t in ts] for x in xs]  # values[i][j] = f(x[i], t[j])
    f = build_function({"table": "2d", "x": xs, "t": ts, "values": values},
                       length=1.5)
    assert isinstance(f, Sampled2DFunction)
    assert f(0.5, 2.0) == pytest.approx(1.0)
    assert f(1.5, 3.0) == pytest.approx(4.5)


def test_function_slot_bad_table():
    with pytest.raises(ConfigError):
        build_function({"table": "3d"}, length=1.0)
    with pytest.raises(ConfigError):
        build_function({"table": "1d", "var": "t", "points": [0, 1],
                        "values": [0, 1], "extra": 1}, length=1.0)


def test_table_in_full_config():
    data = _delay_dict()
    data["problem"]["source"] = {
        "table": "2d",
        "x": list(np.linspace(0.0, math.pi, 5)),
        "t": [0.0, 0.5, 1.0, 1.5, 2.0],
        "values": [[0.0] * 5 for _ in range(5)],
    }
    cfg = config_from_dict(data)
    assert cfg.problem.g(1.0, 1.0) == 0.0


# ---------------------------------------------------------------------------
# File loading
# ---------------------------------------------------------------------------


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(_delay_dict()))
    cfg = load_config(path)
    assert cfg.kind == "delay"


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)

"""Tests for JSON run-configuration parsing."""

import json
import math

import numpy as np
import pytest

from delayheat import (
    ConfigError,
    DelayHeatProblem,
    HeatProblem,
    Sampled1DFunction,
    Sampled2DFunction,
    build_function,
    config_from_dict,
    load_config,
)


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
        "check": {"m": 3, "delta": 0.25, "fit_slack": 0.1, "tol": 1e-6},
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
    assert cfg.check.m == 3 and cfg.check.tol == 1e-6
    assert cfg.outputs == {"field_csv": "out.csv", "report_json": "report.json"}
    assert cfg.solver.nt == 20 and cfg.solver.nt_per_tau is None


def test_time_grid_defaults_follow_the_problem_kind():
    cfg = config_from_dict(_nodelay_dict())
    assert cfg.solver.nt == 200 and cfg.solver.nt_per_tau is None
    cfg = config_from_dict(_delay_dict(solver={"nt_per_tau": 8, "nt": None}))
    assert cfg.solver.nt_per_tau == 8 and cfg.solver.nt is None


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
    # A null integer keeps its default, as "modes" and "nx" do.
    cfg = config_from_dict(_delay_dict(
        solver={"quadrature": {"nodes_per_panel": None, "abs_tol": 1e-9}}))
    assert cfg.solver.quadrature.nodes_per_panel == 16
    assert cfg.solver.quadrature.abs_tol == 1e-9


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

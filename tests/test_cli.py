"""End-to-end tests for the command-line interface.

Every test drives ``main(argv)`` and asserts on exit codes, the emitted
JSON/CSV artifacts, and the stdout/stderr summaries.  All run in-process but
the import guard, which needs a fresh interpreter.

Exit-code contract: 0 success, 1 configuration/usage error, 2 hard boundary
rejection, 3 numeric failure (including refusing to solve past failed
advisory proxies without --override-advisory).
"""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from dde_steps import dde_steps, dde_steps_exact
from shipped_configs import CONFIGS, run_configs
import delayheat.field as field_module
from delayheat import read_field_csv
from delayheat.cli import main


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def _delay_config(tmp_path, name="run.json", *, psi="sin(x)", horizon=2.0,
                  solver=None, outputs=None, extra_problem=None):
    problem = {
        "kind": "delay",
        "diffusion": 1.0,
        "reaction_lag": -0.5,
        "delay": 1.0,
        "length": math.pi,
        "horizon": horizon,
        "source": "0",
        "initial": psi,
        "trace_left": 0,
        "trace_right": 0,
    }
    if extra_problem:
        problem.update(extra_problem)
    data = {
        "problem": problem,
        "solver": solver or {"modes": 8, "nx": 20, "nt_per_tau": 8},
    }
    if outputs:
        data["outputs"] = outputs
    return _write(tmp_path, name, data)


def _nodelay_config(tmp_path, name="run.json", *, g="0", solver=None):
    data = {
        "problem": {
            "kind": "nodelay",
            "diffusion": 1.0,
            "length": 1.0,
            "horizon": 0.5,
            "source": g,
            "initial": "sin(pi*x)",
            "trace_left": 0,
            "trace_right": 0,
        },
        "solver": solver or {"modes": 8, "nx": 20, "nt": 10},
    }
    return _write(tmp_path, name, data)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_passes_on_compatible_problem(tmp_path, capsys):
    cfg = _delay_config(tmp_path)
    report_path = tmp_path / "report.json"
    code = main(["check", "--config", cfg, "--out-report", str(report_path)])
    assert code == 0
    payload = json.loads(report_path.read_text())
    assert payload["command"] == "check"
    assert payload["compat"]["hard_pass"] is True
    assert payload["compat"]["advisory_pass"] is True
    out = capsys.readouterr().out
    assert "boundary compatibility: pass" in out


def test_check_hard_failure_exits_2(tmp_path, capsys):
    cfg = _delay_config(tmp_path, psi="sin(x) + 0.2")
    report_path = tmp_path / "report.json"
    code = main(["check", "--config", cfg, "--out-report", str(report_path)])
    assert code == 2
    payload = json.loads(report_path.read_text())
    assert payload["compat"]["hard_pass"] is False
    assert "boundary compatibility: FAIL" in capsys.readouterr().out


def test_check_advisory_failure_exits_3(tmp_path):
    cfg = _delay_config(tmp_path, psi="x*(l-x)", horizon=1.0)
    report_path = tmp_path / "report.json"
    code = main(["check", "--config", cfg, "--out-report", str(report_path)])
    assert code == 3
    payload = json.loads(report_path.read_text())
    assert payload["compat"]["hard_pass"] is True
    assert payload["compat"]["advisory_pass"] is False


def test_check_passes_a_nodelay_sine_polynomial(tmp_path):
    # Ten active modes of 64: the coefficients' tail sits at the numerical
    # floor, so the entry passes as a delay history's would, unfitted.
    data = json.loads(Path(_nodelay_config(tmp_path)).read_text())
    data["problem"].update(length=math.pi, initial=" + ".join(
        f"sin({n}*x)/{n}" for n in range(1, 11)))
    data["solver"]["modes"] = 64
    cfg = _write(tmp_path, "sines.json", data)
    report_path = tmp_path / "report.json"
    assert main(["check", "--config", cfg, "--out-report", str(report_path)]) == 0
    (entry,) = json.loads(report_path.read_text())["compat"]["decay"]
    assert entry["status"] == "pass"
    assert entry["detail"] == (
        "tail sits at the numerical floor (finitely many active modes)")


def test_check_with_a_negative_fit_slack_exits_1(tmp_path, capsys):
    # A negative slack is refused at load, for both problem kinds alike.
    data = json.loads(Path(_delay_config(tmp_path)).read_text())
    data["check"] = {"fit_slack": -0.25}
    cfg = _write(tmp_path, "negative.json", data)
    report_path = tmp_path / "report.json"
    assert main(["check", "--config", cfg, "--out-report", str(report_path)]) == 1
    assert "check fit_slack must be non-negative" in capsys.readouterr().err
    assert not report_path.exists()


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_writes_field_and_report(tmp_path):
    cfg = _delay_config(tmp_path)
    field_path = tmp_path / "field.csv"
    report_path = tmp_path / "report.json"
    code = main(["solve", "--config", cfg,
                 "--out-field", str(field_path),
                 "--out-report", str(report_path)])
    assert code == 0
    lines = field_path.read_text().splitlines()
    assert lines[0] == "x,t,v,u"
    # 21 space points, 25 time rows (-tau .. 2 at dt = 1/8).
    assert len(lines) == 1 + 21 * 25
    payload = json.loads(report_path.read_text())
    assert payload["field_meta"]["n_modes"] == 8
    assert payload["outputs"]["field_csv"] == str(field_path)
    # The written field round-trips and the history row equals sin(x).
    field = read_field_csv(field_path)
    assert field.t[0] == pytest.approx(-1.0)
    np.testing.assert_allclose(field.v[0], np.sin(field.x), atol=1e-12)


def test_solve_respects_flag_overrides(tmp_path):
    cfg = _delay_config(tmp_path)
    field_path = tmp_path / "field.csv"
    code = main(["solve", "--config", cfg, "--modes", "4", "--nx", "10",
                 "--nt-per-tau", "4",
                 "--out-field", str(field_path),
                 "--out-report", str(tmp_path / "r.json")])
    assert code == 0
    field = read_field_csv(field_path)
    assert field.x.size == 11
    np.testing.assert_allclose(np.diff(field.t), 0.25)


def test_solve_blocked_by_advisory_exits_3(tmp_path, capsys):
    cfg = _delay_config(tmp_path, psi="x*(l-x)", horizon=1.0)
    field_path = tmp_path / "field.csv"
    report_path = tmp_path / "report.json"
    code = main(["solve", "--config", cfg,
                 "--out-field", str(field_path),
                 "--out-report", str(report_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert "refusing to solve" in err
    assert "--override-advisory" in err
    # The compat report is still written; no field is produced.
    assert report_path.exists()
    assert not field_path.exists()
    payload = json.loads(report_path.read_text())
    assert payload["compat"]["advisory_pass"] is False
    assert "field_meta" not in payload


def test_solve_override_advisory_proceeds(tmp_path, capsys):
    cfg = _delay_config(tmp_path, psi="x*(l-x)", horizon=1.0)
    field_path = tmp_path / "field.csv"
    code = main(["solve", "--config", cfg, "--override-advisory",
                 "--out-field", str(field_path),
                 "--out-report", str(tmp_path / "r.json")])
    assert code == 0
    assert "proceeding under --override-advisory" in capsys.readouterr().err
    assert field_path.exists()


def test_solve_hard_rejection_exits_2(tmp_path, capsys):
    cfg = _delay_config(tmp_path, psi="sin(x) + 0.2")
    code = main(["solve", "--config", cfg,
                 "--out-report", str(tmp_path / "r.json")])
    assert code == 2
    assert "rejected" in capsys.readouterr().err
    # --override-advisory must NOT bypass a hard rejection.
    code = main(["solve", "--config", cfg, "--override-advisory",
                 "--out-report", str(tmp_path / "r2.json")])
    assert code == 2


def _rejected_config(tmp_path, kind):
    """A config that fails the hard check and whose data the advisory
    screens cannot handle: a sign jump that no sine projection resolves,
    or a source table shorter than the delay kind's ceil(T / tau) tau."""
    if kind == "nodelay":
        data = {
            "problem": {"kind": "nodelay", "diffusion": 1.0,
                        "length": math.pi, "horizon": 0.5, "source": "0",
                        "initial": "(x - 1)/abs(x - 1)",
                        "trace_left": 0, "trace_right": 0},
            "solver": {"modes": 16, "nx": 50, "nt": 20},
        }
    else:
        data = json.loads((CONFIGS / "delay_single_mode.json").read_text())
        data["problem"].update(
            horizon=1.2, initial="sin(x) + 0.2",
            source={"table": "1d", "var": "t", "points": [0, 0.4, 0.8, 1.2],
                    "values": [0, 0, 0, 0]})
    return _write(tmp_path, f"{kind}.json", data)


@pytest.mark.parametrize("kind", ["nodelay", "delay"])
def test_a_failure_past_the_hard_check_does_not_mask_the_rejection(
        tmp_path, capsys, kind):
    cfg = _rejected_config(tmp_path, kind)
    report_path = tmp_path / "report.json"
    code = main(["check", "--config", cfg, "--out-report", str(report_path)])
    assert code == 2
    compat = json.loads(report_path.read_text())["compat"]
    assert compat["hard_pass"] is False and compat["advisory_pass"] is None
    out = capsys.readouterr().out
    assert "boundary compatibility: FAIL" in out
    assert "advisory screens: not run" in out
    assert "endpoint identities" not in out
    code = main(["solve", "--config", cfg, "--override-advisory",
                 "--out-report", str(report_path)])
    assert code == 2
    assert json.loads(report_path.read_text())["compat"]["hard_pass"] is False
    assert "rejected" in capsys.readouterr().err


def test_solve_numeric_failure_exits_3(tmp_path, capsys):
    # A forcing the brutal quadrature budget cannot integrate.
    cfg = _nodelay_config(
        tmp_path, g="sin(pi*x)*exp(-40*t)",
        solver={"modes": 8, "nx": 20, "nt": 10,
                "quadrature": {"nodes_per_panel": 2, "max_panel_splits": 1,
                               "abs_tol": 1e-16}},
    )
    code = main(["solve", "--config", cfg])
    assert code == 3
    assert "numeric failure" in capsys.readouterr().err


def test_delay_solve_numeric_failure_exits_3(tmp_path, capsys):
    # No panel split is allowed: the projection still settles by rung P,
    # and the modal engine, which needs one split to accept, fails.
    cfg = _delay_config(
        tmp_path, psi="sin(x) + sin(5*x)",
        solver={"modes": 8, "nx": 20, "nt_per_tau": 4,
                "quadrature": {"max_panel_splits": 0}},
    )
    code = main(["solve", "--config", cfg, "--override-advisory"])
    assert code == 3
    err = capsys.readouterr().err
    assert "numeric failure" in err and "grid quadrature" in err


def test_a_field_that_fails_past_its_first_block_leaves_no_file(tmp_path,
                                                               capsys):
    # phi is log(0) on the history row t = -0.3, row 7 of the grid, which no
    # projection sample meets: the modal solve succeeds, and the field fails
    # as its second block (rows 4-7 of 1001 cells) is synthesized.
    assert field_module._CSV_BLOCK_CELLS // 1001 == 4
    cfg = _delay_config(
        tmp_path, psi="sin(x)*(2 + log(abs(t + 0.30000000000000004)))",
        horizon=1.0, solver={"modes": 16, "nx": 1000, "nt_per_tau": 10})
    out = tmp_path / "field.csv"
    report = tmp_path / "report.json"
    argv = ["solve", "--config", cfg, "--override-advisory",
            "--out-report", str(report)]
    assert main(argv + ["--out-field", str(out)]) == 1
    assert capsys.readouterr().err == "error: log of a non-positive value\n"
    # No field, no temporary beside it and no report.
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]
    # A file already at the path is left as it was.
    out.write_bytes(b"earlier field\n")
    assert main(argv + ["--out-field", str(out)]) == 1
    assert out.read_bytes() == b"earlier field\n"
    # Without --out-field the solve still reads every block, and fails alike.
    assert main(argv) == 1
    assert capsys.readouterr().err.endswith(
        "error: log of a non-positive value\n")
    assert not report.exists()


def _overflowing_field_configs():
    """Problems whose field leaves float range: v = exp(mu x + gamma t) u
    overflows at t = T where the check passes, and the weight exp(mu x)
    itself overflows at x = 1 (mu = 730) in both kinds."""
    zero_traces = {"source": "0", "trace_left": 0, "trace_right": 0}
    value = {"kind": "nodelay", "diffusion": 1.0, "drift": 0.0,
             "reaction": 1419.0, "length": 1.0, "horizon": 0.5,
             "initial": "1000*sin(pi*x)", **zero_traces}
    weight = {"kind": "nodelay", "diffusion": 1.0, "drift": -1460.0,
              "reaction": 532900.0, "length": 1.0, "horizon": 0.5,
              "initial": "sin(pi*x)*exp(-730*x)", **zero_traces}
    delayed = {"kind": "delay", "diffusion": 1.0, "diffusion_lag": 0.5,
               "drift": -1460.0, "drift_lag": -365.0, "delay": 0.001,
               "length": 1.0, "horizon": 0.005,
               "initial": "sin(pi*x)*exp(-730*x)", **zero_traces}
    nodelay_solver = {"modes": 8, "nx": 20, "nt": 10}
    delay_solver = {"modes": 8, "nx": 20, "nt_per_tau": 1}
    override = ["solve", "--override-advisory"]
    return [
        pytest.param(value, nodelay_solver, ["solve"], "value", id="value-solve"),
        pytest.param(value, nodelay_solver, ["compare"], "value",
                     id="value-compare"),
        pytest.param(weight, nodelay_solver, override, "weight",
                     id="nodelay-weight"),
        pytest.param(delayed, delay_solver, override, "weight",
                     id="delay-weight"),
    ]


@pytest.mark.parametrize("problem, solver, command, what",
                         _overflowing_field_configs())
def test_a_field_that_overflows_exits_3_and_leaves_no_file(
        tmp_path, capsys, problem, solver, command, what):
    cfg = _write(tmp_path, "run.json", {"problem": problem, "solver": solver})
    if command == ["solve"]:
        assert main(["check", "--config", cfg,
                     "--out-report", str(tmp_path / "check.json")]) == 0
        (tmp_path / "check.json").unlink()
        capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(command + ["--config", cfg,
                               "--out-report", str(tmp_path / "report.json"),
                               "--out-field", str(tmp_path / "field.csv")])
    assert code == 3
    # Under --override-advisory a warning line comes first.
    assert capsys.readouterr().err.splitlines()[-1].startswith(
        f"numeric failure: field {what} ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]


def test_check_of_an_overflowing_source_exits_3_without_warnings(tmp_path, capsys):
    # The source does not separate, so it is projected on the grid, whose jet
    # overflows; the check reports a numeric failure and nothing else.
    data = json.loads((CONFIGS / "delay_single_mode.json").read_text())
    data["problem"].update(length=1.0, initial="0",
                           source="exp(700*x)*exp(700*t)*sin(x + t)")
    cfg = _write(tmp_path, "overflow.json", data)
    assert main(["check", "--config", cfg,
                 "--out-report", str(tmp_path / "r.json")]) == 3
    assert capsys.readouterr().err == (
        "numeric failure: ExprFunction produced a non-finite value\n")


def test_check_over_many_delays_exits_3_without_warnings(tmp_path, capsys):
    # tau = 0.001 and T = 0.5 give m = 500: the endpoint rows' partials of
    # order 2m + 4 leave float range, a numeric failure with no
    # RuntimeWarning on the way and no report.
    problem = {"kind": "delay", "diffusion": 1.0, "diffusion_lag": 0.5,
               "drift": -1460.0, "drift_lag": -365.0, "delay": 0.001,
               "length": 1.0, "horizon": 0.5, "source": "0",
               "initial": "sin(pi*x)*exp(-730*x)",
               "trace_left": 0, "trace_right": 0}
    cfg = _write(tmp_path, "many.json", {
        "problem": problem, "solver": {"modes": 8, "nx": 20, "nt_per_tau": 1}})
    report = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["check", "--config", cfg, "--out-report", str(report)]) == 3
    assert capsys.readouterr().err.splitlines()[-1].startswith(
        "numeric failure: ")
    assert not report.exists()


# ---------------------------------------------------------------------------
# compare and sweep
# ---------------------------------------------------------------------------


def test_compare_reports_small_difference(tmp_path, capsys):
    cfg = _delay_config(tmp_path,
                        solver={"modes": 8, "nx": 40, "nt_per_tau": 16})
    report_path = tmp_path / "cmp.json"
    code = main(["compare", "--config", cfg, "--out-report", str(report_path)])
    assert code == 0
    payload = json.loads(report_path.read_text())
    assert payload["difference"]["sup"] < 5e-3
    assert payload["spectral_meta"]["model"] == "heat_delay"
    assert payload["oracle_meta"]["scheme"] == "crank_nicolson"
    assert "sup difference" in capsys.readouterr().out


def test_compare_projects_a_delay_problem_once(tmp_path, monkeypatch):
    # The compat gate and the solve share one reduction of the problem, so
    # with the 16 modes the gate's decay screen needs, one projection serves
    # both: phi and f are each projected once.
    from delayheat import heat_delay

    project = heat_delay.project_paths
    calls = []
    monkeypatch.setattr(heat_delay, "project_paths",
                        lambda spec, *args, **kw: calls.append(spec)
                        or project(spec, *args, **kw))
    cfg = _delay_config(tmp_path,
                        solver={"modes": 16, "nx": 20, "nt_per_tau": 8})
    code = main(["compare", "--config", cfg,
                 "--out-report", str(tmp_path / "cmp.json")])
    assert code == 0
    assert len(calls) == 2 and calls[0] is not calls[1]


def test_compare_projects_a_nodelay_problem_once(tmp_path, monkeypatch):
    # The gate reads Phi_n off the reduction that the solve's _mode_data
    # reads: with 16 modes phi and f are each projected once, and the gate
    # and the solve get the same array of Phi_n.
    from delayheat import compat, heat_delay, heat_nodelay

    project, calls = heat_nodelay.project_paths, []
    for module in (heat_delay, heat_nodelay):
        monkeypatch.setattr(module, "project_paths",
                            lambda spec, *args, **kw: calls.append(spec)
                            or project(spec, *args, **kw))
    gate, mode_data, seen = (compat._initial_coefficients,
                             heat_nodelay._mode_data, [])

    def solve_data(*args):
        data = mode_data(*args)
        seen.append(data[0])
        return data

    monkeypatch.setattr(compat, "_initial_coefficients",
                        lambda *args: seen.append(gate(*args)) or seen[-1])
    monkeypatch.setattr(heat_nodelay, "_mode_data", solve_data)
    cfg = _nodelay_config(tmp_path, g="sin(pi*x)*cos(t)",
                          solver={"modes": 16, "nx": 20, "nt": 10})
    assert main(["compare", "--config", cfg,
                 "--out-report", str(tmp_path / "cmp.json")]) == 0
    assert len(calls) == 2 and calls[0] is not calls[1]
    assert len(seen) == 2 and seen[0] is seen[1]


def test_compare_fits_each_path_family_once(tmp_path, monkeypatch):
    # The gate and the solve share one mode system, which builds each of its
    # two path families (Phi_n with Phi_n', F_n with F_n') once for all 16
    # modes, as Hermite paths: no cubic spline is fitted at all.
    from scipy.interpolate import CubicSpline

    from delayheat import heat_delay

    splines, families = [], []
    init = CubicSpline.__init__
    monkeypatch.setattr(CubicSpline, "__init__",
                        lambda self, *args, **kw: splines.append(args)
                        or init(self, *args, **kw))
    family = heat_delay.HermitePaths
    monkeypatch.setattr(heat_delay, "HermitePaths",
                        lambda *args: families.append(args) or family(*args))
    cfg = _delay_config(tmp_path,
                        solver={"modes": 16, "nx": 20, "nt_per_tau": 8})
    code = main(["compare", "--config", cfg,
                 "--out-report", str(tmp_path / "cmp.json")])
    assert code == 0
    assert len(families) == 2
    assert all(len(values) == 16 for _, values, _ in families)
    assert splines == []


def test_compare_outputs_are_deterministic(tmp_path):
    cfg = _delay_config(tmp_path)
    paths = {}
    for tag in ("one", "two"):
        field = tmp_path / f"{tag}.csv"
        report = tmp_path / f"{tag}.json"
        code = main(["compare", "--config", cfg,
                     "--out-field", str(field), "--out-report", str(report)])
        assert code == 0
        paths[tag] = (field.read_bytes(), report.read_bytes())
    assert paths["one"][0] == paths["two"][0]
    # Reports name the output path the user chose; neutralize just that.
    r1 = paths["one"][1].replace(b"one.csv", b"X.csv")
    r2 = paths["two"][1].replace(b"two.csv", b"X.csv")
    assert r1 == r2


def test_sweep_produces_rows_and_flag(tmp_path, capsys):
    cfg = _delay_config(tmp_path)
    report_path = tmp_path / "sweep.json"
    code = main(["sweep", "--config", cfg, "--modes", "2,4,8",
                 "--out-report", str(report_path)])
    assert code == 0
    payload = json.loads(report_path.read_text())
    rows = payload["rows"]
    assert [row["modes"] for row in rows] == [2, 4, 8]
    for row in rows:
        assert set(row) == {"modes", "sup_diff", "l2_diff", "wall_time_s"}
        assert row["wall_time_s"] >= 0.0
    assert payload["non_increasing_within_band"] is True
    out = capsys.readouterr().out
    assert "sup_diff" in out and "non-increasing" in out


def test_sweep_rejects_bad_mode_list(tmp_path):
    cfg = _delay_config(tmp_path)
    assert main(["sweep", "--config", cfg, "--modes", "8,zero"]) == 1
    assert main(["sweep", "--config", cfg, "--modes", "0,4"]) == 1


def test_sweep_judges_its_mode_list_before_the_gate(tmp_path, monkeypatch,
                                                    capsys):
    def gate(*args, **kwargs):
        raise AssertionError("the compat gate ran")

    monkeypatch.setattr("delayheat.cli.check_problem", gate)
    cfg = _delay_config(tmp_path)
    assert main(["sweep", "--config", cfg, "--modes", "0,4"]) == 1
    assert "n_modes must be at least 1, got 0" in capsys.readouterr().err
    assert main(["sweep", "--config", cfg, "--modes", "8,zero"]) == 1


# ---------------------------------------------------------------------------
# dde solve
# ---------------------------------------------------------------------------


def test_dde_solve_matches_closed_form(tmp_path):
    out = tmp_path / "traj.csv"
    code = main(["dde", "solve", "--rate", "0", "--lagged-rate", "1",
                 "--delay", "1", "--horizon", "1.5", "--samples", "4",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,value"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    # x' = x(t-1) with history 1: x(t) = 1 + t on [0, 1], then
    # x(t) = 1 + t + (t-1)^2/2; x(1.5) = 2.625.
    assert values[0] == pytest.approx(1.0)
    assert values[1] == pytest.approx(1.5)
    assert values[3] == pytest.approx(2.625, abs=1e-12)


def test_dde_solve_with_forcing(tmp_path, capsys):
    # x' = 1 from a zero history: x(t) = t exactly.
    code = main(["dde", "solve", "--rate", "0", "--lagged-rate", "0",
                 "--delay", "1", "--horizon", "1.0", "--samples", "5",
                 "--history", "0", "--forcing", "1"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    values = [float(line.split(",")[1]) for line in lines[1:6]]
    np.testing.assert_allclose(values, np.linspace(0.0, 1.0, 5), atol=1e-10)


def test_dde_solve_history_slope_matches_exact_steps(capsys):
    # History 1 + t has beta' = 1, which dde solve reads off the history's
    # jet; the exact method of steps takes it from the polynomial.
    code = main(["dde", "solve", "--rate", "-1", "--lagged-rate", "-0.5",
                 "--delay", "0.5", "--horizon", "2", "--history", "1 + t",
                 "--forcing", "t"])
    assert code == 0
    rows = np.array([[float(v) for v in line.split(",")]
                     for line in capsys.readouterr().out.splitlines()[1:]])
    exact = dde_steps_exact(-1.0, -0.5, 0.5, (1, 1), rows[:, 0], rho_poly=(0, 1))
    np.testing.assert_allclose(rows[:, 1], exact, rtol=0, atol=1e-12)


def test_dde_solve_over_many_delays_matches_stepping_oracle(capsys):
    # x' = 2 x - 3 x(t - 0.3) over up to 33 delays exits 0 at every horizon,
    # as close to the scipy method of steps as that reference is sharp.
    rows = []
    for horizon in ("5", "6", "10"):
        code = main(["dde", "solve", "--rate", "2", "--lagged-rate", "-3",
                     "--delay", "0.3", "--history", "exp(t)",
                     "--horizon", horizon])
        assert code == 0
        rows += [[float(v) for v in line.split(",")]
                 for line in capsys.readouterr().out.splitlines()[1:]]
    rows = np.array(rows)
    ref = dde_steps(2.0, -3.0, 0.3, math.exp, rows[:, 0])
    np.testing.assert_allclose(rows[:, 1], ref, rtol=0, atol=1e-11)


def test_dde_solve_validation():
    assert main(["dde", "solve", "--rate", "0", "--lagged-rate", "1",
                 "--delay", "-1", "--horizon", "1"]) == 1
    assert main(["dde", "solve", "--rate", "0", "--lagged-rate", "1",
                 "--delay", "1", "--horizon", "1", "--samples", "1"]) == 1


@pytest.mark.parametrize("flags", [["--history", "x"],
                                   ["--history", "1 + t*sin(x)"],
                                   ["--forcing", "x*t"]])
def test_dde_solve_refuses_data_in_x(flags, tmp_path, capsys):
    # A scalar delay ODE has no x: an x read as 0 would write a quietly
    # wrong trajectory and exit 0.
    out = tmp_path / "traj.csv"
    assert main(["dde", "solve", "--rate", "-1", "--lagged-rate", "0.5",
                 "--delay", "1", "--horizon", "2", "--out", str(out),
                 *flags]) == 1
    assert capsys.readouterr().err == (
        f"error: {flags[0]} must be a function of t alone, got {flags[1]!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--horizon", "--delay"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_dde_solve_refuses_a_non_finite_horizon_or_delay(flag, value, capsys):
    args = {"--rate": "-1", "--lagged-rate": "0.5", "--delay": "1",
            "--horizon": "2", flag: value}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["dde", "solve",
                     *(v for item in args.items() for v in item)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {flag} must be positive and finite\n"
    assert captured.out == ""


@pytest.mark.parametrize("flag", ["--rate", "--lagged-rate"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_dde_solve_refuses_a_non_finite_rate(flag, value, capsys):
    args = {"--rate": "-1", "--lagged-rate": "0.5", "--delay": "1",
            "--horizon": "2", flag: value}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["dde", "solve",
                     *(v for item in args.items() for v in item)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {flag} must be finite\n"
    assert captured.out == ""


# ---------------------------------------------------------------------------
# Usage and configuration errors
# ---------------------------------------------------------------------------


def test_missing_config_file_exits_1(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path / "nope.json")]) == 1
    assert "error" in capsys.readouterr().err


def test_invalid_json_exits_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["solve", "--config", str(bad)]) == 1


def test_unknown_flag_exits_1(tmp_path):
    cfg = _delay_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--config", cfg, "--frobnicate"])
    assert exc.value.code == 1


def test_missing_subcommand_exits_1():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_unwritable_output_directory_exits_1(tmp_path, capsys):
    cfg = _delay_config(tmp_path)
    code = main(["solve", "--config", cfg,
                 "--out-report", str(tmp_path / "no" / "dir" / "r.json")])
    assert code == 1
    assert "output directory does not exist" in capsys.readouterr().err


def test_bad_flag_values_exit_1(tmp_path):
    cfg = _delay_config(tmp_path)
    assert main(["solve", "--config", cfg, "--modes", "0"]) == 1
    assert main(["solve", "--config", cfg, "--nx", "1"]) == 1
    assert main(["solve", "--config", cfg, "--nt-per-tau", "0"]) == 1


def test_zero_time_steps_in_the_config_exit_1_at_check(tmp_path, capsys):
    # The config is judged by the grid's own rules at load, before the
    # gate, as the flags are.
    out = str(tmp_path / "r.json")
    for name, key in (("pure_diffusion", "nt"),
                      ("delay_single_mode", "nt_per_tau")):
        data = json.loads((CONFIGS / f"{name}.json").read_text())
        data.pop("outputs", None)
        data["solver"][key] = 0
        cfg = _write(tmp_path, "run.json", data)
        assert main(["check", "--config", cfg, "--out-report", out]) == 1
        assert (f"error: invalid solver settings: {key} must be at least 1, "
                "got 0") in capsys.readouterr().err
        flag = "--" + key.replace("_", "-")
        cfg = str(CONFIGS / f"{name}.json")
        assert main(["check", "--config", cfg, flag, "0", "--out-report",
                     out]) == 1
        assert f"{key} must be at least 1, got 0" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_grid_setting_of_the_other_problem_kind_exits_1(tmp_path, capsys):
    # A delay grid is set per delay, a no-delay grid over [0, T]; the
    # other kind's flag must not be dropped silently (the config keys are
    # checked in test_config).
    out = str(tmp_path / "r.json")
    for name, flag, other in (("delay_single_mode", "--nt", "delay"),
                              ("pure_diffusion", "--nt-per-tau", "nodelay")):
        cfg = str(CONFIGS / f"{name}.json")
        assert main(["solve", "--config", cfg, flag, "3", "--out-report", out]) == 1
        assert f"error: {flag} does not apply to {other} problems" in (
            capsys.readouterr().err)
    assert not os.path.exists(out)


def test_bad_quadrature_setting_exits_1(tmp_path, capsys):
    data = json.loads((CONFIGS / "pure_diffusion.json").read_text())
    data.pop("outputs", None)
    out = str(tmp_path / "r.json")
    for key, value in (("nodes_per_panel", "16"), ("nodes_per_panel", 2.5),
                       ("max_panel_splits", 1.5), ("abs_tol", "1e-10"),
                       ("abs_tol", True)):
        data["solver"]["quadrature"] = {key: value}
        cfg = _write(tmp_path, "run.json", data)
        assert main(["check", "--config", cfg, "--out-report", out]) == 1
        err = capsys.readouterr().err
        assert f"error: {key!r}" in err
        assert "Traceback" not in err
        assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["check", "solve"])
def test_a_number_past_float_range_in_the_data_exits_1(command, tmp_path, capsys):
    # Python reads 1e400 as inf: the parser refuses it and names the slot,
    # as an infinite JSON number is refused, rather than a numeric failure
    # when the data are first evaluated.
    data = json.loads((CONFIGS / "pure_diffusion.json").read_text())
    data.pop("outputs", None)
    data["problem"]["source"] = "1e400*x*(pi - x)"
    cfg = _write(tmp_path, "run.json", data)
    out = str(tmp_path / "r.json")
    assert main([command, "--config", cfg, "--out-report", out]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: problem.source: number out of float range "
                            "(at offset 0)\n")
    assert captured.out == ""
    assert not os.path.exists(out)


def test_infinite_and_nan_gate_settings_exit_1(tmp_path, capsys):
    # Python's json reads the Infinity and NaN literals; a gate set with one
    # would pass everything (a trace mismatch of 1.0 against tol Infinity).
    data = json.loads((CONFIGS / "delay_single_mode.json").read_text())
    data.pop("outputs", None)
    data["problem"]["trace_left"] = 1
    out = str(tmp_path / "r.json")
    for section, key, literal in (("check", "tol", "Infinity"),
                                  ("check", "delta", "NaN"),
                                  ("check", "fit_slack", "-Infinity"),
                                  ("check", "m", "-3")):
        body = json.dumps({**data, section: {key: "@"}}).replace('"@"', literal)
        cfg = tmp_path / "run.json"
        cfg.write_text(body)
        assert literal in cfg.read_text()
        assert main(["check", "--config", str(cfg), "--out-report", out]) == 1
        err = capsys.readouterr().err
        assert f"error: invalid check settings: check {key} must" in err
        assert "Traceback" not in err
        assert not os.path.exists(out)
    # The quadrature tolerance, also from a fresh interpreter.
    solver = dict(data["solver"], quadrature={"abs_tol": "@"})
    cfg.write_text(json.dumps({**data, "solver": solver})
                   .replace('"@"', "Infinity"))
    assert main(["compare", "--config", str(cfg), "--out-report", out]) == 1
    assert "abs_tol must be finite" in capsys.readouterr().err
    repo = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(repo / "src"), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, "-m", "delayheat", "compare", "--config", str(cfg),
         "--out-report", out], env=env, capture_output=True, text=True)
    assert proc.returncode == 1
    assert "error: invalid solver.quadrature settings: abs_tol must be finite" in (
        proc.stderr)
    assert not os.path.exists(out)


_XS = [0.0, 0.8, 1.6, 2.4, 3.141592653589793]
_TS = [0.0, 0.5, 1.0, 1.5]


@pytest.mark.parametrize("table", [
    {"x": [math.nan, *_XS[1:]], "t": _TS, "values": [[0.0] * 4] * 5},
    {"x": ["a", "b", "c", "d", "e"], "t": _TS, "values": [[0.0] * 4] * 5},
    {"x": _XS, "t": _TS, "values": [[0.0] * 4] * 4 + [[0.0] * 3]},
    {"x": _XS, "t": [*_TS[:3], math.inf], "values": [[0.0] * 4] * 5},
], ids=["nan_in_x", "text_points", "ragged_values", "inf_in_t"])
def test_a_malformed_table_exits_1(table, tmp_path, capsys):
    # The table's axes and values are read by one rule when the config
    # loads: a bad entry names the slot, with no traceback from scipy and
    # no numeric failure once the table is evaluated.
    data = json.loads((CONFIGS / "delay_single_mode.json").read_text())
    data["problem"]["source"] = {"table": "2d", **table}
    cfg = _write(tmp_path, "run.json", data)
    out = str(tmp_path / "r.json")
    assert main(["check", "--config", cfg, "--out-report", out]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: problem.source: ")
    assert "Traceback" not in captured.err and captured.out == ""
    assert not os.path.exists(out)


def test_every_int_solver_setting_has_a_flag(tmp_path):
    # The flags override the solver settings by the class's own fields.
    from typing import get_type_hints

    from delayheat import ConfigError
    from delayheat.cli import _load, build_parser
    from delayheat.config import SolverSettings

    types = get_type_hints(SolverSettings)
    names = [name for name, kind in types.items() if kind is int]
    assert "modes" in names
    for name in names:
        applied = []
        for config in ("pure_diffusion", "delay_single_mode"):
            args = build_parser().parse_args(
                ["solve", "--config", str(CONFIGS / f"{config}.json"),
                 "--" + name.replace("_", "-"), "5"])
            try:
                applied.append(getattr(_load(args).solver, name))
            except ConfigError:  # the other problem kind's time grid
                pass
        assert 5 in applied, name


def test_nodelay_run_reduces_its_problem_once(tmp_path, monkeypatch):
    # The compat checks and the solve share one reduction of the problem.
    from delayheat.heat_delay import ReducedProblem

    built, init = [], ReducedProblem.__init__
    monkeypatch.setattr(ReducedProblem, "__init__",
                        lambda self, *a, **kw: built.append(1)
                        or init(self, *a, **kw))
    cfg = _nodelay_config(tmp_path, g="x*(1-x)*cos(t)")
    out = str(tmp_path / "r.json")
    assert main(["solve", "--config", cfg, "--out-report", out,
                 "--out-field", str(tmp_path / "f.csv")]) == 0
    assert len(built) == 1
    built.clear()
    assert main(["check", "--config", cfg, "--out-report", out]) == 0
    assert len(built) == 1


def test_path_samples_key_is_rejected_as_unknown(tmp_path, capsys):
    # The sample counts are fixed; the removed key must not reach the solver.
    for value in (0, 1, 257):
        cfg = _delay_config(tmp_path, solver={"modes": 8, "nx": 20,
                                              "nt_per_tau": 8,
                                              "path_samples": value})
        assert main(["solve", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "unknown key(s) ['path_samples'] in solver" in err
        assert "Traceback" not in err


def test_nodelay_forcing_needs_one_t_derivative(tmp_path, capsys):
    # The forcing paths are Hermite interpolants of F and dF/dt; a trace
    # tabulated linearly in t has no second t-derivative, so its F has no
    # slope.  The gate passes, the solve refuses with exit 1.
    data = json.loads(Path(_nodelay_config(tmp_path)).read_text())
    data["problem"]["trace_left"] = {
        "table": "1d", "var": "t", "points": [0.0, 0.25, 0.5],
        "values": [0.0, 0.1, 0.15], "interp": "linear"}
    cfg = _write(tmp_path, "linear_trace.json", data)
    assert main(["check", "--config", cfg,
                 "--out-report", str(tmp_path / "r.json")]) == 0
    for command in ("solve", "compare"):
        assert main([command, "--config", cfg,
                     "--out-report", str(tmp_path / "r.json")]) == 1
        err = capsys.readouterr().err
        assert "error: Sampled1DFunction (linear) supports d/dt only up to order 1" in err


_IMPORT_GUARD = """
import contextlib, io, json, sys
from delayheat.cli import main

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(list(argv))

def scipy_modules():
    return sorted(name for name in sys.modules if name.startswith("scipy"))

configs, out = sys.argv[1], sys.argv[2]
codes = []
for name in ("delay_single_mode", "pure_diffusion"):
    cfg = f"{configs}/{name}.json"
    codes.append(run("check", "--config", cfg, "--out-report", f"{out}/c.json"))
    codes.append(run("solve", "--config", cfg, "--out-report", f"{out}/s.json",
                     "--out-field", f"{out}/s.csv"))
solve_scipy = scipy_modules()
codes.append(run("compare", "--config", f"{configs}/pure_diffusion.json",
                 "--out-report", f"{out}/m.json"))
from delayheat import fd_solve_delay
print(json.dumps({"codes": codes, "solve_scipy": solve_scipy,
                  "compare_scipy": scipy_modules(), "fd": fd_solve_delay.__name__}))
"""


def test_check_and_solve_import_no_scipy(tmp_path):
    # scipy serves only tabulated data; a fresh interpreter that runs check,
    # solve and compare on expression data must not load any of it.
    repo = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(repo / "src"), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_GUARD, str(repo / "configs"),
         str(tmp_path)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0, 0, 0, 0, 0]
    assert result["solve_scipy"] == []
    # compare runs the oracle, which solves its steps without scipy.
    assert result["compare_scipy"] == []
    assert "oracle_meta" in json.loads((tmp_path / "m.json").read_text())
    assert result["fd"] == "fd_solve_delay"


def test_relative_config_outputs_land_beside_the_config(tmp_path, monkeypatch):
    # Run from another directory: the config's relative report path resolves
    # against the config's directory, a relative flag against the working one.
    config_dir, work_dir = tmp_path / "configs", tmp_path / "work"
    config_dir.mkdir()
    work_dir.mkdir()
    cfg = _delay_config(config_dir, outputs={"report_json": "report.json"})
    monkeypatch.chdir(work_dir)
    assert main(["check", "--config", cfg]) == 0
    assert (config_dir / "report.json").exists()
    assert not (work_dir / "report.json").exists()
    assert main(["check", "--config", cfg, "--out-report", "flag.json"]) == 0
    assert (work_dir / "flag.json").exists()


def test_series_and_oracle_fields_share_the_grid_on_every_config():
    from delayheat.cli import _fd_field, _solve_field
    from delayheat.config import load_config

    for path in run_configs():
        cfg = load_config(path)
        series, oracle = _solve_field(cfg, modes=2), _fd_field(cfg)
        assert np.array_equal(series.x, oracle.x), path.name
        assert np.array_equal(series.t, oracle.t), path.name


_TRACE_TWINS = [
    ("pure_diffusion.json", {"trace_left": "x*(l - x)"}, {"trace_left": "0"}),
    ("pure_diffusion.json", {"trace_right": "x - l"}, {"trace_right": "0"}),
    ("nodelay_manufactured.json", {"trace_right": "x*(x - l)*t"},
     {"trace_right": "0"}),
    ("delay_single_mode.json", {"trace_left": "x*(l - x)"}, {"trace_left": "0"}),
    ("delay_single_mode.json",
     {"initial": "sin(x) + t*(1 - x/l)", "trace_left": "t + x*(l - x)"},
     {"initial": "sin(x) + t*(1 - x/l)", "trace_left": "t"}),
]


@pytest.mark.parametrize("name, traces, twin", _TRACE_TWINS)
def test_traces_are_read_at_their_own_boundary(tmp_path, name, traces, twin):
    # theta1 is read at x = 0 and theta2 at x = l, whatever x its expression
    # mentions, by the series solvers and the oracle alike: the config gives
    # the field and the compare difference of its x-free twin.
    from delayheat.cli import _solve_field
    from delayheat.config import load_config

    fields, sups = [], []
    for tag, changes in (("x", traces), ("twin", twin)):
        data = json.loads((CONFIGS / name).read_text())
        data.pop("outputs", None)
        data["problem"].update(changes)
        cfg = _write(tmp_path, f"{tag}.json", data)
        report = tmp_path / f"{tag}_report.json"
        assert main(["compare", "--config", cfg, "--out-report", str(report),
                     "--override-advisory"]) == 0
        sups.append(json.loads(report.read_text())["difference"]["sup"])
        fields.append(_solve_field(load_config(cfg)).v)
    scale = np.max(np.abs(fields[1]))
    assert np.max(np.abs(fields[0] - fields[1])) <= 1e-15 * scale
    assert abs(sups[0] - sups[1]) <= 1e-12


def test_config_outputs_section_is_used(tmp_path):
    report_path = tmp_path / "from_config.json"
    cfg = _delay_config(tmp_path,
                        outputs={"report_json": str(report_path)})
    code = main(["check", "--config", cfg])
    assert code == 0
    assert report_path.exists()
    # An explicit flag wins over the config default.
    flag_path = tmp_path / "from_flag.json"
    code = main(["check", "--config", cfg, "--out-report", str(flag_path)])
    assert code == 0
    assert flag_path.exists()

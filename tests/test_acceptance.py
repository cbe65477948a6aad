"""End-to-end acceptance suite.

One test per acceptance check.  Each test name states the property it
certifies, so the ``pytest -v`` line for each test doubles as its pass/fail
verdict.  Tolerances and runtime budgets are asserted inline.
"""

import itertools
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from dde_steps import dde_steps
from delayheat import (
    DelayHeatProblem,
    DelayOdeParams,
    EigenBasis,
    GridSpec,
    HeatProblem,
    SolutionField,
    build_modes,
    check_decay_conditions,
    decay_fit,
    delay_growth_constant,
    energy_trace,
    fd_solve_delay,
    fd_solve_nodelay,
    gronwall_check,
    kernel,
    nodelay_growth_constant,
    parse_function,
    reduce_delay,
    solve,
    solve_delay,
    solve_at,
)
from delayheat.spectral import project_paths


# ---------------------------------------------------------------------------
# Shared fixture builders
# ---------------------------------------------------------------------------


def _heat_problem(a, b, c, length, horizon, g, psi, theta1="0", theta2="0"):
    return HeatProblem(
        a=a, b=b, c=c, length=length, horizon=horizon,
        g=parse_function(g, l=length),
        psi=parse_function(psi, l=length),
        theta1=parse_function(theta1, l=length),
        theta2=parse_function(theta2, l=length),
    )


def _delay_problem(a1, a2, b1, b2, d1, d2, tau, length, horizon,
                   g="0", psi="sin(x)", theta1="0", theta2="0"):
    consts = {"l": length, "tau": tau}
    return DelayHeatProblem(
        a1=a1, a2=a2, b1=b1, b2=b2, d1=d1, d2=d2,
        tau=tau, length=length, horizon=horizon,
        g=parse_function(g, **consts),
        psi=parse_function(psi, **consts),
        theta1=parse_function(theta1, **consts),
        theta2=parse_function(theta2, **consts),
    )


def _difference_field(field_a, field_b):
    np.testing.assert_allclose(field_a.x, field_b.x, atol=0.0)
    np.testing.assert_allclose(field_a.t, field_b.t, atol=0.0)
    return SolutionField(
        x=field_a.x, t=field_a.t, v=field_a.v - field_b.v,
        source="difference",
    )


def _cli(args, cwd, env_extra=None):
    import os

    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    # The child runs in ``cwd``, so a relative ``src`` entry would not resolve.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src, *filter(None, [env.get("PYTHONPATH")])])
    return subprocess.run(
        [sys.executable, "-m", "delayheat", *args],
        cwd=cwd, env=env, capture_output=True, text=True,
    )


# ---------------------------------------------------------------------------
# 1. Piecewise-polynomial delayed exponential: d/dt x(t) = b x(t - tau)
# ---------------------------------------------------------------------------


def test_delayed_exponential_derivative_matches_lagged_value():
    """Central differences of the closed form reproduce b * x(t - tau) to
    1e-6 relative accuracy at 200 points per (b, tau) pair, in under 1 s."""
    start = time.perf_counter()
    h = 1e-5
    for b, tau in itertools.product((1.0, -1.0, 3.0, -3.0), (0.5, 1.0)):
        params = DelayOdeParams(a=0.0, b=b, tau=tau)
        # Midpoints of a uniform grid on (0, 5 tau): every sample sits at
        # least 0.0125 tau away from the breakpoints at multiples of tau.
        pts = (np.arange(200) + 0.5) * (5.0 * tau / 200.0)
        fd = (kernel(params, pts + h) - kernel(params, pts - h)) / (2.0 * h)
        exact = b * kernel(params, pts - tau)
        rel = np.abs(fd - exact) / np.maximum(1.0, np.abs(exact))
        assert rel.max() <= 1e-6, f"(b={b}, tau={tau}): max rel {rel.max():.3e}"
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# 2. Scalar delay ODE closed form vs an independent stepping integrator
# ---------------------------------------------------------------------------


def test_delay_ode_closed_form_matches_method_of_steps_oracle():
    """x'(t) = a x(t) + b x(t - tau) + rho(t): the kernel-based closed form
    agrees with the interval-by-interval scipy integrator to 1e-7 on
    [0, 4 tau] across a 12-case parameter matrix, in under 10 s."""
    start = time.perf_counter()
    histories = [
        (lambda s: 1.0 + s, lambda s: 1.0),
        (np.cos, lambda s: -np.sin(s)),
    ]
    forcings = [None, np.sin]
    data_cycle = list(itertools.product(histories, forcings))
    cases = list(itertools.product((-1.0, 0.0, 0.5), (-0.8, 0.8), (0.5, 1.0)))
    assert len(cases) == 12
    for i, (a, b, tau) in enumerate(cases):
        (beta, beta_prime), rho = data_cycle[i % len(data_cycle)]
        params = DelayOdeParams(a=a, b=b, tau=tau)
        t = np.linspace(0.0, 4.0 * tau, 81)
        history = lambda s, nu=0: beta_prime(s) if nu else beta(s)
        closed = solve_at(params, history, None, t)
        if rho is not None:
            closed = closed + solve_at(params, None, rho, t)
        oracle = dde_steps(a, b, tau, beta, t, rho=rho)
        err = np.max(np.abs(closed - oracle))
        assert err <= 1e-7, f"(a={a}, b={b}, tau={tau}): max err {err:.3e}"
    assert time.perf_counter() - start < 10.0


# ---------------------------------------------------------------------------
# 3. Pure diffusion, single mode: exact exponential decay
# ---------------------------------------------------------------------------


def test_pure_diffusion_single_mode_matches_exact_decay():
    """a=1, b=c=0, g=0, psi=sin(x) on (0, pi): the one-mode solve equals
    exp(-t) sin(x) to 1e-10 in sup norm, in under 1 s."""
    start = time.perf_counter()
    p = _heat_problem(a=1.0, b=0.0, c=0.0, length=math.pi, horizon=1.0,
                      g="0", psi="sin(x)")
    field = solve(p, EigenBasis(math.pi, 1), GridSpec(nx=200, nt=50))
    exact = np.exp(-field.t)[:, None] * np.sin(field.x)[None, :]
    assert np.max(np.abs(field.v - exact)) <= 1e-10
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# 4. Manufactured solution with drift and reaction + finite-difference
#    cross-check at a fixed grid
# ---------------------------------------------------------------------------


def test_manufactured_drift_reaction_solution_and_fd_cross_check():
    """With a=1, b=0.4, c=0.3 the manufactured field
    exp(-0.2 x + 0.26 t) (1 + t) sin(pi x) is reproduced to 1e-6 at 64
    modes, and the finite-difference solver agrees with the spectral field
    within 5x its own Richardson truncation estimate on a 201 x 401 grid,
    all in under 60 s."""
    start = time.perf_counter()
    p = _heat_problem(
        a=1.0, b=0.4, c=0.3, length=1.0, horizon=0.5,
        g="exp(-0.2*x + 0.26*t) * (1 + pi^2 + pi^2*t) * sin(pi*x)",
        psi="exp(-0.2*x) * sin(pi*x)",
    )
    grid = GridSpec(nx=200, nt=400)
    field = solve(p, EigenBasis(1.0, 64), grid)

    def exact(x, t):
        return (np.exp(-0.2 * x[None, :] + 0.26 * t[:, None])
                * (1.0 + t[:, None]) * np.sin(np.pi * x[None, :]))

    sup_err = np.max(np.abs(field.v - exact(field.x, field.t)))
    assert sup_err <= 1e-6, f"spectral vs manufactured: {sup_err:.3e}"

    # Independent route: Crank-Nicolson on the same 201 x 401 grid, its
    # truncation error estimated by Richardson extrapolation against a
    # doubled grid (second-order scheme: error ~ (4/3) |coarse - fine|).
    fd = fd_solve_nodelay(p, GridSpec(nx=200, nt=400))
    fd_fine = fd_solve_nodelay(p, GridSpec(nx=400, nt=800))
    np.testing.assert_allclose(fd_fine.x[::2], fd.x, atol=1e-14)
    np.testing.assert_allclose(fd_fine.t[::2], fd.t, atol=1e-14)
    trunc_est = (4.0 / 3.0) * np.max(np.abs(fd.v - fd_fine.v[::2, ::2]))
    np.testing.assert_allclose(fd.x, field.x, atol=1e-14)
    np.testing.assert_allclose(fd.t, field.t, atol=1e-14)
    fd_vs_spectral = np.max(np.abs(fd.v - field.v))
    assert fd_vs_spectral <= 5.0 * trunc_est, (
        f"fd vs spectral {fd_vs_spectral:.3e} "
        f"exceeds 5 x truncation estimate {trunc_est:.3e}"
    )
    assert time.perf_counter() - start < 60.0


# ---------------------------------------------------------------------------
# 5. Single-mode delay field: scalar-solver cross-check + FD convergence order
# ---------------------------------------------------------------------------


def test_single_mode_delay_field_matches_scalar_solver_and_fd_order():
    """For psi=sin(x) with lagged reaction only, the field is
    X(t) sin(x) where X solves X' = -X - 0.5 X(t - tau): the spectral field
    matches the scalar closed form to 1e-8 on [0, 3 tau], and the
    finite-difference route converges to the spectral field at order >= 1.8
    under one grid doubling, in under 120 s."""
    start = time.perf_counter()
    tau = 0.5
    p = _delay_problem(a1=1.0, a2=0.0, b1=0.0, b2=0.0, d1=0.0, d2=-0.5,
                       tau=tau, length=math.pi, horizon=3.0 * tau)
    basis = EigenBasis(math.pi, 8)

    field = solve_delay(p, basis, GridSpec(nx=200, nt_per_tau=48))
    pos = field.t >= 0.0
    scalar = solve_at(
        DelayOdeParams(a=-1.0, b=-0.5, tau=tau),
        lambda s, nu=0: 0.0 if nu else 1.0,
        None,
        field.t[pos],
    )
    exact = scalar[:, None] * np.sin(field.x)[None, :]
    err = np.max(np.abs(field.v[pos] - exact))
    assert err <= 1e-8, f"spectral vs scalar delay solve: {err:.3e}"

    # One refinement doubling of the finite-difference grid against the
    # spectral field on the same grid: second-order scheme, so the sup
    # difference must drop at measured order >= 1.8.
    errs = []
    for nx, npt in ((100, 40), (200, 80)):
        spec = solve_delay(p, basis, GridSpec(nx=nx, nt_per_tau=npt))
        fd = fd_solve_delay(p, GridSpec(nx=nx, nt_per_tau=npt))
        np.testing.assert_allclose(fd.x, spec.x, atol=1e-14)
        np.testing.assert_allclose(fd.t, spec.t, atol=1e-14)
        errs.append(np.max(np.abs(fd.v - spec.v)))
    order = math.log2(errs[0] / errs[1])
    assert order >= 1.8, f"measured order {order:.2f} from errors {errs}"
    assert time.perf_counter() - start < 120.0


# ---------------------------------------------------------------------------
# 6. Reproducibility as a uniqueness property
# ---------------------------------------------------------------------------


def test_repeated_and_thread_varied_solves_agree_to_noise():
    """Three independent solves of the same lagged problem differ by at most
    1e-12 in sup norm, and the exponential energy bound on the difference
    field holds with both E(0) and E(t) at noise scale.  The solvers run in
    one thread, so the third solve is a plain rerun."""
    p = _delay_problem(a1=1.0, a2=0.3, b1=0.3, b2=0.027, d1=0.2, d2=-0.5,
                       tau=0.5, length=math.pi, horizon=1.5)
    basis = EigenBasis(math.pi, 16)
    grid = GridSpec(nx=120, nt_per_tau=32)

    first = solve_delay(p, basis, grid)
    again = solve_delay(p, basis, grid)
    third = solve_delay(p, basis, grid)

    assert np.max(np.abs(first.v - again.v)) <= 1e-12
    assert np.max(np.abs(first.v - third.v)) <= 1e-12

    diff = _difference_field(first, third)
    c_theory, _, omega = delay_growth_constant(p)
    report = energy_trace(diff, tau=p.tau, omega=omega)
    assert report.values.max(initial=0.0) <= 1e-24  # noise scale
    result = gronwall_check(report, c_theory, solver_tol=1e-15)
    assert result.passed


# ---------------------------------------------------------------------------
# 7. Exponential energy growth bound on difference fields
# ---------------------------------------------------------------------------


def test_energy_growth_bound_holds_on_difference_fields():
    """E(t) <= exp(C t) (E(0) + slack) at every grid time, with C from
    2 (c + |b| / (2 eps)) in the no-lag case and
    2 d1 + |b2| + |d2| + |b1| / eps in the lagged case, checked on
    same-data pairs (noise-scale energies) and on perturbed-initial-data
    pairs, including one genuinely growing field."""
    # --- no lag, decaying: perturbed initial data -------------------------
    base = dict(a=1.0, b=0.4, c=0.3, length=1.0, horizon=1.0, g="0")
    grid = GridSpec(nx=200, nt=100)
    basis = EigenBasis(1.0, 16)
    p1 = _heat_problem(psi="sin(pi*x)", **base)
    p1b = _heat_problem(psi="sin(pi*x) + 0.001*sin(2*pi*x)", **base)
    v1 = solve(p1, basis, grid)
    v1b = solve(p1b, basis, grid)
    c_theory, _ = nodelay_growth_constant(p1)
    report = energy_trace(_difference_field(v1, v1b))
    assert report.values[0] > 0.0
    assert gronwall_check(report, c_theory).passed

    # --- no lag, growing: reaction strong enough to overcome diffusion ----
    # c = 11 > pi^2, so the lowest mode grows; perturb along that mode.
    grow = dict(a=1.0, b=0.4, c=11.0, length=1.0, horizon=1.0, g="0")
    p2 = _heat_problem(psi="sin(pi*x)", **grow)
    p2b = _heat_problem(psi="1.001*sin(pi*x)", **grow)
    report = energy_trace(_difference_field(solve(p2, basis, grid),
                                            solve(p2b, basis, grid)))
    assert report.values[-1] > 2.0 * report.values[0]  # the field does grow
    c_theory, _ = nodelay_growth_constant(p2)
    assert gronwall_check(report, c_theory).passed

    # --- no lag, same data: difference at noise scale ----------------------
    report = energy_trace(_difference_field(v1, solve(p1, basis, grid)))
    assert report.values.max(initial=0.0) <= 1e-24
    assert gronwall_check(report, c_theory, solver_tol=1e-15).passed

    # --- lagged case: perturbed history and same-data pairs ----------------
    dbase = dict(a1=1.0, a2=0.3, b1=0.3, b2=0.027, d1=0.2, d2=-0.5,
                 tau=0.5, length=math.pi, horizon=1.5)
    dgrid = GridSpec(nx=200, nt_per_tau=32)
    dbasis = EigenBasis(math.pi, 16)
    q1 = _delay_problem(psi="sin(x)", **dbase)
    q1b = _delay_problem(psi="sin(x) + 0.001*sin(2*x)", **dbase)
    w1 = solve_delay(q1, dbasis, dgrid)
    w1b = solve_delay(q1b, dbasis, dgrid)
    c_theory, _, omega = delay_growth_constant(q1)
    report = energy_trace(_difference_field(w1, w1b), tau=q1.tau, omega=omega)
    assert report.values[0] > 0.0
    assert gronwall_check(report, c_theory).passed

    report = energy_trace(_difference_field(w1, solve_delay(q1, dbasis, dgrid)),
                          tau=q1.tau, omega=omega)
    assert report.values.max(initial=0.0) <= 1e-24
    assert gronwall_check(report, c_theory, solver_tol=1e-15).passed


# ---------------------------------------------------------------------------
# 8. Coefficient decay of the parabola fixture + decay-condition verdicts
# ---------------------------------------------------------------------------


def test_parabola_coefficient_decay_and_condition_verdicts():
    """x (1 - x) has sine coefficients 8 / (pi^3 n^3) for odd n (within
    1e-10 up to n = 63), the fitted decay rate is 3.0 +/- 0.1, and the
    advisory decay conditions reject this profile at single-interval
    thresholds while accepting a single-mode trigonometric profile."""
    basis = EigenBasis(1.0, 63)
    (coeffs,) = project_paths(parse_function("x*(1 - x)"), np.zeros(1), basis,
                              kt=0)
    coeffs = coeffs[:, 0]
    n = basis.mode_numbers
    expected = np.where(n % 2 == 1, 8.0 / (np.pi**3 * n.astype(float) ** 3), 0.0)
    np.testing.assert_allclose(coeffs, expected, atol=1e-10)

    fit = decay_fit(coeffs)
    assert fit.slope == pytest.approx(3.0, abs=0.1)

    parabola = _delay_problem(a1=1.0, a2=0.0, b1=0.0, b2=0.0, d1=0.0,
                              d2=-0.5, tau=1.0, length=1.0, horizon=1.0,
                              psi="x*(1-x)")
    entries = check_decay_conditions(
        build_modes(reduce_delay(parabola), EigenBasis(1.0, 48)), m=1)
    assert entries[0]["name"] == "history_endpoint_decay"
    assert entries[0]["status"] == "fail"

    trig = _delay_problem(a1=1.0, a2=0.0, b1=0.0, b2=0.0, d1=0.0,
                          d2=-0.5, tau=1.0, length=math.pi, horizon=1.0,
                          psi="sin(x)")
    entries = check_decay_conditions(
        build_modes(reduce_delay(trig), EigenBasis(math.pi, 48)), m=1)
    assert all(entry["status"] == "pass" for entry in entries)


# ---------------------------------------------------------------------------
# 9. Byte-for-byte determinism of the compare command
# ---------------------------------------------------------------------------


def test_compare_outputs_are_byte_identical_across_runs(tmp_path, monkeypatch):
    """Running `compare` twice on the same config, in fresh processes,
    produces byte-identical CSV and JSON artifacts; so does a run in a
    process whose tables a stiffer compare filled first."""
    config = {
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
        "solver": {"modes": 8, "nx": 40, "nt_per_tau": 8},
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))

    artifacts = []
    for run in ("one", "two"):
        rundir = tmp_path / run
        rundir.mkdir()
        proc = _cli(
            ["compare", "--config", str(cfg_path),
             "--out-field", "field.csv", "--out-report", "report.json"],
            cwd=rundir,
        )
        assert proc.returncode == 0, proc.stderr
        artifacts.append(((rundir / "field.csv").read_bytes(),
                          (rundir / "report.json").read_bytes()))
    assert artifacts[0][0] == artifacts[1][0], "field CSV differs between runs"
    assert artifacts[0][1] == artifacts[1][1], "JSON report differs between runs"

    # In this process, after a compare with stiffer modes, which fills the
    # modal engine's weights table first.
    from delayheat import quadrature
    from delayheat.cli import main

    stiff = dict(config, solver={"modes": 24, "nx": 40, "nt_per_tau": 4})
    stiff["problem"] = dict(config["problem"], diffusion=3.0)
    stiff_path = tmp_path / "stiff.json"
    stiff_path.write_text(json.dumps(stiff))
    rundir = tmp_path / "warm"
    rundir.mkdir()
    monkeypatch.chdir(rundir)
    quadrature._graded_group.cache_clear()
    assert main(["compare", "--override-advisory", "--config", str(stiff_path),
                 "--out-report", "stiff.json"]) == 0
    built = quadrature._graded_group.cache_info()
    assert main(["compare", "--config", str(cfg_path),
                 "--out-field", "field.csv", "--out-report", "report.json"]) == 0
    # Every group this run asked for was built by the stiff run.
    table = quadrature._graded_group.cache_info()
    assert table.misses == built.misses and table.hits > built.hits
    assert (rundir / "field.csv").read_bytes() == artifacts[0][0]
    assert (rundir / "report.json").read_bytes() == artifacts[0][1]


# ---------------------------------------------------------------------------
# 10. Mode sweep on a smooth compliant fixture: non-increasing error
# ---------------------------------------------------------------------------


def test_mode_sweep_error_non_increasing_on_smooth_fixture(tmp_path):
    """On a smooth admissible profile whose mode coefficients are 0.5^(n-1),
    the sup difference between the spectral and finite-difference solutions
    is non-increasing (within a 10% band) across 8, 16, 32, 64 modes: it
    drops while spectral truncation dominates, then sits pinned at the
    fixed finite-difference floor, which is finer than the truncation error
    of the coarse mode counts."""
    kappa = 0.5
    denom = f"({1.0 + kappa**2} - {2.0 * kappa}*cos(x))"
    config = {
        "problem": {
            "kind": "delay",
            "diffusion": 1.0,
            "reaction_lag": -0.4,
            "delay": 0.5,
            "length": math.pi,
            "horizon": 1.0,
            "source": "0",
            "initial": f"sin(x)/{denom}",
            "trace_left": 0,
            "trace_right": 0,
        },
        # 128 modes for the admissibility window (the weighted coefficient
        # sequences peak near n = 14 and need a long tail to certify decay);
        # the sweep itself overrides the solve-time mode counts.
        "solver": {"modes": 128, "nx": 600, "nt_per_tau": 128},
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    report_path = tmp_path / "sweep_report.json"

    proc = _cli(
        ["sweep", "--config", str(cfg_path), "--modes", "8,16,32,64",
         "--out-report", str(report_path)],
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(report_path.read_text())
    assert payload["non_increasing_within_band"] is True
    rows = payload["rows"]
    assert [row["modes"] for row in rows] == [8, 16, 32, 64]
    sups = [row["sup_diff"] for row in rows]
    for lo, hi in zip(sups[1:], sups[:-1]):
        assert lo <= 1.1 * hi, f"sup differences increased: {sups}"
    # Genuine spectral convergence before the plateau: the floor sits well
    # below the coarsest truncation error.
    assert sups[-1] <= sups[0] / 20.0


def test_readme_library_tour_runs(capsys):
    # The README's Python example runs as written and prints the sup
    # difference of the series field from the oracle.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = readme.index("```python\n", readme.index("## Library tour")) + 10
    block = readme[start:readme.index("```", start)]
    exec(compile(block, "README.md", "exec"), {})
    sup = float(capsys.readouterr().out)
    assert 0.0 < sup < 1e-3

"""Tests for the drift-reaction heat solver (no delay).

Fixtures are built around closed-form solutions: a pure decaying sine mode,
a band-limited manufactured solution with drift and reaction, and
superposition/boundary identities that hold for the exact solver.
"""

import math
import tracemalloc

import numpy as np
import pytest

from delayheat import (
    DelayHeatProblem,
    EigenBasis,
    GridSpec,
    HeatProblem,
    InputError,
    QuadratureConfig,
    fd_solve_nodelay,
    fs_sum,
    parse_function,
    reduce_delay,
    reduce_problem,
    solve,
)


def _problem(a=1.0, b=0.0, c=0.0, length=math.pi, horizon=1.0,
             g="0", psi="sin(x)", theta1="0", theta2="0"):
    return HeatProblem(
        a=a, b=b, c=c, length=length, horizon=horizon,
        g=parse_function(g, l=length),
        psi=parse_function(psi, l=length),
        theta1=parse_function(theta1, l=length),
        theta2=parse_function(theta2, l=length),
    )


# ---------------------------------------------------------------------------
# Closed-form fixtures
# ---------------------------------------------------------------------------


def test_single_mode_free_decay():
    # v_t = v_xx on (0, pi) with v(x, 0) = sin x decays as e^{-t} sin x.
    p = _problem()
    field = solve(p, EigenBasis(p.length, 1), grid=GridSpec(nx=50, nt=20))
    expected = np.exp(-field.t)[:, None] * np.sin(field.x)[None, :]
    assert np.max(np.abs(field.v - expected)) < 1e-10


def test_two_mode_free_decay():
    p = _problem(psi="sin(x) - 0.25*sin(3*x)")
    field = solve(p, EigenBasis(p.length, 8), grid=GridSpec(nx=60, nt=10))
    expected = (
        np.exp(-field.t)[:, None] * np.sin(field.x)[None, :]
        - 0.25 * np.exp(-9.0 * field.t)[:, None] * np.sin(3.0 * field.x)[None, :]
    )
    assert np.max(np.abs(field.v - expected)) < 1e-10


def test_manufactured_solution_with_drift_and_reaction():
    # Target v(x, t) = exp(mu x + gamma t) (1 + t) sin(pi x) with a = 1,
    # b = 0.4, c = 0.3 (so mu = -0.2, gamma = 0.26).  The matching source is
    # band-limited in the reduced frame, so a small basis is exact.
    mu, gamma = -0.2, 0.26
    p = _problem(
        a=1.0, b=0.4, c=0.3, length=1.0, horizon=0.8,
        g="exp(-0.2*x + 0.26*t) * (1 + pi^2 + pi^2*t) * sin(pi*x)",
        psi="exp(-0.2*x) * sin(pi*x)",
    )
    field = solve(p, EigenBasis(p.length, 6), grid=GridSpec(nx=40, nt=16))
    expected = (
        np.exp(mu * field.x)[None, :]
        * np.exp(gamma * field.t)[:, None]
        * (1.0 + field.t)[:, None]
        * np.sin(np.pi * field.x)[None, :]
    )
    assert np.max(np.abs(field.v - expected)) < 1e-8


def test_reduction_constants_and_frames():
    p = _problem(a=2.0, b=1.0, c=0.5, length=1.0)
    rp = reduce_problem(p)
    assert rp.mu == pytest.approx(-1.0 / 8.0)
    assert rp.gamma == pytest.approx(0.5 - (1.0 / 4.0) ** 2)
    # The returned field carries both frames, tied by v = e^{mu x + gamma t} u.
    field = solve(p, EigenBasis(p.length, 4), grid=GridSpec(nx=10, nt=4))
    frame = np.exp(rp.mu * field.x)[None, :] * np.exp(rp.gamma * field.t)[:, None]
    np.testing.assert_allclose(field.v, frame * field.u, atol=1e-13)


def test_reduction_is_shared_until_a_field_is_reassigned():
    p = _problem(b=0.4, c=0.3, theta1="0.1*t", theta2="0.2*t")
    rp = reduce_problem(p)
    assert reduce_problem(p) is rp
    p.c = -0.5
    fresh = reduce_problem(p)
    assert fresh is not rp
    assert fresh.gamma == pytest.approx(-0.5 - 0.2**2)
    assert reduce_problem(p) is fresh


def test_lift_matches_the_delay_reduction_when_gamma_is_zero():
    # Both reductions build the lift, and Phi = phi - lift, with one change
    # of variables; with gamma = 0 and no lagged terms the two lifts agree
    # bit for bit, and so do the two Phi at t = 0.
    a, b, length = 1.5, 0.6, 2.0
    c = (b / (2.0 * a)) ** 2
    data = dict(g="sin(x)*t", psi="x*(2-x) + 0.1", theta1="0.1 + t",
                theta2="0.2*exp(-t)")
    rp = reduce_problem(_problem(a=a, b=b, c=c, length=length, **data))
    assert rp.gamma == 0.0
    delayed = DelayHeatProblem(
        a1=a, a2=0.0, b1=b, b2=0.0, d1=c, d2=0.0, tau=0.5, length=length,
        horizon=1.0,
        **{key: parse_function(expr, l=length, tau=0.5) for key, expr in data.items()})
    x = np.linspace(0.0, length, 17)[None, :]
    t = np.linspace(0.0, 1.0, 9)[:, None]
    delayed_rp = reduce_delay(delayed)
    assert np.array_equal(np.asarray(rp.lift(x, t)),
                          np.asarray(delayed_rp.lift(x, t)))
    assert np.array_equal(np.asarray(rp.shifted_initial(x, 0.0)),
                          np.asarray(delayed_rp.shifted_initial(x, 0.0)))


# ---------------------------------------------------------------------------
# Structure of the solution: split, boundaries, superposition
# ---------------------------------------------------------------------------


def test_solution_is_sum_of_three_parts():
    # u1 (free decay Phi_n e^{rate t}) plus u2 (the Duhamel term, mode by
    # mode from the pointwise evaluator) plus u3 (the lift) at grid points.
    from delayheat.heat_nodelay import _duhamel_decay, _mode_data

    p = _problem(
        a=1.0, b=0.3, c=-0.2, length=1.0, horizon=0.5,
        g="sin(pi*x)*(1+t)", psi="x*(1-x)", theta1="0.1", theta2="0.2*exp(-t)",
    )
    rp = reduce_problem(p)
    basis = EigenBasis(p.length, 12)
    quad = QuadratureConfig()
    grid = GridSpec(nx=8, nt=4)
    field = solve(p, basis, grid=grid)
    initial, (rate, _), forcing = _mode_data(rp, basis, quad)
    for j in (1, 3):
        t = float(field.t[j])
        coeffs = initial * np.exp(rate * t) + [
            _duhamel_decay(a, forcing.row(n), t, quad)
            for n, a in enumerate(rate, 1)]
        for i in (2, 5):
            x = field.x[i]
            parts = (coeffs @ basis.eigenfunctions(x))[0] + rp.lift(x, t)
            assert field.u[j, i] == pytest.approx(parts, abs=1e-10)


def test_mode_data_projects_the_forcing_family_in_one_pass(monkeypatch):
    # Phi needs values at t = 0 only; F and dF/dt are read off one jet (in
    # heat_delay.forcing_paths, which both kinds share), and no
    # t-differentiated spec is projected on its own.
    from delayheat import heat_delay, heat_nodelay

    calls, project = [], heat_nodelay.project_paths
    for module in (heat_delay, heat_nodelay):
        monkeypatch.setattr(module, "project_paths",
                            lambda spec, *args, **kw: calls.append((spec, kw))
                            or project(spec, *args, **kw))
    rp = reduce_problem(_problem(g="sin(x)*cos(t)", theta1="t"))
    heat_nodelay._mode_data(rp, EigenBasis(rp.length, 4), QuadratureConfig())
    assert len(calls) == 2
    # Only phi and f are projected on the grid; the lift's share is handed
    # over as the linear part.
    assert calls[0][0] is rp.phi and list(calls[0][1]) == ["kt", "linear"]
    assert calls[0][1]["kt"] == 0 and calls[0][1]["linear"].base is rp.lift
    assert calls[0][1]["linear"].factor == -1.0
    assert calls[1][0] is rp.source
    assert calls[1][1] == {"linear": rp.lift_forcing}


def test_boundary_rows_match_traces():
    p = _problem(
        a=1.0, b=0.5, c=0.3, length=2.0, horizon=1.0,
        g="x*t", psi="0.1*sin(pi*x/l) + 0.3 + 0.2*x", theta1="0.3",
        theta2="0.7*cos(t)",
    )
    field = solve(p, EigenBasis(p.length, 24), grid=GridSpec(nx=20, nt=10))
    left = np.array([p.theta1(0.0, tj) for tj in field.t])
    right = np.array([p.theta2(p.length, tj) for tj in field.t])
    assert np.max(np.abs(field.v[:, 0] - left)) < 1e-12
    assert np.max(np.abs(field.v[:, -1] - right)) < 1e-12


def test_superposition_of_problem_data():
    kw = dict(a=1.0, b=0.2, c=0.1, length=1.0, horizon=0.5)
    grid = GridSpec(nx=12, nt=6)
    basis = EigenBasis(1.0, 10)

    p1 = _problem(g="sin(pi*x)", psi="x*(1-x)", theta1="0", theta2="0.1*t", **kw)
    p2 = _problem(g="t", psi="sin(2*pi*x)", theta1="0.2", theta2="0", **kw)
    p12 = HeatProblem(
        g=fs_sum(p1.g, p2.g), psi=fs_sum(p1.psi, p2.psi),
        theta1=fs_sum(p1.theta1, p2.theta1), theta2=fs_sum(p1.theta2, p2.theta2),
        **kw,
    )
    v1 = solve(p1, basis, grid=grid).v
    v2 = solve(p2, basis, grid=grid).v
    v12 = solve(p12, basis, grid=grid).v
    assert np.max(np.abs(v12 - (v1 + v2))) < 1e-9


# ---------------------------------------------------------------------------
# Reaction with time-varying traces
# ---------------------------------------------------------------------------


def _interior_residual(p, field):
    """Central-difference residual v_t - a^2 v_xx - b v_x - c v - g."""
    x, t, v = field.x, field.t, field.v
    dx, dt = x[1] - x[0], t[1] - t[0]
    vt = (v[2:, 1:-1] - v[:-2, 1:-1]) / (2.0 * dt)
    vxx = (v[1:-1, 2:] - 2.0 * v[1:-1, 1:-1] + v[1:-1, :-2]) / dx**2
    vx = (v[1:-1, 2:] - v[1:-1, :-2]) / (2.0 * dx)
    g = np.asarray(p.g(x[None, 1:-1], t[1:-1, None]), dtype=float)
    res = vt - p.a**2 * vxx - p.b * vx - p.c * v[1:-1, 1:-1] - g
    return float(np.max(np.abs(res)))


def test_reaction_with_exponential_traces_matches_exact_solution():
    # The reduced forcing is f - d/dt lift, with no reaction term on the lift.
    # The data is chosen so the solution is exactly
    # v = e^t + e^{(1 - pi^2) t} sin(pi x): traces e^t cancel the reaction
    # weight, leaving a time-constant lift and a band-limited initial value.
    kw = dict(a=1.0, b=0.0, c=1.0, length=1.0, horizon=0.4,
              g="0", psi="1 + sin(pi*x)", theta1="exp(t)", theta2="exp(t)")
    basis = EigenBasis(1.0, 24)
    grid = GridSpec(nx=80, nt=80)
    field = solve(_problem(**kw), basis, grid=grid)
    exact = (
        np.exp(field.t)[:, None]
        + np.exp((1.0 - np.pi**2) * field.t)[:, None]
        * np.sin(np.pi * field.x)[None, :]
    )
    assert np.max(np.abs(field.v - exact)) < 1e-9
    assert _interior_residual(_problem(**kw), field) < 0.02


# ---------------------------------------------------------------------------
# Data that starts at a high mode
# ---------------------------------------------------------------------------


def test_forcing_starting_at_mode_six_matches_fd_oracle():
    # Modes 1-5 carry no data at all; every mode must still be solved.
    p = _problem(g="sin(6*x)", psi="0")
    field = solve(p, EigenBasis(p.length, 16), grid=GridSpec(nx=60, nt=40))
    coarse = fd_solve_nodelay(p, GridSpec(nx=60, nt=40)).v
    fine = fd_solve_nodelay(p, GridSpec(nx=120, nt=80)).v
    # CN's own error is about 4/3 of the refinement difference.
    tol = 4.0 * np.max(np.abs(coarse - fine[::2, ::2]))
    assert np.max(np.abs(field.v)) > 0.02
    assert np.max(np.abs(field.v - coarse)) <= tol


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------


def _benchmark_shaped_problem():
    # A no-delay problem of the nodelay_field benchmark's kind, with drift,
    # reaction and a forcing.
    return _problem(
        a=0.861101, b=0.476066, c=-0.248244, length=2.575238, horizon=0.5,
        g="1.52292*x*(l - x)*cos(1.832331*t)",
        psi="0.781335*sin(2*pi*x/l) - 0.810161*sin(4*pi*x/l)"
            " + 0.714344*sin(5*pi*x/l) + 0.840252*x*(l - x)")


def test_solve_and_write_hold_little_memory(tmp_path):
    # The nodelay_field benchmark shape: 401 x 801 cells with a u column and
    # 16 modes.  The field is synthesized one block of time rows at a time
    # as it is written, so no step holds a (401 x 801) plane (2.5 MiB).  A
    # coarse run first builds the caches every run shares.
    basis = EigenBasis(2.575238, 16)
    solve(_benchmark_shaped_problem(), basis,
          GridSpec(nx=20, nt=10)).write_csv(tmp_path / "warm.csv")
    p = _benchmark_shaped_problem()
    tracemalloc.start()
    try:
        solve(p, basis, GridSpec(nx=800, nt=400)).write_csv(tmp_path / "f.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def test_problem_validation():
    with pytest.raises(InputError):
        _problem(a=0.0)
    with pytest.raises(InputError):
        _problem(length=-1.0)
    with pytest.raises(InputError):
        _problem(horizon=0.0)
    with pytest.raises(InputError):
        HeatProblem(a=1.0, b=0.0, c=0.0, length=1.0, horizon=1.0,
                    g=0.0, psi=parse_function("0"), theta1=parse_function("0"),
                    theta2=parse_function("0"))


def test_solve_requires_eigenbasis():
    p = _problem()
    with pytest.raises(InputError):
        solve(p, basis="not a basis", grid=GridSpec(nx=4, nt=2))

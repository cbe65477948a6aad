"""Tests for energy traces, theoretical growth constants, and the
exponential-bound check used for uniqueness/stability experiments."""

import math

import numpy as np
import pytest

from delayheat import (
    EigenBasis,
    GridSpec,
    HeatProblem,
    InputError,
    SolutionField,
    delay_growth_constant,
    energy_trace,
    gronwall_check,
    nodelay_growth_constant,
    parse_function,
    solve,
)


def _mode_field(rate=-1.0, length=math.pi, nx=400, horizon=1.0, nt=10,
                t0=0.0, dt=None):
    if dt is None:
        t = np.linspace(t0, horizon, nt + 1)
    else:
        t = dt * np.arange(round(t0 / dt), round(horizon / dt) + 1)
    x = np.linspace(0.0, length, nx + 1)
    v = np.exp(rate * t)[:, None] * np.sin(x)[None, :]
    return SolutionField(x=x, t=t, v=v)


# ---------------------------------------------------------------------------
# Energy traces
# ---------------------------------------------------------------------------


def test_single_mode_energy_closed_form():
    # integral of e^{-2t} sin^2 x over (0, pi) is e^{-2t} pi / 2.
    field = _mode_field(rate=-1.0)
    report = energy_trace(field)
    expected = np.exp(-2.0 * report.times) * math.pi / 2.0
    np.testing.assert_allclose(report.values, expected, rtol=1e-4)
    # Decay needs no growth allowance: the fitted rate clamps at zero.
    assert report.c_fit == 0.0
    assert report.omega == 0.0
    assert 0.0 < report.quad_error_estimate < 1e-3


def test_growing_mode_fitted_rate():
    report = energy_trace(_mode_field(rate=1.0))
    expected = np.exp(2.0 * report.times) * math.pi / 2.0
    np.testing.assert_allclose(report.values, expected, rtol=1e-4)
    assert report.c_fit == pytest.approx(2.0, abs=1e-3)


def test_delay_energy_includes_history_gradient_term():
    tau, omega = 0.5, 0.8
    field = _mode_field(rate=-1.0, nx=200, t0=-tau, horizon=1.0, dt=0.05)
    report = energy_trace(field, tau=tau, omega=omega)
    assert report.times[0] == pytest.approx(0.0)
    # Gradient energy of e^{-t} cos x also integrates to e^{-2t} pi / 2, so
    # E(t) = e^{-2t} (pi / 2) (1 + omega (e^{2 tau} - 1) / (2 tau)).
    factor = 1.0 + omega * (math.exp(2.0 * tau) - 1.0) / (2.0 * tau)
    expected = np.exp(-2.0 * report.times) * math.pi / 2.0 * factor
    np.testing.assert_allclose(report.values, expected, rtol=5e-3)
    assert report.omega == pytest.approx(omega)


def test_delay_energy_requires_history_rows():
    field = _mode_field()  # starts at t = 0
    with pytest.raises(InputError):
        energy_trace(field, tau=0.5, omega=1.0)


def test_zero_field_has_flat_energy():
    field = _mode_field()
    field.v[:] = 0.0
    report = energy_trace(field)
    assert np.all(report.values == 0.0)
    assert report.c_fit == 0.0


def test_energy_needs_two_rows():
    x = np.linspace(0.0, 1.0, 11)
    field = SolutionField(x=x, t=[0.0], v=np.zeros((1, 11)))
    with pytest.raises(InputError):
        energy_trace(field)


# ---------------------------------------------------------------------------
# Theoretical growth constants
# ---------------------------------------------------------------------------


def _nodelay_problem(a=1.0, b=0.5, c=0.3):
    fs = lambda s: parse_function(s, l=1.0)
    return HeatProblem(a=a, b=b, c=c, length=1.0, horizon=1.0,
                       g=fs("0"), psi=fs("sin(pi*x)"),
                       theta1=fs("0"), theta2=fs("0"))


def test_nodelay_growth_constant_formula():
    p = _nodelay_problem(a=1.0, b=0.5, c=0.3)
    c_theory, eps = nodelay_growth_constant(p, epsilon=0.25)
    assert c_theory == pytest.approx(2.0 * (0.3 + 0.5 / (2.0 * 0.25)))
    assert eps == 0.25
    # The default epsilon always satisfies the Young-inequality constraint.
    c_default, eps_default = nodelay_growth_constant(p)
    assert eps_default * abs(p.b) / 2.0 < p.a**2
    assert math.isfinite(c_default)
    with pytest.raises(InputError):
        nodelay_growth_constant(p, epsilon=10.0)  # violates eps |b| / 2 < a^2
    with pytest.raises(InputError):
        nodelay_growth_constant(p, epsilon=-1.0)


def test_delay_growth_constant_formula():
    from delayheat import DelayHeatProblem

    fs = lambda s: parse_function(s, l=1.0, tau=0.5)
    p = DelayHeatProblem(a1=1.0, a2=0.5, b1=0.4, b2=0.1, d1=0.2, d2=-0.3,
                         tau=0.5, length=1.0, horizon=1.0,
                         g=fs("0"), psi=fs("sin(pi*x)"),
                         theta1=fs("0"), theta2=fs("0"))
    c_theory, eps, omega = delay_growth_constant(p, epsilon=0.5, omega=4.0)
    assert c_theory == pytest.approx(2.0 * 0.2 + 0.1 + 0.3 + 0.4 / 0.5)
    assert 2.0 * p.a1**2 - abs(p.b1) * eps - p.a2**2 * eps > 0.0
    assert omega * p.tau - p.a2**2 / eps - abs(p.b2) >= 0.0
    # Defaults satisfy both structural constraints.
    c_d, eps_d, omega_d = delay_growth_constant(p)
    assert 2.0 * p.a1**2 - abs(p.b1) * eps_d - p.a2**2 * eps_d > 0.0
    assert omega_d * p.tau - p.a2**2 / eps_d - abs(p.b2) >= 0.0
    with pytest.raises(InputError):
        delay_growth_constant(p, epsilon=0.5, omega=0.1)  # omega too small
    with pytest.raises(InputError):
        delay_growth_constant(p, epsilon=50.0)


# ---------------------------------------------------------------------------
# The exponential bound
# ---------------------------------------------------------------------------


def test_gronwall_bound_holds_for_decaying_field():
    report = energy_trace(_mode_field(rate=-1.0))
    result = gronwall_check(report, c_theory=0.0)
    assert result.passed
    assert result.margin >= 0.0


def test_gronwall_bound_fails_for_super_exponential_growth():
    # E(t) = e^{6t} E(0) breaks the bound e^{2t} (E(0) + slack).
    report = energy_trace(_mode_field(rate=3.0, horizon=2.0, nt=20))
    result = gronwall_check(report, c_theory=2.0)
    assert not result.passed
    assert result.margin < 0.0
    assert result.worst_time == pytest.approx(2.0)


def test_gronwall_slack_absorbs_solver_noise():
    field = _mode_field()
    field.v[:] = 1e-13 * np.random.default_rng(3).normal(size=field.v.shape)
    report = energy_trace(field)
    # Tiny noise grows from an E(0) near zero; only the solver-tolerance
    # slack keeps the bound meaningful.
    result = gronwall_check(report, c_theory=1.0, solver_tol=1e-12)
    assert result.passed
    assert result.slack >= 1e-11


def test_uniqueness_experiment_difference_of_two_solves():
    p = _nodelay_problem(b=0.2, c=0.1)
    basis = EigenBasis(p.length, 8)
    grid = GridSpec(nx=60, nt=10)
    v1 = solve(p, basis, grid=grid)
    v2 = solve(p, basis, grid=grid)
    diff = SolutionField(x=v1.x, t=v1.t, v=v1.v - v2.v)
    report = energy_trace(diff)
    assert float(np.max(report.values)) < 1e-25
    c_theory, _ = nodelay_growth_constant(p)
    assert gronwall_check(report, c_theory, solver_tol=1e-12).passed


def test_report_serialization():
    report = energy_trace(_mode_field())
    assert gronwall_check(report, c_theory=0.0).passed is True

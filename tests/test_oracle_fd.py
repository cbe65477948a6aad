"""Tests for the finite-difference cross-check solver.

The point of this solver is independence: it must converge to known closed
forms on its own, share no code with the spectral stack, and keep second
order accuracy under Crank-Nicolson.
"""

import math
import pathlib
import re

import numpy as np
import pytest

from delayheat import (
    DelayHeatProblem,
    GridSpec,
    HeatProblem,
    InputError,
    fd_solve_delay,
    fd_solve_nodelay,
    parse_function,
)


def _nodelay(a=1.0, b=0.0, c=0.0, length=math.pi, horizon=0.5,
             g="0", psi="sin(x)", theta1="0", theta2="0"):
    return HeatProblem(
        a=a, b=b, c=c, length=length, horizon=horizon,
        g=parse_function(g, l=length),
        psi=parse_function(psi, l=length),
        theta1=parse_function(theta1, l=length),
        theta2=parse_function(theta2, l=length),
    )


def _delay(a1=1.0, a2=0.0, b1=0.0, b2=0.0, d1=0.0, d2=-0.5, tau=1.0,
           length=math.pi, horizon=2.0, g="0", psi="sin(x)",
           theta1="0", theta2="0"):
    consts = {"l": length, "tau": tau}
    return DelayHeatProblem(
        a1=a1, a2=a2, b1=b1, b2=b2, d1=d1, d2=d2,
        tau=tau, length=length, horizon=horizon,
        g=parse_function(g, **consts),
        psi=parse_function(psi, **consts),
        theta1=parse_function(theta1, **consts),
        theta2=parse_function(theta2, **consts),
    )


def _nodelay_error(cfg):
    p = _nodelay()
    field = fd_solve_nodelay(p, cfg)
    exact = np.exp(-field.t)[:, None] * np.sin(field.x)[None, :]
    return float(np.max(np.abs(field.v - exact)))


# ---------------------------------------------------------------------------
# Convergence to closed forms
# ---------------------------------------------------------------------------


def test_crank_nicolson_second_order_in_time():
    errs = [_nodelay_error(GridSpec(nx=400, nt=nt)) for nt in (10, 20, 40)]
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders > 1.8)


def test_second_order_in_space():
    # Time error made negligible by a fine step; space halving gains 4x.
    errs = [_nodelay_error(GridSpec(nx=nx, nt=800)) for nx in (20, 40, 80)]
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders > 1.8)


def test_drift_reaction_manufactured_solution():
    # v = exp(-0.2 x + 0.26 t) (1 + t) sin(pi x) solves the equation with
    # a = 1, b = 0.4, c = 0.3 and a matching band-limited source.
    p = _nodelay(
        a=1.0, b=0.4, c=0.3, length=1.0, horizon=0.8,
        g="exp(-0.2*x + 0.26*t) * (1 + pi^2 + pi^2*t) * sin(pi*x)",
        psi="exp(-0.2*x) * sin(pi*x)",
    )
    field = fd_solve_nodelay(p, GridSpec(nx=200, nt=400))
    exact = (
        np.exp(-0.2 * field.x)[None, :]
        * np.exp(0.26 * field.t)[:, None]
        * (1.0 + field.t)[:, None]
        * np.sin(np.pi * field.x)[None, :]
    )
    assert np.max(np.abs(field.v - exact)) < 5e-4


def test_delay_solver_converges_on_single_mode():
    # For psi = sin x the exact field is X(t) sin x with X solving the scalar
    # equation X' = -X - 0.5 X(t - 1); on [0, 1] the method of steps gives
    # X(t) = e^{-t} - 0.5 (1 - e^{-t}) exactly.
    p = _delay(horizon=1.0)
    errs = []
    for k in (1, 2, 4):
        cfg = GridSpec(nx=200 * k, nt_per_tau=25 * k)
        field = fd_solve_delay(p, cfg)
        pos = field.t >= 0.0
        xt = np.exp(-field.t[pos]) - 0.5 * (1.0 - np.exp(-field.t[pos]))
        exact = np.outer(xt, np.sin(field.x))
        errs.append(float(np.max(np.abs(field.v[pos] - exact))))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert errs[-1] < 2e-4
    assert np.all(orders > 1.8)


def test_delay_march_without_lag_coupling_matches_the_nodelay_march():
    # a2 = b2 = d2 = 0 leaves no lagged term, so from data constant in t on
    # [-tau, 0] both problem kinds march the same equation.  dt = 1/32 on
    # both grids, so the time rows coincide.
    common = dict(length=math.pi, horizon=1.0, g="x*cos(3*t)",
                  psi="sin(x) + 0.5 + 0.25*x/l", theta1="0.5*cos(t)",
                  theta2="0.75*exp(-t)")
    p_nodelay = _nodelay(a=1.3, b=0.4, c=-0.2, **common)
    p_delay = _delay(a1=1.3, b1=0.4, d1=-0.2, a2=0.0, b2=0.0, d2=0.0,
                     tau=0.25, **common)
    plain = fd_solve_nodelay(p_nodelay, GridSpec(nx=40, nt=32))
    delayed = fd_solve_delay(p_delay, GridSpec(nx=40, nt_per_tau=8))
    np.testing.assert_array_equal(delayed.t[8:], plain.t)
    np.testing.assert_allclose(delayed.v[8:], plain.v, rtol=0.0, atol=1e-13)


# ---------------------------------------------------------------------------
# Grid structure and boundary handling
# ---------------------------------------------------------------------------


def test_delay_grid_includes_history_rows():
    p = _delay(tau=0.5, horizon=1.2)
    field = fd_solve_delay(p, GridSpec(nx=10, nt_per_tau=4))
    assert field.t[0] == pytest.approx(-0.5)
    # dt = 0.125; 1.2 / 0.125 = 9.6 rounds up to 10 steps.
    assert field.t[-1] == pytest.approx(1.25)
    np.testing.assert_allclose(np.diff(field.t), 0.125)
    hist = field.t <= 0.0
    expected = np.sin(field.x)
    for row in field.v[hist]:
        np.testing.assert_allclose(row, expected, atol=1e-14)


def test_boundary_rows_are_pinned():
    # psi(0) = 0.5 and psi(l) = 0.25 match the traces at t = 0.
    p = _nodelay(theta1="0.5", theta2="0.25*cos(t)",
                 psi="0.5 + sin(x) - 0.25*x/l")
    field = fd_solve_nodelay(p, GridSpec(nx=20, nt=10))
    np.testing.assert_allclose(field.v[:, 0], 0.5, atol=1e-14)
    np.testing.assert_allclose(field.v[:, -1], 0.25 * np.cos(field.t), atol=1e-14)


def test_config_validation():
    # The series grid allows nx = 2; the oracle's stencils need three points.
    with pytest.raises(InputError, match="nx must be at least 3, got 2"):
        fd_solve_nodelay(_nodelay(), GridSpec(nx=2, nt=10))
    with pytest.raises(InputError):
        fd_solve_nodelay(_nodelay(), GridSpec(nx=10, nt_per_tau=4))
    with pytest.raises(InputError):
        fd_solve_delay(_delay(), GridSpec(nx=10, nt=4))


def test_meta_and_source_labels():
    f1 = fd_solve_nodelay(_nodelay(), GridSpec(nx=10, nt=4))
    assert f1.source == "fd"
    assert f1.meta["scheme"] == "crank_nicolson"
    assert f1.meta["nt"] == 4
    f2 = fd_solve_delay(_delay(), GridSpec(nx=10, nt_per_tau=4))
    assert f2.source == "fd"
    assert f2.meta["nt_per_tau"] == 4


# ---------------------------------------------------------------------------
# Independence from the spectral stack
# ---------------------------------------------------------------------------


def test_fd_module_does_not_import_the_spectral_stack():
    src = pathlib.Path(fd_solve_nodelay.__module__.replace(".", "/"))
    path = (
        pathlib.Path(__file__).resolve().parents[1]
        / "src" / src.with_suffix(".py")
    )
    text = path.read_text()
    imports = re.findall(r"^\s*(?:from|import)\s+([.\w]+)", text, re.MULTILINE)
    banned = ("delayed_exp", "delay_ode", "spectral", "heat_nodelay", "heat_delay")
    for module in imports:
        for name in banned:
            assert name not in module, f"{module} leaks spectral code into the oracle"

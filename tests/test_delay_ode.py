"""Closed-form scalar delay ODE solver vs analytic cases and the stepping oracle."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dde_steps import dde_steps, dde_steps_exact
from delayheat.delay_ode import (
    DelayOdeParams,
    kernel,
    solve_at,
    solve_modes,
    solve_on_grid,
)
from delayheat.errors import DomainError, InputError, NumericError, QuadratureError
from delayheat.quadrature import QuadratureConfig
from delayheat.funcspec import parse_function
from delayheat.spectral import HermitePaths


def _history(beta, beta_prime):
    """beta and beta' in the form the solvers take: history(s, nu)."""
    return lambda s, nu=0: beta_prime(s) if nu else beta(s)


def _spec_history(text):
    """The history of an expression in t, its derivative read off its jet."""
    fs = parse_function(text)
    return lambda s, nu=0: fs.partials(0.0, s, [(0, nu)])[0]


def _const_history(value=1.0):
    return _history(
        lambda s: np.full_like(np.asarray(s, dtype=float), value),
        lambda s: np.zeros_like(np.asarray(s, dtype=float)),
    )


def test_kernel_reduces_to_delayed_exponential_when_rate_zero():
    # With a = 0, K is the delayed exponential, the sum over j <= k of
    # b^j (xi - (j-1) tau)^j / j! on (k-1) tau <= xi < k tau; b > 0 keeps
    # that sum free of cancellation in float.
    b, tau = 0.8, 0.7
    xi = np.linspace(-0.7, 3.0, 57)
    got = kernel(DelayOdeParams(a=0.0, b=b, tau=tau), xi)
    want = np.array([
        sum(b**j * (v - (j - 1) * tau) ** j / math.factorial(j)
            for j in range(math.floor(v / tau) + 2))
        for v in xi])
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-14)


def test_kernel_pure_exponential_when_lag_coupling_zero():
    params = DelayOdeParams(a=-1.3, b=0.0, tau=1.0)
    xi = np.linspace(-1.0, 2.0, 31)
    np.testing.assert_allclose(kernel(params, xi), np.exp(-1.3 * (xi + 1.0)),
                               rtol=1e-13)
    assert kernel(params, -1.0 - 1e-9) == 0.0


def test_exponential_solution_reproduced_exactly():
    # x' = x with lag coupling 0 and history e^s: solution e^t.
    params = DelayOdeParams(a=1.0, b=0.0, tau=1.0)
    history = _history(
        lambda s: np.exp(np.asarray(s, dtype=float)),
        lambda s: np.exp(np.asarray(s, dtype=float)),
    )
    t = np.linspace(0.0, 3.0, 13)
    np.testing.assert_allclose(solve_at(params, history, None, t), np.exp(t),
                               rtol=1e-11)


def test_pure_lag_with_unit_history_is_delayed_exponential():
    params = DelayOdeParams(a=0.0, b=1.0, tau=1.0)
    t = np.linspace(0.0, 4.0, 17)
    got = solve_at(params, _const_history(), None, t)
    np.testing.assert_allclose(got, kernel(params, t), rtol=1e-11, atol=1e-13)
    assert solve_at(params, _const_history(), None, 1.5) == pytest.approx(2.625)


def test_forced_constant_rate_free_grows_linearly():
    params = DelayOdeParams(a=0.0, b=0.0, tau=1.0)
    t = np.linspace(0.0, 2.5, 11)
    got = solve_at(params, None, lambda s: np.ones_like(np.asarray(s, float)), t)
    np.testing.assert_allclose(got, t, rtol=1e-12, atol=1e-13)


def test_history_returned_below_zero():
    params = DelayOdeParams(a=0.3, b=-0.4, tau=1.0)
    history = _spec_history("cos(t)")
    assert solve_at(params, history, None, -0.5) == pytest.approx(math.cos(-0.5))
    with pytest.raises(DomainError):
        solve_at(params, history, None, -1.5)


def test_validation():
    with pytest.raises(InputError):
        DelayOdeParams(a=0.0, b=0.0, tau=-1.0)
    with pytest.raises(InputError):
        DelayOdeParams(a=math.nan, b=0.0, tau=1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(InputError):
            kernel(DelayOdeParams(a=0.0, b=1.0, tau=1.0), [0.5, bad])


_NONSTIFF = [
    (-1.0, -0.8, 1.0),
    (0.5, 0.8, 0.5),
    (0.0, -0.8, 0.5),
    (-1.0, 0.8, 1.0),
]


@pytest.mark.parametrize("a, b, tau", _NONSTIFF)
def test_homogeneous_matches_stepping_oracle(a, b, tau):
    params = DelayOdeParams(a=a, b=b, tau=tau)
    history = _spec_history("1 + t")
    t = np.linspace(0.0, 4 * tau, 21)
    mine = solve_at(params, history, None, t)
    ref = dde_steps(a, b, tau, lambda s: 1.0 + s, t)
    np.testing.assert_allclose(mine, ref, rtol=0, atol=5e-10)


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("a, b, tau", _NONSTIFF)
def test_grid_engine_matches_per_time_solution(a, b, tau, forced):
    params = DelayOdeParams(a=a, b=b, tau=tau)
    history = _spec_history("cos(3*t)")
    rho = (lambda s: np.sin(2.0 * np.asarray(s, dtype=float))) if forced else None
    steps_per_tau, n_steps = 8, 30
    t = tau / steps_per_tau * np.arange(1, n_steps + 1)
    mine = solve_on_grid(params, history, rho, steps_per_tau, n_steps)
    if forced:
        ref = solve_at(params, history, rho, t)
    else:
        ref = solve_at(params, history, None, t)
    np.testing.assert_allclose(mine, ref, rtol=0, atol=1e-10)


@pytest.mark.parametrize("b", [-160.0, 0.0, 160.0])
def test_grid_engine_on_stiff_mode_matches_exact_method_of_steps(b):
    # |a| tau = 662: a high sine mode of the delayed heat equation.
    a, tau = -1325.0, 0.5
    params = DelayOdeParams(a=a, b=b, tau=tau)
    history = _history(
        lambda s: 1.0 + s + s**2, lambda s: 1.0 + 2.0 * s)
    rho = lambda s: 0.5 - np.asarray(s, dtype=float)
    t = tau / 16 * np.arange(1, 49)
    mine = solve_on_grid(params, history, rho, 16, 48)
    ref = dde_steps_exact(a, b, tau, [1.0, 1.0, 1.0], t, rho_poly=[0.5, -1.0])
    np.testing.assert_allclose(mine, ref, rtol=0, atol=1e-12)


def test_per_point_evaluator_over_many_delays_matches_exact_steps():
    # b < 0 over 16 to 19 delays: a sum over global delay multiples would
    # carry terms of size e^((a + |b|) t) that cancel to K; the kernel's
    # terms stay of the size of K's values at the segment starts.
    params = DelayOdeParams(a=1.0, b=-2.0, tau=0.5)
    t = np.array([8.0, 9.0, 9.5])
    ref = dde_steps_exact(1.0, -2.0, 0.5, [1.0], t)
    np.testing.assert_allclose(solve_at(params, _const_history(), None, t),
                               ref, rtol=0, atol=1e-12)


def test_grid_engine_over_many_delays_matches_exact_steps():
    params = DelayOdeParams(a=2.0, b=-3.0, tau=0.3)
    # dt = 0.05: steps 100 and 110 are t = 5 and 5.5, 16 and 18 delays on.
    x = solve_on_grid(params, _spec_history("1 + t"), None, 6, 110)
    ref = dde_steps_exact(2.0, -3.0, 0.3, [1.0, 1.0], [5.0, 5.5])
    np.testing.assert_allclose(x[[99, 109]], ref, rtol=0, atol=1e-12)


def test_grid_engine_without_data_is_zero_and_checks_arguments():
    params = DelayOdeParams(a=-0.5, b=0.3, tau=1.0)
    np.testing.assert_array_equal(solve_on_grid(params, None, None, 4, 6), 0.0)
    assert solve_on_grid(params, _const_history(), None, 4, 0).size == 0
    with pytest.raises(InputError):
        solve_on_grid(params, _const_history(), None, 0, 4)
    with pytest.raises(InputError):
        solve_on_grid(params, _const_history(), None, 4, -1)


def test_grid_engine_raises_when_refinement_budget_is_exhausted():
    params = DelayOdeParams(a=-40.0, b=0.5, tau=1.0)
    history = _spec_history("cos(5*t)")
    starved = QuadratureConfig(nodes_per_panel=2, max_panel_splits=1, abs_tol=1e-16)
    with pytest.raises(QuadratureError):
        solve_on_grid(params, history, None, 2, 6, starved)
    no_splits = QuadratureConfig(max_panel_splits=0)
    with pytest.raises(QuadratureError):
        solve_on_grid(params, history, None, 2, 6, no_splits)


@pytest.mark.parametrize("b", [0.0, 0.5])
def test_grid_engine_raises_on_kernel_overflow(b):
    # a (tau + t_n) = 1100 is beyond exp's float range: the b = 0 recursion
    # must refuse as the kernel table does, not return inf.
    params = DelayOdeParams(a=100.0, b=b, tau=1.0)
    with pytest.raises(NumericError):
        solve_on_grid(params, None, lambda s: np.ones_like(s), 2, 20)


def test_engine_group_with_one_starved_mode_raises():
    # One group (same a): a quiet mode that settles at the first halving
    # and one whose history the starved budget cannot resolve.
    tau = 1.0
    s = np.linspace(-tau, 0.0, 129)
    history = HermitePaths(s, np.array([np.zeros_like(s), np.cos(5.0 * s)]),
                           np.array([np.zeros_like(s), -5.0 * np.sin(5.0 * s)]))
    starved = QuadratureConfig(nodes_per_panel=2, max_panel_splits=1, abs_tol=1e-16)
    with pytest.raises(QuadratureError, match="grid quadrature did not converge "
                       "to 1e-16 after 1 panel splits") as err:
        solve_modes([-40.0, -40.0], [0.5, 0.5], tau, history, None, 2, 6, starved)
    assert err.value.residual > 0.0
    quiet = solve_modes([-40.0], [0.5], tau, history.rows(np.array([0])), None,
                        2, 6, starved)
    np.testing.assert_array_equal(quiet, 0.0)


@pytest.mark.parametrize("b", [0.0, 0.5])
def test_engine_overflow_in_one_mode_of_a_group_raises(b):
    # a dt = 35 and 50 grade their panels alike, so both modes form one
    # group; a (tau + t_n) = 525 stays in range, 750 does not.
    # The overflow must raise, with no RuntimeWarning on the way.
    forcing = HermitePaths(np.linspace(0.0, 6.5, 14), np.ones((2, 14)),
                           np.zeros((2, 14)))
    with warnings.catch_warnings(), pytest.raises(NumericError):
        warnings.simplefilter("error")
        solve_modes([70.0, 100.0], [b, b], 1.0, None, forcing, 2, 13)
    assert np.all(np.isfinite(solve_modes([70.0], [b], 1.0, None,
                                          forcing.rows(np.array([0])), 2, 13)))


def test_forced_matches_stepping_oracle():
    a, b, tau = -0.5, 0.6, 0.8
    params = DelayOdeParams(a=a, b=b, tau=tau)
    history = _spec_history("cos(t)")
    rho = lambda s: np.sin(np.asarray(s, dtype=float))
    t = np.linspace(0.0, 4 * tau, 17)
    mine = solve_at(params, history, rho, t)
    ref = dde_steps(a, b, tau, lambda s: math.cos(s), t, rho=lambda s: math.sin(s))
    np.testing.assert_allclose(mine, ref, rtol=0, atol=5e-10)


def test_stiff_mode_stays_finite_and_accurate():
    # Strong decay with lag coupling: naive scaling b*exp(-a*tau) overflows
    # for a large and negative; the evaluation must not.
    a, b, tau = -200.0, 30.0, 1.0
    params = DelayOdeParams(a=a, b=b, tau=tau)
    xi = np.linspace(-tau, 3.0, 41)
    vals = kernel(params, xi)
    assert np.all(np.isfinite(vals))
    t = np.linspace(0.0, 2.5, 11)
    mine = solve_at(params, _const_history(), None, t)
    ref = dde_steps(a, b, tau, lambda s: 1.0, t, method="Radau", rtol=1e-11,
                    atol=1e-14)
    np.testing.assert_allclose(mine, ref, rtol=0, atol=1e-8)


def test_extreme_decay_rate_no_overflow():
    params = DelayOdeParams(a=-900.0, b=5.0, tau=1.0)
    xi = np.linspace(-1.0, 2.0, 23)
    vals = kernel(params, xi)
    assert np.all(np.isfinite(vals))
    t = np.linspace(0.0, 2.0, 9)
    sol = solve_at(params, _const_history(), None, t)
    assert np.all(np.isfinite(sol))
    # after one delay interval the solution is quasi-static: x ~ -(b/a) x(t-tau)
    assert abs(sol[-1]) < 1e-3


def test_solution_continuous_at_zero_and_knots():
    params = DelayOdeParams(a=-0.7, b=0.9, tau=0.6)
    history = _spec_history("1 + t^2")
    eps = 1e-10
    left = solve_at(params, history, None, -eps)
    right = solve_at(params, history, None, eps)
    assert right == pytest.approx(left, abs=1e-8)
    for knot in (0.6, 1.2, 1.8):
        lo = solve_at(params, history, None, knot - eps)
        hi = solve_at(params, history, None, knot + eps)
        assert hi == pytest.approx(lo, abs=1e-8)


def test_residual_satisfies_equation():
    a, b, tau = -0.4, 0.5, 1.0
    params = DelayOdeParams(a=a, b=b, tau=tau)
    history = _spec_history("cos(t)")
    rho = lambda s: 0.3 * np.asarray(s, dtype=float)
    h = 1e-5
    for t in (0.37, 0.81, 1.43, 2.21):  # away from knots
        xp = solve_at(params, history, rho, t + h)
        xm = solve_at(params, history, rho, t - h)
        x = solve_at(params, history, rho, t)
        x_lag = solve_at(params, history, rho, t - tau)
        resid = (xp - xm) / (2 * h) - (a * x + b * x_lag + rho(t))
        assert abs(resid) < 1e-7


@settings(max_examples=20, deadline=None)
@given(
    c1=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    c2=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
)
def test_property_linearity_in_history(c1, c2):
    params = DelayOdeParams(a=-0.6, b=0.7, tau=0.9)
    h1 = _spec_history("1 + t")
    h2 = _spec_history("cos(t)")
    combo = _history(
        lambda s: c1 * (1.0 + np.asarray(s, float)) + c2 * np.cos(np.asarray(s, float)),
        lambda s: c1 * np.ones_like(np.asarray(s, float)) - c2 * np.sin(np.asarray(s, float)),
    )
    t = 1.7
    lhs = solve_at(params, combo, None, t)
    rhs = (c1 * solve_at(params, h1, None, t)
           + c2 * solve_at(params, h2, None, t))
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-10)

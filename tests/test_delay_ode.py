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
from delayheat.quadrature import QuadratureConfig, exp_weights, gauss_rule
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


def test_kernel_reuses_its_segment_starts_bit_for_bit():
    # The refinement levels of one quadrature: finer points in the same two
    # segments, the top ones of 18.  The later calls read the starts the
    # first stored and skip the 16 empty segments below, with the values of
    # a call that walks them all.
    params = DelayOdeParams(a=2.0, b=-3.0, tau=0.3)
    starts = {}
    for n in (8, 16, 32):
        xi = 5.0 - 0.3 * np.linspace(0.01, 0.99, n)
        assert np.array_equal(kernel(params, xi, starts=starts),
                              kernel(params, xi))
    assert starts["log_s"].shape == (1, 18)
    # A call that reaches further walks its segments anew.
    xi = np.linspace(5.0, 5.5, 9)
    assert np.array_equal(kernel(params, xi, starts=starts), kernel(params, xi))
    assert starts["log_s"].shape == (1, 20)


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


def _poly(coeffs):
    """The ascending-coefficient polynomial as a vectorized callable."""
    return lambda s: np.polynomial.polynomial.polyval(
        np.asarray(s, dtype=float), coeffs)


@pytest.mark.parametrize("a, b, tau, m, n_steps, beta, rho", [
    # b < 0 over five delays
    (-1.5, -0.8, 0.5, 8, 40, [1.0, 1.0, 0.0, -0.5], [0.5, -1.0]),
    # b > 0, and T / tau = 29 / 6: the last delay interval is partial
    (-2.0, 1.2, 0.7, 6, 29, [1.0, 1.0, 0.0, -0.5], [0.5, -1.0]),
    # a positive rate over 7.4 delays
    (0.8, -0.5, 0.4, 5, 37, [1.0, -0.5, 0.25], [0.25, 0.5]),
    # zero history, forced
    (-0.7, 0.6, 1.0, 4, 18, [0.0], [1.0, 0.5, -0.25]),
])
def test_recursion_matches_exact_method_of_steps(a, b, tau, m, n_steps, beta,
                                                 rho):
    history = _history(_poly(beta), _poly(np.polynomial.polynomial.polyder(
        beta)))
    x = solve_on_grid(DelayOdeParams(a=a, b=b, tau=tau), history, _poly(rho),
                      m, n_steps)
    ref = dde_steps_exact(a, b, tau, beta, tau / m * np.arange(1, n_steps + 1),
                          rho_poly=rho)
    np.testing.assert_allclose(x, ref, rtol=0, atol=1e-12)


def test_recursion_on_a_stiff_family_matches_exact_method_of_steps():
    # a down to -2e5 with lag coupling of both signs, over 3.5 delays: the
    # node weights carry exp(a h) with no overflow, underflow warning or
    # lost accuracy, and every mode meets the exact solution.
    a = np.array([-1.0, -100.0, -300.0, -5e3, -2e4, -2e5])
    b = np.array([-0.5, -50.0, 200.0, -10.0, 3.0, -1.0])
    tau, m, n_steps = 1.0, 4, 14
    s = np.linspace(-tau, 0.0, 33)
    history = HermitePaths(s, np.tile(1.0 + s - 0.5 * s**3, (a.size, 1)),
                           np.tile(1.0 - 1.5 * s**2, (a.size, 1)))
    t = np.linspace(0.0, 3.5, 29)
    forcing = HermitePaths(t, np.tile(0.5 - t, (a.size, 1)),
                           -np.ones((a.size, t.size)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = solve_modes(a, b, tau, history, forcing, m, n_steps)
    t_out = tau / m * np.arange(1, n_steps + 1)
    for i in range(a.size):
        ref = dde_steps_exact(a[i], b[i], tau, [1.0, 1.0, 0.0, -0.5], t_out,
                              rho_poly=[0.5, -1.0])
        np.testing.assert_allclose(x[i], ref, rtol=0, atol=1e-12)


@pytest.mark.parametrize("a", [-1e12, -1e15, -1e16])
def test_recursion_at_extreme_stiffness_is_quasi_static(a):
    # At |a| h past about 1e14 the weight rule's points next to a node end
    # round onto the node itself; the Lagrange basis there is that node's
    # unit row, not a division by zero.  x = -(b x(t - tau) + rho) / a to
    # within 1 / a^2: 1.5 / |a| on the first delay, (1 + 0.75 / |a|) / |a|
    # on the second.
    history = _history(lambda s: np.ones_like(s), lambda s: np.zeros_like(s))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = solve_on_grid(DelayOdeParams(a=a, b=0.5, tau=1.0), history,
                          lambda s: np.ones_like(s), 2, 4)
    np.testing.assert_allclose(x * -a, [1.5, 1.5, 1.0, 1.0], rtol=1e-12)


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
    # a (tau + t_n) = 1100 is beyond exp's float range: the recursion must
    # refuse, as the kernel K does, not return inf.
    params = DelayOdeParams(a=100.0, b=b, tau=1.0)
    with pytest.raises(NumericError):
        solve_on_grid(params, None, lambda s: np.ones_like(s), 2, 20)


def test_engine_group_with_one_starved_mode_raises():
    # One call (same a): a quiet mode that settles at the first halving
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
    # Both modes are solved in one call; a (tau + t_n) = 525 stays in
    # range, 750 does not.
    # The overflow must raise, with no RuntimeWarning on the way.
    forcing = HermitePaths(np.linspace(0.0, 6.5, 14), np.ones((2, 14)),
                           np.zeros((2, 14)))
    with warnings.catch_warnings(), pytest.raises(NumericError):
        warnings.simplefilter("error")
        solve_modes([70.0, 100.0], [b, b], 1.0, None, forcing, 2, 13)
    assert np.all(np.isfinite(solve_modes([70.0], [b], 1.0, None,
                                          forcing.rows(np.array([0])), 2, 13)))


# ---------------------------------------------------------------------------
# Exponential weights: the stiff factor integrated exactly
# ---------------------------------------------------------------------------


def _exp_moments(rate, end, count, dps=400):
    """integral_0^c exp(rate (x - peak)) x^d dx for d < count at c = ``end``,
    exactly (peak c for rate > 0, else 0), by
    J_d = e^(rate c) c^d / rate - (d / rate) J_(d-1)."""
    import mpmath

    with mpmath.workdps(dps):
        lam, c = mpmath.mpf(rate), mpmath.mpf(end)
        if lam == 0:
            return np.array([float(c ** (d + 1) / (d + 1)) for d in range(count)])
        shift = mpmath.exp(-lam * c) if rate > 0 else mpmath.mpf(1)
        moment, out = (mpmath.exp(lam * c) - 1) / lam, []
        for d in range(count):
            if d:
                moment = mpmath.exp(lam * c) * c**d / lam - d / lam * moment
            out.append(float(shift * moment))
        return np.array(out)


def _engine_ends(q):
    """The ends c the engine asks weights for: the Gauss nodes and 1."""
    return np.append(0.5 * (gauss_rule(q)[0] + 1.0), 1.0)


@pytest.mark.parametrize("edges", [[0.0, 1.0], [0.0, 0.25, 0.5, 1.0]])
@pytest.mark.parametrize("rate", [0.0, 1e-9, -1e-9, 1.0, -1.0, 16.0, -16.0,
                                  512.0, 4096.0, 5e4, -5e4])
def test_exponential_weights_integrate_polynomials_exactly(rate, edges):
    # ``edges`` cuts a unit dt-panel into sub-panels as wide as those of
    # the levels S = 1, 2 and 4; the engine asks a sub-panel's weights at
    # its rate times its width h.  At every end, polynomials of degree
    # below the node count integrate exactly against the factor
    # exp(rate h (x - peak)), to 1e-13 of that end's own integral of the
    # factor, with weights of size O(1) at any rate.
    q = 16
    ends = _engine_ends(q)
    nodes = ends[:q]
    for h in set(np.diff(edges).tolist()):
        weights = exp_weights([rate * h], q, ends)[0]
        assert np.all(np.isfinite(weights))
        assert np.max(np.abs(weights)) <= 1.0
        for end, row in zip(ends, weights):
            exact = _exp_moments(rate * h, end, q)
            got = np.array([np.dot(row, nodes**d) for d in range(q)])
            np.testing.assert_allclose(got, exact, rtol=0,
                                       atol=1e-13 * exact[0])


def test_exponential_weights_reduce_to_gauss_weights():
    q = 16
    gauss = 0.5 * gauss_rule(q)[1]
    weights = exp_weights([0.0, 1e-9, -1e-9], q, _engine_ends(q))
    np.testing.assert_allclose(weights[0, -1], gauss, rtol=0, atol=1e-15)
    np.testing.assert_allclose(weights[1:], [weights[0], weights[0]], rtol=0,
                               atol=2e-10)


def test_exponential_weights_of_a_mode_depend_on_its_rate_alone():
    # A row is the same whatever rates share the call, and the end 1 the
    # same whether it is asked alone (no lag coupling) or with the nodes.
    rates = np.array([-3.0, 0.5, 12.0, 700.0, 4.1e3, 5e4])
    ends = _engine_ends(16)
    together = exp_weights(rates, 16, ends)
    for rate, row in zip(rates, together):
        np.testing.assert_array_equal(exp_weights([rate], 16, ends)[0], row)
        np.testing.assert_array_equal(exp_weights([rate], 16, [1.0])[0, 0],
                                      row[-1])


def test_engine_on_stiff_modes_matches_exact_method_of_steps():
    # lambda = -a dt up to 5e4: the exponential weights must carry the
    # stiff factor with no overflow, underflow warning or lost accuracy,
    # in a lag-coupled family and in an uncoupled one (every b = 0).
    a = np.array([-1.0, -100.0, -5e3, -2e4, -2e5])
    tau, m, n_steps = 1.0, 4, 12
    s = np.linspace(-tau, 0.0, 33)
    history = HermitePaths(s, np.tile(1.0 + s - 0.5 * s**3, (5, 1)),
                           np.tile(1.0 - 1.5 * s**2, (5, 1)))
    t = np.linspace(0.0, 3.0, 25)
    forcing = HermitePaths(t, np.tile(0.5 - t, (5, 1)), -np.ones((5, 25)))
    t_out = tau / m * np.arange(1, n_steps + 1)
    for b in ([-0.5, -50.0, -10.0, 3.0, -1.0], np.zeros(5)):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            x = solve_modes(a, b, tau, history, forcing, m, n_steps)
        for i in range(a.size):
            ref = dde_steps_exact(a[i], b[i], tau, [1.0, 1.0, 0.0, -0.5],
                                  t_out, rho_poly=[0.5, -1.0])
            np.testing.assert_allclose(x[i], ref, rtol=0,
                                       atol=QuadratureConfig().abs_tol)


def test_engine_on_a_mixed_coupling_family_matches_exact_method_of_steps():
    # One mode without lag coupling and one with: the b = 0 mode takes the
    # lag-coupled family's node weights and ring along.
    a, b = np.array([-3.0, -2.0]), np.array([0.0, 0.5])
    tau, m, n_steps = 1.0, 4, 12
    s = np.linspace(-tau, 0.0, 33)
    history = HermitePaths(s, np.tile(1.0 + s - 0.5 * s**3, (2, 1)),
                           np.tile(1.0 - 1.5 * s**2, (2, 1)))
    t = np.linspace(0.0, 3.0, 25)
    forcing = HermitePaths(t, np.tile(0.5 - t, (2, 1)), -np.ones((2, 25)))
    x = solve_modes(a, b, tau, history, forcing, m, n_steps)
    t_out = tau / m * np.arange(1, n_steps + 1)
    for i in range(a.size):
        ref = dde_steps_exact(a[i], b[i], tau, [1.0, 1.0, 0.0, -0.5], t_out,
                              rho_poly=[0.5, -1.0])
        np.testing.assert_allclose(x[i], ref, rtol=0,
                                   atol=QuadratureConfig().abs_tol)


@pytest.mark.parametrize("b", [0.0, 0.5])
def test_engine_recurses_without_the_kernel_on_halved_sub_panels(b, monkeypatch):
    # Mild and stiff modes in one call, lag-coupled or not: the engine never
    # evaluates K, and its levels cut each dt-panel into S = 1, 2, 4, ...
    # sub-panels, with one call of the one weight routine per level: for
    # the nodes and the end 1 with lag coupling, for the end 1 alone
    # without.
    from delayheat import delay_ode

    def no_kernel(*args, **kwargs):
        raise AssertionError("solve_modes evaluated the delay kernel")

    levels, asked = [], []
    halve, weights = delay_ode.halve_until_stable, delay_ode.exp_weights
    monkeypatch.setattr(delay_ode, "kernel", no_kernel)
    monkeypatch.setattr(delay_ode, "halve_until_stable", lambda level, *args,
                        **kw: halve(lambda per_dt, *rows: levels.append(
                            per_dt) or level(per_dt, *rows), *args, **kw))
    monkeypatch.setattr(delay_ode, "exp_weights", lambda rates, q, ends: (
        asked.append(list(ends))) or weights(rates, q, ends))
    a = -np.array([1.0, 10.0, 200.0, 3e3, 4e4])  # a dt from 0.125 to 5e3
    s = np.linspace(-1.0, 0.0, 33)
    history = HermitePaths(s, np.tile(np.cos(3.0 * s), (5, 1)),
                           np.tile(-3.0 * np.sin(3.0 * s), (5, 1)))
    t = np.linspace(0.0, 2.0, 33)
    forcing = HermitePaths(t, np.tile(np.sin(t), (5, 1)),
                           np.tile(np.cos(t), (5, 1)))
    x = solve_modes(a, np.full(5, b), 1.0, history, forcing, 8, 16)
    assert np.all(np.isfinite(x))
    assert len(levels) >= 2 and levels == [2**j for j in range(len(levels))]
    ends = list(_engine_ends(16)) if b else [1.0]
    assert asked == [ends] * len(levels)


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

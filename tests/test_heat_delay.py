"""Tests for the delayed heat solver: reduction rules, mode systems,
agreement with the scalar delay-ODE core, and grid-level structure."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from shipped_configs import CONFIGS, run_configs

from delayheat import (
    CompatibilityError,
    DelayHeatProblem,
    DelayOdeParams,
    EigenBasis,
    GridSpec,
    InputError,
    build_modes,
    fd_solve_delay,
    fs_sum,
    mode_solution,
    parse_function,
    reduce_delay,
    solve_delay,
    solve_at,
)
from delayheat.config import config_from_dict, load_config
from delayheat.delay_ode import solve_modes, solve_on_grid
from delayheat.quadrature import QuadratureConfig
from delayheat.spectral import HermitePaths


def _problem(a1=1.0, a2=0.0, b1=0.0, b2=0.0, d1=0.0, d2=0.0, tau=1.0,
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


# ---------------------------------------------------------------------------
# Reduction and its compatibility requirement
# ---------------------------------------------------------------------------


def test_nonproportional_drift_is_rejected():
    p = _problem(a1=1.0, a2=1.0, b1=1.0, b2=0.0)
    with pytest.raises(CompatibilityError) as exc:
        reduce_delay(p)
    assert exc.value.mismatch > 0.0


def test_proportional_drift_is_accepted():
    # b1 / a1^2 == b2 / a2^2 shares one exponential weight.
    p = _problem(a1=1.0, a2=0.5, b1=0.8, b2=0.2, d1=0.1, d2=-0.3)
    rp = reduce_delay(p)
    assert rp.mu == pytest.approx(-0.4)
    assert rp.c1 == pytest.approx(1.0 * 0.16 + 0.8 * (-0.4) + 0.1)
    assert rp.c2 == pytest.approx(0.25 * 0.16 + 0.2 * (-0.4) - 0.3)


def test_reduction_is_shared_until_a_field_is_reassigned():
    p = _problem(d2=-0.5)
    rp = reduce_delay(p)
    basis = EigenBasis(p.length, 4)
    assert reduce_delay(p) is rp
    assert build_modes(reduce_delay(p), basis) is build_modes(rp, basis)
    p.d2 = -0.25
    fresh = reduce_delay(p)
    assert fresh is not rp
    assert fresh.c2 == pytest.approx(-0.25)


def test_vanishing_lagged_diffusion_is_fine():
    p = _problem(a1=1.0, a2=0.0, b1=0.6, b2=0.0, d2=-0.5)
    rp = reduce_delay(p)
    assert rp.mu == pytest.approx(-0.3)
    assert rp.c2 == pytest.approx(-0.5)


def test_mode_rates_decrease_with_mode_number():
    p = _problem(a1=1.0, a2=0.5, d1=0.2, d2=0.1)
    ms = build_modes(reduce_delay(p), EigenBasis(p.length, 10))
    assert np.all(np.diff(ms.ode_a) < 0.0)
    assert np.all(np.diff(ms.ode_b) < 0.0)
    lam = EigenBasis(p.length, 10).eigenvalues()
    np.testing.assert_allclose(ms.ode_a, 0.2 - lam, atol=1e-12)
    np.testing.assert_allclose(ms.ode_b, 0.1 - 0.25 * lam, atol=1e-12)


def test_forcing_knots_follow_the_delay_intervals_that_cover_the_horizon():
    # T / tau = 2.1 / 0.3 rounds to 7.000000000000001: seven intervals, so
    # 64 * 7 + 1 knots at spacing tau / 64, on the dt = tau / m grid.
    p = _problem(tau=0.3, horizon=2.1, g="sin(x)*t")
    times = build_modes(reduce_delay(p), EigenBasis(p.length, 4)).forcing_paths.times
    assert times.size == 449
    np.testing.assert_allclose(np.diff(times), 0.3 / 64, rtol=1e-12)


def test_rows_past_the_horizon_read_the_projected_forcing():
    # T / tau = 1 / 0.3: the grid ends at T_eff = 54 dt = 1.0125 > T, and
    # the forcing is sampled up to 4 tau = 1.2, so no row extrapolates it.
    # The same problem to horizon 1.2 gives the same rows.
    kw = dict(a1=1.0, a2=0.3, d1=-0.2, d2=-0.4, tau=0.3,
              g="sin(x)*cos(7*t) + x*(pi-x)*exp(t)", psi="sin(2*x)*(1+t)")
    grid, basis = GridSpec(nx=40, nt_per_tau=16), EigenBasis(math.pi, 16)
    short = solve_delay(_problem(horizon=1.0, **kw), basis, grid)
    long = solve_delay(_problem(horizon=1.2, **kw), basis, grid)
    assert short.t[-1] == pytest.approx(1.0125)
    np.testing.assert_allclose(short.v, long.v[:short.t.size], rtol=0,
                               atol=1e-12)


# ---------------------------------------------------------------------------
# Projections of the history segment
# ---------------------------------------------------------------------------


def test_geometric_initial_data_projects_to_geometric_coefficients():
    # sin(theta) / (1 - 2 k cos(theta) + k^2) = sum_n k^{n-1} sin(n theta).
    kappa = 0.5
    p = _problem(
        psi=f"sin(pi*x/l) / (1 - 2*{kappa}*cos(pi*x/l) + {kappa}^2)",
        length=2.0,
    )
    ms = build_modes(reduce_delay(p), EigenBasis(p.length, 12))
    expected = kappa ** np.arange(12, dtype=float)
    np.testing.assert_allclose(ms.history_paths.values[:, 0], expected, atol=1e-9)
    # Constant-in-time history: the derivative paths vanish.
    assert np.max(np.abs(ms.history_paths.slopes)) < 1e-9


def test_time_varying_history_paths():
    p = _problem(psi="sin(x)*(1+t)", tau=1.0)
    ms = build_modes(reduce_delay(p), EigenBasis(p.length, 4))
    hist = ms.history_paths
    np.testing.assert_allclose(hist.values[0], 1.0 + hist.times, atol=1e-10)
    np.testing.assert_allclose(hist.slopes[0], 1.0, atol=1e-10)
    assert np.max(np.abs(hist.values[1:])) < 1e-10


def test_build_modes_projects_each_family_in_one_pass(monkeypatch):
    # Phi_n with Phi_n' and F_n with F_n' are read off one jet each; no
    # t-differentiated spec is projected on its own.  Only phi and f are
    # projected on the grid; the lift's share (-lift in Phi, F - f in F) is
    # handed over as the linear part.
    from delayheat import heat_delay

    calls, project = [], heat_delay.project_paths
    monkeypatch.setattr(heat_delay, "project_paths",
                        lambda spec, *args, **kw: calls.append((spec, kw))
                        or project(spec, *args, **kw))
    rp = reduce_delay(_problem(psi="sin(x)*(1+t)", g="x*cos(t)"))
    ms = build_modes(rp, EigenBasis(rp.length, 4))
    assert len(calls) == 2
    assert calls[0][0] is rp.phi and calls[1][0] is rp.source
    assert list(calls[0][1]) == ["linear"]
    assert calls[0][1]["linear"].base is rp.lift
    assert calls[0][1]["linear"].factor == -1.0
    assert calls[1][1] == {"linear": rp.lift_forcing}
    np.testing.assert_allclose(ms.history_paths.slopes[0], 1.0, atol=1e-10)


def test_build_modes_settles_smooth_families_on_the_second_rung(monkeypatch):
    # At N = 64 the panel ladder is 16, 32, 64, 128 panels; smooth data
    # agree between the first two rungs, and each family stops there.
    from delayheat import spectral

    counts, nodes = [], spectral.panel_nodes
    monkeypatch.setattr(spectral, "panel_nodes",
                        lambda edges, k: counts.append(edges.size - 1)
                        or nodes(edges, k))
    rp = reduce_delay(_problem(psi="sin(x)*(1+t)", g="x*cos(t)",
                               theta1="t", theta2="cos(t)"))
    build_modes(rp, EigenBasis(rp.length, 64))
    assert counts == [16, 32, 16, 32]


@pytest.mark.parametrize("path", [
    pytest.param(path, id=path.name) for path in run_configs()
    if load_config(path).kind == "delay"])
def test_shipped_mode_systems_match_a_16n_panel_rule(path):
    # Every value and slope of both families, lift share included, against
    # Phi and F projected whole on 16N panels.
    from delayheat.spectral import _project_rung

    cfg = load_config(path)
    quad = cfg.solver.quadrature
    basis = EigenBasis(cfg.problem.length, cfg.solver.modes)
    rp = reduce_delay(cfg.problem)
    ms = build_modes(rp, basis, quad)
    for spec, paths in ((rp.shifted_initial, ms.history_paths),
                        (rp.forcing, ms.forcing_paths)):
        values, slopes = _project_rung(spec, paths.times, basis, quad,
                                       16 * basis.n_modes, 1,
                                       max(1, 2048 // basis.n_modes))
        np.testing.assert_allclose(paths.values, values, rtol=0, atol=1e-13)
        np.testing.assert_allclose(paths.slopes, slopes, rtol=0, atol=1e-13)


# ---------------------------------------------------------------------------
# Agreement with the scalar closed-form core
# ---------------------------------------------------------------------------


def test_single_mode_field_matches_scalar_delay_ode():
    d2 = -0.5
    p = _problem(d2=d2, psi="sin(x)", tau=1.0, horizon=3.0)
    basis = EigenBasis(p.length, 6)
    grid = GridSpec(nx=16, nt_per_tau=8)
    field = solve_delay(p, basis, grid=grid)

    params = DelayOdeParams(a=-1.0, b=d2, tau=1.0)  # L_1 = -lambda_1 = -1 on (0, pi)
    history = lambda s, nu=0: np.full_like(np.asarray(s, dtype=float),
                                           0.0 if nu else 1.0)
    pos = field.t > 0.0
    expected = np.array(
        [solve_at(params, history, None, float(tj)) for tj in field.t[pos]]
    )
    synthesized = np.outer(expected, np.sin(field.x))
    assert np.max(np.abs(field.v[pos] - synthesized)) < 1e-9


def test_mode_solution_matches_direct_scalar_solve():
    p = _problem(a2=0.5, d1=0.3, d2=-0.2, psi="sin(2*x)", tau=0.5, horizon=1.5)
    rp = reduce_delay(p)
    ms = build_modes(rp, EigenBasis(p.length, 4))
    params = DelayOdeParams(a=0.3 - 4.0, b=-0.2 - 0.25 * 4.0, tau=0.5)
    history = lambda s, nu=0: np.full_like(np.asarray(s, dtype=float),
                                           0.0 if nu else 1.0)
    for t in (0.25, 0.5, 0.9, 1.5):
        assert mode_solution(ms, 2, t) == pytest.approx(
            solve_at(params, history, None, t), abs=1e-9
        )
    # Other modes carry no data at all.
    assert mode_solution(ms, 1, 0.7) == pytest.approx(0.0, abs=1e-10)
    with pytest.raises(InputError):
        mode_solution(ms, 5, 0.1)


# ---------------------------------------------------------------------------
# Grid-level structure of the returned field
# ---------------------------------------------------------------------------


def test_history_rows_carry_the_initial_segment():
    p = _problem(b1=0.4, psi="sin(x)*(1+0.5*t)", tau=1.0, horizon=2.0)
    field = solve_delay(p, EigenBasis(p.length, 4), grid=GridSpec(nx=12, nt_per_tau=4))
    hist = field.t <= 0.0
    assert np.sum(hist) == 5  # -tau .. 0 inclusive at 4 steps per delay
    expected = np.sin(field.x)[None, :] * (1.0 + 0.5 * field.t[hist])[:, None]
    assert np.max(np.abs(field.v[hist] - expected)) < 1e-12


def test_boundary_rows_match_traces():
    p = _problem(
        b1=0.5, d1=0.2, d2=-0.1,
        psi="sin(pi*x/l) + 0.3 + 0.1*x", theta1="0.3*cos(t)", theta2="0.3 + 0.1*l",
        length=2.0, tau=0.5, horizon=1.5,
    )
    field = solve_delay(p, EigenBasis(p.length, 16), grid=GridSpec(nx=10, nt_per_tau=4))
    pos = field.t > 0.0
    left = 0.3 * np.cos(field.t[pos])
    right = np.full(np.sum(pos), 0.3 + 0.1 * p.length)
    assert np.max(np.abs(field.v[pos, 0] - left)) < 1e-12
    assert np.max(np.abs(field.v[pos, -1] - right)) < 1e-12


def test_linearity_in_problem_data():
    kw = dict(a1=1.0, a2=0.5, b1=0.0, b2=0.0, d1=0.1, d2=-0.4,
              tau=0.5, length=1.0, horizon=1.25)
    basis = EigenBasis(1.0, 8)
    grid = GridSpec(nx=10, nt_per_tau=8)
    p1 = _problem(psi="sin(pi*x)", g="0", **kw)
    p2 = _problem(psi="0.5*sin(2*pi*x)*(1+t)", g="sin(pi*x)*t", **kw)
    p12 = DelayHeatProblem(
        g=fs_sum(p1.g, p2.g), psi=fs_sum(p1.psi, p2.psi),
        theta1=p1.theta1, theta2=p2.theta2, **kw,
    )
    v1 = solve_delay(p1, basis, grid=grid).v
    v2 = solve_delay(p2, basis, grid=grid).v
    v12 = solve_delay(p12, basis, grid=grid).v
    assert np.max(np.abs(v12 - (v1 + v2))) < 1e-9


def test_drift_weight_round_trip():
    p = _problem(b1=0.8, psi="sin(x)")
    rp = reduce_delay(p)
    field = solve_delay(p, EigenBasis(p.length, 4), grid=GridSpec(nx=8, nt_per_tau=4))
    frame = np.exp(rp.mu * field.x)[None, :]
    np.testing.assert_allclose(field.v, frame * field.u, atol=1e-13)


def test_mode_views_match_per_mode_fits_bitwise():
    # Each path family is one HermitePaths of the projected samples and
    # slopes; mode n's view of it must be the path a family of row n alone
    # gives, for every mode, and beta_n' must be that path's own derivative.
    p = _problem(d2=-0.5, tau=0.5, horizon=1.0,
                 psi="(1 + t)*x*(l - x) + sin(2*x)*cos(3*t)",
                 g="x*(l - x)*cos(2*t) + t*sin(5*x)")
    ms = build_modes(reduce_delay(p), EigenBasis(p.length, 16))
    rng = np.random.default_rng(5)
    s_hist = np.sort(rng.uniform(-p.tau, 0.0, 200))
    s_pos = np.sort(rng.uniform(0.0, p.horizon, 200))
    hist, forced = ms.history_paths, ms.forcing_paths
    assert np.ptp(hist.values[1]) > 0.1 and np.ptp(forced.values[4]) > 0.1
    second = ms.history_paths(s_hist, 2)
    for n in range(1, 17):
        phi = HermitePaths(hist.times, hist.values[n - 1], hist.slopes[n - 1])
        forcing = HermitePaths(forced.times, forced.values[n - 1],
                               forced.slopes[n - 1])
        history = ms.history_paths.row(n)
        assert np.array_equal(history.values, phi.values)
        assert np.array_equal(history.slopes, phi.slopes)
        assert np.array_equal(history(s_hist), phi(s_hist))
        assert np.array_equal(history(s_hist, 1), phi(s_hist, 1))
        assert np.array_equal(ms.forcing_paths.row(n)(s_pos), forcing(s_pos))
        assert np.array_equal(second[n - 1], phi(s_hist, 2))


def test_cubic_data_single_mode_matches_expression_reference():
    # History and forcing cubic in t are reproduced exactly by the Hermite
    # paths, so the series field equals the per-point closed form fed the
    # expressions themselves, up to quadrature rounding.
    psi = "(1 + 0.5*t - 0.3*t^2 + 0.2*t^3)*sin(x)"
    p = _problem(d2=-0.5, tau=0.5, horizon=1.5, psi=psi,
                 g="(0.4 - t + 0.7*t^2 - 0.25*t^3)*sin(x)")
    grid = GridSpec(nx=16, nt_per_tau=8)
    field = solve_delay(p, EigenBasis(p.length, 4), grid=grid)

    params = DelayOdeParams(a=-1.0, b=-0.5, tau=0.5)  # L_1 = -1, B_1 = d2
    beta = parse_function("1 + 0.5*t - 0.3*t^2 + 0.2*t^3")
    history = lambda s, nu=0: beta.partials(0.0, s, [(0, nu)])[0]
    rho = parse_function("0.4 - t + 0.7*t^2 - 0.25*t^3")
    pos = field.t > 0.0
    expected = np.array([solve_at(params, history, lambda s: rho(0.0, s),
                                  float(tj)) for tj in field.t[pos]])
    synthesized = np.outer(expected, np.sin(field.x))
    assert np.max(np.abs(field.v[pos] - synthesized)) < 1e-12


# ---------------------------------------------------------------------------
# Stiff modes: the scaled delayed parameter overflows, the solve does not
# ---------------------------------------------------------------------------


def test_stiff_mode_diagnostics_and_finite_solve():
    # With rates L_n = -n^2 on (0, pi), the scaled delayed parameter
    # B_n e^{-L_n tau} has log magnitude ~ n^2, crossing the float64
    # overflow threshold (~700) near n = 27.
    p = _problem(d2=1.0, psi="x*(l-x)*sin(pi*x/l)", length=math.pi,
                 tau=1.0, horizon=2.0)
    basis = EigenBasis(p.length, 32)
    ms = build_modes(reduce_delay(p), basis)
    assert math.log(abs(ms.ode_b[-1])) - ms.ode_a[-1] * ms.tau > 700.0
    # The solver never forms the overflowing product, so the field is finite.
    field = solve_delay(p, basis, grid=GridSpec(nx=10, nt_per_tau=4))
    assert np.all(np.isfinite(field.v))
    assert np.max(np.abs(field.v)) < 50.0


# ---------------------------------------------------------------------------
# The batched modal engine: one call evaluates every mode of a problem
# ---------------------------------------------------------------------------


def _engine_cases():
    cases = [pytest.param(cfg.problem, cfg.solver.modes, cfg.solver.nt_per_tau,
                          id=path.name)
             for path in run_configs()
             for cfg in [load_config(path)] if cfg.kind == "delay"]
    # Lagged diffusion makes B_n grow like n^2 too; the 128 modes, with
    # |L_n| dt up to 512, are solved in one call whose stiff factors the
    # exponential weights carry, each mode's by its own rate.
    stiff = _problem(a2=0.5, d2=-0.3, tau=0.5, horizon=1.0,
                     psi="x*(l-x)*(1+t)", g="x*cos(3*t)")
    # c2 = d2 = 1 = lambda_1 a2^2 at l = pi: B_1 = 0 exactly and every other
    # B_n < 0, so the family mixes both coupling kinds.
    mixed = _problem(a2=1.0, d2=1.0, tau=0.5, horizon=1.0,
                     psi="x*(l-x)*(1+t)", g="x*cos(3*t)")
    return cases + [pytest.param(stiff, 128, 16, id="stiff_128_modes"),
                    pytest.param(mixed, 16, 8, id="mixed_coupling")]


@pytest.mark.parametrize("p, modes, m", _engine_cases())
def test_batched_engine_matches_one_mode_calls(p, modes, m):
    quad = QuadratureConfig()
    ms = build_modes(reduce_delay(p), EigenBasis(p.length, modes), quad)
    t = GridSpec(nx=4, nt_per_tau=m).t_points(p.horizon, p.tau)
    n_steps = int(np.sum(t > 0.0))
    batched = solve_modes(ms.ode_a, ms.ode_b, p.tau, ms.history_paths,
                          ms.forcing_paths, m, n_steps, quad)
    assert batched.shape == (modes, n_steps)
    for n in range(1, modes + 1):
        alone = solve_on_grid(ms.mode_params(n), ms.history_paths.row(n),
                              ms.forcing_paths.row(n), m, n_steps, quad)
        scale = np.max(np.abs(alone))
        assert np.max(np.abs(batched[n - 1] - alone)) <= 1e-14 * scale, n


def test_the_weights_table_holds_the_stiff_family_within_its_bound():
    # The stiff 128-mode family, batched and one mode at a time, asks the
    # weights of a few grading groups: the process-wide table builds each
    # once and keeps every one within its bound, so the family solved again
    # builds none.
    from delayheat import quadrature

    p, modes, m = next(case.values for case in _engine_cases()
                       if case.id == "stiff_128_modes")
    ms = build_modes(reduce_delay(p), EigenBasis(p.length, modes))
    n_steps = int(np.sum(GridSpec(nx=4, nt_per_tau=m).t_points(p.horizon, p.tau)
                         > 0.0))

    def family():
        solve_modes(ms.ode_a, ms.ode_b, p.tau, ms.history_paths,
                    ms.forcing_paths, m, n_steps)
        for n in range(1, modes + 1):
            solve_on_grid(ms.mode_params(n), ms.history_paths.row(n),
                          ms.forcing_paths.row(n), m, n_steps)

    table = quadrature._graded_group
    table.cache_clear()
    family()
    built = table.cache_info()
    assert 0 < built.currsize == built.misses <= quadrature._GROUPS_KEPT
    family()
    assert table.cache_info().misses == built.misses


def test_delay_problem_without_lag_coupling_keeps_no_node_values(monkeypatch):
    # a2 = c2 = 0: every B_n vanishes, so the engine asks the weights of the
    # sub-panel end 1 alone: it computes no node weights and keeps no ring
    # of node values, and it evaluates no delay kernel.
    from delayheat import delay_ode

    def refused(*args, **kwargs):
        raise AssertionError("the b = 0 family evaluated the delay kernel")

    def end_weights_only(rates, q, ends):
        assert list(ends) == [1.0], "the b = 0 family asked for node weights"
        return weights(rates, q, ends)

    weights = delay_ode.exp_weights
    monkeypatch.setattr(delay_ode, "exp_weights", end_weights_only)
    monkeypatch.setattr(delay_ode, "kernel", refused)
    p = _problem(d1=-0.2, tau=0.5, horizon=1.0, psi="sin(x)*(1 + t)",
                 g="x*cos(t)")
    assert reduce_delay(p).c2 == 0.0
    grid = GridSpec(nx=40, nt_per_tau=8)
    field = solve_delay(p, EigenBasis(p.length, 16), grid=grid)
    coarse = fd_solve_delay(p, grid).v
    fine = fd_solve_delay(p, GridSpec(nx=80, nt_per_tau=16)).v
    tol = 4.0 * np.max(np.abs(coarse - fine[::2, ::2]))
    assert np.max(np.abs(field.v - coarse)) <= tol


def test_sweep_solve_holds_little_memory():
    # The modes recurse in chunks whose ring of one delay interval's node
    # values fits a fixed budget, so the 128-mode sweep fixture never holds
    # a (modes x sub-panels x nodes) array of a whole interval.
    cfg = load_config(CONFIGS / "delay_smooth_sweep.json")
    p = cfg.problem
    basis = EigenBasis(p.length, cfg.solver.modes)
    grid = GridSpec(nx=cfg.solver.nx, nt_per_tau=cfg.solver.nt_per_tau)
    tracemalloc.start()
    try:
        solve_delay(p, basis, grid=grid, quad=cfg.solver.quadrature)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_long_horizon_solve_holds_one_interval_of_node_values():
    # 32 modes over 80 delays of the sweep fixture's data at 32 steps per
    # delay: 2560 steps, 5120 sub-panels at the second level.  The engine
    # keeps the node values of one delay interval (32 x 64 x 16 doubles,
    # 0.25 MiB), where a store over the horizon would take 20 MiB.
    # Measured peak: 2.7 MiB (Python 3.11, numpy 2), most of it the
    # trajectories of two levels (0.6 MiB each) and their comparison.
    with open(CONFIGS / "delay_smooth_sweep.json") as fh:
        data = json.load(fh)
    data["problem"]["delay"] = data["problem"]["horizon"] / 80
    cfg = config_from_dict(data)
    p, quad = cfg.problem, cfg.solver.quadrature
    ms = build_modes(reduce_delay(p), EigenBasis(p.length, 32), quad)
    tracemalloc.start()
    try:
        x = solve_modes(ms.ode_a, ms.ode_b, p.tau, ms.history_paths,
                        ms.forcing_paths, 32, 2560, quad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.shape == (32, 2560) and np.all(np.isfinite(x))
    assert peak < 4 * 2**20


def test_solve_and_write_hold_little_memory(tmp_path):
    # The sweep fixture's field, 385 x 601 cells with a u column, is
    # synthesized one block of time rows at a time as it is written: the
    # peak is the modal solve's, not a (385 x 601) plane's (1.8 MiB) times
    # the three the whole-grid synthesis held.  A coarse run first builds
    # the caches every run shares.
    cfg = load_config(CONFIGS / "delay_smooth_sweep.json")
    basis = EigenBasis(cfg.problem.length, cfg.solver.modes)
    solve_delay(cfg.problem, basis, GridSpec(nx=20, nt_per_tau=4),
                cfg.solver.quadrature).write_csv(tmp_path / "warm.csv")
    p = load_config(CONFIGS / "delay_smooth_sweep.json").problem
    grid = GridSpec(nx=cfg.solver.nx, nt_per_tau=cfg.solver.nt_per_tau)
    tracemalloc.start()
    try:
        solve_delay(p, basis, grid=grid, quad=cfg.solver.quadrature
                    ).write_csv(tmp_path / "f.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


# ---------------------------------------------------------------------------
# Data that starts at a high mode
# ---------------------------------------------------------------------------


def test_data_starting_at_mode_six_matches_fd_oracle():
    # Modes 1-5 carry no data at all; every mode must still be solved.
    p = _problem(d2=-0.5, tau=0.5, horizon=1.0, psi="sin(6*x)")
    field = solve_delay(p, EigenBasis(p.length, 16),
                        grid=GridSpec(nx=60, nt_per_tau=16))
    coarse = fd_solve_delay(p, GridSpec(nx=60, nt_per_tau=16)).v
    fine = fd_solve_delay(p, GridSpec(nx=120, nt_per_tau=32)).v
    # CN's own error is about 4/3 of the refinement difference.
    tol = 4.0 * np.max(np.abs(coarse - fine[::2, ::2]))
    assert np.max(np.abs(field.v[field.t > 0.0])) > 0.2
    assert np.max(np.abs(field.v - coarse)) <= tol


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def test_problem_validation():
    with pytest.raises(InputError):
        _problem(a1=0.0)
    with pytest.raises(InputError):
        _problem(tau=-1.0)
    with pytest.raises(InputError):
        _problem(horizon=0.0)


def test_solve_delay_grid_requirements():
    p = _problem()
    with pytest.raises(InputError):
        solve_delay(p, EigenBasis(p.length, 4), grid=GridSpec(nx=8, nt=10))
    with pytest.raises(InputError):
        solve_delay(p, basis="nope", grid=GridSpec(nx=8, nt_per_tau=4))

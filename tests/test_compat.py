"""Tests for the admissibility checker: hard boundary compatibility, advisory
decay proxies on the mode coefficients, and the endpoint identities."""

import json
import math

import numpy as np
import pytest

from shipped_configs import CONFIGS, run_configs

from delayheat import (
    CheckSettings,
    CompatReport,
    ConfigError,
    DelayHeatProblem,
    DomainError,
    EigenBasis,
    HeatProblem,
    InputError,
    InsufficientDataError,
    NumericError,
    QuadratureConfig,
    Sampled1DFunction,
    Sampled2DFunction,
    UnsupportedOperationError,
    build_modes,
    check_compatibility,
    check_decay_conditions,
    check_endpoint_conditions,
    check_problem,
    config_from_dict,
    load_config,
    parse_function,
    reduce_delay,
    reduce_problem,
    steps_covered,
)
from delayheat.cli import main


def _delay(a1=1.0, a2=0.0, b1=0.0, b2=0.0, d1=0.0, d2=-0.5, tau=1.0,
           length=math.pi, horizon=2.0, g="0", psi="sin(x)",
           theta1="0", theta2="0", psi_spec=None):
    consts = {"l": length, "tau": tau}
    return DelayHeatProblem(
        a1=a1, a2=a2, b1=b1, b2=b2, d1=d1, d2=d2,
        tau=tau, length=length, horizon=horizon,
        g=parse_function(g, **consts),
        psi=psi_spec if psi_spec is not None else parse_function(psi, **consts),
        theta1=parse_function(theta1, **consts),
        theta2=parse_function(theta2, **consts),
    )


def _nodelay(psi="sin(pi*x/l)", theta1="0", theta2="0", g="0", length=1.0):
    return HeatProblem(
        a=1.0, b=0.0, c=0.0, length=length, horizon=1.0,
        g=parse_function(g, l=length),
        psi=parse_function(psi, l=length),
        theta1=parse_function(theta1, l=length),
        theta2=parse_function(theta2, l=length),
    )


# ---------------------------------------------------------------------------
# The gate's settings
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bad, message", [
    ({"tol": 0.0}, "check tol must be positive"),
    ({"fit_slack": math.nan}, "check fit_slack must be finite"),
    ({"m": 0}, "check m must be null or at least 1, got 0"),
    ({"fit_slack": -0.25}, "check fit_slack must be non-negative"),
])
def test_check_settings_reject_bad_values_when_built(bad, message):
    # From Python as from a config file, with the config's messages.
    with pytest.raises(InputError, match=message):
        CheckSettings(**bad)
    data = json.loads((CONFIGS / "delay_single_mode.json").read_text())
    data["check"] = bad
    with pytest.raises(ConfigError, match=message):
        config_from_dict(data)


def test_check_problem_gives_the_verdicts_of_a_config_file(tmp_path):
    settings = {"m": 1, "delta": 0.25, "fit_slack": 0.1, "tol": 1e-6}
    data = json.loads((CONFIGS / "delay_single_mode.json").read_text())
    data["check"] = settings
    data.pop("outputs", None)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(data))
    assert main(["check", "--config", str(path),
                 "--out-report", str(tmp_path / "report.json")]) == 0
    from_file = json.loads((tmp_path / "report.json").read_text())["compat"]
    cfg = load_config(path)
    report = check_problem(cfg.problem, basis=cfg.basis(),
                           quad=cfg.solver.quadrature,
                           check=CheckSettings(**settings))
    assert json.loads(json.dumps(report.to_dict())) == from_file
    assert (report.m, report.delta, report.boundary["tol"]) == (1, 0.25, 1e-6)


# ---------------------------------------------------------------------------
# Delay-interval counting and the hard boundary check
# ---------------------------------------------------------------------------


def test_steps_covered():
    assert steps_covered(2.0, 1.0) == 2
    assert steps_covered(2.0 + 1e-12, 1.0) == 2  # roundoff does not add a step
    assert steps_covered(2.1, 1.0) == 3
    assert steps_covered(0.5, 1.0) == 1


def test_boundary_check_delay_covers_whole_history_window():
    ok = check_compatibility(_delay())
    assert ok["pass"] and ok["at_x0"] < 1e-12 and ok["at_xl"] < 1e-12
    # A trace that only disagrees strictly before t = 0 still fails.
    bad = check_compatibility(_delay(theta1="0.1*t"))
    assert not bad["pass"]
    assert bad["at_x0"] == pytest.approx(0.1)


def test_boundary_check_nodelay_is_corner_only():
    assert check_compatibility(_nodelay(theta1="t"))["pass"]
    report = check_compatibility(_nodelay(psi="sin(pi*x/l) + 0.2"))
    assert not report["pass"]
    assert report["at_x0"] == pytest.approx(0.2)
    assert report["at_xl"] == pytest.approx(0.2)


def test_boundary_check_rejects_other_types():
    with pytest.raises(InputError):
        check_compatibility(object())


@pytest.mark.parametrize("kind", ["delay", "nodelay"])
def test_a_rejected_problem_gets_the_boundary_verdict_alone(monkeypatch, kind):
    # Neither reduced, projected nor fitted: no failure past the hard check
    # can replace its verdict.
    from delayheat import compat

    calls = []
    for name in ("build_modes", "_initial_coefficients",
                 "check_endpoint_conditions"):
        monkeypatch.setattr(compat, name,
                            lambda *args, name=name, **kw: calls.append(name))
    if kind == "delay":
        report = check_problem(_delay(psi="sin(x) + 0.2"))
        assert (report.m, report.delta) == (2, 0.5)
    else:
        report = check_problem(_nodelay(psi="sin(pi*x/l) + 0.2"))
        assert (report.m, report.delta) == (None, None)
    assert report.problem_kind == kind
    assert not report.hard_pass
    assert report.decay == [] and report.endpoint == []
    assert report.advisory_pass is None
    assert report.to_dict()["advisory_pass"] is None
    assert calls == []


# ---------------------------------------------------------------------------
# Advisory decay proxies
# ---------------------------------------------------------------------------


def test_single_mode_data_passes_all_proxies():
    report = check_problem(_delay())
    assert report.problem_kind == "delay"
    assert report.m == 2
    assert report.hard_pass
    assert report.advisory_pass
    names = [entry["name"] for entry in report.decay]
    assert names == ["history_endpoint_decay", "history_path_decay",
                     "forcing_path_decay"]
    assert all(entry["status"] == "pass" for entry in report.decay)
    assert all(entry["status"] == "pass" for entry in report.endpoint)


def test_parabola_initial_data_fails_decay_for_m1():
    # x (l - x) has coefficients ~ n^{-3}; the proxies need roughly n^{-5.5}
    # even for a single covered delay interval, so the fits must fail.
    p = _delay(psi="x*(l-x)", horizon=1.0)  # m = 1
    report = check_problem(p)
    assert report.m == 1
    assert report.hard_pass  # the parabola does vanish at both ends
    assert not report.advisory_pass
    endpoint = report.decay[0]
    assert endpoint["status"] == "fail"
    assert endpoint["slope"] == pytest.approx(2.5, abs=0.2)
    path = report.decay[1]
    assert path["status"] == "fail"
    assert path["slope"] > 0.0


def test_decay_conditions_require_enough_modes():
    ms = build_modes(reduce_delay(_delay()), EigenBasis(math.pi, 8))
    with pytest.raises(InsufficientDataError):
        check_decay_conditions(ms)


def test_check_problem_bumps_an_undersized_basis():
    report = check_problem(_delay(), basis=EigenBasis(math.pi, 4))
    assert len(report.decay) == 3
    assert all(entry["status"] == "pass" for entry in report.decay)


def test_time_varying_history_feeds_the_path_proxy():
    # sin x * cos t has nonzero Phi', but still only one active mode: the
    # sequences vanish from n = 2 on, so every proxy passes.
    report = check_problem(_delay(psi="sin(x)*cos(t)", theta1="0", theta2="0"))
    assert report.advisory_pass


# ---------------------------------------------------------------------------
# Endpoint identities
# ---------------------------------------------------------------------------


def test_endpoint_identity_names_follow_the_depth_schedule():
    report = check_problem(_delay(horizon=1.0))  # m = 1
    names = [entry["name"] for entry in report.endpoint]
    assert "initial_trace" in names
    # k = 0 allows x-orders 2..(2 m + 4); k = 2 only 2..(2 m).
    assert "initial_x6_t0" in names
    assert "initial_x2_t2" in names
    assert "initial_x6_t2" not in names
    assert "forcing_x2_t0" in names
    assert "forcing_x0_t1" in names
    assert "forcing_x2_t1" not in names


def test_endpoint_identities_detect_boundary_violations():
    p = _delay(psi="x*(l-x)", horizon=1.0)
    report = check_problem(p)
    by_name = {entry["name"]: entry for entry in report.endpoint}
    # The parabola vanishes at the ends but its second derivative (-2) does not.
    assert by_name["initial_trace"]["status"] == "pass"
    assert by_name["initial_x2_t0"]["status"] == "fail"
    assert by_name["initial_x2_t0"]["residual"] == pytest.approx(2.0, rel=1e-9)


def test_quotient_profile_verifies_its_high_order_identities():
    # The delay_smooth_sweep problem with a sharper quotient profile: its even
    # x-derivatives vanish at 0 and pi, so the order-8 identity holds.
    # Evaluating it must not degenerate into a zero divisor.
    p = _delay(d2=-0.4, tau=0.5, horizon=1.0, psi="sin(x) / (1.05 - cos(x))")
    by_name = {entry["name"]: entry for entry in check_endpoint_conditions(p)}
    entry = by_name["initial_x8_t0"]
    assert entry["status"] == "pass"
    assert isinstance(entry["residual"], float)
    assert entry["residual"] <= entry["tol"]


def _sampled_history(profile=np.sin):
    xs = np.linspace(0.0, math.pi, 41)
    ts = np.linspace(-1.0, 0.0, 9)
    values = profile(xs)[:, None] * np.ones(ts.size)[None, :]
    return Sampled2DFunction(x_points=xs, t_points=ts, values=values,
                             kind="linear")


def test_sampled_history_reports_unverifiable_not_failed():
    # A tent, kinked at its middle knot: its odd sine coefficients fall only
    # as n^-2.  (The linear interpolant of sin(x) on these knots has no
    # coefficient for 2 <= n <= 78, so 16 modes would see a single mode.)
    tent = _sampled_history(lambda x: np.minimum(x, math.pi - x))
    report = check_problem(_delay(psi_spec=tent))
    assert report.hard_pass
    # High-order derivatives exceed the linear interpolant's budget: those
    # endpoint identities report unverifiable, never a spurious failure.
    statuses = {entry["status"] for entry in report.endpoint}
    assert "unverifiable" in statuses
    assert "fail" not in statuses
    # The decay proxies, by contrast, see the interpolant itself - and a
    # piecewise-linear history genuinely lacks the required smoothness.
    assert not report.advisory_pass
    assert report.decay[0]["status"] == "fail"


def test_sampled_history_projects_with_its_knots_as_panel_edges(monkeypatch):
    # The table's x-knots are edges of every rung, so its linear interpolant
    # is a polynomial on each panel, exactly integrated: the history family
    # settles on the second rung, whose uniform edges are knots already.
    from delayheat import spectral

    layouts, nodes = [], spectral.panel_nodes
    monkeypatch.setattr(spectral, "panel_nodes",
                        lambda edges, k: layouts.append(edges)
                        or nodes(edges, k))
    table = _sampled_history()
    rp = reduce_delay(_delay(psi_spec=table))
    basis = EigenBasis(rp.length, 16)
    ms = build_modes(rp, basis)
    # The history, then the zero forcing.
    assert [edges.size - 1 for edges in layouts] == [40, 40, 4, 8]
    for edges in layouts[:2]:
        assert np.all(np.isin(table.x_points, edges))
    direct = spectral._project_rung(rp.phi, ms.history_paths.times, basis,
                                    QuadratureConfig(), 8, 1, 32 * 32 // 8)
    assert np.array_equal(ms.history_paths.values, direct[0])
    assert np.array_equal(ms.history_paths.slopes, direct[1])


def _reference_endpoint_checks(p, m=None, samples=65, tol=1e-8):
    """The endpoint checks entry by entry: each entry differentiates the
    reduced data step by step and evaluates it once per end; a derivative
    that a sampled table cannot supply raises there."""
    ends = [0.0, p.length]

    def entry(name, spec, steps, ts):
        try:
            for var, order in steps:
                spec = spec.differentiate(var, order)
            residual = float(max(np.max(np.abs(np.asarray(spec(x, ts))))
                                 for x in ends))
        except (UnsupportedOperationError, DomainError) as exc:
            return {"name": name, "residual": None, "tol": tol,
                    "status": "unverifiable", "detail": str(exc)}
        return {"name": name, "residual": residual, "tol": tol,
                "status": "pass" if residual <= tol else "fail"}

    pos_ts = np.linspace(0.0, p.horizon, samples)
    if isinstance(p, HeatProblem):
        rp = reduce_problem(p)
        return [entry("initial_trace", rp.shifted_initial, [], np.zeros(1)),
                entry("forcing_trace", rp.forcing, [], pos_ts),
                entry("forcing_x2_t0", rp.forcing, [("x", 2)], pos_ts)]
    rp = reduce_delay(p)
    m = steps_covered(p.horizon, p.tau) if m is None else m
    hist_ts = np.linspace(-p.tau, 0.0, samples)
    checks = [entry("initial_trace", rp.shifted_initial, [], hist_ts)]
    for k in range(3):
        for j in range(1, m + 3 - k):
            checks.append(entry(f"initial_x{2 * j}_t{k}", rp.shifted_initial,
                                [("x", 2)] * j + [("t", 1)] * k, hist_ts))
    for depth, count in ((0, m + 1), (1, m)):
        steps = [("t", 1)] * depth
        for j in range(count):
            checks.append(entry(f"forcing_x{2 * j}_t{depth}", rp.forcing,
                                steps + [("x", 2)] * j, pos_ts))
    return checks


def _linear_trace_problem():
    # A left trace tabulated linearly in t: the lift's t-derivative in F has
    # no t-derivative of its own, but the lift is linear in x, so its
    # x-derivatives of order 2 and more vanish identically and need none.
    ts = np.linspace(-1.0, 2.0, 13)
    theta1 = Sampled1DFunction(var="t", points=ts, values=0.1 * np.maximum(ts, 0.0),
                               kind="linear")
    p = _delay(psi="sin(x)")
    p.theta1 = theta1
    return p


_ENDPOINT_FIXTURES = {
    **{path.stem: (lambda path=path: load_config(path).problem)
       for path in run_configs()},
    "sampled_history": lambda: _delay(psi_spec=_sampled_history()),
    "expression_ops": lambda: _delay(
        psi="exp(-0.3*x)*sin(x)*log(2 + t) + (1 + t)^2*sin(2*x)*abs(2 - cos(x))",
        g="exp(-t)*x^3*(l - x)*log(1 + x)*sin(3*t)", horizon=1.5, tau=0.5),
    "linear_trace": _linear_trace_problem,
}


@pytest.mark.parametrize("fixture", sorted(_ENDPOINT_FIXTURES))
def test_endpoint_rows_match_the_per_entry_checks(fixture):
    p = _ENDPOINT_FIXTURES[fixture]()
    checks = check_endpoint_conditions(p)
    assert checks == _reference_endpoint_checks(p)
    if fixture == "linear_trace":
        # forcing_x0_t1 needs the trace's second t-derivative, which the
        # linear table lacks; forcing_x2_t1, above it in the row, is exactly 0.
        assert checks[-2:] == [
            {"name": "forcing_x0_t1", "residual": None, "tol": 1e-8,
             "status": "unverifiable",
             "detail": "Sampled1DFunction (linear) supports d/dt only up to order 1"},
            {"name": "forcing_x2_t1", "residual": 0.0, "tol": 1e-8,
             "status": "pass"}]


def test_domain_error_row_still_reports_its_lower_entries():
    data = json.loads((CONFIGS / "delay_single_mode.json").read_text())
    data["problem"]["source"] = "sqrt(x)*cos(t)"
    cfg = config_from_dict(data)
    checks = check_endpoint_conditions(cfg.problem, m=cfg.check.m)
    by_name = {c["name"]: c for c in checks}
    assert by_name["forcing_x0_t0"]["status"] == "fail"
    assert by_name["forcing_x0_t0"]["residual"] == 1.7724538509055159
    assert by_name["forcing_x2_t0"]["status"] == "unverifiable"
    assert by_name["forcing_x2_t0"]["detail"] == "zero raised to a negative power"
    assert checks == _reference_endpoint_checks(cfg.problem, m=cfg.check.m)


def test_endpoint_checks_evaluate_one_jet_per_row(monkeypatch):
    p = _delay(horizon=1.0)  # m = 1
    rp = reduce_delay(p)
    jets = []
    for which, spec in (("initial", rp.shifted_initial), ("forcing", rp.forcing)):
        def counted(x, t, kx, kt, which=which, inner=spec._jet):
            jets.append((which, kx, kt))
            return inner(x, t, kx, kt)
        monkeypatch.setattr(spec, "_jet", counted)
    check_endpoint_conditions(p)
    # initial_trace, the initial rows k = 0, 1, 2 and the forcing rows at
    # depth 0 and 1, each at its top order.
    assert jets == [("initial", 0, 0), ("initial", 6, 0), ("initial", 4, 1),
                    ("initial", 2, 2), ("forcing", 2, 0), ("forcing", 0, 1)]


# ---------------------------------------------------------------------------
# Problems without delay
# ---------------------------------------------------------------------------


def test_nodelay_single_mode_report():
    report = check_problem(_nodelay())
    assert report.problem_kind == "nodelay"
    assert report.m is None
    assert report.hard_pass and report.advisory_pass
    entry = report.decay[0]
    assert entry["name"] == "initial_coefficient_decay"
    assert entry["status"] == "pass"


def test_nodelay_decay_fit_errors_other_than_too_few_entries_propagate(
        monkeypatch):
    # Only a sequence too short to fit is reported as 'unverifiable'; any
    # other failure inside the fit is a fault and must surface.
    from delayheat import compat

    def broken(*args, **kwargs):
        raise NumericError("fit blew up")

    monkeypatch.setattr(compat, "decay_fit", broken)
    with pytest.raises(NumericError, match="fit blew up"):
        check_problem(_nodelay(psi="x*(1-x)"))


def _nodelay_entry(monkeypatch, coeffs, fit_slack=0.25):
    """The no-delay decay entry for an initial offset with sine
    coefficients ``coeffs``."""
    from delayheat import compat

    monkeypatch.setattr(compat, "_initial_coefficients",
                        lambda *args: np.asarray(coeffs, dtype=float))
    report = check_problem(_nodelay(), check=CheckSettings(fit_slack=fit_slack))
    return report.decay[0]


def test_nodelay_entry_judges_the_rate_against_its_class(monkeypatch):
    n = np.arange(1, 65, dtype=float)
    # Rate 3 misses the class rate 4.5 less the slack 0.25 ...
    entry = _nodelay_entry(monkeypatch, np.where(n % 2 == 1, n**-3.0, 0.0))
    assert entry["exponent"] == 4.5
    assert entry["slope"] == pytest.approx(-3.0)
    assert entry["status"] == "fail"
    # ... rate 4.3 clears it ...
    assert _nodelay_entry(monkeypatch, n**-4.3)["status"] == "pass"
    # ... and decay faster than any power passes whatever its fitted rate.
    entry = _nodelay_entry(monkeypatch, np.exp(-n[:40]))
    assert entry["status"] == "pass"
    assert entry["detail"] == "super-polynomial decay"


def test_nodelay_entry_is_fitted_on_the_minimum_mode_count(monkeypatch):
    # A 1-mode basis is raised to DECAY_MIN_MODES for the fit, as for the
    # delayed kind; sin(pi x) then has a tail at the floor and passes.
    from delayheat import compat

    seen, inner = [], compat._initial_coefficients

    def recording(rp, basis, quad):
        seen.append(basis.n_modes)
        return inner(rp, basis, quad)

    monkeypatch.setattr(compat, "_initial_coefficients", recording)
    report = check_problem(_nodelay(), basis=EigenBasis(1.0, 1))
    assert seen == [compat.DECAY_MIN_MODES]
    assert report.decay[0]["status"] == "pass"
    assert report.decay[0]["detail"] == (
        "tail sits at the numerical floor (finitely many active modes)")


def test_nodelay_entry_with_too_few_entries_above_the_floor_is_unverifiable(
        monkeypatch):
    coeffs = np.zeros(64)
    coeffs[[0, 1, 2, 40, 50]] = [1.0, -0.5, 0.3, 0.1, -0.1]
    entry = _nodelay_entry(monkeypatch, coeffs)
    assert entry["status"] == "unverifiable"
    assert entry["slope"] is None
    assert entry["detail"] == "only 5 usable entries; need 8 for a fit"


def test_fit_slack_has_opposite_senses_in_the_two_kinds(monkeypatch):
    # Raising fit_slack makes the no-delay entry laxer and the delay proxies
    # stricter; the exponents differ too (a rate to reach, a weight power).
    from delayheat import compat

    n = np.arange(1, 65, dtype=float)
    assert _nodelay_entry(monkeypatch, n**-4.1, 0.25)["status"] == "fail"
    assert _nodelay_entry(monkeypatch, n**-4.1, 0.5)["status"] == "pass"
    weighted = n**4.5 * n**-4.9
    assert compat._fit_sequence("d", 4.5, weighted,
                                compat._delay_verdict(0.25))["status"] == "pass"
    assert compat._fit_sequence("d", 4.5, weighted,
                                compat._delay_verdict(0.5))["status"] == "fail"


def test_nodelay_parabola_fails_smoothness_proxy():
    report = check_problem(_nodelay(psi="x*(1-x)"))
    assert report.hard_pass
    entry = report.decay[0]
    assert entry["status"] == "fail"
    # The log-log slope of coefficients ~ n^-3, signed as the delay entries.
    assert entry["slope"] == pytest.approx(-3.0, abs=0.1)
    assert not report.advisory_pass


# ---------------------------------------------------------------------------
# Report container
# ---------------------------------------------------------------------------


def test_report_serialization_and_verdicts():
    report = CompatReport(
        problem_kind="delay",
        boundary={"at_x0": 0.0, "at_xl": 0.0, "tol": 1e-8, "pass": True},
        decay=[{"name": "a", "status": "pass"},
               {"name": "b", "status": "unverifiable"}],
        endpoint=[{"name": "c", "status": "fail"}],
        m=2, delta=0.5,
    )
    assert report.hard_pass
    assert report.advisory_pass  # unverifiable is not a failure
    data = report.to_dict()
    assert data["hard_pass"] is True
    assert data["advisory_pass"] is True
    report.decay.append({"name": "d", "status": "fail"})
    assert not report.advisory_pass

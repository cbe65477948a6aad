"""Tests for the sine eigenbasis: projection, synthesis, and decay fitting."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayheat import (
    DecayReport,
    DelayHeatProblem,
    EigenBasis,
    InputError,
    InsufficientDataError,
    NumericError,
    QuadratureConfig,
    QuadratureError,
    Sampled1DFunction,
    Sampled2DFunction,
    UnsupportedOperationError,
    build_modes,
    decay_fit,
    fs_exp_weight,
    fs_sum,
    parse_function,
    reduce_delay,
)
from delayheat import spectral
from delayheat.funcspec import FunctionSpec
from delayheat.spectral import HermitePaths, _project_rung, project_paths


# ---------------------------------------------------------------------------
# Basis bookkeeping
# ---------------------------------------------------------------------------


def test_mode_numbers_and_eigenvalues():
    basis = EigenBasis(length=2.0, n_modes=5)
    assert np.array_equal(basis.mode_numbers, [1, 2, 3, 4, 5])
    np.testing.assert_allclose(basis.wavenumbers(), np.pi * np.arange(1, 6) / 2.0)
    np.testing.assert_allclose(basis.eigenvalues(), (np.pi * np.arange(1, 6) / 2.0) ** 2)


def test_eigenfunctions_shape_and_values():
    basis = EigenBasis(length=np.pi, n_modes=3)
    x = np.array([0.0, np.pi / 2.0, np.pi])
    table = basis.eigenfunctions(x)
    assert table.shape == (3, 3)
    # Modes vanish at both ends of the interval.
    np.testing.assert_allclose(table[:, 0], 0.0, atol=1e-15)
    np.testing.assert_allclose(table[:, -1], 0.0, atol=1e-14)
    # sin(n x) at x = pi/2 is 1, 0, -1 for n = 1, 2, 3.
    np.testing.assert_allclose(table[:, 1], [1.0, 0.0, -1.0], atol=1e-15)


def test_basis_validation():
    with pytest.raises(InputError):
        EigenBasis(length=-1.0, n_modes=4)
    with pytest.raises(InputError):
        EigenBasis(length=math.inf, n_modes=4)
    with pytest.raises(InputError):
        EigenBasis(length=1.0, n_modes=0)


# ---------------------------------------------------------------------------
# Projection against closed forms
# ---------------------------------------------------------------------------


class _OfX(FunctionSpec):
    """The vectorized callable ``fn`` of x alone, with no known factors, so
    projections take the grid rung."""

    def __init__(self, fn):
        self.fn = fn

    def _jet(self, x, t, kx, kt):
        return np.reshape(self.fn(np.ravel(x)), np.shape(x))


def _coefficients(spec, basis, quad=QuadratureConfig()):
    """The sine coefficients of a spec of x alone: ``project_paths`` at one
    time with no t-derivative."""
    (coeffs,) = project_paths(spec, np.zeros(1), basis, quad, kt=0)
    return coeffs[:, 0]


def test_single_mode_projection_is_unit_vector():
    basis = EigenBasis(length=np.pi, n_modes=8)
    coeffs = _coefficients(parse_function("sin(3*x)"), basis)
    expected = np.zeros(8)
    expected[2] = 1.0
    np.testing.assert_allclose(coeffs, expected, atol=1e-12)


def test_parabola_coefficients_match_closed_form():
    # x (1 - x) on [0, 1] has sine coefficients 8 / (pi^3 n^3) for odd n,
    # zero for even n.
    basis = EigenBasis(length=1.0, n_modes=63)
    coeffs = _coefficients(parse_function("x*(1 - x)"), basis)
    n = basis.mode_numbers
    expected = np.where(n % 2 == 1, 8.0 / (np.pi**3 * n.astype(float) ** 3), 0.0)
    np.testing.assert_allclose(coeffs, expected, atol=1e-10)


def test_sine_projection_raises_when_splits_run_out():
    # A jump between panel edges never settles; two halvings past P are
    # allowed.
    basis = EigenBasis(length=np.pi, n_modes=4)
    quad = QuadratureConfig(max_panel_splits=2)
    with pytest.raises(QuadratureError,
                       match=r"^sine projection did not converge to 1e-10$") as err:
        _coefficients(_OfX(lambda x: np.where(x < 1.0, 1.0, 0.0)), basis, quad)
    assert np.isfinite(err.value.residual)
    assert err.value.residual > quad.abs_tol


def test_parabola_coefficients_scale_with_length():
    # x (l - x) scales the odd coefficients to 8 l^2 / (pi^3 n^3).
    length = 2.5
    basis = EigenBasis(length=length, n_modes=21)
    coeffs = _coefficients(parse_function("x*(l - x)", l=length), basis)
    n = basis.mode_numbers
    expected = np.where(
        n % 2 == 1, 8.0 * length**2 / (np.pi**3 * n.astype(float) ** 3), 0.0
    )
    np.testing.assert_allclose(coeffs, expected, atol=1e-10)


def _kinked_coefficients_in_bounded_memory(spec):
    # |x - 1| on [0, pi] settles only at 2^18 points, one halving short of
    # the limit; that rung's whole sine table and its argument would be
    # 2 x 64 x 2^18 doubles, 256 MiB.  Each path sums tables of 2^16 points.
    basis = EigenBasis(length=np.pi, n_modes=64)
    tracemalloc.start()
    try:
        coeffs = _coefficients(spec, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    k = basis.wavenumbers()
    integral = (1.0 / k - 2.0 * np.sin(k) / k**2 - (np.pi - 1.0) * np.cos(k * np.pi) / k
                + np.sin(k * np.pi) / k**2)
    np.testing.assert_allclose(coeffs, (2.0 / np.pi) * integral, atol=1e-9)


def test_kinked_projection_memory_is_bounded():
    _kinked_coefficients_in_bounded_memory(parse_function("abs(x - 1)"))


def test_kinked_projection_on_the_grid_memory_is_bounded():
    _kinked_coefficients_in_bounded_memory(_OfX(lambda x: np.abs(x - 1.0)))


def test_projection_synthesis_round_trip_band_limited():
    basis = EigenBasis(length=1.7, n_modes=12)
    rng = np.random.default_rng(7)
    target = rng.normal(size=12)
    f = lambda x: target @ basis.eigenfunctions(x)
    recovered = _coefficients(_OfX(f), basis)
    np.testing.assert_allclose(recovered, target, atol=1e-11)


def test_parseval_identity():
    # For f = sum c_n sin(pi n x / l), the integral of f^2 over [0, l]
    # equals (l / 2) * sum c_n^2.
    basis = EigenBasis(length=1.3, n_modes=6)
    coeffs = np.array([0.9, -0.4, 0.2, 0.0, 0.05, -0.01])
    xs = np.linspace(0.0, basis.length, 20001)
    vals = coeffs @ basis.eigenfunctions(xs)
    integral = np.trapezoid(vals**2, xs)
    assert integral == pytest.approx(basis.length / 2.0 * np.sum(coeffs**2), rel=1e-6)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
        min_size=4,
        max_size=10,
    )
)
def test_round_trip_property(target):
    basis = EigenBasis(length=1.0, n_modes=len(target))
    target = np.asarray(target)
    recovered = _coefficients(_OfX(lambda x: target @ basis.eigenfunctions(x)),
                              basis)
    np.testing.assert_allclose(recovered, target, atol=1e-9)


# ---------------------------------------------------------------------------
# Hermite coefficient paths
# ---------------------------------------------------------------------------


def test_hermite_paths_reproduce_cubics_and_rows_match_single_fits():
    # Three cubics in t, sampled with their exact slopes on 9 uniform times:
    # every interpolant is the cubic itself, for values and both derivatives,
    # and outside the sample times the end cubics extend it.
    coef = np.array([[1.0, -2.0, 0.5, 3.0],
                     [0.0, 0.25, -1.5, 0.75],
                     [-4.0, 1.0, 2.0, -0.5]])      # c0 + c1 t + c2 t^2 + c3 t^3
    times = np.linspace(-1.0, 1.0, 9)

    def cubic(t, nu):
        t = np.asarray(t, dtype=float)[None, :]
        c0, c1, c2, c3 = (coef[:, k:k + 1] for k in range(4))
        return [c0 + t * (c1 + t * (c2 + t * c3)),
                c1 + t * (2.0 * c2 + t * 3.0 * c3),
                2.0 * c2 + t * 6.0 * c3][nu]

    family = HermitePaths(times, cubic(times, 0), cubic(times, 1))
    s = np.concatenate([np.linspace(-1.1, 1.1, 301), times])
    for nu in (0, 1, 2):
        np.testing.assert_allclose(family(s, nu), cubic(s, nu),
                                   rtol=0.0, atol=1e-12)
    assert family(0.3).shape == (3,)
    assert family(s.reshape(2, -1)).shape == (3, 2, s.size // 2)
    with pytest.raises(InputError):
        family(s, 3)

    # Rows of a family of arbitrary data equal families of one row each.
    values = np.sin(3.0 * times) * coef[:, :1]
    slopes = np.cos(times) * coef[:, 1:2]
    family = HermitePaths(times, values, slopes)
    for n in (1, 2, 3):
        alone = HermitePaths(times, values[n - 1], slopes[n - 1])
        for nu in (0, 1, 2):
            assert np.array_equal(family.row(n)(s, nu), alone(s, nu))
            assert np.array_equal(family(s, nu)[n - 1], alone(s, nu))


def test_project_paths_reads_values_and_slopes_off_one_jet():
    basis = EigenBasis(length=math.pi, n_modes=8)
    spec = parse_function("exp(-t)*sin(2*x) + x*(l - x)*cos(3*t)", l=math.pi)
    # More than one block of columns on every rung (256 columns on 2 panels
    # down to 32 on P = 16).
    times = np.linspace(0.0, 1.0, 300)
    values, slopes = project_paths(spec, times, basis)
    # The same numbers as projecting the value and the t-derivative apart.
    (alone,) = project_paths(spec, times, basis, kt=0)
    (rate,) = project_paths(spec.differentiate("t"), times, basis, kt=0)
    assert np.array_equal(values, alone)
    assert np.array_equal(slopes, rate)
    np.testing.assert_allclose(values[1], np.exp(-times), atol=1e-12)
    np.testing.assert_allclose(slopes[1], -np.exp(-times), atol=1e-12)
    # A spec without a t-derivative has no slopes to project.
    linear = Sampled1DFunction(var="t", points=times, values=times**2,
                               kind="linear")
    with pytest.raises(UnsupportedOperationError):
        project_paths(linear.differentiate("t"), times, basis)


def _rungs(monkeypatch):
    """The panel count of every rule the projections lay out."""
    counts, nodes = [], spectral.panel_nodes
    monkeypatch.setattr(spectral, "panel_nodes",
                        lambda edges, k: counts.append(edges.size - 1)
                        or nodes(edges, k))
    return counts


@pytest.mark.parametrize("n_modes, smooth, kinked", [
    (1, [1, 2], (1024, False)),     # P = 4 starts at P/4
    (3, [3, 6], (1536, False)),     # P = 6 starts at P/2
    (64, [16, 32], (32768, True)),
])
def test_project_paths_climbs_a_panel_ladder_to_max_4_2n(monkeypatch, n_modes,
                                                         smooth, kinked):
    # Smooth data settle on the second rung.  Data with a kink inside a
    # panel climb past P = max(4, 2N), up to max_panel_splits more halvings:
    # they settle only on that last rung P * 2^8 at N = 64, exactly as its
    # rule projects them, and raise at N = 1 and 3.
    basis = EigenBasis(length=math.pi, n_modes=n_modes)
    quad = QuadratureConfig()
    times = np.linspace(0.0, 1.0, 9)
    top = max(4, 2 * n_modes)
    spec = parse_function("sin(x)*(1 + t)")
    counts = _rungs(monkeypatch)
    got = project_paths(spec, times, basis, quad)
    assert counts == smooth
    finest = _project_rung(spec, times, basis, quad, smooth[-1], 1,
                           32 * top // smooth[-1])
    assert np.array_equal(np.stack(got), finest)

    last, settles = kinked
    assert last == top << quad.max_panel_splits
    ladder = [smooth[0]]
    while ladder[-1] < last:
        ladder.append(2 * ladder[-1])
    spec = parse_function("abs(x - 1)*(1 + t)")
    counts[:] = []
    if not settles:
        with pytest.raises(QuadratureError,
                           match="^sine projection did not converge to 1e-10$"):
            project_paths(spec, times, basis, quad)
        assert counts == ladder
        return
    got = project_paths(spec, times, basis, quad)
    assert counts == ladder
    finest = _project_rung(spec, times, basis, quad, last, 1, 1)
    assert np.array_equal(np.stack(got), finest)


class _OnTheGrid(FunctionSpec):
    """``base`` with no known factors, so projections take the grid rung."""

    def __init__(self, base):
        self.base = base

    def _jet(self, x, t, kx, kt):
        return self.base._jet(x, t, kx, kt)


# The benchmark's data shapes: an initial segment A(x) + t B(x) and a source
# x (l - x) cos(w t), each under the drift-removing weight exp(-mu x).
_SEGMENT = fs_exp_weight(parse_function(
    "(0.38 + 0.44*t) + (x/l)*((0.29 - 0.35*t) - (0.38 + 0.44*t))"
    " + (0.87 + 0.58*t)*sin(3*x) + (0.95 - 0.83*t)*sin(4*x)", l=math.pi),
    coef_x=-0.01)
_SOURCE = fs_exp_weight(parse_function("1.42*x*(l - x)*cos(3.63*t)",
                                       l=math.pi), coef_x=-0.01)
_TABLE_TIMES = np.linspace(-0.5, 1.0, 31)


@pytest.mark.parametrize("spec", [
    _SEGMENT,
    _SOURCE,
    parse_function("sin(x) / (1.25 - 1.0*cos(x))"),
    # A t-table times exp(0.4 x) (no combinator multiplies two specs).
    fs_sum(fs_exp_weight(Sampled1DFunction(
        var="t", points=_TABLE_TIMES, values=np.cos(2.0 * _TABLE_TIMES)),
        coef_x=0.4), parse_function("sin(x)*exp(t)")),
    _SEGMENT.differentiate("t"),
], ids=["segment", "source", "x_quotient", "t_table", "segment_dt"])
def test_separable_specs_project_by_their_factors_as_on_the_grid(
        monkeypatch, spec):
    assert spec.separate() is not None
    basis = EigenBasis(length=math.pi, n_modes=32)
    times = np.linspace(-0.5, 0.0, 129)
    counts = _rungs(monkeypatch)
    got = project_paths(spec, times, basis)
    rungs, counts[:] = list(counts), []
    grid = project_paths(_OnTheGrid(spec), times, basis)
    assert counts == rungs
    for factors, cells in zip(got, grid):
        np.testing.assert_allclose(factors, cells, rtol=0,
                                   atol=1e-13 * np.max(np.abs(cells)))


@pytest.mark.parametrize("spec", [
    parse_function("sin(x + t)"),
    parse_function("exp(-0.2*x + 0.26*t) * (1 + pi^2 + pi^2*t) * sin(pi*x)"),
    Sampled2DFunction(np.linspace(0.0, math.pi, 9), np.linspace(0.0, 1.0, 5),
                      np.outer(np.sin(np.linspace(0.0, math.pi, 9)),
                               np.linspace(1.0, 2.0, 5))),
], ids=["sin_x_plus_t", "joint_exp", "table_2d"])
def test_specs_that_do_not_separate_keep_the_grid_rung(spec):
    assert spec.separate() is None
    basis = EigenBasis(length=math.pi, n_modes=8)
    times = np.linspace(0.0, 1.0, 40)
    for got, grid in zip(project_paths(spec, times, basis),
                         project_paths(_OnTheGrid(spec), times, basis)):
        assert np.array_equal(got, grid)


@pytest.mark.parametrize("on_the_grid", [False, True], ids=["factors", "grid"])
def test_a_linear_x_table_settles_on_the_second_rung_at_its_closed_form(
        monkeypatch, on_the_grid):
    # The knots are panel edges, so each panel integrates one line exactly.
    # With slopes s_i between knots, integrating by parts twice gives
    # c_n = (2 / l) [(f(0) - f(l) cos(k l)) / k
    #                + sum_i s_i (sin(k x_(i+1)) - sin(k x_i)) / k^2].
    length = 2.0
    xs = np.array([0.0, 0.13, 0.55, 0.77, 1.2, 1.61, 2.0])
    fs = np.array([0.3, -0.4, 1.1, 0.2, 0.9, -0.6, 0.5])
    table = Sampled1DFunction(var="x", points=xs, values=fs, kind="linear")
    spec = _OnTheGrid(table) if on_the_grid else table
    basis = EigenBasis(length, 16)
    times = np.linspace(0.0, 1.0, 5)
    counts = _rungs(monkeypatch)
    values, slopes = project_paths(spec, times, basis)
    assert counts == [4 + xs.size - 2, 8 + xs.size - 2]
    k = basis.wavenumbers()[:, None]
    rise = np.diff(fs) / np.diff(xs)
    expected = (2.0 / length) * (
        (fs[0] - fs[-1] * np.cos(k[:, 0] * length)) / k[:, 0]
        + (rise * np.diff(np.sin(k * xs), axis=1)).sum(axis=1) / k[:, 0] ** 2)
    np.testing.assert_allclose(values, expected[:, None] + 0.0 * times,
                               rtol=0, atol=1e-12)
    assert np.all(slopes == 0.0)


def test_project_paths_raises_on_a_jump_in_x():
    # A sign jump inside a panel settles on no rung, up to P * 2^8 panels.
    spec = parse_function("(1 + t)*(x - 1)/abs(x - 1)")
    times = np.linspace(0.0, 1.0, 5)
    with pytest.raises(QuadratureError,
                       match="^sine projection did not converge to 1e-10$") as err:
        project_paths(spec, times, EigenBasis(math.pi, 16))
    assert err.value.residual > 1e-10


def test_an_overflowing_product_of_factors_is_a_numeric_error():
    # Each factor is finite (e^700 < 1.8e308); their product is not.
    spec = parse_function("exp(700*x)*exp(700*t)")
    times = np.linspace(0.0, 1.0, 5)
    assert spec.separate() is not None
    with pytest.raises(NumericError, match="non-finite"):
        project_paths(spec, times, EigenBasis(1.0, 4))


def test_build_modes_evaluates_benchmark_data_on_no_2d_grid(monkeypatch):
    # Projecting separable data needs its factors on the Gauss points and on
    # the sample times, never a jet on the (points x times) grid.
    consts = {"l": math.pi, "tau": 0.25}
    left, right = "0.38 + 0.44*t", "0.29 - 0.35*t"
    p = DelayHeatProblem(
        a1=0.98, a2=0.30, b1=0.02, b2=0.02 * 0.30**2 / 0.98**2, d1=0.15,
        d2=-0.13, tau=0.25, length=math.pi, horizon=0.75,
        g=parse_function("1.42*x*(l - x)*cos(3.63*t)", **consts),
        psi=parse_function(f"({left}) + (x/l)*(({right}) - ({left}))"
                           " + (0.87 + 0.58*t)*sin(3*x)", **consts),
        theta1=parse_function(left, **consts),
        theta2=parse_function(right, **consts))
    shapes, partials = [], FunctionSpec.partials

    def recording(self, x, t, orders):
        shapes.append(np.broadcast_shapes(np.shape(x), np.shape(t)))
        return partials(self, x, t, orders)

    monkeypatch.setattr(FunctionSpec, "partials", recording)
    build_modes(reduce_delay(p), EigenBasis(math.pi, 64))
    assert shapes and all(len(shape) <= 1 for shape in shapes)


# ---------------------------------------------------------------------------
# Decay fitting
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kt", [0, 1])
def test_project_paths_adds_a_linear_part_in_closed_form(kt):
    # spec + (A(t) + x B(t)) projected on the grid, against spec projected
    # with the linear part added from the closed-form coefficients of 1 and x.
    spec = parse_function("sin(2*x)*cos(t) + x^2*t")
    linear = parse_function("(1 + t^2) + x*exp(t)")
    basis = EigenBasis(2.0, 12)
    times = np.linspace(0.0, 1.0, 40)
    full = project_paths(fs_sum(spec, linear), times, basis, kt=kt)
    split = project_paths(spec, times, basis, kt=kt, linear=linear)
    assert len(split) == kt + 1
    for whole, part in zip(full, split):
        np.testing.assert_allclose(part, whole, rtol=0,
                                   atol=1e-14 * np.max(np.abs(whole)))


def test_decay_fit_recovers_cubic_rate():
    n = np.arange(1, 64, dtype=float)
    coeffs = np.where(n % 2 == 1, 8.0 / (np.pi**3 * n**3), 0.0)
    report = decay_fit(coeffs)
    assert isinstance(report, DecayReport)
    assert report.slope == pytest.approx(3.0, abs=0.1)
    assert not report.super_polynomial
    assert report.n_used == 32  # odd modes only
    assert report.window == (1, 63)


def test_decay_fit_thresholds():
    # decay_fit is a pure fit: it reports the rate and judges nothing (the
    # compat gate's no-delay entry holds the class threshold).
    n = np.arange(1, 64, dtype=float)
    coeffs = np.where(n % 2 == 1, 8.0 / (np.pi**3 * n**3), 0.0)
    report = decay_fit(coeffs)
    assert report.slope == pytest.approx(3.0, abs=0.1)
    assert not hasattr(report, "threshold") and not hasattr(report, "passed")


def test_decay_fit_super_polynomial_flag():
    n = np.arange(1, 41, dtype=float)
    coeffs = np.exp(-n)
    report = decay_fit(coeffs)
    assert report.super_polynomial
    # The log-log slope keeps steepening: the fitted rate outruns n^-3.
    assert report.slope > 3.0


def test_decay_fit_pure_power_not_flagged_super_polynomial():
    n = np.arange(1, 41, dtype=float)
    report = decay_fit(1.0 / n**2)
    assert not report.super_polynomial
    assert report.slope == pytest.approx(2.0, abs=1e-8)
    assert report.constant == pytest.approx(1.0, rel=1e-6)


def test_decay_fit_ignores_floor_noise():
    # Entries within 1e-13 of the peak magnitude are quadrature junk and
    # must not enter the fit window.
    n = np.arange(1, 21, dtype=float)
    coeffs = 1.0 / n**3
    coeffs[10:] = 1e-16  # below the relative floor
    report = decay_fit(coeffs)
    assert report.n_used == 10
    assert report.window == (1, 10)
    assert report.slope == pytest.approx(3.0, abs=1e-6)


def test_decay_fit_insufficient_data():
    with pytest.raises(InsufficientDataError):
        decay_fit([1.0, 0.5, 0.25, 0.125])
    # Plenty of entries but almost all at the relative floor.
    seq = np.full(30, 1e-16)
    seq[:5] = 1.0 / np.arange(1, 6, dtype=float)
    with pytest.raises(InsufficientDataError):
        decay_fit(seq)


def test_decay_fit_rejects_matrix_input():
    with pytest.raises(InputError):
        decay_fit(np.ones((4, 4)))


def test_decay_report_serialization():
    report = decay_fit(1.0 / np.arange(1, 20, dtype=float) ** 3)
    assert dataclasses.asdict(report) == {
        "slope": pytest.approx(3.0), "constant": pytest.approx(1.0),
        "window": (1, 19), "n_used": 19, "super_polynomial": False}

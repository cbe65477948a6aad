"""Tests for the sine eigenbasis: projection, synthesis, and decay fitting."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayheat import (
    DecayReport,
    EigenBasis,
    InputError,
    InsufficientDataError,
    QuadratureConfig,
    QuadratureError,
    Sampled1DFunction,
    UnsupportedOperationError,
    decay_fit,
    fs_sum,
    parse_function,
    sine_coefficients,
    sine_synthesis,
)
from delayheat import spectral
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


def test_single_mode_projection_is_unit_vector():
    basis = EigenBasis(length=np.pi, n_modes=8)
    coeffs = sine_coefficients(lambda x: np.sin(3.0 * x), basis)
    expected = np.zeros(8)
    expected[2] = 1.0
    np.testing.assert_allclose(coeffs, expected, atol=1e-12)


def test_parabola_coefficients_match_closed_form():
    # x (1 - x) on [0, 1] has sine coefficients 8 / (pi^3 n^3) for odd n,
    # zero for even n.
    basis = EigenBasis(length=1.0, n_modes=63)
    coeffs = sine_coefficients(lambda x: x * (1.0 - x), basis)
    n = basis.mode_numbers
    expected = np.where(n % 2 == 1, 8.0 / (np.pi**3 * n.astype(float) ** 3), 0.0)
    np.testing.assert_allclose(coeffs, expected, atol=1e-10)


def test_sine_projection_raises_when_splits_run_out():
    # A jump between panel edges never settles; two halvings are allowed.
    basis = EigenBasis(length=np.pi, n_modes=4)
    quad = QuadratureConfig(max_panel_splits=2)
    with pytest.raises(QuadratureError,
                       match=r"^sine projection did not converge to 1e-10$") as err:
        sine_coefficients(lambda x: np.where(x < 1.0, 1.0, 0.0), basis, quad)
    assert np.isfinite(err.value.residual)
    assert err.value.residual > quad.abs_tol


def test_parabola_coefficients_scale_with_length():
    # x (l - x) scales the odd coefficients to 8 l^2 / (pi^3 n^3).
    length = 2.5
    basis = EigenBasis(length=length, n_modes=21)
    coeffs = sine_coefficients(lambda x: x * (length - x), basis)
    n = basis.mode_numbers
    expected = np.where(
        n % 2 == 1, 8.0 * length**2 / (np.pi**3 * n.astype(float) ** 3), 0.0
    )
    np.testing.assert_allclose(coeffs, expected, atol=1e-10)


def test_kinked_projection_memory_is_bounded():
    # |x - 1| on [0, pi] settles only at 2^18 points, one halving short of
    # the limit; that level's whole sine table and its argument would be
    # 2 x 64 x 2^18 doubles, 256 MiB.
    basis = EigenBasis(length=np.pi, n_modes=64)
    tracemalloc.start()
    try:
        coeffs = sine_coefficients(lambda x: np.abs(x - 1.0), basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    k = basis.wavenumbers()
    integral = (1.0 / k - 2.0 * np.sin(k) / k**2 - (np.pi - 1.0) * np.cos(k * np.pi) / k
                + np.sin(k * np.pi) / k**2)
    np.testing.assert_allclose(coeffs, (2.0 / np.pi) * integral, atol=1e-9)


def test_projection_synthesis_round_trip_band_limited():
    basis = EigenBasis(length=1.7, n_modes=12)
    rng = np.random.default_rng(7)
    target = rng.normal(size=12)
    f = lambda x: sine_synthesis(target, basis, x)
    recovered = sine_coefficients(f, basis)
    np.testing.assert_allclose(recovered, target, atol=1e-11)


def test_parseval_identity():
    # For f = sum c_n sin(pi n x / l), the integral of f^2 over [0, l]
    # equals (l / 2) * sum c_n^2.
    basis = EigenBasis(length=1.3, n_modes=6)
    coeffs = np.array([0.9, -0.4, 0.2, 0.0, 0.05, -0.01])
    xs = np.linspace(0.0, basis.length, 20001)
    vals = sine_synthesis(coeffs, basis, xs)
    integral = np.trapezoid(vals**2, xs)
    assert integral == pytest.approx(basis.length / 2.0 * np.sum(coeffs**2), rel=1e-6)


def test_synthesis_scalar_and_validation():
    basis = EigenBasis(length=1.0, n_modes=2)
    val = sine_synthesis([1.0, 0.5], basis, 0.25)
    assert isinstance(val, float)
    assert val == pytest.approx(
        math.sin(math.pi * 0.25) + 0.5 * math.sin(2.0 * math.pi * 0.25), abs=1e-14
    )
    with pytest.raises(InputError):
        sine_synthesis([1.0, 2.0, 3.0], basis, 0.5)


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
    recovered = sine_coefficients(lambda x: sine_synthesis(target, basis, x), basis)
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
    (1, [1, 2], [1, 2, 4]),         # P = 4 starts at P/4
    (3, [3, 6], [3, 6]),            # P = 6 starts at P/2
    (64, [16, 32], [16, 32, 64, 128]),
])
def test_project_paths_climbs_a_panel_ladder_to_max_4_2n(monkeypatch, n_modes,
                                                         smooth, kinked):
    # Smooth data settle on the second rung; data with a kink inside a panel
    # never settle and keep the top rung P = max(4, 2N), exactly as the
    # fixed P-panel rule projects them, and raise no error.
    basis = EigenBasis(length=math.pi, n_modes=n_modes)
    quad = QuadratureConfig()
    times = np.linspace(0.0, 1.0, 9)
    top = max(4, 2 * n_modes)
    for text, rungs in (("sin(x)*(1 + t)", smooth),
                        ("abs(x - 1)*(1 + t)", kinked)):
        spec = parse_function(text)
        counts = _rungs(monkeypatch)
        got = project_paths(spec, times, basis, quad)
        assert counts == rungs
        finest = _project_rung(spec, times, basis, quad, rungs[-1], 1,
                               32 * top // rungs[-1])
        assert np.array_equal(np.stack(got), finest)


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
    n = np.arange(1, 64, dtype=float)
    coeffs = np.where(n % 2 == 1, 8.0 / (np.pi**3 * n**3), 0.0)
    # Slope ~3 clears the class threshold 2.5 for m = 1 ...
    assert decay_fit(coeffs, m=1).passed
    # ... but not 4.5 for m = 2.
    assert not decay_fit(coeffs, m=2).passed


def test_decay_fit_super_polynomial_flag():
    n = np.arange(1, 41, dtype=float)
    coeffs = np.exp(-n)
    report = decay_fit(coeffs, m=3)
    assert report.super_polynomial
    # Super-polynomial decay passes any algebraic class threshold.
    assert report.passed


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
    report = decay_fit(1.0 / np.arange(1, 20, dtype=float) ** 3, m=1)
    assert report.passed is True
    assert report.threshold == pytest.approx(2.5)
    assert report.slope == pytest.approx(3.0)
    assert report.window == (1, 19)

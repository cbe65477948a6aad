"""Composite Gauss-Legendre quadrature with adaptive panel refinement."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayheat.errors import InputError, QuadratureError
from delayheat.quadrature import (
    QuadratureConfig,
    composite_gauss,
    gauss_rule,
    graded_breakpoints,
)


def test_polynomial_exactness_of_rule():
    # 16-point Gauss is exact through degree 31.
    nodes, weights = gauss_rule(16)
    for k in range(0, 32):
        val = float(np.sum(weights * ((0.5 * (nodes + 1.0)) ** k)))  # map to [0,1]
        assert 0.5 * val == pytest.approx(1.0 / (k + 1), rel=1e-13)


def test_basic_integrals():
    quad = QuadratureConfig()
    assert composite_gauss(lambda s: s**2, 0.0, 1.0, quad) == pytest.approx(1 / 3, rel=1e-14)
    assert composite_gauss(np.sin, 0.0, math.pi, quad) == pytest.approx(2.0, rel=1e-13)
    assert composite_gauss(lambda s: np.exp(-s), 0.0, 50.0, quad) == pytest.approx(
        1.0, rel=1e-10)


def test_reversed_and_empty_interval():
    quad = QuadratureConfig()
    assert composite_gauss(lambda s: s, 1.0, 1.0, quad) == 0.0


def test_breakpoints_help_kinked_integrand():
    quad = QuadratureConfig()
    f = lambda s: np.abs(s - 0.5)
    exact = 0.25
    with_breaks = composite_gauss(f, 0.0, 1.0, quad, breakpoints=[0.5])
    assert with_breaks == pytest.approx(exact, abs=1e-14)


def test_failure_to_converge_raises():
    # One refinement level and an absurd tolerance on a kinked integrand.
    quad = QuadratureConfig(nodes_per_panel=2, max_panel_splits=1, abs_tol=1e-16)
    with pytest.raises(QuadratureError) as err:
        composite_gauss(lambda s: np.abs(s - 0.4712) ** 0.5, 0.0, 1.0, quad)
    assert err.value.residual is not None


def test_graded_breakpoints_shape():
    pts = graded_breakpoints(0.0, 1.0, rate=-40.0)
    assert len(pts) > 0
    assert all(0.0 < p < 1.0 for p in pts)
    assert len(set(pts)) == len(pts)
    # quadrature accepts them in any order
    got = composite_gauss(lambda s: np.exp(-40.0 * s), 0.0, 1.0,
                          QuadratureConfig(), breakpoints=pts)
    assert got == pytest.approx((1.0 - math.exp(-40.0)) / 40.0, rel=1e-12)
    # mild rates need no grading
    assert graded_breakpoints(0.0, 1.0, rate=-0.5) == []


def test_config_validation():
    with pytest.raises(InputError):
        QuadratureConfig(nodes_per_panel=0)
    with pytest.raises(InputError):
        QuadratureConfig(abs_tol=-1.0)


@settings(max_examples=50, deadline=None)
@given(
    coeffs=st.lists(st.floats(min_value=-3.0, max_value=3.0,
                              allow_nan=False), min_size=1, max_size=8),
    a=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    width=st.floats(min_value=0.1, max_value=3.0, allow_nan=False),
)
def test_property_polynomials_integrate_exactly(coeffs, a, width):
    b = a + width
    poly = np.polynomial.Polynomial(coeffs)
    anti = poly.integ()
    quad = QuadratureConfig()
    got = composite_gauss(lambda s: poly(s), a, b, quad)
    expected = anti(b) - anti(a)
    assert got == pytest.approx(expected, rel=1e-11, abs=1e-11)

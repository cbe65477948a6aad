"""Composite Gauss-Legendre quadrature with adaptive panel refinement."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayheat import quadrature
from delayheat.errors import InputError, QuadratureError
from delayheat.quadrature import (
    QuadratureConfig,
    composite_gauss,
    exp_weights,
    gauss_rule,
    graded_breakpoints,
    panel_nodes,
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


def _uncached_exp_weights(rate, q, ends):
    """One rate's exp_weights built from scratch: its graded rule, the
    Lagrange basis at the rule's points and the exponentials, with no
    table."""
    ends = np.asarray(ends, dtype=float)
    mag = abs(rate)
    layout = graded_breakpoints(0.0, 1.0, mag)
    shifted, wts = panel_nodes([-1.0, *(p - 1.0 for p in layout), 0.0], 2 * q)
    x = ends[:, None] * (1.0 + shifted if rate > 0.0 else -shifted)
    scaled = np.exp(mag * ends[:, None] * shifted)
    scaled *= ends[:, None] * wts
    return (scaled[:, None, :] @ quadrature._lagrange_basis(q, x))[:, 0]


def _rates(rng, count):
    """Rates of both signs from 1e-3 to 5e4 in magnitude, with 0 and +-1e-9."""
    mags = 10.0 ** rng.uniform(-3.0, math.log10(5e4), count)
    return np.concatenate([[0.0, 1e-9, -1e-9, 5e4, -5e4],
                           rng.choice([-1.0, 1.0], count) * mags])


@pytest.mark.parametrize("q", [2, 4, 16])
@pytest.mark.parametrize("ends", ["one", "engine", "arbitrary"])
def test_weights_from_the_table_equal_an_uncached_build(q, ends):
    # The table keeps each grading group's rule and basis; a call forms only
    # the exponentials, so every row has the bits of a build from scratch,
    # whether its group was built by this call or an earlier one.
    rng = np.random.default_rng(q)
    for _ in range(3):
        c = {"one": [1.0],
             "engine": np.append(0.5 * (gauss_rule(q)[0] + 1.0), 1.0),
             "arbitrary": 1.0 - rng.uniform(0.0, 1.0, 5)}[ends]
        rates = _rates(rng, 40)
        got = exp_weights(rates, q, c)
        for rate, row in zip(rates, got):
            expected = _uncached_exp_weights(rate, q, c)
            assert row.tobytes() == expected.tobytes(), rate


def test_the_weights_table_is_read_only():
    # The kept arrays refuse writes, and a caller that edits the weights it
    # got back changes nothing the next call returns.
    ends = np.append(0.5 * (gauss_rule(16)[0] + 1.0), 1.0)
    for array in quadrature._graded_group(16, 3, True, tuple(ends.tolist())):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[...] = 0.0
    rates = [-40.0, -40.5, 7.0]
    first = exp_weights(rates, 16, ends)
    kept = first.copy()
    first[...] = np.nan
    again = exp_weights(rates, 16, ends)
    assert again.tobytes() == kept.tobytes()


def test_a_group_past_the_kept_size_is_built_for_its_call_alone():
    # 32 nodes and the engine's 33 ends at |rate| 1e3 (8 grading levels)
    # make a group of about 5 MB: the table keeps none of it, and the
    # weights have the bits of a build from scratch.
    ends = np.append(0.5 * (gauss_rule(32)[0] + 1.0), 1.0)
    rates = [-1e3, 1e3]
    before = quadrature._graded_group.cache_info()
    got = exp_weights(rates, 32, ends)
    assert quadrature._graded_group.cache_info() == before
    for rate, row in zip(rates, got):
        assert row.tobytes() == _uncached_exp_weights(rate, 32, ends).tobytes()

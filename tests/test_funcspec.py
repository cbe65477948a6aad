"""Expression grammar, evaluation, differentiation, and sampled fallbacks."""

import math
import operator

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayheat.errors import (
    DomainError,
    InputError,
    ParseError,
    UnsupportedOperationError,
)
from delayheat.funcspec import (
    Bin,
    Call,
    Const,
    Neg,
    Num,
    Sampled1DFunction,
    Sampled2DFunction,
    Var,
    fs_const,
    fs_exp_weight,
    fs_ramp_x,
    fs_scale,
    fs_sum,
    fs_time_shift,
    parse_expression,
    parse_function,
    to_string,
)


# ---------------------------------------------------------------- parsing

@pytest.mark.parametrize("src, x, t, expected", [
    ("2*x + t^2", 1.0, 2.0, 6.0),
    ("2^3^2", 0.0, 0.0, 512.0),          # right-associative power
    ("-2^2", 0.0, 0.0, -4.0),            # power binds tighter than unary minus
    ("2*-3", 0.0, 0.0, -6.0),
    ("(x + t) * (x - t)", 3.0, 1.0, 8.0),
    ("sin(pi/2)", 0.0, 0.0, 1.0),
    ("exp(0) + log(1) + sqrt(4) + abs(-2)", 0.0, 0.0, 5.0),
    ("x^-2", 2.0, 0.0, 0.25),
])
def test_parse_and_eval(src, x, t, expected):
    f = parse_function(src)
    assert f(x, t) == pytest.approx(expected, rel=1e-14)


def test_vectorized_and_broadcast():
    f = parse_function("x*t + 1")
    x = np.linspace(0.0, 1.0, 5)
    t = np.linspace(0.0, 2.0, 5)
    np.testing.assert_allclose(f(x, t), x * t + 1)
    np.testing.assert_allclose(f(x[None, :], t[:, None]), x[None, :] * t[:, None] + 1)
    assert isinstance(f(0.5, 0.5), float)


@pytest.mark.parametrize("src", [
    "2 +", "sin(x", "x y", "foo(x)", "1..2", "^2", "()",
])
def test_parse_errors(src):
    with pytest.raises(ParseError):
        parse_expression(src)


@pytest.mark.parametrize("src, expected", [
    ("007*x", Bin("*", Num(7.0), Var("x"))),     # zero padding, which Python refuses
    ("2.5e+07", Num(2.5e7)),                     # an exponent keeps its zeros
    ("x\n+\t1", Bin("+", Var("x"), Num(1.0))),
    ("x\u00a0+ 1", Bin("+", Var("x"), Num(1.0))),  # a no-break space
    ("  sin(x)", Call("sin", Var("x"))),
])
def test_parse_edge_cases(src, expected):
    assert parse_expression(src) == expected


@pytest.mark.parametrize("src", [
    "x**2", "1_0", "0x1F", "2j", "+x", "True", "sin", "sin(x, t)", "x.y", "(x, t)",
])
def test_parse_rejects_python_beyond_the_grammar(src):
    with pytest.raises(ParseError):
        parse_expression(src)


def test_parse_error_offsets():
    with pytest.raises(ParseError) as err:
        parse_expression("t^2+q")
    assert err.value.position == 4
    for src in ["2 +", "sin(x", "x y", "1..2", "^2", "()", "", "   ", "(x))",
                "x^^2", "x^", "  2^(", "x +\n"]:
        with pytest.raises(ParseError) as err:
            parse_expression(src)
        assert 0 <= err.value.position <= len(src), src


def test_deep_nesting_is_a_parse_error():
    with pytest.raises(ParseError):
        parse_expression("(" * 300 + "x" + ")" * 300)


def test_unbound_constant_rejected_at_evaluation():
    f = parse_function("l*x")  # construction is lazy about bindings
    with pytest.raises(InputError):
        f(2.0, 0.0)
    assert parse_function("l*x", l=3.0)(2.0, 0.0) == 6.0
    # pi is always available
    assert parse_function("pi")(0.0, 0.0) == pytest.approx(math.pi)


# ------------------------------------------------------- print/parse loop

_leaf = st.one_of(
    st.floats(min_value=0.0, max_value=9.0, allow_nan=False).map(Num),
    st.sampled_from(["x", "t"]).map(Var),
    st.sampled_from(["pi", "l", "tau"]).map(Const),
)


def _node(children):
    ops = st.sampled_from(["+", "-", "*", "/", "^"])
    return st.one_of(
        st.builds(Neg, children),
        st.builds(Bin, ops, children, children),
        st.builds(Call, st.sampled_from(["sin", "cos", "exp", "sqrt", "abs"]),
                  children),
    )


_ast = st.recursive(_leaf, _node, max_leaves=20)


@settings(max_examples=200, deadline=None)
@given(_ast)
def test_print_parse_round_trip(ast):
    printed = to_string(ast)
    assert parse_expression(printed) == ast


# --------------------------------------------------------- derivatives

def _central(f, x, t, var, h=1e-6):
    if var == "x":
        return (f(x + h, t) - f(x - h, t)) / (2 * h)
    return (f(x, t + h) - f(x, t - h)) / (2 * h)


@pytest.mark.parametrize("src", [
    "x^3 + 2*x*t",
    "sin(2*x)*exp(-t)",
    "cos(x*t)",
    "exp(x)/(1 + t^2)",
    "sqrt(x + 2)",
    "log(x + 3)",
    "x^t",
])
@pytest.mark.parametrize("var", ["x", "t"])
def test_symbolic_derivative_matches_central_difference(src, var):
    f = parse_function(src)
    df = f.differentiate(var, 1)
    for x, t in [(0.3, 0.7), (1.1, 0.2), (2.0, 1.5)]:
        assert df(x, t) == pytest.approx(_central(f, x, t, var), rel=1e-7, abs=1e-8)


def test_second_derivative_of_eigenfunction():
    f = parse_function("sin(pi*x/l)", l=2.0)
    d2 = f.differentiate("x", 2)
    x = 0.7
    assert d2(x, 0.0) == pytest.approx(-(math.pi / 2.0) ** 2 * math.sin(math.pi * x / 2.0),
                                       rel=1e-12)


def test_abs_derivative_away_from_kink():
    f = parse_function("abs(x - 1)")
    df = f.differentiate("x", 1)
    assert df(2.0, 0.0) == pytest.approx(1.0)
    assert df(0.0, 0.0) == pytest.approx(-1.0)


_MP_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv, "^": operator.pow}


def _mp_eval(node, x, t):
    """Evaluate an AST in mpmath arithmetic (reference for derivatives)."""
    if isinstance(node, Num):
        return mpmath.mpf(node.value)
    if isinstance(node, Var):
        return x if node.name == "x" else t
    if isinstance(node, Const):
        return {"pi": mpmath.pi}[node.name]
    if isinstance(node, Neg):
        return -_mp_eval(node.operand, x, t)
    if isinstance(node, Call):
        fn = mpmath.fabs if node.fn == "abs" else getattr(mpmath, node.fn)
        return fn(_mp_eval(node.arg, x, t))
    return _MP_OPS[node.op](_mp_eval(node.left, x, t), _mp_eval(node.right, x, t))


def _partial(spec, steps):
    for var, order in steps:
        spec = spec.differentiate(var, order)
    return spec


@pytest.mark.parametrize("src", [
    "sin(2*x + x*t)",
    "cos(x*t - x/2)",
    "exp(x*t/2 - x)",
    "log(2 + x*t + x^2)",
    "sqrt(3 + x*t - x/4)",
    "abs(cos(x*t) - 2)",
    "x / (1.5 + cos(x*t))",
    "(1 + x^2)^1.5 * t^3",
    "(1 + x)^(t + 0.5)",
])
@pytest.mark.parametrize("steps", [
    [("x", 2)] * 4,                  # d^8/dx^8
    [("x", 2), ("t", 2)],            # d^4/dx^2 dt^2
], ids=["x8", "x2t2"])
def test_high_order_and_mixed_derivatives_match_mpmath(src, steps):
    x0, t0 = 0.7, 0.4
    orders = (sum(k for v, k in steps if v == "x"), sum(k for v, k in steps if v == "t"))
    ast = parse_expression(src)
    with mpmath.workdps(30):
        ref = float(mpmath.diff(lambda x, t: _mp_eval(ast, x, t),
                                (mpmath.mpf(x0), mpmath.mpf(t0)), orders))
    got = _partial(parse_function(src), steps)(x0, t0)
    assert got == pytest.approx(ref, rel=1e-12, abs=1e-20)


def test_combinator_chain_derivative_at_order_twelve_matches_closed_form():
    # exp(0.1 + 0.5 x - 0.2 t) * x * sin(2 x + (t - 0.3)) = Im(x e^{c x} e^{w})
    # with c = 0.5 + 2i, w = 0.1 - 0.2 t + i (t - 0.3); and
    # d^n/dx^n (x e^{c x}) = (c^n x + n c^(n-1)) e^{c x}.
    spec = fs_exp_weight(fs_ramp_x(fs_time_shift(parse_function("sin(2*x + t)"), 0.3)),
                         coef_x=0.5, coef_t=-0.2, offset=0.1)
    d12 = _partial(spec, [("x", 2)] * 6)
    c, n = 0.5 + 2j, 12
    for x, t in [(0.0, 0.0), (0.9, 0.4), (2.5, -0.7)]:
        w = 0.1 - 0.2 * t + 1j * (t - 0.3)
        exact = ((c**n * x + n * c ** (n - 1)) * np.exp(c * x + w)).imag
        assert d12(x, t) == pytest.approx(exact, rel=1e-12, abs=1e-12 * abs(c) ** n)


# --------------------------------------------------------- domain errors

@pytest.mark.parametrize("src, x", [
    ("1/x", 0.0),
    ("log(x)", -1.0),
    ("log(x)", 0.0),
    ("sqrt(x)", -2.0),
    ("x^0.5", -1.0),
    ("x^-1", 0.0),
])
def test_domain_errors(src, x):
    f = parse_function(src)
    with pytest.raises(DomainError):
        f(x, 0.0)


def test_negative_base_integer_power_ok():
    f = parse_function("x^2")
    assert f(-3.0, 0.0) == 9.0
    g = parse_function("x^3")
    assert g(-2.0, 0.0) == -8.0


# --------------------------------------------------------- sampled data

def test_sampled_1d_cubic_accuracy_and_budget():
    pts = np.linspace(0.0, math.pi, 201)
    s = Sampled1DFunction(var="x", points=pts, values=np.sin(pts))
    assert s(1.0, 99.0) == pytest.approx(math.sin(1.0), abs=1e-8)
    d1 = s.differentiate("x", 1)
    assert d1(1.0, 0.0) == pytest.approx(math.cos(1.0), abs=1e-6)
    d2 = s.differentiate("x", 2)
    assert d2(1.0, 0.0) == pytest.approx(-math.sin(1.0), abs=1e-4)
    with pytest.raises(UnsupportedOperationError):
        d2.differentiate("x", 1)
    # the other variable is inert
    assert s.differentiate("t", 1)(1.0, 0.0) == 0.0


def test_sampled_1d_linear_budget():
    pts = np.linspace(0.0, 1.0, 50)
    s = Sampled1DFunction(var="t", points=pts, values=pts**2, kind="linear")
    d1 = s.differentiate("t", 1)
    assert d1(0.5, 0.5) == pytest.approx(1.0, abs=0.05)
    with pytest.raises(UnsupportedOperationError):
        d1.differentiate("t", 1)


def test_sampled_1d_validation():
    with pytest.raises(InputError):
        Sampled1DFunction(var="y", points=[0, 1, 2, 3], values=[0, 1, 2, 3])
    with pytest.raises(InputError):
        Sampled1DFunction(var="x", points=[0, 1, 1, 2], values=[0, 1, 2, 3])
    with pytest.raises(InputError):
        Sampled1DFunction(var="x", points=[0, 1], values=[0, 1])  # too few for cubic


def test_sampled_2d_eval_and_derivatives():
    x = np.linspace(0.0, 1.0, 30)
    t = np.linspace(0.0, 2.0, 40)
    vals = np.outer(np.sin(math.pi * x), np.exp(-t))
    s = Sampled2DFunction(x_points=x, t_points=t, values=vals)
    assert s(0.5, 1.0) == pytest.approx(math.sin(math.pi / 2) * math.exp(-1.0), abs=1e-6)
    dx = s.differentiate("x", 1)
    assert dx(0.25, 0.5) == pytest.approx(
        math.pi * math.cos(math.pi * 0.25) * math.exp(-0.5), abs=1e-3)
    dt = s.differentiate("t", 1)
    assert dt(0.5, 1.0) == pytest.approx(-math.exp(-1.0), abs=1e-4)
    d2x = s.differentiate("x", 2)
    with pytest.raises(UnsupportedOperationError):
        d2x.differentiate("x", 1)


def test_partials_that_vanish_do_not_spend_a_sampled_budget():
    # x * slope(t) with a linearly interpolated slope: d2/dx2 vanishes
    # identically, so every t-derivative of it is available, while d/dx is
    # the slope itself and keeps the slope's t budget.
    pts = np.linspace(0.0, 1.0, 9)
    ramp = fs_ramp_x(Sampled1DFunction(var="t", points=pts, values=pts, kind="linear"))
    assert ramp.differentiate("x", 2).differentiate("t", 2)(0.5, 0.5) == 0.0
    with pytest.raises(UnsupportedOperationError):
        ramp.differentiate("x", 1).differentiate("t", 2)


def test_sampled_domain_clipping_tolerance():
    pts = np.linspace(0.0, 1.0, 20)
    s = Sampled1DFunction(var="x", points=pts, values=pts, kind="linear")
    assert s(1.0 + 1e-12, 0.0) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        s(1.5, 0.0)


# --------------------------------------------------------- combinators

def test_combinator_values_and_derivatives():
    base = parse_function("sin(x)*exp(-t)")
    other = parse_function("x*t")

    total = fs_sum(base, other)
    assert total(1.0, 2.0) == pytest.approx(base(1.0, 2.0) + other(1.0, 2.0))

    scaled = fs_scale(base, 2.5)
    assert scaled(1.0, 2.0) == pytest.approx(2.5 * base(1.0, 2.0))

    weighted = fs_exp_weight(base, coef_x=0.3, coef_t=-0.2)
    x, t = 0.7, 1.3
    assert weighted(x, t) == pytest.approx(
        math.exp(0.3 * x - 0.2 * t) * base(x, t), rel=1e-12)

    shifted = fs_time_shift(base, 0.5)
    assert shifted(x, t) == pytest.approx(base(x, t - 0.5), rel=1e-12)

    ramp = fs_ramp_x(parse_function("t"))
    assert ramp(2.0, 3.0) == pytest.approx(6.0)
    assert ramp.differentiate("x", 1)(5.0, 3.0) == pytest.approx(3.0)
    assert ramp.differentiate("t", 1)(5.0, 3.0) == pytest.approx(5.0)

    for spec in (total, scaled, weighted, shifted, ramp):
        for var in ("x", "t"):
            d = spec.differentiate(var, 1)
            assert d(x, t) == pytest.approx(_central(spec, x, t, var),
                                            rel=1e-6, abs=1e-7)


def test_const_function():
    c = fs_const(4.25)
    assert c(123.0, -5.0) == 4.25
    assert c.differentiate("x", 2)(1.0, 1.0) == 0.0


def test_differentiate_validation():
    f = parse_function("x^2")
    with pytest.raises(InputError):
        f.differentiate("z", 1)
    with pytest.raises(InputError):
        f.differentiate("x", 0)

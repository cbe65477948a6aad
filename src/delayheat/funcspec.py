"""Problem-data functions: a small expression language plus sampled grids.

Coefficient-level problem data (initial values, boundary traces, forcing)
enters the solvers as :class:`FunctionSpec` objects.  A spec is either

* an expression in the variables ``x`` and ``t``, parsed from text by
  :func:`parse_expression`, or
* a sampled grid (1D in ``x`` or ``t``, or a 2D rectangle) interpolated
  linearly or with cubic splines, or
* an algebraic combination of other specs (sums, scalings, exponential
  weights, time shifts, restriction to one x) built with the ``fs_*``
  helpers, so solver-side changes of variables keep exact derivatives.

Every spec evaluates its truncated Taylor expansion in (x, t) to any order
(Griewank & Walther, *Evaluating Derivatives*, 2nd ed., ch. 13), and
``differentiate`` and ``partials`` read partial derivatives off it; one jet
serves every partial up to its orders.  Expressions evaluate it through
Taylor recurrences for each operation, sampled grids through their
interpolants.  Nothing is rewritten symbolically, so the cost of an order-k
derivative grows like k^2 per expression node and the expression never grows.

Past its interpolant's order a sampled grid's jet holds lacking coefficients,
which every jet operation keeps except a product with a structural zero: a
derivative a table cannot supply is an error when ``partials`` evaluates it,
and a partial that vanishes identically, such as d^2/dx^2 of x slope(t),
needs none.

``separate()`` returns pairs (X_g, T_g) of specs in x alone and in t alone
with spec = sum_g X_g(x) T_g(t), or None, so that a projection in x can
treat each factor once instead of every (x, t) pair.  An expression splits
at ``+``, ``-``, unary minus and ``*`` and groups its terms by structurally
equal t-factor; sums, scalings, exponential weights (e^(offset + cx x) times
e^(ct t)), partial derivatives (X^(i) T^(j)) and 1-D tables pass it through;
every other spec returns None.  ``x_knots()`` returns the x sample points
of the tables inside a spec, where its interpolant may kink, so that a
projection can make them panel edges.

Expression grammar (ASCII, whitespace-insensitive)::

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' factor)?          (right-associative)
    atom    := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

Variables: ``x``, ``t``.  Named constants: ``pi`` (always bound), ``l`` and
``tau`` (bound when a problem is loaded).  Functions: ``sin``, ``cos``,
``exp``, ``log``, ``sqrt``, ``abs``.  ``^`` binds tighter than unary minus,
so ``-x^2`` means ``-(x^2)``.

This is Python's arithmetic with ``**`` spelled ``^``: :func:`parse_expression`
refuses characters outside the grammar, rewrites the text to Python's
spelling without moving an offset (blanks for whitespace and zero padding,
``**`` for ``^``), runs :func:`ast.parse` and keeps only the grammar's nodes
(decimal literals only: not ``0x1F``, ``2j`` or ``True``).  :func:`to_string`
prints with :func:`ast.unparse`; re-parsing its text yields a structurally
identical AST (this module keeps numeric literals non-negative and writes a
leading minus as a unary-minus node).
"""

from __future__ import annotations

import ast
import math
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError,
    InputError,
    NumericError,
    ParseError,
    UnsupportedOperationError,
)

VARIABLES = ("x", "t")
FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "abs")
CONSTANTS = ("pi", "l", "tau")


# ---------------------------------------------------------------------------
# AST nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str  # 'x' or 't'


@dataclass(frozen=True)
class Const:
    name: str  # 'pi', 'l', 'tau'


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    fn: str
    arg: object


# ---------------------------------------------------------------------------
# Parsing and printing, by Python's own parser and printer
# ---------------------------------------------------------------------------

_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
# Characters outside the grammar, '_' (Python reads 1_0 as 10), and '**'.
_REFUSED_RE = re.compile(r"[^\s\dA-Za-z.+\-*/^()]|\*\*")
_SPACE_RE = re.compile(r"[^\S ]")
# Leading zeros of a number's integer part, which Python refuses (007); an
# exponent keeps its own (2.5e+07).  The literal 0 first makes the scan fast.
_ZERO_PAD_RE = re.compile(r"0(?<![\w.]0)(?<![eE][+-]0)0*(?=\d)")
_OPEN_RE = re.compile(r" *\(")
_BIN_OPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "^"}
_PYTHON_OPS = {op: kind for kind, op in _BIN_OPS.items()}


class _Refused(Exception):
    """A Python node outside the grammar: (message, offset in the parsed text)."""


def _from_python(node, text):
    """The grammar's AST for a node of ``ast.parse(text)``."""
    kind = type(node)
    if kind is ast.BinOp and type(node.op) in _BIN_OPS:
        return Bin(_BIN_OPS[type(node.op)], _from_python(node.left, text),
                   _from_python(node.right, text))
    if kind is ast.UnaryOp and type(node.op) is ast.USub:
        return Neg(_from_python(node.operand, text))
    # The literal's own text decides: Python also reads 0x1F, 2j and True.
    if kind is ast.Constant and _NUMBER_RE.fullmatch(text, node.col_offset, node.end_col_offset):
        return Num(float(text[node.col_offset:node.end_col_offset]))
    if kind is ast.Name:
        if node.id in VARIABLES:
            return Var(node.id)
        if node.id in CONSTANTS:
            return Const(node.id)
        raise _Refused(f"unknown identifier {node.id!r}", node.col_offset)
    # The name must stand right before its '(': Python drops those of "(sin)(x)".
    if (kind is ast.Call and type(node.func) is ast.Name
            and _OPEN_RE.match(text, node.func.end_col_offset)):
        if node.func.id not in FUNCTIONS:
            raise _Refused(f"unknown function {node.func.id!r}", node.col_offset)
        if len(node.args) == 1 and not node.keywords:
            return Call(node.func.id, _from_python(node.args[0], text))
    raise _Refused("invalid expression", node.col_offset)


def _source_offset(text, pos):
    """The offset in ``text`` of offset ``pos`` in ``text`` with '^' spelled '**'."""
    for k, c in enumerate(text):
        pos -= 2 if c == "^" else 1
        if pos < 0:
            return k
    return len(text)


def parse_expression(src):
    """Parse expression source into an AST; raise ParseError with offset."""
    if not isinstance(src, str):
        raise InputError(f"expression source must be a string, got {type(src).__name__}")
    refused = _REFUSED_RE.search(src)
    if refused:
        pos = refused.end() - 1
        raise ParseError(f"unexpected character {src[pos]!r}", pos)
    # Rewrites that keep every offset: any whitespace becomes a blank, any
    # decimal digit an ASCII one (float() reads both), and zero padding blanks.
    text = _SPACE_RE.sub(" ", src)
    if not text.isascii():
        text = re.sub(r"\d", lambda m: str(int(m[0])), text)
    text = _ZERO_PAD_RE.sub(lambda m: " " * len(m[0]), text)
    body = text.lstrip(" ")
    python = body.replace("^", "**")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # SyntaxWarning on "1or x"
            tree = ast.parse(python, mode="eval")
        return _from_python(tree.body, python)
    except SyntaxError as e:
        message, pos = "invalid expression", (e.offset or 1) - 1
    except (RecursionError, MemoryError):  # MemoryError: the parser's stack
        message, pos = "expression nested too deeply", 0
    except _Refused as e:
        message, pos = e.args
    raise ParseError(message, len(text) - len(body) + _source_offset(body, pos))


def _to_python(node):
    if isinstance(node, Num):
        return ast.Constant(node.value)
    if isinstance(node, (Var, Const)):
        return ast.Name(node.name)
    if isinstance(node, Call):
        return ast.Call(ast.Name(node.fn), [_to_python(node.arg)], [])
    if isinstance(node, Neg):
        return ast.UnaryOp(ast.USub(), _to_python(node.operand))
    if isinstance(node, Bin):
        return ast.BinOp(_to_python(node.left), _PYTHON_OPS[node.op](),
                         _to_python(node.right))
    raise InputError(f"not an AST node: {node!r}")


def to_string(node):
    """Render an AST back to grammar-conformant source text."""
    return ast.unparse(_to_python(node)).replace(" ** ", "^")


# ---------------------------------------------------------------------------
# Truncated Taylor arithmetic (Griewank & Walther, Evaluating Derivatives,
# 2nd ed., ch. 13)
# ---------------------------------------------------------------------------


def _is_zero(c):
    """True for a Python-float 0.0: a coefficient known to vanish identically.
    Computed coefficients are numpy values, never taken for one."""
    return type(c) is float and c == 0.0


class _Lacking:
    """A Taylor coefficient that a sampled ``table`` cannot supply in ``var``.

    Every jet operation on it gives it back, except a product with a
    structural zero (``_times``), which is 0.0.
    """

    __slots__ = ("message",)
    __array_ufunc__ = None  # numpy operands defer to the reflected methods

    def __init__(self, table, var):
        self.message = (f"{type(table).__name__} ({table.kind}) supports "
                        f"d/d{var} only up to order {_TABLE_SMOOTHNESS[table.kind]}")

    def _absorb(self, other):
        # A jet applies the operation to each of its coefficients.
        return NotImplemented if isinstance(other, _Jet) else self

    __add__ = __radd__ = __sub__ = __rsub__ = _absorb
    __mul__ = __rmul__ = __truediv__ = _absorb

    def __neg__(self):
        return self


class _Jet:
    """Truncated Taylor series ``sum_k c[k] h^k`` in one variable.

    A spec's jet of order (kx, kt) is a jet in x whose coefficients are jets
    in t (plain arrays when kt == 0), or a jet in t when kx == 0.  Any
    coefficient may instead be a plain value, which stands for a constant.
    """

    __slots__ = ("c",)
    __array_ufunc__ = None  # numpy operands defer to the reflected methods

    def __init__(self, c):
        self.c = c

    def _map(self, fn):
        return _Jet([c if _is_zero(c) else fn(c) for c in self.c])

    def __add__(self, other):
        if isinstance(other, _Jet):
            return _Jet([_plus(a, b) for a, b in zip(self.c, other.c)])
        return _Jet([_plus(self.c[0], other)] + self.c[1:])

    __radd__ = __add__

    def __neg__(self):
        return self._map(lambda c: -c)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, _Jet):
            return self._map(lambda c: c * other)
        a, b = self.c, other.c
        return _Jet([_dot((a[i], b[k - i]) for i in range(k + 1)) for k in range(len(a))])

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _over(self, other)


def _plus(a, b):
    if _is_zero(a):
        return b
    return a if _is_zero(b) else a + b


def _times(a, b):
    return 0.0 if _is_zero(a) or _is_zero(b) else a * b


def _dot(pairs):
    total = 0.0
    for a, b in pairs:
        total = _plus(total, _times(a, b))
    return total


def _base(v):
    """The value (order-0 coefficient) of a jet or plain value."""
    while isinstance(v, _Jet):
        v = v.c[0]
    return v


def _over(a, b):
    """a / b; a vanishing numerator needs no divisor."""
    if _is_zero(a):
        return 0.0
    if np.any(np.asarray(_base(b)) == 0.0):
        raise DomainError("division by zero")
    if not isinstance(b, _Jet):
        return a._map(lambda c: c / b) if isinstance(a, _Jet) else a / b
    a = a.c if isinstance(a, _Jet) else [a] + [0.0] * (len(b.c) - 1)
    inv = _over(1.0, b.c[0])
    q = []
    for k in range(len(b.c)):
        rest = _dot((b.c[j], q[k - j]) for j in range(1, k + 1))
        q.append(_times(_plus(a[k], _times(rest, -1.0)), inv))
    return _Jet(q)


def _weighted(u):
    """[j * u_j]: the coefficients of h * du/dh."""
    return [0.0] + [j * c for j, c in enumerate(u.c) if j]


def _exp(u):
    if not isinstance(u, _Jet):
        return np.exp(u)
    du, e = _weighted(u), [_exp(u.c[0])]
    for k in range(1, len(u.c)):
        e.append(_times(_dot((du[j], e[k - j]) for j in range(1, k + 1)), 1.0 / k))
    return _Jet(e)


def _log(u):
    if not isinstance(u, _Jet):
        return np.log(u)
    q = _over(_Jet(_weighted(u)), u)  # h u'/u, whose k-th term is k log(u)_k
    return _Jet([_log(u.c[0])] + [_times(c, 1.0 / k) for k, c in enumerate(q.c) if k])


def _sincos(u):
    if not isinstance(u, _Jet):
        return np.sin(u), np.cos(u)
    du = _weighted(u)
    s0, c0 = _sincos(u.c[0])
    s, c = [s0], [c0]
    for k in range(1, len(u.c)):
        s.append(_times(_dot((du[j], c[k - j]) for j in range(1, k + 1)), 1.0 / k))
        c.append(_times(_dot((du[j], s[k - j]) for j in range(1, k + 1)), -1.0 / k))
    return _Jet(s), _Jet(c)


def _abs(u):
    if not isinstance(u, _Jet):
        return np.abs(u)
    sign = np.sign(_base(u))
    if not np.any(sign == 0.0):
        return u * sign
    if all(_is_zero(c) for c in u.c[1:]):
        return _Jet([_abs(u.c[0])] + u.c[1:])
    raise DomainError("abs has no derivative at 0")


def _power(a, b):
    """a^b; the caller has checked the domain on the values."""
    if isinstance(b, _Jet):
        if np.any(np.asarray(_base(a)) <= 0.0):
            raise DomainError("log of a non-positive value")
        return _exp(b * _log(a))
    if not isinstance(a, _Jet):
        if np.any((np.asarray(a) == 0.0) & (np.asarray(b) < 0.0)):
            raise DomainError("zero raised to a negative power")
        return np.power(a, b)
    # Binomial series a^b = sum_m C(b, m) a0^(b - m) (a - a0)^m.  It stops
    # where C(b, m) vanishes (integer b >= 0), so x^2 works at x = 0, and
    # a0^(b - m) is formed only while (a - a0)^m has terms.
    n = len(a.c)
    delta = _Jet([0.0] + a.c[1:])
    out, power, binom = _Jet([0.0] * n), _Jet([1.0] + [0.0] * (n - 1)), 1.0
    for m in range(n):
        if m:
            power, binom = power * delta, binom * (b - m + 1) / m
        if np.all(binom == 0.0) or all(_is_zero(c) for c in power.c):
            break
        coef = binom * _power(a.c[0], b - m)
        out = out + power._map(lambda c: c * coef)
    return out


def _nested(coef, kx, kt):
    """The jet of order (kx, kt) whose Taylor coefficients are coef(i, j)."""
    def in_t(i):
        cs = [coef(i, j) for j in range(kt + 1)]
        return cs[0] if all(_is_zero(c) for c in cs[1:]) else _Jet(cs)
    return in_t(0) if kx == 0 else _Jet([in_t(i) for i in range(kx + 1)])


def _coef(jet, i, j, kx):
    """Taylor coefficient (i, j) of a jet of x-order kx."""
    if kx:
        if isinstance(jet, _Jet):
            jet = jet.c[i]
        elif i:
            return 0.0
    if isinstance(jet, _Jet):
        return jet.c[j]
    return jet if j == 0 else 0.0


def _variables(x, t, kx, kt):
    """The coordinates x and t as jets of order (kx, kt)."""
    return (_nested(lambda i, j: x if i == j == 0 else float((i, j) == (1, 0)), kx, kt),
            _nested(lambda i, j: t if i == j == 0 else float((i, j) == (0, 1)), kx, kt))


# ---------------------------------------------------------------------------
# AST evaluation (vectorized over numpy arrays, on values or jets)
# ---------------------------------------------------------------------------


def _eval_ast(node, x, t, consts):
    """Evaluate an AST at x, t: plain arrays give values, jets give jets."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return x if node.name == "x" else t
    if isinstance(node, Const):
        try:
            return consts[node.name]
        except KeyError:
            raise InputError(f"constant {node.name!r} is not bound") from None
    if isinstance(node, Neg):
        return -_eval_ast(node.operand, x, t, consts)
    if isinstance(node, Bin):
        a = _eval_ast(node.left, x, t, consts)
        b = _eval_ast(node.right, x, t, consts)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            if np.any(np.asarray(_base(b)) == 0.0):
                raise DomainError("division by zero")
            return _over(a, b) if isinstance(a, _Jet) or isinstance(b, _Jet) else a / b
        a_arr = np.asarray(_base(a), dtype=float)
        b_arr = np.asarray(_base(b), dtype=float)
        frac_exp = b_arr != np.floor(b_arr)
        if np.any((a_arr < 0.0) & frac_exp):
            raise DomainError("negative base raised to a non-integer power")
        if np.any((a_arr == 0.0) & (b_arr < 0.0)):
            raise DomainError("zero raised to a negative power")
        if isinstance(a, _Jet) or isinstance(b, _Jet):
            return _power(a, b)
        return np.power(a, b)
    if isinstance(node, Call):
        u = _eval_ast(node.arg, x, t, consts)
        u0 = np.asarray(_base(u))
        if node.fn in ("sin", "cos"):
            if not isinstance(u, _Jet):
                return np.sin(u) if node.fn == "sin" else np.cos(u)
            return _sincos(u)[node.fn == "cos"]
        if node.fn == "exp":
            return _exp(u)
        if node.fn == "log":
            if np.any(u0 <= 0.0):
                raise DomainError("log of a non-positive value")
            return _log(u)
        if node.fn == "sqrt":
            if np.any(u0 < 0.0):
                raise DomainError("sqrt of a negative value")
            return _power(u, 0.5) if isinstance(u, _Jet) else np.sqrt(u)
        if node.fn == "abs":
            return _abs(u)
    raise InputError(f"not an AST node: {node!r}")


# ---------------------------------------------------------------------------
# FunctionSpec hierarchy
# ---------------------------------------------------------------------------


class FunctionSpec:
    """Evaluable function of (x, t) with partial derivatives.

    ``spec(x, t)`` broadcasts its arguments elementwise; scalar inputs give a
    float back.  ``differentiate(var, order)`` returns a new spec.
    ``partials(x, t, orders)`` evaluates several partial derivatives at once,
    from one jet; it raises :class:`UnsupportedOperationError` for a partial
    that needs a derivative a sampled table's interpolant does not have,
    unless that partial vanishes identically.

    Subclasses implement ``_jet(x, t, kx, kt)``: the Taylor coefficients at
    (x, t) up to x-order kx and t-order kt, as a jet in x of jets in t, a jet
    in t when kx == 0, or plain values when kx == kt == 0.
    """

    def __call__(self, x, t):
        return self.partials(x, t, [(0, 0)])[0]

    def partials(self, x, t, orders):
        """d^(i + j) spec / dx^i dt^j at (x, t) for each (i, j) in ``orders``.

        All of them are read off one jet of the highest orders listed, which
        holds every lower Taylor coefficient.  A partial that a sampled table
        cannot supply raises :class:`UnsupportedOperationError` with its
        ``order`` (i, j).  Each partial broadcasts and is checked for
        finiteness as a call is: an overflow raises :class:`NumericError`.
        """
        x_arr = np.asarray(x, dtype=float)
        t_arr = np.asarray(t, dtype=float)
        shape = np.broadcast_shapes(x_arr.shape, t_arr.shape)
        kx = max(i for i, _ in orders)
        with np.errstate(over="ignore", invalid="ignore"):
            jet = self._jet(x_arr, t_arr, kx, max(j for _, j in orders))
        coefs = [_coef(jet, i, j, kx) for i, j in orders]
        for order, c in zip(orders, coefs):
            if isinstance(c, _Lacking):
                raise UnsupportedOperationError(c.message, order)
        out = []
        for (i, j), c in zip(orders, coefs):
            scale = math.factorial(i) * math.factorial(j)
            if scale != 1:
                c = _times(c, float(scale))
            c = np.broadcast_to(np.asarray(c, dtype=float), shape)
            if not np.all(np.isfinite(c)):
                raise NumericError(f"{type(self).__name__} produced a non-finite value")
            out.append(float(c) if shape == () else np.array(c))
        return out

    def _jet(self, x, t, kx, kt):
        raise NotImplementedError

    def differentiate(self, var, order=1):
        if var not in VARIABLES:
            raise InputError(f"differentiation variable must be 'x' or 't', got {var!r}")
        if order not in (1, 2):
            raise InputError(f"derivative order must be 1 or 2, got {order!r}")
        base, kx, kt = ((self.base, self.kx, self.kt) if isinstance(self, _Partial)
                        else (self, 0, 0))
        if var == "x":
            return _Partial(base, kx + order, kt)
        return _Partial(base, kx, kt + order)

    def separate(self):
        """Pairs (X_g, T_g) of specs in x alone and in t alone with
        spec = sum_g X_g T_g, or None when this spec is not known to
        separate so."""
        return None

    def x_knots(self):
        """The x sample points of the spec's tables, where it may kink in x:
        a spec with a ``base`` (a partial, scaling, weight or time shift)
        has its base's, a sum all its parts', an expression none."""
        base = getattr(self, "base", None)
        return np.empty(0) if base is None else base.x_knots()


@dataclass
class _Partial(FunctionSpec):
    """d^(kx + kt) base / dx^kx dt^kt, read off the base's jet."""

    base: FunctionSpec
    kx: int
    kt: int

    def _jet(self, x, t, kx, kt):
        full = self.base._jet(x, t, kx + self.kx, kt + self.kt)

        def coef(i, j):
            c = _coef(full, i + self.kx, j + self.kt, kx + self.kx)
            ratio = (math.factorial(i + self.kx) // math.factorial(i)
                     * math.factorial(j + self.kt) // math.factorial(j))
            return c if ratio == 1 else _times(c, float(ratio))

        return _nested(coef, kx, kt)

    def separate(self):
        # d^(kx + kt) (X T) / dx^kx dt^kt = X^(kx) T^(kt).
        pairs = self.base.separate()
        return None if pairs is None else [
            (_Partial(x, self.kx, 0) if self.kx else x,
             _Partial(t, 0, self.kt) if self.kt else t) for x, t in pairs]


@dataclass
class ExprFunction(FunctionSpec):
    """Expression-backed spec; derivatives are Taylor coefficients of the AST."""

    ast: object
    consts: dict = field(default_factory=dict)

    def __post_init__(self):
        merged = {"pi": math.pi}
        merged.update(self.consts)
        self.consts = merged

    def _jet(self, x, t, kx, kt):
        return _eval_ast(self.ast, *_variables(x, t, kx, kt), self.consts)

    @property
    def source(self):
        return to_string(self.ast)

    def separate(self):
        """The terms of the AST, split at +, -, unary minus and *, grouped by
        their t-factor: None when some other subtree mentions both x and t,
        or when products of sums expand past ``_MAX_TERMS`` terms."""
        terms = _terms(self.ast)
        if terms is None:
            return None
        groups = {}
        for negated, xs, ts in terms:
            x = _product(xs)
            groups.setdefault(_product(ts), []).append(Neg(x) if negated else x)
        out = []
        for t, xs in groups.items():
            x = xs[0]
            for term in xs[1:]:
                x = Bin("+", x, term)
            out.append((ExprFunction(x, self.consts), ExprFunction(t, self.consts)))
        return out


# Terms past which ExprFunction.separate does not expand a product of sums.
_MAX_TERMS = 64


def _names(node):
    """The variables an AST mentions."""
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Bin):
        return _names(node.left) | _names(node.right)
    if isinstance(node, Neg):
        return _names(node.operand)
    if isinstance(node, Call):
        return _names(node.arg)
    return set()


def _terms(node):
    """The AST as a sum of terms (negated, x-factors, t-factors), or None.

    A subtree that does not mention t is one x-factor (constants too).
    Above it, sums, differences, unary minus and products are expanded, and
    every other subtree is one t-factor if it does not mention x.
    """
    if isinstance(node, Neg):
        children = (node.operand,)
    elif isinstance(node, Bin) and node.op in ("+", "-", "*"):
        children = (node.left, node.right)
    else:
        names = _names(node)
        if "t" not in names:
            return [(False, (node,), ())]
        return None if "x" in names else [(False, (), (node,))]
    parts = [_terms(child) for child in children]
    if any(terms is None for terms in parts):
        return None
    if not any(ts for terms in parts for _, _, ts in terms):
        return [(False, (node,), ())]
    if isinstance(node, Neg):
        return [(not n, xs, ts) for n, xs, ts in parts[0]]
    left, right = parts
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left + [(not n, xs, ts) for n, xs, ts in right]
    if len(left) * len(right) > _MAX_TERMS:
        return None
    return [(n1 != n2, x1 + x2, t1 + t2)
            for n1, x1, t1 in left for n2, x2, t2 in right]


def _product(factors):
    """The AST of the product of ``factors``, 1 when there are none."""
    if not factors:
        return Num(1.0)
    node = factors[0]
    for f in factors[1:]:
        node = Bin("*", node, f)
    return node


def parse_function(src, **consts):
    """Parse source text into an ExprFunction, binding named constants."""
    return ExprFunction(parse_expression(src), dict(consts))


def fs_const(value):
    # Keep literals non-negative so printing round-trips structurally.
    v = float(value)
    if not math.isfinite(v):
        raise NumericError(f"constant must be finite, got {v!r}")
    return ExprFunction(Num(v) if v >= 0.0 else Neg(Num(-v)))


def _clip(u, pts, name):
    """Sample coordinates clipped into the grid; DomainError well outside it."""
    lo, hi = pts[0], pts[-1]
    tol = 1e-9 * max(hi - lo, 1.0)
    if np.any(u < lo - tol) or np.any(u > hi + tol):
        raise DomainError(f"sample evaluation outside [{float(lo)}, {float(hi)}] in {name}")
    return np.clip(u, lo, hi)


# Derivatives a sampled table supports per variable, by interpolation kind.
_TABLE_SMOOTHNESS = {"linear": 1, "cubic": 2}


@dataclass
class Sampled1DFunction(FunctionSpec):
    """Values sampled on a strictly increasing 1D grid in ``x`` or ``t``.

    Derivatives are those of the interpolant: the spline's own for ``cubic``,
    linear interpolation of ``np.gradient`` differences for ``linear``, up to
    order ``_TABLE_SMOOTHNESS[kind]`` in ``var``.
    """

    var: str
    points: np.ndarray
    values: np.ndarray
    kind: str = "cubic"

    def __post_init__(self):
        if self.var not in VARIABLES:
            raise InputError(f"sample variable must be 'x' or 't', got {self.var!r}")
        if self.kind not in ("linear", "cubic"):
            raise InputError(f"interpolation kind must be 'linear' or 'cubic', got {self.kind!r}")
        self.points = np.asarray(self.points, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.points.ndim != 1 or self.points.shape != self.values.shape:
            raise InputError("sample points and values must be 1D arrays of equal length")
        if not (np.all(np.isfinite(self.points)) and np.all(np.isfinite(self.values))):
            raise InputError("sample data must be finite")
        if np.any(np.diff(self.points) <= 0.0):
            raise InputError("sample points must be strictly increasing")
        min_pts = 4 if self.kind == "cubic" else 2
        if self.points.size < min_pts:
            raise InputError(f"{self.kind} interpolation needs at least {min_pts} points")
        self._spline = None

    def _derivative(self, u, order):
        if self.kind == "linear":
            values = self.values
            for _ in range(order):
                values = np.gradient(values, self.points)
            return np.interp(u, self.points, values)
        if self._spline is None:
            from scipy.interpolate import CubicSpline

            self._spline = CubicSpline(self.points, self.values)
        return self._spline(u, order)

    def _jet(self, x, t, kx, kt):
        u = _clip(x if self.var == "x" else t, self.points, self.var)
        order = kx if self.var == "x" else kt
        limit = _TABLE_SMOOTHNESS[self.kind]
        taylor = [self._derivative(u, k) / math.factorial(k) if k <= limit
                  else _Lacking(self, self.var) for k in range(order + 1)]
        if self.var == "x":
            return _nested(lambda i, j: taylor[i] if j == 0 else 0.0, kx, kt)
        return _nested(lambda i, j: taylor[j] if i == 0 else 0.0, kx, kt)

    def separate(self):
        one = fs_const(1.0)
        return [(self, one) if self.var == "x" else (one, self)]

    def x_knots(self):
        return self.points if self.var == "x" else np.empty(0)


@dataclass
class Sampled2DFunction(FunctionSpec):
    """Values sampled on a rectangular (x, t) grid, with derivatives up to
    order ``_TABLE_SMOOTHNESS[kind]`` in each variable."""

    x_points: np.ndarray
    t_points: np.ndarray
    values: np.ndarray  # shape (len(x_points), len(t_points))
    kind: str = "cubic"

    def __post_init__(self):
        if self.kind not in ("linear", "cubic"):
            raise InputError(f"interpolation kind must be 'linear' or 'cubic', got {self.kind!r}")
        self.x_points = np.asarray(self.x_points, dtype=float)
        self.t_points = np.asarray(self.t_points, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.x_points.size, self.t_points.size):
            raise InputError("2D sample values must have shape (len(x_points), len(t_points))")
        for pts, name in ((self.x_points, "x"), (self.t_points, "t")):
            if np.any(np.diff(pts) <= 0.0):
                raise InputError(f"{name} sample points must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise InputError("sample data must be finite")
        min_pts = 4 if self.kind == "cubic" else 2
        if self.x_points.size < min_pts or self.t_points.size < min_pts:
            raise InputError(f"{self.kind} interpolation needs at least {min_pts} points per axis")
        self._spline = None

    def _derivative(self, xc, tc, dx, dt):
        """d^(dx+dt) / dx^dx dt^dt of the interpolant at in-range points."""
        if self.kind == "cubic":
            if self._spline is None:
                from scipy.interpolate import RectBivariateSpline

                self._spline = RectBivariateSpline(
                    self.x_points, self.t_points, self.values, kx=3, ky=3, s=0
                )
            flat = self._spline.ev(np.ravel(xc), np.ravel(tc), dx=dx, dy=dt)
            return flat.reshape(np.shape(xc))
        from scipy.interpolate import RegularGridInterpolator

        values = self.values
        for _ in range(dx):
            values = np.gradient(values, self.x_points, axis=0)
        for _ in range(dt):
            values = np.gradient(values, self.t_points, axis=1)
        interp = RegularGridInterpolator((self.x_points, self.t_points), values,
                                         method="linear")
        pts = np.column_stack([np.ravel(xc), np.ravel(tc)])
        return interp(pts).reshape(np.shape(xc))

    def _jet(self, x, t, kx, kt):
        xb, tb = np.broadcast_arrays(x, t)
        xc = _clip(xb, self.x_points, "x")
        tc = _clip(tb, self.t_points, "t")
        limit = _TABLE_SMOOTHNESS[self.kind]

        def coef(i, j):
            if max(i, j) > limit:
                return _Lacking(self, "x" if i > limit else "t")
            return (self._derivative(xc, tc, i, j)
                    / (math.factorial(i) * math.factorial(j)))

        return _nested(coef, kx, kt)

    def x_knots(self):
        return self.x_points


# ---------------------------------------------------------------------------
# Combinators (solver-side changes of variables; each is one line of jet
# arithmetic, so derivatives of the transformed data stay exact)
# ---------------------------------------------------------------------------


@dataclass
class SummedFunction(FunctionSpec):
    parts: tuple

    def _jet(self, x, t, kx, kt):
        total = 0.0
        for p in self.parts:
            total = total + p._jet(x, t, kx, kt)
        return total

    def separate(self):
        pairs = []
        for p in self.parts:
            split = p.separate()
            if split is None:
                return None
            pairs += split
        return pairs

    def x_knots(self):
        return np.concatenate([p.x_knots() for p in self.parts])


@dataclass
class ScaledFunction(FunctionSpec):
    base: FunctionSpec
    factor: float

    def _jet(self, x, t, kx, kt):
        return self.factor * self.base._jet(x, t, kx, kt)

    def separate(self):
        pairs = self.base.separate()
        return None if pairs is None else [(fs_scale(x, self.factor), t)
                                           for x, t in pairs]


@dataclass
class ExpWeightedFunction(FunctionSpec):
    """exp(offset + coef_x*x + coef_t*t) * base(x, t)."""

    base: FunctionSpec
    coef_x: float = 0.0
    coef_t: float = 0.0
    offset: float = 0.0

    def _jet(self, x, t, kx, kt):
        # Terms with a zero coefficient (of either sign) are left out, so
        # that a constant weight stays a scalar instead of a full (x, t) grid.
        arg = self.offset
        for coef, var in zip((self.coef_x, self.coef_t), _variables(x, t, kx, kt)):
            if coef != 0.0:
                arg = arg + coef * var
        return _exp(arg) * self.base._jet(x, t, kx, kt)

    def separate(self):
        # The weight is exp(offset + coef_x x) exp(coef_t t).
        pairs = self.base.separate()
        return None if pairs is None else [
            (fs_exp_weight(x, coef_x=self.coef_x, offset=self.offset),
             fs_exp_weight(t, coef_t=self.coef_t)) for x, t in pairs]


@dataclass
class TimeShiftedFunction(FunctionSpec):
    """base(x, t - shift)."""

    base: FunctionSpec
    shift: float

    def _jet(self, x, t, kx, kt):
        return self.base._jet(x, np.asarray(t, dtype=float) - self.shift, kx, kt)


@dataclass
class RampInXFunction(FunctionSpec):
    """x * slope(t)."""

    slope: FunctionSpec

    def _jet(self, x, t, kx, kt):
        return _variables(x, t, kx, kt)[0] * self.slope._jet(x, t, kx, kt)


@dataclass
class FixedXFunction(FunctionSpec):
    """base(x0, t): the base read at one x, constant in x."""

    base: FunctionSpec
    x0: float

    def _jet(self, x, t, kx, kt):
        trace = self.base._jet(np.asarray(self.x0), t, 0, kt)
        return trace if kx == 0 else _Jet([trace] + [0.0] * kx)

    def x_knots(self):
        return np.empty(0)  # constant in x


def fs_sum(*parts):
    flat = []
    for p in parts:
        if isinstance(p, SummedFunction):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if len(flat) == 1:
        return flat[0]
    return SummedFunction(tuple(flat))


def fs_scale(f, factor):
    factor = float(factor)
    if factor == 1.0:
        return f
    return ScaledFunction(f, factor)


def fs_exp_weight(f, coef_x=0.0, coef_t=0.0, offset=0.0):
    if coef_x == 0.0 and coef_t == 0.0 and offset == 0.0:
        return f
    return ExpWeightedFunction(f, float(coef_x), float(coef_t), float(offset))


def fs_time_shift(f, shift):
    if shift == 0.0:
        return f
    return TimeShiftedFunction(f, float(shift))


def fs_ramp_x(slope):
    return RampInXFunction(slope)


def fs_at_x(f, x0):
    return FixedXFunction(f, float(x0))

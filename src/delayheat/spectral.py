"""Sine eigenbasis on [0, l]: projection, Hermite paths, decay fitting.

The Dirichlet Laplacian on [0, l] has eigenfunctions sin(pi n x / l) with
eigenvalues (pi n / l)^2.  The one projection, ``project_paths``, gives one
coefficient path per mode of f(x, t) at shared sample times, and the paths'
exact slopes, read off one Taylor jet with the values.  Its composite Gauss
panels scale with the highest mode (P = max(4, 2N) panels), so oscillatory
integrands stay resolved: it climbs from P/8 panels, past P by up to
``max_panel_splits`` halvings, until two rungs agree, and raises
:class:`QuadratureError` when none do.  The x-knots of tabulated data are
panel edges on every rung, as QUADPACK's QAGP takes user breakpoints
(Piessens et al., 1983).  Data that separate as f = sum_g X_g(x) T_g(t)
(``FunctionSpec.separate``) are projected by their factors, with no
evaluation on the (points x times) grid; other data on that grid.
:class:`HermitePaths` joins samples and slopes into one piecewise-cubic
Hermite interpolant per mode: local, with no linear system to solve, and
with the same h^4 error order as a cubic spline.

``decay_fit`` estimates the algebraic decay rate of a coefficient sequence:
least squares of log|c_n| against log n over the entries above the floor.
It is a pure fit: the compat gate judges the fitted rate, the practical
proxy this package uses for membership in the smoothness classes that
guarantee classical solvability (|c_n| <= C / n^p).
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import MAX_COUNT, InputError, InsufficientDataError, NumericError
from .quadrature import QuadratureConfig, halve_until_stable, panel_nodes


@dataclass(frozen=True)
class EigenBasis:
    """First ``n_modes`` Dirichlet sine modes on [0, length]."""

    length: float
    n_modes: int

    def __post_init__(self):
        if not (math.isfinite(self.length) and self.length > 0.0):
            raise InputError(f"length must be positive and finite, got {self.length!r}")
        if self.n_modes < 1:
            raise InputError(f"n_modes must be at least 1, got {self.n_modes!r}")
        if self.n_modes > MAX_COUNT:
            raise InputError(f"n_modes must be at most {MAX_COUNT}, got {self.n_modes!r}")

    @property
    def mode_numbers(self):
        return np.arange(1, self.n_modes + 1)

    def wavenumbers(self):
        """pi n / length for n = 1..N."""
        return np.pi * self.mode_numbers / self.length

    def eigenvalues(self):
        """(pi n / length)^2 for n = 1..N."""
        return self.wavenumbers() ** 2

    def eigenfunctions(self, x):
        """Matrix sin(pi n x / length), shape (N, len(x))."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        table = np.outer(self.wavenumbers(), x)
        return np.sin(table, out=table)


# Time columns of one jet on rung P of ``project_paths``.  A rung with k
# times fewer panels takes k times as many columns, so every block holds as
# many cells (points x columns) and a coarse rung pays few jet calls, while
# rung P makes the matrix products of the fixed max(4, 2N)-panel rule, bit
# for bit.  From rung 32 P on, a block is one column.
_PROJECT_BLOCK = 32
_TABLE_POINTS = 1 << 16  # per sine table, to bound a fine rung's memory


def _factors(spec, times, kt):
    """What no rung of :func:`project_paths` changes: the spec's pairs
    (X_g, T_g) (``spec.separate()``, or None), and a function that reads the
    t-factors' jets at ``times`` on its first call and keeps them."""
    pairs = spec.separate()
    orders = [(0, j) for j in range(kt + 1)]
    return pairs, functools.cache(lambda: np.array(
        [t.partials(0.0, times, orders) for _, t in pairs]))


def _project_rung(spec, times, basis, quad, panels, kt, step, factors=None):
    """The ``panels``-panel Gauss rule's sine coefficients of spec(., t) and
    of its first ``kt`` t-derivatives at ``times``: an array
    (kt + 1, N, len(times)).  ``factors`` is :func:`_factors`'s, shared by
    the rungs of one ladder (made here when not given).

    The uniform panels are cut at the spec's x-knots inside (0, l), so a
    table's interpolant is smooth on every panel.  A spec that separates as
    sum_g X_g(x) T_g(t) is projected by its factors: (S w X^T) T_j, with
    S w the weighted sine table, X the x-factors at the Gauss points and T_j
    the t-factors' j-th derivatives, read off one jet at ``times``.  Any
    other spec is evaluated on the (points x times) grid, one jet per
    ``step`` time columns.  A sine table holds at most ``_TABLE_POINTS``
    points; a finer rung sums its blocks.  A non-finite value raises
    :class:`NumericError`.
    """
    edges = np.linspace(0.0, basis.length, panels + 1)
    knots = [k for k in spec.x_knots() if 0.0 < k < basis.length]
    if knots:  # np.union1d's first call imports about 1 MiB of numpy
        edges = np.union1d(edges, knots)
    pts, wts = panel_nodes(edges, quad.nodes_per_panel)
    weight = (2.0 / basis.length) * wts
    blocks = [slice(lo, lo + _TABLE_POINTS)
              for lo in range(0, pts.size, _TABLE_POINTS)]
    orders = [(0, j) for j in range(kt + 1)]
    pairs, t_jets = factors or _factors(spec, times, kt)
    if pairs is not None:
        xs = np.array([x.partials(pts, 0.0, orders[:1])[0] for x, _ in pairs])
        # Read after the first rung's x-factors, whose errors come first.
        ts = t_jets()
        with np.errstate(over="ignore", invalid="ignore"):
            weighted = (weight * xs).T
            # Each table is a temporary, freed before the next is built.
            sums = basis.eigenfunctions(pts[blocks[0]]) @ weighted[blocks[0]]
            for block in blocks[1:]:
                sums += basis.eigenfunctions(pts[block]) @ weighted[block]
            out = sums @ ts.swapaxes(0, 1)
        if not np.all(np.isfinite(out)):
            raise NumericError(f"{type(spec).__name__} produced a non-finite value")
        return out
    out = np.empty((kt + 1, basis.n_modes, times.size))
    for k, block in enumerate(blocks):
        sin_table = basis.eigenfunctions(pts[block])
        for lo in range(0, times.size, step):
            cols = slice(lo, lo + step)
            grids = spec.partials(pts[block, None], times[None, cols], orders)
            for j, grid in enumerate(grids):
                part = sin_table @ (weight[block, None] * grid)
                out[j, :, cols] = out[j, :, cols] + part if k else part
        del sin_table
    return out


def project_paths(spec, times, basis, quad=QuadratureConfig(), kt=1,
                  linear=None):
    """Sine coefficients of spec(., t) + linear(., t) and of their first
    ``kt`` t-derivatives at every t in ``times``: a tuple of kt + 1 arrays
    (N, len(times)).

    The x-integrals climb a ladder of rungs (:func:`_project_rung`): P/8,
    P/4, P/2, P and on past P by up to ``quad.max_panel_splits`` halvings,
    where P = max(4, 2N) puts two panels on each period of the fastest mode,
    from the smallest rung that is a whole number.  On the grid, each rung's
    jet blocks hold as many cells as a 32-column block of rung P.  The
    panels are halved (:func:`~delayheat.quadrature.halve_until_stable`)
    until two successive rungs agree on every value and slope to
    ``abs_tol + 1e-14 |value|``, and the finer rung is returned; when no
    pair agrees, :class:`QuadratureError` is raised.  When spec or linear
    has sampled data without the t-derivatives, their evaluation raises
    :class:`UnsupportedOperationError`, linear's before the ladder.

    ``linear`` (or None) is a spec A(t) + x B(t), added in closed form
    after the ladder: its coefficients are s1 A + sx B, with
    s1_n = 2 (1 - (-1)^n) / (n pi) and sx_n = 2 l (-1)^(n+1) / (n pi) the
    coefficients of 1 and x, and A, B and their t-derivatives read off one
    jet at x = 0.
    """
    if linear is not None:
        orders = [(0, j) for j in range(kt + 1)]
        parts = linear.partials(0.0, times, orders + [(1, j) for _, j in orders])
    top = max(4, 2 * basis.n_modes)
    splits = next(k for k in (3, 2, 1) if top % 2**k == 0)
    factors = _factors(spec, times, kt)
    out = halve_until_stable(
        lambda panels: _project_rung(spec, times, basis, quad, panels, kt,
                                     max(1, _PROJECT_BLOCK * top // panels),
                                     factors),
        top >> splits, quad,
        f"sine projection did not converge to {quad.abs_tol:g}",
        halve=lambda panels: 2 * panels, splits=splits + quad.max_panel_splits)
    if linear is not None:
        n = basis.mode_numbers
        sign = (-1.0) ** n
        s1 = 2.0 * (1.0 - sign) / (n * np.pi)
        sx = -2.0 * basis.length * sign / (n * np.pi)
        for j in range(kt + 1):
            out[j] += np.outer(s1, parts[j]) + np.outer(sx, parts[kt + 1 + j])
    return tuple(out)


class HermitePaths:
    """Cubic Hermite interpolants of N paths on uniform sample times.

    ``values`` and ``slopes`` have shape (N, len(times)), or (len(times),)
    for a single path.  On the interval [t_i, t_i + h] each path is
    c0 + u (c1 + u (c2 + u c3)) in u = (s - t_i) / h, matching the values
    and slopes at both ends; beyond the sample times the end cubics extend.
    The family keeps the ``times``, ``values`` and ``slopes`` it was built
    from.  Calling it evaluates every path at once, (N, *s.shape); a
    :meth:`row` evaluates one path with the same arithmetic.  The cubics'
    coefficients are stored knots-major, (knots, N), so that gathering the
    coefficients of every path at one knot reads one contiguous row.
    """

    def __init__(self, times, values, slopes):
        self.times = times = np.asarray(times, dtype=float)
        self.values = values = np.asarray(values, dtype=float)
        self.slopes = slopes = np.asarray(slopes, dtype=float)
        self.start = float(times[0])
        self.step = float(times[-1] - times[0]) / (times.size - 1)
        self.last = times.size - 2
        # Knots along the first axis, so that a gather reads whole rows.
        y = np.ascontiguousarray(np.moveaxis(values, -1, 0))
        d = np.multiply(self.step, np.moveaxis(slopes, -1, 0), order="C")
        y0, y1, d0, d1 = y[:-1], y[1:], d[:-1], d[1:]
        rise = y1 - y0
        self.coeffs = (y0, d0, 3.0 * rise - 2.0 * d0 - d1, d0 + d1 - 2.0 * rise)

    def row(self, n):
        """Mode n's (1-based) path."""
        return self._select(n - 1)

    def rows(self, index):
        """The family of the paths at the 0-based ``index`` array."""
        return self._select(index)

    def _select(self, key):
        view = copy.copy(self)
        # take, not c[:, key]: the copies stay knots-major and contiguous.
        view.coeffs = tuple(c.take(key, axis=1) for c in self.coeffs)
        view.values, view.slopes = self.values[key], self.slopes[key]
        return view

    def __call__(self, s, nu=0):
        """The ``nu``-th derivative (0, 1 or 2) of every path at ``s``."""
        u = np.asarray(s, dtype=float) - self.start
        u /= self.step
        i = np.clip(u.astype(np.intp), 0, self.last)
        u -= i
        if nu not in (0, 1, 2):
            raise InputError(f"derivative order must be 0, 1 or 2, got {nu!r}")
        family = self.coeffs[0].ndim > 1
        if family:
            u = u[..., None]  # paths along the last axis until the end
        # Horner's rule on d^nu/du^nu of c0 + u (c1 + u (c2 + u c3)), in
        # place and one gathered coefficient at a time, so that a whole
        # family holds two arrays of the result's size, not six.
        out = None
        for k in range(3, nu - 1, -1):
            term = self.coeffs[k].take(i, axis=0)
            weight = math.perm(k, nu)
            if weight != 1:
                term *= float(weight)
            if out is None:
                out = term
            else:
                out *= u
                out += term
        if nu:
            out /= self.step**nu
        return np.moveaxis(out, -1, 0) if family else out


# Entries within this factor of a sequence's largest magnitude are
# quadrature junk: the decay fit and the compat gate's proxies drop them.
FLOOR_REL = 1e-13


@dataclass
class DecayReport:
    """Result of fitting |c_n| ~ constant / n^slope over the entries above
    the floor, which span the ``window`` of mode numbers."""

    slope: float
    constant: float
    window: tuple
    n_used: int


def decay_fit(coeffs):
    """Fit the algebraic decay rate of a coefficient sequence.

    Zeros (and entries within factor ``FLOOR_REL`` of the largest
    magnitude) are excluded.  Raises :class:`InsufficientDataError` with
    fewer than 8 usable entries.
    """
    mags = np.abs(np.asarray(coeffs, dtype=float))
    if mags.ndim != 1:
        raise InputError("decay_fit expects a 1D coefficient sequence")
    top = float(mags.max()) if mags.size else 0.0
    floor = top * FLOOR_REL
    usable = np.flatnonzero(mags > floor)
    if usable.size < 8:
        raise InsufficientDataError(
            f"decay_fit needs at least 8 usable coefficients, found {usable.size}"
        )
    n = usable + 1.0
    alpha, intercept = np.polyfit(np.log(n), np.log(mags[usable]), 1)
    return DecayReport(
        slope=-float(alpha),
        constant=float(np.exp(intercept)),
        window=(int(n[0]), int(n[-1])),
        n_used=int(usable.size),
    )

"""Sine eigenbasis on [0, l]: projection, synthesis, and tail-decay fitting.

The Dirichlet Laplacian on [0, l] has eigenfunctions sin(pi n x / l) with
eigenvalues (pi n / l)^2.  Projections use composite Gauss panels whose count
scales with the highest requested mode (P = max(4, 2N) panels), so
oscillatory integrands stay resolved.  ``sine_coefficients`` starts at P and
doubles the panel count until the coefficients settle, or raises;
``project_paths`` climbs from P/8 to P and keeps rung P when no two rungs
agree.

Projecting f(x, t) at shared sample times gives one coefficient path per
mode (``project_paths``).  The same pass projects its t-derivative, read off
one Taylor jet with the values, which gives each path's exact slopes.
:class:`HermitePaths` joins samples and slopes into one piecewise-cubic
Hermite interpolant per mode: local, with no linear system to solve, and
with the same h^4 error order as a cubic spline.

``decay_fit`` estimates the algebraic decay rate of a coefficient sequence:
least squares of log|c_n| against log n over the nonzero tail.  The fitted
slope is the practical proxy this package uses for membership in the
smoothness classes that guarantee classical solvability (|c_n| <= C / n^p).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, InsufficientDataError
from .funcspec import fs_sum
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


# Time columns of one jet on the top rung of ``project_paths``.  A rung with
# k times fewer panels takes k times as many columns, so every block holds
# as many cells (points x columns) and a coarse rung pays few jet calls,
# while the top rung makes the matrix products of the fixed max(4, 2N)-panel
# rule, bit for bit.
_PROJECT_BLOCK = 32


def _project_rung(spec, times, basis, quad, panels, kt, step):
    """The ``panels``-panel Gauss rule's sine coefficients of spec(., t) and
    of its first ``kt`` t-derivatives at ``times``, one jet per ``step``
    time columns: an array (kt + 1, N, len(times))."""
    edges = np.linspace(0.0, basis.length, panels + 1)
    pts, wts = panel_nodes(edges, quad.nodes_per_panel)
    sin_table = basis.eigenfunctions(pts)
    weight = (2.0 / basis.length) * wts
    orders = [(0, j) for j in range(kt + 1)]
    out = np.empty((kt + 1, basis.n_modes, times.size))
    for lo in range(0, times.size, step):
        cols = times[lo:lo + step]
        grids = spec.partials(pts[:, None], cols[None, :], orders)
        for j, grid in enumerate(grids):
            out[j, :, lo:lo + cols.size] = sin_table @ (weight[:, None] * grid)
    return out


def project_paths(spec, times, basis, quad=None, kt=1, linear=None):
    """Sine coefficients of spec(., t) + linear(., t) and of their first
    ``kt`` t-derivatives at every t in ``times``: a tuple of kt + 1 arrays
    (N, len(times)).

    The x-integrals climb a ladder of uniform Gauss panels: P/8, P/4, P/2
    and P, where P = max(4, 2N) puts two panels on each period of the
    fastest mode, starting at the smallest rung that is a whole number.
    The panels are halved (:func:`~delayheat.quadrature.halve_until_stable`)
    until two successive rungs agree on every value and slope to
    ``abs_tol + 1e-14 |value|``, and the finer rung is returned; when no
    pair agrees, rung P is returned and no error is raised.  Each rung
    evaluates one jet of t-order ``kt`` per block of time columns, every
    block as many points x columns as a 32-column block of rung P; values
    and t-derivatives are read off that jet.  When spec + linear lacks the
    t-derivative, ``differentiate`` raises :class:`UnsupportedOperationError`.

    ``linear`` (or None) is a spec A(t) + x B(t), added in closed form
    after the ladder: its coefficients are s1 A + sx B, with
    s1_n = 2 (1 - (-1)^n) / (n pi) and sx_n = 2 l (-1)^(n+1) / (n pi) the
    coefficients of 1 and x, and A, B and their t-derivatives read off one
    jet at x = 0.
    """
    if quad is None:
        quad = QuadratureConfig()
    if kt:  # the budget check only
        (spec if linear is None else fs_sum(spec, linear)).differentiate("t", kt)
    top = max(4, 2 * basis.n_modes)
    splits = next(k for k in (3, 2, 1) if top % 2**k == 0)
    out = halve_until_stable(
        lambda panels: _project_rung(spec, times, basis, quad, panels, kt,
                                     _PROJECT_BLOCK * top // panels),
        top >> splits, quad, None, halve=lambda panels: 2 * panels,
        splits=splits)
    if linear is not None:
        n = basis.mode_numbers
        sign = (-1.0) ** n
        s1 = 2.0 * (1.0 - sign) / (n * np.pi)
        sx = -2.0 * basis.length * sign / (n * np.pi)
        orders = [(0, j) for j in range(kt + 1)]
        parts = linear.partials(0.0, times, orders + [(1, j) for _, j in orders])
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
    :meth:`row` evaluates one path with the same arithmetic.
    """

    def __init__(self, times, values, slopes):
        self.times = times = np.asarray(times, dtype=float)
        self.values = values = np.asarray(values, dtype=float)
        self.slopes = slopes = np.asarray(slopes, dtype=float)
        self.start = float(times[0])
        self.step = float(times[-1] - times[0]) / (times.size - 1)
        self.last = times.size - 2
        y0, y1 = values[..., :-1], values[..., 1:]
        d0, d1 = self.step * slopes[..., :-1], self.step * slopes[..., 1:]
        rise = y1 - y0
        self.coeffs = (y0, d0, 3.0 * rise - 2.0 * d0 - d1, d0 + d1 - 2.0 * rise)

    def row(self, n):
        """Mode n's (1-based) path; shares this family's arrays."""
        return self._select(n - 1)

    def rows(self, index):
        """The family of the paths at the 0-based ``index`` array."""
        return self._select(index)

    def _select(self, key):
        view = copy.copy(self)
        view.coeffs = tuple(c[key] for c in self.coeffs)
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
        # Horner's rule on d^nu/du^nu of c0 + u (c1 + u (c2 + u c3)), in
        # place and one gathered coefficient at a time, so that a whole
        # family holds two arrays of the result's size, not six.
        out = None
        for k in range(3, nu - 1, -1):
            term = self.coeffs[k].take(i, axis=-1)
            weight = math.perm(k, nu)
            if weight != 1:
                term *= float(weight)
            if out is None:
                out = term
            else:
                out *= u
                out += term
        return out / self.step**nu if nu else out


_SINE_BLOCK = 1 << 16  # points per sine table in sine_coefficients


def sine_coefficients(f, basis, quad=None):
    """Coefficients c_n = (2 / l) * integral f(x) sin(pi n x / l) dx, n = 1..N.

    ``f`` must be vectorized over x.  The panel count is doubled until
    every coefficient is stable to quadrature tolerance; raises
    :class:`QuadratureError` otherwise.  Each level lays out its panels with
    ``np.linspace``, not by halving edges, so its nodes keep their bits.
    """
    if quad is None:
        quad = QuadratureConfig()
    panels = max(4, 2 * basis.n_modes)

    def level(panels):
        edges = np.linspace(0.0, basis.length, panels + 1)
        pts, wts = panel_nodes(edges, quad.nodes_per_panel)
        weighted = wts * np.asarray(f(pts), dtype=float)
        # One sine table per block of points bounds the memory of fine levels.
        blocks = [basis.eigenfunctions(pts[i:i + _SINE_BLOCK]) @ weighted[i:i + _SINE_BLOCK]
                  for i in range(0, pts.size, _SINE_BLOCK)]
        return (2.0 / basis.length) * sum(blocks[1:], blocks[0])

    return halve_until_stable(
        level, panels, quad,
        f"sine projection did not converge to {quad.abs_tol:g}",
        halve=lambda panels: 2 * panels,
    )


def sine_synthesis(coeffs, basis, x):
    """Evaluate sum_n c_n sin(pi n x / l) at the points x."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.size != basis.n_modes:
        raise InputError(
            f"coefficient count {coeffs.size} does not match basis size {basis.n_modes}"
        )
    x_arr = np.asarray(x, dtype=float)
    out = coeffs @ basis.eigenfunctions(x_arr)
    if np.ndim(x) == 0:
        return float(out[0])
    return out


@dataclass
class DecayReport:
    """Result of fitting |c_n| ~ constant / n^slope over the nonzero tail.

    ``threshold``/``passed`` are filled when a target smoothness class was
    requested; ``passed`` is also granted when the sequence decays faster
    than any power (log-log curvature test), recorded in
    ``super_polynomial``.
    """

    slope: float
    constant: float
    window: tuple
    n_used: int
    super_polynomial: bool
    threshold: float = None
    passed: bool = None


def decay_fit(coeffs, m=None, fit_slack=0.25):
    """Fit the algebraic decay rate of a coefficient sequence.

    Zeros (and entries within factor 1e-13 of the largest magnitude, i.e.
    quadrature junk) are excluded.  With ``m`` given, the fit is judged
    against the class threshold 2 m + 1/2: passes when
    slope >= 2 m + 1/2 - fit_slack, or when decay is super-polynomial.
    Raises :class:`InsufficientDataError` with fewer than 8 usable entries.
    """
    mags = np.abs(np.asarray(coeffs, dtype=float))
    if mags.ndim != 1:
        raise InputError("decay_fit expects a 1D coefficient sequence")
    top = float(mags.max()) if mags.size else 0.0
    floor = top * 1e-13
    usable = np.flatnonzero(mags > floor)
    if usable.size < 8:
        raise InsufficientDataError(
            f"decay_fit needs at least 8 usable coefficients, found {usable.size}"
        )
    n = usable + 1.0
    logn = np.log(n)
    logc = np.log(mags[usable])
    alpha, intercept = np.polyfit(logn, logc, 1)
    slope = -float(alpha)
    constant = float(np.exp(intercept))

    super_poly = False
    half = usable.size // 2
    if half >= 4:
        a1, _ = np.polyfit(logn[:half], logc[:half], 1)
        a2, _ = np.polyfit(logn[half:], logc[half:], 1)
        super_poly = (-a2) - (-a1) > 1.0

    threshold = None
    passed = None
    if m is not None:
        threshold = 2.0 * m + 0.5
        passed = bool(super_poly or slope >= threshold - fit_slack)
    return DecayReport(
        slope=slope,
        constant=constant,
        window=(int(n[0]), int(n[-1])),
        n_used=int(usable.size),
        super_polynomial=bool(super_poly),
        threshold=threshold,
        passed=passed,
    )

"""Composite Gauss-Legendre quadrature with breakpoint-aware panels.

Integrands in this package are piecewise smooth: they have kinks where a
piecewise-polynomial kernel crosses a segment boundary, and they may carry a
stiff exponential factor exp(rate * s).  Panels are therefore laid out from

* caller-supplied breakpoints (kernel knot crossings), and
* a geometric grading toward the end where an exponential factor peaks,

and the result is accepted only after a panel-halving refinement agrees to
tolerance.  :func:`halve_until_stable` is that acceptance loop; the adaptive
:func:`composite_gauss`, the sine projections and the delay-ODE grid engine
each hand it their own level function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InputError, QuadratureError


@dataclass(frozen=True)
class QuadratureConfig:
    """Settings for composite Gauss-Legendre integration.

    Attributes
    ----------
    nodes_per_panel : int
        Gauss-Legendre nodes on each panel.
    max_panel_splits : int
        How many times every panel may be halved before giving up.
    abs_tol : float
        Refinement acceptance: two successive levels must agree to
        ``abs_tol + 1e-14 * |I|`` (the relative floor keeps large-magnitude
        integrals from being held to an impossible absolute target).
    """

    nodes_per_panel: int = 16
    max_panel_splits: int = 8
    abs_tol: float = 1e-10

    def __post_init__(self):
        if self.nodes_per_panel < 2:
            raise InputError("nodes_per_panel must be at least 2")
        if self.max_panel_splits < 0:
            raise InputError("max_panel_splits must be non-negative")
        if not 0.0 < self.abs_tol < math.inf:
            raise InputError("abs_tol must be finite and positive")


@lru_cache(maxsize=32)
def gauss_rule(n):
    """Gauss-Legendre nodes and weights on [-1, 1]."""
    return np.polynomial.legendre.leggauss(n)


def panel_nodes(edges, nodes_per_panel):
    """Map a Gauss rule onto each panel of ``edges``; returns (points, weights)."""
    edges = np.asarray(edges, dtype=float)
    gx, gw = gauss_rule(nodes_per_panel)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    pts = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    wts = (half[:, None] * gw[None, :]).ravel()
    return pts, wts


def halve_panels(edges):
    """Panel edges with every panel of ``edges`` split at its midpoint."""
    mids = 0.5 * (edges[:-1] + edges[1:])
    out = np.empty(edges.size + mids.size)
    out[0::2] = edges
    out[1::2] = mids
    return out


# |rate| * width up to which an exponential needs no graded panels.
_GRADING_THRESHOLD = 8.0


def graded_breakpoints(lo, hi, rate):
    """Geometric grading for an integrand carrying exp(rate * s) on [lo, hi].

    Returns interior points clustered toward the end where the exponential
    peaks (hi for rate > 0, lo for rate < 0); empty when |rate|*(hi-lo) is
    at most ``_GRADING_THRESHOLD``.
    """
    width = hi - lo
    scale = abs(rate) * width
    if not np.isfinite(scale) or scale <= _GRADING_THRESHOLD:
        return []
    levels = int(np.ceil(np.log2(scale / (_GRADING_THRESHOLD / 2.0))))
    dists = width * 0.5 ** np.arange(1, levels + 1)
    if rate > 0:
        pts = hi - dists
    else:
        pts = lo + dists
    return [p for p in pts if lo < p < hi]


def halve_until_stable(level, layout, quad, message, halve=halve_panels,
                       splits=None):
    """Refine ``layout`` until two successive levels agree; return the last.

    ``level(layout)`` evaluates a scalar or an array.  The panels are halved
    (``halve(layout)``) and the level evaluated again until every entry
    agrees with the previous level to ``abs_tol + 1e-14 * |value|``.  After
    ``splits`` halvings (default ``quad.max_panel_splits``) without that,
    raises :class:`QuadratureError` with ``message`` and the largest
    difference, or, when ``message`` is None, returns the last level.
    """
    value = level(layout)
    residual = np.inf
    for _ in range(quad.max_panel_splits if splits is None else splits):
        layout = halve(layout)
        refined = level(layout)
        diff = np.abs(refined - value)
        value = refined
        if np.all(diff <= quad.abs_tol + 1e-14 * np.abs(refined)):
            return value
        residual = float(np.max(diff))
    if message is None:
        return value
    raise QuadratureError(message, residual=residual)


def composite_gauss(f, a, b, quad=QuadratureConfig(), breakpoints=()):
    """Integrate vectorized ``f`` over [a, b] with adaptive composite Gauss.

    ``breakpoints`` inside (a, b) become initial panel edges.  Panels are
    halved until two refinement levels agree to tolerance; raises
    :class:`QuadratureError` (with the achieved residual) otherwise.
    """
    if not (np.isfinite(a) and np.isfinite(b)):
        raise InputError("integration limits must be finite")
    if b < a:
        raise InputError(f"integration limits out of order: [{a}, {b}]")
    if b == a:
        return 0.0

    interior = sorted({float(p) for p in breakpoints if a < p < b})
    edges = np.array([a, *interior, b], dtype=float)

    def level_value(edges):
        pts, wts = panel_nodes(edges, quad.nodes_per_panel)
        vals = np.asarray(f(pts), dtype=float)
        return float(np.dot(vals, wts))

    return halve_until_stable(
        level_value, edges, quad,
        f"quadrature did not converge to {quad.abs_tol:g} "
        f"after {quad.max_panel_splits} panel splits",
    )

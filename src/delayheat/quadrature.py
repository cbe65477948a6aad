"""Composite Gauss-Legendre quadrature with breakpoint-aware panels.

Integrands in this package are piecewise smooth: they have kinks where a
piecewise-polynomial kernel crosses a segment boundary, and they may carry a
stiff exponential factor exp(rate * s).  Panels are therefore laid out from

* caller-supplied breakpoints (kernel knot crossings), and
* a geometric grading toward the end where an exponential factor peaks,

and the result is accepted only after a panel-halving refinement agrees to
tolerance.
"""

from __future__ import annotations

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
        if not (self.abs_tol > 0.0):
            raise InputError("abs_tol must be positive")


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


def graded_breakpoints(lo, hi, rate, threshold=8.0):
    """Geometric grading for an integrand carrying exp(rate * s) on [lo, hi].

    Returns interior points clustered toward the end where the exponential
    peaks (hi for rate > 0, lo for rate < 0); empty when |rate|*(hi-lo) is
    below ``threshold``.
    """
    width = hi - lo
    scale = abs(rate) * width
    if not np.isfinite(scale) or scale <= threshold:
        return []
    levels = int(np.ceil(np.log2(scale / (threshold / 2.0))))
    dists = width * 0.5 ** np.arange(1, levels + 1)
    if rate > 0:
        pts = hi - dists
    else:
        pts = lo + dists
    return [p for p in pts if lo < p < hi]


def composite_gauss(f, a, b, quad=None, breakpoints=()):
    """Integrate vectorized ``f`` over [a, b] with adaptive composite Gauss.

    ``breakpoints`` inside (a, b) become initial panel edges.  Panels are
    halved until two refinement levels agree to tolerance; raises
    :class:`QuadratureError` (with the achieved residual) otherwise.
    """
    if quad is None:
        quad = QuadratureConfig()
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

    value = level_value(edges)
    residual = np.inf
    for _ in range(quad.max_panel_splits):
        edges = halve_panels(edges)
        refined = level_value(edges)
        residual = abs(refined - value)
        value = refined
        if residual <= quad.abs_tol + 1e-14 * abs(refined):
            return value
    raise QuadratureError(
        f"quadrature did not converge to {quad.abs_tol:g} "
        f"after {quad.max_panel_splits} panel splits",
        residual=residual,
    )

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

Where the exponential factor is known, it can instead be integrated exactly
(product integration): :func:`exp_panel_weights` gives the weights of
exp(rate (s - peak)) times the Lagrange basis on each panel's Gauss nodes,
so a stiff factor needs no graded panels in the caller.  The grading moves
into the weights, computed once per rate on a fine graded rule.
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


def _grading_levels(scale):
    """How many geometric grading points an exponential exp(scale * x)
    takes on a unit panel, vectorized over |scale|: none when it is at most
    ``_GRADING_THRESHOLD`` (or not finite)."""
    scale = np.asarray(scale, dtype=float)
    graded = np.isfinite(scale) & (scale > _GRADING_THRESHOLD)
    ratio = np.where(graded, scale, 1.0) / (_GRADING_THRESHOLD / 2.0)
    return np.where(graded, np.ceil(np.log2(ratio)), 0.0).astype(int)


def graded_breakpoints(lo, hi, rate):
    """Geometric grading for an integrand carrying exp(rate * s) on [lo, hi].

    Returns interior points clustered toward the end where the exponential
    peaks (hi for rate > 0, lo for rate < 0); empty when |rate|*(hi-lo) is
    at most ``_GRADING_THRESHOLD``.
    """
    width = hi - lo
    levels = int(_grading_levels(abs(rate) * width))
    if not levels:
        return []
    dists = width * 0.5 ** np.arange(1, levels + 1)
    if rate > 0:
        pts = hi - dists
    else:
        pts = lo + dists
    return [p for p in pts if lo < p < hi]


@lru_cache(maxsize=64)
def _lagrange_table(nodes_per_panel, layout):
    """A Gauss rule of twice ``nodes_per_panel`` nodes on each panel of
    [0, 1] cut at the interior points ``layout``, and the Lagrange basis of
    the ``nodes_per_panel``-point Gauss rule on [0, 1] at its nodes: returns
    (points - 1, weights, basis), basis of shape (points, nodes_per_panel).
    """
    pts, wts = panel_nodes([0.0, *layout, 1.0], 2 * nodes_per_panel)
    nodes = 0.5 * (gauss_rule(nodes_per_panel)[0] + 1.0)
    basis = np.ones((pts.size, nodes_per_panel))
    for k, node in enumerate(nodes):
        # Column j takes the factor (x - x_k) / (x_j - x_k) for every k != j.
        factor = (pts[:, None] - node) / np.where(nodes == node, 1.0,
                                                   nodes - node)
        factor[:, k] = 1.0
        basis *= factor
    return pts - 1.0, wts, basis


def _exp_weights(rates, nodes_per_panel):
    """Product-integration weights on [0, 1] for the factor exp(rate * x).

    Row i holds v_j = integral_0^1 exp(rate_i (x - peak_i)) l_j(x) dx,
    j = 0..nodes_per_panel-1, where l_j is the Lagrange basis on the Gauss
    nodes of [0, 1] and peak_i the end where the exponential is largest (1
    for rate_i > 0, else 0).  So sum_j v_j g(x_j) integrates
    exp(rate (x - peak)) g(x) exactly for g of degree < nodes_per_panel,
    the weights stay O(1) at any rate, and at rate 0 they are the Gauss
    weights.  Each row is computed on its own rate's geometric grading
    (:func:`graded_breakpoints`), with twice as many Gauss nodes on each
    fine panel.
    """
    rates = np.asarray(rates, dtype=float).ravel()
    mags = np.abs(rates)
    groups = {}  # rates of one level count share one grading
    for i, count in enumerate(_grading_levels(mags).tolist()):
        groups.setdefault(count, []).append(i)
    out = np.empty((rates.size, 1, nodes_per_panel))
    for rows in groups.values():
        layout = tuple(graded_breakpoints(0.0, 1.0, mags[rows[0]]))
        shifted, wts, basis = _lagrange_table(nodes_per_panel, layout)
        # exp(|rate| (x - 1)) with peak 1; a falling exponential is its
        # mirror image, whose Gauss nodes are the same nodes reversed.
        # One (1 x points) product per row, as a row alone would take it.
        out[rows] = (wts * np.exp(mags[rows, None, None] * shifted)) @ basis
    out = out[:, 0]
    falling = rates < 0.0
    out[falling] = out[falling, ::-1]
    return out


def exp_panel_weights(edges, nodes_per_panel, rates):
    """Product-integration weights of every panel of ``edges`` for the
    factor exp(rate * (s - peak)), peak being the end of [edges[0],
    edges[-1]] where the exponential is largest; the rule's points are
    ``panel_nodes(edges, nodes_per_panel)[0]``.

    Returns (len(rates), points): row i integrates
    exp(rate_i (s - peak_i)) g(s) for g a polynomial of degree
    < ``nodes_per_panel`` on each panel.  A caller integrating
    exp(rate s) f(s) evaluates f(s) exp(rate (peak - s)) at the points.
    """
    edges = np.asarray(edges, dtype=float)
    rates = np.asarray(rates, dtype=float).ravel()[:, None]
    widths = np.diff(edges)
    out = np.empty((rates.size, widths.size, nodes_per_panel))
    for w in set(widths.tolist()):
        # Panels of one width share their weights up to the scale below.
        out[:, widths == w] = _exp_weights(rates * w, nodes_per_panel)[:, None]
    # Each panel's own peak end lies |rate| * (its distance) below the peak.
    ends = np.where(rates > 0.0, edges[1:] - edges[-1], edges[:-1] - edges[0])
    out *= (widths * np.exp(rates * ends))[:, :, None]
    return out.reshape(rates.size, -1)


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

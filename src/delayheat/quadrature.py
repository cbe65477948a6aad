"""Composite Gauss-Legendre quadrature with breakpoint-aware panels.

Integrands in this package are piecewise smooth: they have kinks where a
piecewise-polynomial kernel crosses a segment boundary, and they may carry a
stiff exponential factor exp(rate * s).  Panels are therefore laid out from

* caller-supplied breakpoints (kernel knot crossings), and
* a geometric grading toward the end where an exponential factor peaks,

and the result is accepted only after a panel-halving refinement agrees to
tolerance.  :func:`halve_until_stable` is that acceptance loop; the adaptive
:func:`composite_gauss`, the sine projection and the delay-ODE grid engine
each hand it their own level function.

Where the exponential factor is known, it can instead be integrated exactly
(product integration): :func:`exp_weights` gives the weights of
exp(rate (x - peak)) times the Lagrange basis on a panel's Gauss nodes, up
to the panel's end or any point in it, so a stiff factor needs no graded
panels in the caller.  The grading moves into the weights, computed once
per rate on a fine graded rule.
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


def _lagrange_basis(nodes_per_panel, x):
    """The Lagrange basis on the Gauss nodes of [0, 1] at the points ``x``,
    shape x.shape + (nodes_per_panel,), by the barycentric formula; a point
    on a node (|rate| c past about 1e14: the rule rounds onto c) takes
    that node's unit row."""
    nodes = 0.5 * (gauss_rule(nodes_per_panel)[0] + 1.0)
    gaps = nodes[:, None] - nodes + np.eye(nodes_per_panel)
    offsets = x[..., None] - nodes
    on_node = offsets == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        basis = np.divide(1.0 / np.prod(gaps, axis=1), offsets)
        basis /= basis.sum(axis=-1, keepdims=True)
    return np.where(on_node.any(axis=-1, keepdims=True), on_node, basis)


def exp_weights(rates, nodes_per_panel, ends=(1.0,)):
    """Product-integration weights on [0, c] for the factor exp(rate * x).

    Entry (i, e) holds v_j = integral_0^c exp(rate_i (x - peak)) l_j(x) dx
    at c = ``ends[e]`` in (0, 1], l_j the Lagrange basis on the Gauss nodes
    of [0, 1] and peak the end of [0, c] where the exponential is largest
    (c for rate_i > 0, else 0).  So sum_j v_j g(x_j) integrates
    exp(rate (x - peak)) g(x) over [0, c] exactly for g of degree
    < nodes_per_panel, and the weights stay O(1) at any rate.  Each rate
    takes the geometric grading of its |rate| on [0, 1]
    (:func:`graded_breakpoints`), with twice as many Gauss nodes on each
    fine panel, scaled onto [0, c]: as fine as |rate| c needs, or finer.
    """
    rates = np.asarray(rates, dtype=float).ravel()
    ends = np.asarray(ends, dtype=float)
    mags = np.abs(rates)
    groups = {}  # rates of one level count and sign share one grading
    for i, key in enumerate(zip(_grading_levels(mags).tolist(),
                                (rates > 0.0).tolist())):
        groups.setdefault(key, []).append(i)
    out = np.empty((rates.size, ends.size, 1, nodes_per_panel))
    for (_, rising), rows in groups.items():
        # The graded rule on [-1, 0], where the points next to the peak at 0
        # keep their relative accuracy.
        layout = graded_breakpoints(0.0, 1.0, mags[rows[0]])
        shifted, wts = panel_nodes([-1.0, *(p - 1.0 for p in layout), 0.0],
                                   2 * nodes_per_panel)
        # The rule's points run toward the peak: x = c (1 + shifted) for a
        # rising exponential, x = -c shifted for a falling one, and either
        # way the factor is exp(|rate| c shifted).
        x = ends[:, None] * (1.0 + shifted if rising else -shifted)
        scaled = np.exp(mags[rows, None, None] * ends[:, None] * shifted)
        scaled *= ends[:, None] * wts
        # One (1 x points) product per row and end, as a row alone takes it.
        out[rows] = scaled[:, :, None, :] @ _lagrange_basis(nodes_per_panel, x)
    return out[:, :, 0]


def halve_until_stable(level, layout, quad, message, halve=halve_panels,
                       splits=None, by_row=False):
    """Refine ``layout`` until two successive levels agree; return the last.

    ``level(layout)`` evaluates a scalar or an array.  The panels are halved
    (``halve(layout)``) and the level evaluated again until every entry
    agrees with the previous level to ``abs_tol + 1e-14 * |value|``.  After
    ``splits`` halvings (default ``quad.max_panel_splits``) without that,
    raises :class:`QuadratureError` with ``message`` and the largest
    difference; no caller gets an unsettled level back.

    With ``by_row``, each row of the array is accepted at the first level
    where it agrees with the one before, and keeps that level's value, as
    a call for it alone would; later levels are asked only for the rows
    still open, as ``level(layout, rows)`` (sorted 0-based indices).
    """
    value = level(layout)
    rows = np.arange(len(value)) if by_row else None
    residual = np.inf
    for _ in range(quad.max_panel_splits if splits is None else splits):
        layout = halve(layout)
        if rows is None:
            refined = level(layout)
            diff, value = np.abs(refined - value), refined
        else:
            refined = level(layout, rows)
            diff = np.abs(refined - value[rows])
            value[rows] = refined
        settled = diff <= quad.abs_tol + 1e-14 * np.abs(refined)
        if rows is not None:
            settled = settled.reshape(rows.size, -1).all(axis=1)
            rows, diff = rows[~settled], diff[~settled]
        if np.all(settled):
            return value
        residual = float(np.max(diff))
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

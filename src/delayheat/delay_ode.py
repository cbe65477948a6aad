"""Closed-form solution of the scalar linear delay ODE

    x'(t) = a x(t) + b x(t - tau),    x = beta on [-tau, 0].

Everything is expressed through one kernel K, the solution of
K'(xi) = a K(xi) + b K(xi - tau) with K = exp(a (xi + tau)) on [-tau, 0) and
K = 0 below -tau.  On segment k, where xi = (k-1) tau + u with u in [0, tau),
it is (Bellman & Cooke's method of steps)

    K(xi) = sum_{i=0}^{k}  exp(a u) (b u)^i / i!  S_{k-i},

with S_k = K((k-1) tau) its values at the segment starts: S_0 = 1 and
S_{k+1} is the sum above at u = tau.  Every term is bounded by
max(1, exp((a + |b|) tau)) max |S|, so nothing cancels across delays,
however many the argument spans.  Each term combines its exponential,
power, factorial and log |S_{k-i}| in log space, so stiff coefficients
(|a| tau of order thousands, as produced by high spatial modes of the
delayed heat equation) evaluate without overflow; terms above float range
raise :class:`~delayheat.errors.NumericError`.  At a = 0, K is the delayed
exponential, the fundamental solution of x'(t) = b x(t - tau).

Solution formulas:

    homogeneous:  x(t) = K(t) beta(-tau)
                         + integral_{-tau}^{0} K(t - tau - s) [beta'(s) - a beta(s)] ds
    forced (zero history):
                  x(t) = integral_{0}^{t} K(t - tau - s) rho(s) ds

and the full solution is their sum.  Integrands are piecewise smooth with
kinks where t - tau - s crosses a multiple of tau.

Two evaluators take the history beta and the forcing rho as callables of s
(a :class:`~delayheat.spectral.HermitePaths` family for many modes):

* :func:`solve_modes`, the trajectories of many modes (one delay, per-mode
  a and b) on the grid dt = tau / m, by the method of steps with
  exponential weights (Bellen & Zennaro 2003; Hochbruck & Ostermann 2010)
  and no K.  Each dt-panel is cut into S sub-panels of width h with Gauss
  nodes, and each advances x(end) = exp(a h) x(start) + h W . g(nodes),
  g = b x(s - tau) + rho, W integrating exp(a h (1 - u)) times the
  Lagrange basis on the nodes exactly
  (:func:`~delayheat.quadrature.exp_weights`), so a stiff mode needs no
  finer sub-panels than a mild one.  The same weights up to each node give
  the node values, the lagged data one delay later: the work is linear in
  the horizon, the memory one delay interval's node values.  The field
  solvers use it; :func:`solve_on_grid` is its one-mode call.
* :func:`solve_at`, one mode at any t from the formulas above (it also
  reads beta'), one adaptive quadrature of K per point, with panels split
  at the kinks and graded toward the end where exp(-a s) peaks.  It serves
  ``dde solve``, and it and :func:`kernel` are the references the grid
  engine is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError, NumericError
from .quadrature import (
    QuadratureConfig,
    composite_gauss,
    exp_panel_weights,
    exp_weights,
    gauss_rule,
    graded_breakpoints,
    halve_until_stable,
)


@dataclass(frozen=True)
class DelayOdeParams:
    """Coefficients of x'(t) = a x(t) + b x(t - tau).

    ``a`` and ``b`` may also be arrays of one shape, the rates of several
    modes with the one delay ``tau`` (:func:`kernel` evaluates them at once).
    """

    a: float
    b: float
    tau: float

    def __post_init__(self):
        for name in ("a", "b", "tau"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise InputError(f"{name} must be finite")
        if self.tau <= 0.0:
            raise InputError(f"tau must be positive, got {self.tau!r}")


_MAX_EXP_ARG = 700.0  # below the float64 overflow threshold of exp
_MIN_EXP_ARG = -746.0  # exp underflows to exactly 0.0 below this


def kernel(params, xi, starts=None):
    """Evaluate K(xi) (see module docstring), vectorized over xi.

    ``params.a`` and ``params.b`` may be arrays of one shape M, the rates of
    several modes with one delay; K then has shape M + xi.shape, every mode
    at every xi.  Raises :class:`NumericError` when a term leaves float
    range, and :class:`InputError` for a non-finite xi.

    ``starts``, an empty dict at first, keeps the segment starts S_k of
    ``params`` between calls: the first call stores the starts it walks,
    and a later call whose xi reach no further reads them and skips the
    segments that hold none of its points.  numpy sums a lone column in
    another order than a wider block, so an S_k can differ in its last bit
    with the points of its segment; a caller shares one dict only among
    calls whose points fill the same segments (the refinement levels of
    one quadrature), and their values then equal those of calls without.
    """
    xi = np.asarray(xi, dtype=float)
    a = np.asarray(params.a, dtype=float)
    b = np.asarray(params.b, dtype=float)
    tau = params.tau
    shape = a.shape + xi.shape
    # Modes along the rows, points along the columns.
    a, b = a.reshape(-1, 1), b.reshape(-1, 1)
    pts = xi.ravel()
    if not np.all(np.isfinite(pts)):
        raise InputError("xi must be finite")
    out = np.zeros((a.shape[0], pts.size))
    seg = np.floor(pts / tau) + 1.0  # K vanishes where seg < 0
    kmax = int(seg.max(initial=-1.0))
    i = np.arange(kmax + 1)
    log_factorial = np.array([math.lgamma(j + 1.0) for j in i])
    sign_power = np.sign(b) ** i
    known = bool(starts) and starts["log_s"].shape[1] > kmax
    if known:
        log_s, sign_s = starts["log_s"], starts["sign_s"]
    else:
        # log |S_k| and sign S_k, filled in as the segments are walked.
        log_s = np.zeros((a.shape[0], kmax + 1))
        sign_s = np.ones_like(log_s)
    for k in range(kmax + 1):
        cols = np.flatnonzero(seg == k)
        if known and not cols.size:
            continue
        if cols.size and cols[-1] - cols[0] == cols.size - 1:
            # One run of columns, as in an ordered xi or a lag table: a
            # slice reads and writes them without gathers.
            cols = slice(cols[0], cols[-1] + 1)
        u = pts[cols] - (k - 1) * tau
        n = u.size
        if k < kmax:
            # The start of segment k + 1, summed with the segment's points
            # also when it is known, so that theirs are summed in the order
            # a call without ``starts`` takes.
            u = np.append(u, tau)
        # Term i of every mode at every u, e^(a u) (b u)^i / i! S_(k-i), in
        # log magnitude, i along the first axis; log(0) = -inf makes a
        # vanishing b u an exact zero term, except where i = 0.
        log_term = np.empty((k + 1, a.shape[0], u.size))
        log_term[0] = a * u
        with np.errstate(divide="ignore"):
            log_bu = np.log(np.abs(b * u))
        log_term[1:] = log_bu * i[1:k + 1, None, None]
        log_term[1:] += log_term[0]
        log_term += (log_s[:, k::-1] - log_factorial[:k + 1]).T[:, :, None]
        if log_term.max(initial=-np.inf) > _MAX_EXP_ARG:
            raise NumericError(
                "delay kernel overflow: term magnitude exceeds float range")
        # Terms that underflow are exact zeros; exp is slow on them (stiff
        # modes underflow over most of a table), so they are left out.
        terms = np.exp(log_term, out=np.zeros_like(log_term),
                       where=log_term > _MIN_EXP_ARG)
        terms *= (sign_s[:, k::-1] * sign_power[:, :k + 1]).T[:, :, None]
        values = terms.sum(axis=0)
        out[:, cols] = values[:, :n]
        if k < kmax and not known:
            with np.errstate(divide="ignore"):
                log_s[:, k + 1] = np.log(np.abs(values[:, -1]))
            sign_s[:, k + 1] = np.sign(values[:, -1])
    if starts is not None and not known:
        starts.update(log_s=log_s, sign_s=sign_s)
    out = out.reshape(shape)
    return float(out) if out.ndim == 0 else out


def _knot_crossings(t, tau, lo, hi):
    """Points s in (lo, hi) where t - tau - s crosses a multiple of tau."""
    m_lo = int(math.floor((t - hi) / tau)) - 1
    m_hi = int(math.ceil((t - lo) / tau)) + 1
    return [t - m * tau for m in range(m_lo, m_hi + 1) if lo < t - m * tau < hi]


def solve_at(params, history, forcing, t, quad=QuadratureConfig()):
    """x(t) at any t >= -tau: the per-point twin of :func:`solve_on_grid`.

    ``history(s, nu)`` gives the nu-th derivative (nu = 0, 1) of beta and
    ``forcing(s)`` gives rho; either may be None for zero data.  ``t`` may be
    a scalar or an array (evaluated pointwise).
    """
    t_arr = np.asarray(t, dtype=float)
    if t_arr.ndim > 0:
        return np.array([solve_at(params, history, forcing, tv, quad)
                         for tv in t_arr])
    t = float(t_arr)
    if not math.isfinite(t):
        raise InputError(f"t must be finite, got {t!r}")
    a, tau = params.a, params.tau
    if t < -tau:
        raise DomainError(f"t={t!r} is below -tau={-tau!r}")
    if t <= 0.0:
        return 0.0 if history is None else float(np.asarray(history(t), dtype=float))

    def integral(data, lo, hi):
        """integral_lo^hi K(t - tau - s) data(s) ds.  Every level of the
        quadrature puts points in the same segments of K, so the levels
        share one set of segment starts."""
        starts = {}

        def integrand(s):
            return kernel(params, t - tau - s, starts=starts) * data(s)

        breaks = _knot_crossings(t, tau, lo, hi) + graded_breakpoints(lo, hi, -a)
        return composite_gauss(integrand, lo, hi, quad, breaks)

    x = 0.0
    if history is not None:
        x = kernel(params, t) * float(np.asarray(history(-tau), dtype=float))
        x += integral(lambda s: np.asarray(history(s, 1), dtype=float)
                      - a * np.asarray(history(s), dtype=float), -tau, 0.0)
    if forcing is not None:
        x += integral(lambda s: np.asarray(forcing(s), dtype=float), 0.0, t)
    return x


def _one_row(fn):
    """A vectorized callable ``fn(s)`` as a one-row path family, as
    :func:`solve_modes` reads a :class:`~delayheat.spectral.HermitePaths`."""
    if fn is None:
        return None
    return lambda s: np.asarray(fn(s.ravel()), dtype=float).reshape(s.shape)[None]


def solve_on_grid(params, history, forcing, steps_per_tau, n_steps,
                  quad=QuadratureConfig()):
    """x(j dt) for j = 1..n_steps on the grid dt = tau / steps_per_tau.

    ``history`` and ``forcing`` are taken as :func:`solve_at` takes them
    (``history(s, nu)``, ``forcing(s)``, either may be None).  Returns an
    array of length ``n_steps``.  This is :func:`solve_modes` for one mode
    whose data are plain callables.
    """
    return solve_modes([params.a], [params.b], params.tau, _one_row(history),
                       _one_row(forcing),
                       steps_per_tau, n_steps, quad)[0]


# Node values (modes x sub-panels x nodes) a block holds at most: lag-coupled
# modes recurse in chunks whose delay interval fits, others by dt-panels.
_BLOCK_ELEMENTS = 1 << 15


def solve_modes(a, b, tau, history, forcing, steps_per_tau, n_steps,
                quad=QuadratureConfig()):
    """Trajectories x_i(j dt), j = 1..n_steps, of the modes
    x_i' = a_i x_i + b_i x_i(t - tau) + rho_i, on the grid dt = tau / m with
    m = ``steps_per_tau``: an array (len(a), n_steps).  ``history`` is a
    path family of the beta_i (a :class:`~delayheat.spectral.HermitePaths`,
    whose ``rows(index)`` is the family of some rows), ``forcing`` one of
    the rho_i; either may be None for zero data.

    The method of steps of the module docstring, every mode at once, one
    delay interval at a time: its g is formed at once (the history or the
    previous interval's node values give x(s - tau)), its sub-panel ends
    follow by a scan, and its node values replace the previous interval's.
    When every b_i == 0, no node values are kept, and a dt-panel's
    sub-panels fold into one step x_(j+1) = exp(a dt) x_j + W . rho(nodes)
    (W: :func:`~delayheat.quadrature.exp_panel_weights`).

    The levels are S = 1, 2, 4, ...; a mode is accepted at the first level
    that agrees with the one before to ``abs_tol + 1e-14 * |x|``, as a call
    for it alone would be, and only the modes still open are solved again.
    Raises :class:`QuadratureError` after ``max_panel_splits`` halvings
    otherwise, and :class:`NumericError` when a trajectory leaves float
    range: at once when some a_i (tau + t_n) exceeds the range of exp, as K
    would, or when the recursion overflows.
    """
    m = int(steps_per_tau)
    if m < 1:
        raise InputError(f"steps_per_tau must be at least 1, got {steps_per_tau!r}")
    if n_steps < 0:
        raise InputError(f"n_steps must be non-negative, got {n_steps!r}")
    params = DelayOdeParams(a=np.asarray(a, dtype=float),
                            b=np.asarray(b, dtype=float), tau=tau)
    a, b = params.a, params.b
    if n_steps == 0 or not a.size:
        return np.zeros((a.size, n_steps))
    dt = tau / m
    if np.any(a * (tau + n_steps * dt) > _MAX_EXP_ARG):
        raise NumericError("delay ODE overflow (a * t too large)")
    q = quad.nodes_per_panel
    nodes = 0.5 * (gauss_rule(q)[0] + 1.0)
    lagged = bool(np.any(b))

    def trajectories(rows, edges):
        """The modes ``rows`` at S = len(edges) - 1 sub-panels per dt-panel,
        by blocks: a delay interval with lag coupling, dt-panels without."""
        per_dt = edges.size - 1
        h = dt / per_dt
        rate = a[rows] * h
        # The data families' rows, copied only when fewer than all.
        beta, rho = (f if f is None or rows.size == a.size else f.rows(rows)
                     for f in (history, forcing))
        if lagged:
            span, group = m * per_dt, 1
            # integral_0^c exp(rate (c - u)) l_q(u) du at the nodes and
            # c = 1: the rule's weights for -rate, times their peak factor.
            ends = np.append(nodes, 1.0)
            weights = h * exp_weights(-rate, q, ends) * np.exp(
                np.multiply.outer(np.maximum(rate, 0.0), ends))[:, :, None]
            end_weights = weights[:, q, :, None]
            node_weights = weights[:, :q].transpose(0, 2, 1)
            node_decay = np.exp(np.multiply.outer(rate, nodes))[:, None, :]
        else:
            span = per_dt * max(1, _BLOCK_ELEMENTS // (rows.size * per_dt * q))
            group = per_dt
            end_weights = (exp_panel_weights(edges, q, -rate * per_dt).T * dt
                           * np.exp(np.maximum(rate * per_dt, 0.0))).T[..., None]
        decay = np.exp(rate * group)
        out = np.empty((n_steps, rows.size))
        x = np.zeros(rows.size) if beta is None else beta(np.array(0.0))
        total = n_steps * per_dt
        for lo in range(0, total, span):
            n = min(span, total - lo)
            s = h * (np.arange(lo, lo + n)[:, None] + nodes)
            g = np.zeros((rows.size, n, q)) if rho is None else rho(s)
            if lagged and lo:
                ring *= b[rows, None, None]
                g += ring[:, :n]
            elif lagged and beta is not None:
                g += b[rows, None, None] * beta(s - tau)
            # One step per sub-panel, or per dt-panel without lag coupling.
            steps = np.matmul(g.reshape(rows.size, n // group, -1),
                              end_weights)[..., 0].T
            xs = np.empty((len(steps) + 1, rows.size))
            xs[0] = x
            for k, step in enumerate(steps):
                xs[k + 1] = decay * xs[k] + step
            x = xs[-1]
            stride = per_dt // group
            out[lo // per_dt:(lo + n) // per_dt] = xs[stride::stride]
            if lagged and lo + n < total:
                ring = np.matmul(g, node_weights)
                ring += node_decay * xs[:n].T[:, :, None]
        return out.T

    def level_value(edges, rows=None):
        rows = np.arange(a.size) if rows is None else rows
        chunk = (max(1, _BLOCK_ELEMENTS // (m * (edges.size - 1) * q))
                 if lagged else rows.size)
        with np.errstate(over="ignore", invalid="ignore"):
            x = np.concatenate([trajectories(rows[lo:lo + chunk], edges)
                                for lo in range(0, rows.size, chunk)])
        if not np.all(np.isfinite(x)):
            raise NumericError("delay ODE overflow: trajectory leaves float range")
        return x

    return halve_until_stable(
        level_value, np.array([0.0, 1.0]), quad,
        f"grid quadrature did not converge to {quad.abs_tol:g} "
        f"after {quad.max_panel_splits} panel splits", by_row=True,
    )

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

Two evaluators share these formulas and take the data the same way:
``history(s, nu)`` gives the nu-th derivative (nu = 0, 1) of beta, as a
:class:`~delayheat.spectral.HermitePaths` family does, and ``forcing(s)``
gives rho; either may be None for zero data.

* :func:`solve_modes` returns the whole trajectories of many modes (one
  delay, per-mode a and b) on the grid dt = tau / m (the method of steps).
  There every kink falls on a multiple of dt, so one fixed set of dt-wide
  panels serves all output times, and both integrals become Toeplitz sums
  over a table of K.  The stiff factor exp(-a s) of K across a panel is
  integrated exactly, by product-integration weights of each mode's own
  rate (an exponential integrator), so a stiff mode needs no finer panels
  than a mild one.  All modes of a call share one table (modes x lags x
  offsets) and one contraction per refinement level, and are accepted
  together.  When no mode is lag-coupled (every b = 0), K is a pure
  exponential, and the sum is a one-term recursion over the panels
  instead, O(n) per trajectory rather than O(n^2).
  :func:`solve_on_grid` is its one-mode call, for data given as plain
  callables.  The field solvers use this path.
* :func:`solve_at` evaluates one mode at any t, one adaptive quadrature per
  point, with panels split at the kinks and graded toward the end where
  exp(-a s) peaks.  It is the reference the grid engine is tested against,
  and it serves ``dde solve``.
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
    graded_breakpoints,
    halve_until_stable,
    panel_nodes,
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


def kernel(params, xi, log_scale=None, starts=None):
    """Evaluate K(xi) (see module docstring), vectorized over xi.

    ``params.a`` and ``params.b`` may be arrays of one shape M, the rates of
    several modes with one delay; K then has shape M + xi.shape, every mode
    at every xi.  ``log_scale``, broadcastable to that shape, returns
    K(xi) exp(log_scale) instead, the factor added to every term's log
    magnitude, so a stiff exponential can be divided out of K without
    forming it.  Raises :class:`NumericError` when a term leaves float
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
    if log_scale is not None:
        log_scale = np.broadcast_to(log_scale, shape).reshape(out.shape)
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
        if log_scale is not None:
            # Every later term adds term 0, so it takes the scale from here.
            log_term[0, :, :n] += log_scale[:, cols]
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


class _Callables:
    """A one-mode path family over a vectorized callable taken as
    :func:`solve_at` takes its data (``fn(s, nu)``, or ``fn(s)`` for the
    value, all a forcing answers).  It answers :func:`solve_modes` as a
    :class:`~delayheat.spectral.HermitePaths` family of one row does."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, s, nu=0):
        value = self.fn(s.ravel(), nu) if nu else self.fn(s.ravel())
        return np.asarray(value, dtype=float).reshape(s.shape)[None]


def solve_on_grid(params, history, forcing, steps_per_tau, n_steps,
                  quad=QuadratureConfig()):
    """x(j dt) for j = 1..n_steps on the grid dt = tau / steps_per_tau.

    ``history`` and ``forcing`` are taken as :func:`solve_at` takes them
    (``history(s, nu)``, ``forcing(s)``, either may be None).  Returns an
    array of length ``n_steps``.  This is :func:`solve_modes` for one mode
    whose data are plain callables.
    """
    return solve_modes([params.a], [params.b], params.tau,
                       None if history is None else _Callables(history),
                       None if forcing is None else _Callables(forcing),
                       steps_per_tau, n_steps, quad)[0]


# Kernel-table and data entries one chunk of modes holds at once; the modes
# are contracted in chunks of at most this many (at least one mode).
_CHUNK_ELEMENTS = 1 << 16


def _rows(family, rows, size):
    """The sorted ``rows`` of a ``size``-row family, copied only if fewer."""
    if family is None or rows.size == size:
        return family
    return family.rows(rows)


def solve_modes(a, b, tau, history, forcing, steps_per_tau, n_steps,
                quad=QuadratureConfig()):
    """Trajectories x_i(j dt), j = 1..n_steps, of the modes
    x_i' = a_i x_i + b_i x_i(t - tau) + rho_i, on the grid dt = tau / m with
    m = ``steps_per_tau``; ``a`` and ``b`` are 1-D, and the result is an
    array (len(a), n_steps).

    ``history`` is a path family of the beta_i (a
    :class:`~delayheat.spectral.HermitePaths`: ``history(s, nu)`` gives the
    nu-th derivative of every row, ``history.rows(index)`` the family of some
    rows), ``forcing`` one of the rho_i; either may be None for zero data.

    Both integrals of the module docstring are taken over the same dt-wide
    panels of [-tau, t_n]; panel p (p = 0, 1, ...) starts at s = -tau + p dt.
    Every kink of K(t_j - tau - s) lies on a panel edge, and a point at offset
    c in (0, 1) of panel p contributes through K((j - p - c) dt).  One table
    of K at (k - c) dt, k = 1-m..n_steps, therefore serves every output time,
    and x(t_j) is a Toeplitz contraction of that table with the weighted data
    samples.

    Across a panel K((k - c) dt) carries exp(rate c), rate = -a dt, which
    peaks at c = 1 when rate > 0 (else at c = 0).  Each panel is cut into
    equal sub-panels with Gauss nodes, starting from the one panel [0, 1].
    The weights of a mode integrate exp(rate (c - peak)) times the Lagrange
    basis on a sub-panel's nodes exactly
    (:func:`~delayheat.quadrature.exp_panel_weights`, graded by the mode's
    own rate), and the table holds K exp(rate (peak - c)), the factor added
    to the kernel's log-space terms; neither forms exp(rate).  So a stiff
    mode is as smooth to the rule as a mild one, and all modes share one
    rule.  Each level builds one table (modes x lags x offsets) and
    contracts it one lag row at a time, every mode at once (one batched
    matrix-vector product per row); lag rows that underflowed to zero in
    every mode (stiff modes: the table's tail, and the stretches between
    delay multiples) are skipped.  At most ``_CHUNK_ELEMENTS`` table and
    data entries are held at once; more modes are evaluated in chunks.

    The level is accepted once, with all its sub-panels halved, every mode
    agrees with the previous level to ``abs_tol + 1e-14 * |x|`` at every
    output time.  Raises :class:`QuadratureError` after
    ``max_panel_splits`` halvings otherwise.  When every b_i == 0,
    K((k - c) dt) = exp(a dt)^(k - 1 + m) K((1 - m - c) dt), so each output
    is the previous one times exp(a dt) plus its newest panel, and only the
    first row of the table is needed.  A b_i == 0 mode in a lag-coupled
    family takes the contraction with the others.
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
    # The weights integrate exp(rate (c - peak)); the table carries the rest
    # of K's exponential, exp(rate (peak - c)) (see above).
    rate = -a * dt
    peak = np.where(rate > 0.0, 1.0, 0.0)
    head = np.zeros((a.size, n_steps))
    if history is not None:
        head = kernel(params, dt * np.arange(1, n_steps + 1)) * history(
            np.array(-tau))[:, None]
    lags = np.arange(1 - m, n_steps + 1)
    recursive = not np.any(b)
    if recursive:
        # Only K's leading exponential is left.  The kernel's overflow check,
        # applied to the trajectory's largest argument, keeps the recursion
        # from overflowing silently.
        lags = lags[:1]
        if np.any(a * (tau + n_steps * dt) > _MAX_EXP_ARG):
            raise NumericError("delay kernel overflow (a * xi too large)")
        decay = np.exp(a * dt)

    def contract(rows, offsets, weights):
        """Trajectories of the modes ``rows`` at one level."""
        table = kernel(DelayOdeParams(a=a[rows], b=b[rows], tau=tau),
                       dt * (lags[:, None] - offsets[None, :]),
                       log_scale=rate[rows, None, None]
                       * (peak[rows, None, None] - offsets))
        data = np.zeros((rows.size, m + n_steps, offsets.size))
        if history is not None:
            paths = _rows(history, rows, a.size)
            s = dt * (np.arange(m)[:, None] + offsets[None, :]) - tau
            data[:, :m] = paths(s, 1) - a[rows, None, None] * paths(s)
        if forcing is not None:
            s = dt * (np.arange(n_steps)[:, None] + offsets[None, :])
            data[:, m:] = _rows(forcing, rows, a.size)(s)
        data *= dt * weights[rows, None, :]
        if recursive:
            # z_r sums panels p <= r: z_r = exp(a dt) z_(r-1) + panel r, and
            # x(t_j) = z_(j + m - 1).
            panels = np.matmul(data, table[:, 0, :, None])[..., 0]
            z, acc, step = np.empty_like(panels), 0.0, decay[rows]
            for r in range(panels.shape[1]):
                acc = step * acc + panels[:, r]
                z[:, r] = acc
            return head[rows] + z[:, m:]
        x = head[rows]
        # Row i holds k = i + 1 - m and links panel p = j - k to output j >= 1.
        for i in np.flatnonzero(table.any(axis=(0, 2))):
            j0 = max(1, i - m + 1)
            x[:, j0 - 1:] += np.matmul(data[:, j0 - i + m - 1:n_steps - i + m],
                                       table[:, i, :, None])[..., 0]
        return x

    def level_value(edges):
        offsets, _ = panel_nodes(edges, quad.nodes_per_panel)
        weights = exp_panel_weights(edges, quad.nodes_per_panel, rate)
        chunk = max(1, _CHUNK_ELEMENTS
                    // ((lags.size + m + n_steps) * offsets.size))
        return np.concatenate([
            contract(np.arange(lo, min(lo + chunk, a.size)), offsets, weights)
            for lo in range(0, a.size, chunk)])

    return halve_until_stable(
        level_value, np.array([0.0, 1.0]), quad,
        f"grid quadrature did not converge to {quad.abs_tol:g} "
        f"after {quad.max_panel_splits} panel splits",
    )

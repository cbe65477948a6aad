"""Closed-form solution of the scalar linear delay ODE

    x'(t) = a x(t) + b x(t - tau),    x = beta on [-tau, 0].

Everything is expressed through one kernel

    K(xi) = exp(a (xi + tau)) * delayed_exp(b * exp(-a tau); xi)
          = sum_{j=0}^{k(xi)}  b^j psi_j^j exp(a psi_j) / j!,   psi_j = xi - (j-1) tau,

(zero for xi < -tau), where k(xi) is the delayed-exponential segment index.
The right-hand form never materializes b * exp(-a tau): each term combines its
power, factorial, and exponential in log space, so stiff coefficients (|a| tau
of order thousands, as produced by high spatial modes of the delayed heat
equation) evaluate without overflow.

Solution formulas:

    homogeneous:  x(t) = K(t) beta(-tau)
                         + integral_{-tau}^{0} K(t - tau - s) [beta'(s) - a beta(s)] ds
    forced (zero history):
                  x(t) = integral_{0}^{t} K(t - tau - s) rho(s) ds

and the full solution is their sum.  Integrands are piecewise smooth with
kinks where t - tau - s crosses a multiple of tau.

Two evaluators share these formulas:

* :func:`solve_homogeneous`, :func:`solve_forced` and :func:`superpose`
  evaluate x at any t, one adaptive quadrature per point, with panels split
  at the kinks and graded toward the end where exp(-a s) peaks.
* :func:`solve_on_grid` returns the whole trajectory on the grid
  dt = tau / m (the method of steps).  There every kink falls on a multiple
  of dt, so one fixed set of dt-wide panels serves all output times, and
  both integrals become Toeplitz sums over one table of K per trajectory.
  Without lag coupling (b = 0) K is a pure exponential, and the sum is a
  one-term recursion over the panels instead, O(n) per trajectory rather
  than O(n^2).  The field solvers use this path; the per-point functions
  remain the reference it is tested against and serve ``dde solve``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError, NumericError
from .funcspec import FunctionSpec
from .quadrature import (
    QuadratureConfig,
    composite_gauss,
    graded_breakpoints,
    halve_until_stable,
    panel_nodes,
)


@dataclass(frozen=True)
class DelayOdeParams:
    """Coefficients of x'(t) = a x(t) + b x(t - tau)."""

    a: float
    b: float
    tau: float

    def __post_init__(self):
        for name in ("a", "b", "tau"):
            if not math.isfinite(getattr(self, name)):
                raise InputError(f"{name} must be finite")
        if self.tau <= 0.0:
            raise InputError(f"tau must be positive, got {self.tau!r}")

    def log_abs_scaled_delay_coeff(self):
        """log |b * exp(-a tau)|; -inf when b == 0."""
        if self.b == 0.0:
            return -math.inf
        return math.log(abs(self.b)) - self.a * self.tau


@dataclass
class HistoryFunction:
    """History segment beta on [-tau, 0] with its derivative.

    Both callables must accept numpy arrays.  ``beta_prime`` is either
    supplied directly (the series solver passes the derivative of the mode's
    Hermite history path, :meth:`delayheat.heat_delay.ModeSystem.mode_history`)
    or produced by differentiating an expression (:meth:`from_funcspec`).
    """

    beta: object
    beta_prime: object

    @classmethod
    def from_funcspec(cls, fs):
        if not isinstance(fs, FunctionSpec):
            raise InputError("from_funcspec expects a FunctionSpec")
        d = fs.differentiate("t", 1)
        return cls(beta=lambda s: fs(0.0, s), beta_prime=lambda s: d(0.0, s))


_MAX_EXP_ARG = 700.0  # below the float64 overflow threshold of exp


def kernel(params, xi):
    """Evaluate K(xi) (see module docstring), vectorized over xi."""
    xi = np.asarray(xi, dtype=float)
    scalar = xi.ndim == 0
    xi = np.atleast_1d(xi)
    out = np.zeros_like(xi)
    alive = xi >= -params.tau
    if not np.any(alive):
        return float(out[0]) if scalar else out
    seg = np.zeros(xi.shape, dtype=int)
    seg[alive] = np.floor(xi[alive] / params.tau).astype(int) + 1
    a, b, tau = params.a, params.b, params.tau
    # Terms j >= 1 carry the factor b^j, so without lag coupling only the
    # pure exponential is left.
    kmax = int(seg[alive].max()) if b != 0.0 else 0
    for j in range(kmax + 1):
        mask = alive & (seg >= j)
        if not np.any(mask):
            continue
        psi = xi[mask] - (j - 1) * tau
        if j == 0:
            arg = a * psi
            if np.any(arg > _MAX_EXP_ARG):
                raise NumericError("delay kernel overflow (a * xi too large)")
            term = np.exp(arg)
        else:
            base = b * psi  # psi >= 0 whenever term j is present
            term = np.zeros_like(psi)
            nz = base != 0.0
            if np.any(nz):
                logmag = (j * np.log(np.abs(base[nz])) + a * psi[nz]
                          - math.lgamma(j + 1))
                if np.any(logmag > _MAX_EXP_ARG):
                    raise NumericError(
                        "delay kernel overflow: term magnitude exceeds float range"
                    )
                sign = np.where(base[nz] < 0.0, (-1.0) ** j, 1.0)
                term[nz] = sign * np.exp(logmag)
        out[mask] += term
    if not np.all(np.isfinite(out)):
        raise NumericError("delay kernel produced a non-finite value")
    return float(out[0]) if scalar else out


def _knot_crossings(t, tau, lo, hi):
    """Points s in (lo, hi) where t - tau - s crosses a multiple of tau."""
    m_lo = int(math.floor((t - hi) / tau)) - 1
    m_hi = int(math.ceil((t - lo) / tau)) + 1
    return [t - m * tau for m in range(m_lo, m_hi + 1) if lo < t - m * tau < hi]


def solve_homogeneous(params, history, t, quad=None):
    """x(t) for the homogeneous problem (rho = 0) with history ``history``.

    ``t`` may be a scalar or an array (evaluated pointwise)."""
    if quad is None:
        quad = QuadratureConfig()
    t_arr = np.asarray(t, dtype=float)
    if t_arr.ndim > 0:
        return np.array(
            [solve_homogeneous(params, history, tv, quad) for tv in t_arr])
    t = float(t_arr)
    if not math.isfinite(t):
        raise InputError(f"t must be finite, got {t!r}")
    if t < -params.tau:
        raise DomainError(f"t={t!r} is below -tau={-params.tau!r}")
    if t <= 0.0:
        return float(np.asarray(history.beta(t), dtype=float))
    a = params.a
    beta_start = float(np.asarray(history.beta(-params.tau), dtype=float))
    head = kernel(params, t) * beta_start

    def integrand(s):
        return kernel(params, t - params.tau - s) * (
            np.asarray(history.beta_prime(s), dtype=float)
            - a * np.asarray(history.beta(s), dtype=float)
        )

    breaks = _knot_crossings(t, params.tau, -params.tau, 0.0)
    breaks += graded_breakpoints(-params.tau, 0.0, -a)
    tail = composite_gauss(integrand, -params.tau, 0.0, quad, breaks)
    return head + tail


def solve_forced(params, rho, t, quad=None):
    """x(t) for zero history and forcing rho (Duhamel form).

    ``t`` may be a scalar or an array (evaluated pointwise)."""
    if quad is None:
        quad = QuadratureConfig()
    t_arr = np.asarray(t, dtype=float)
    if t_arr.ndim > 0:
        return np.array([solve_forced(params, rho, tv, quad) for tv in t_arr])
    t = float(t_arr)
    if not math.isfinite(t):
        raise InputError(f"t must be finite, got {t!r}")
    if t < -params.tau:
        raise DomainError(f"t={t!r} is below -tau={-params.tau!r}")
    if t <= 0.0:
        return 0.0

    def integrand(s):
        return kernel(params, t - params.tau - s) * np.asarray(rho(s), dtype=float)

    breaks = _knot_crossings(t, params.tau, 0.0, t)
    breaks += graded_breakpoints(0.0, t, -params.a)
    return composite_gauss(integrand, 0.0, t, quad, breaks)


def superpose(params, history, rho, t, quad=None):
    """Full solution: homogeneous part plus forced part."""
    return solve_homogeneous(params, history, t, quad) + solve_forced(
        params, rho, t, quad
    )


def _sample(f, s):
    """Evaluate a vectorized callable on an array of any shape."""
    return np.asarray(f(s.ravel()), dtype=float).reshape(s.shape)


def solve_on_grid(params, history, rho, steps_per_tau, n_steps, quad=None):
    """x(j dt) for j = 1..n_steps on the grid dt = tau / steps_per_tau.

    ``history`` (a :class:`HistoryFunction`) or ``rho`` may be None for zero
    history or no forcing.  Returns an array of length ``n_steps``.

    Both integrals of the module docstring are taken over the same dt-wide
    panels of [-tau, t_n]; panel p (p = 0, 1, ...) starts at s = -tau + p dt.
    Every kink of K(t_j - tau - s) lies on a panel edge, and a point at offset
    c in (0, 1) of panel p contributes through K((j - p - c) dt).  One table
    of K at (k - c) dt, k = 1-m..n_steps, therefore serves every output time,
    and x(t_j) is a Toeplitz contraction of that table with the weighted data
    samples.  Each panel carries Gauss nodes on sub-panels graded toward the
    end where exp(-a dt c) peaks; the whole trajectory is accepted once all
    sub-panels halved agree with the previous level to
    ``abs_tol + 1e-14 * |x|`` at every output time.  Raises
    :class:`QuadratureError` after ``max_panel_splits`` halvings otherwise.
    When b == 0, K((k - c) dt) = exp(a dt)^(k - 1 + m) K((1 - m - c) dt), so
    each output is the previous one times exp(a dt) plus its newest panel,
    and only the first row of the table is needed.
    """
    if quad is None:
        quad = QuadratureConfig()
    m = int(steps_per_tau)
    if m < 1:
        raise InputError(f"steps_per_tau must be at least 1, got {steps_per_tau!r}")
    if n_steps < 0:
        raise InputError(f"n_steps must be non-negative, got {n_steps!r}")
    a, tau = params.a, params.tau
    dt = tau / m
    head = np.zeros(n_steps)
    if n_steps == 0:
        return head
    if history is not None:
        beta_start = float(np.asarray(history.beta(-tau), dtype=float))
        head = kernel(params, dt * np.arange(1, n_steps + 1)) * beta_start
    lags = np.arange(1 - m, n_steps + 1)
    if params.b == 0.0:
        # Only K's leading exponential is left.  The kernel's overflow check,
        # applied to the trajectory's largest argument, keeps the recursion
        # from overflowing silently.
        lags = lags[:1]
        if a * (tau + n_steps * dt) > _MAX_EXP_ARG:
            raise NumericError("delay kernel overflow (a * xi too large)")
        decay = math.exp(a * dt)

    def level_value(edges):
        offsets, weights = panel_nodes(edges, quad.nodes_per_panel)
        table = kernel(params, dt * (lags[:, None] - offsets[None, :]))
        data = np.zeros((m + n_steps, offsets.size))
        if history is not None:
            s = dt * (np.arange(m)[:, None] + offsets[None, :]) - tau
            data[:m] = _sample(history.beta_prime, s) - a * _sample(history.beta, s)
        if rho is not None:
            s = dt * (np.arange(n_steps)[:, None] + offsets[None, :])
            data[m:] = _sample(rho, s)
        data *= dt * weights
        if params.b == 0.0:
            # z_r sums panels p <= r: z_r = exp(a dt) z_(r-1) + panel r, and
            # x(t_j) = z_(j + m - 1).
            z, acc = [], 0.0
            for contribution in (data @ table[0]).tolist():
                acc = decay * acc + contribution
                z.append(acc)
            return head + np.array(z[m:])
        x = head.copy()
        # Row i holds k = i + 1 - m and links panel p = j - k to output j >= 1.
        # Rows that underflowed to exact zeros (stiff modes) add nothing.
        for i in np.flatnonzero(table.any(axis=1)):
            j0 = max(1, i - m + 1)
            x[j0 - 1:] += data[j0 - i + m - 1:n_steps - i + m] @ table[i]
        return x

    edges = np.array([0.0, *graded_breakpoints(0.0, 1.0, -a * dt), 1.0])
    return halve_until_stable(
        level_value, edges, quad,
        f"grid quadrature did not converge to {quad.abs_tol:g} "
        f"after {quad.max_panel_splits} panel splits",
    )

"""Finite-difference cross-check solver (method of lines + method of steps).

Space: central second-order stencils on a uniform grid, Dirichlet rows pinned.
Time: Crank-Nicolson, tridiagonal solves via banded LU.  The delayed terms
are explicit data: with dt = tau / nt_per_tau the lagged time level t - tau
is exactly a stored row, so each step of the delayed problem only solves the
instantaneous operator implicitly.  Both problem kinds share one march,
:func:`_crank_nicolson`; the delayed one hands it the lagged term.

This module is deliberately independent of the spectral solver stack
(delayed_exp / delay_ode / spectral / heat_* are never imported here); the
two solution paths share nothing but problem data and the field container.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .errors import InputError
from .field import SolutionField


@dataclass(frozen=True)
class FdConfig:
    """Grid for the finite-difference solver."""

    nx: int = 200
    nt: int = None           # time steps over [0, T] (problems without delay)
    nt_per_tau: int = None   # time steps per delay (delayed problems)

    def __post_init__(self):
        if self.nx < 3:
            raise InputError(f"nx must be at least 3, got {self.nx!r}")
        if self.nt is not None and self.nt < 1:
            raise InputError(f"nt must be at least 1, got {self.nt!r}")
        if self.nt_per_tau is not None and self.nt_per_tau < 1:
            raise InputError(f"nt_per_tau must be at least 1, got {self.nt_per_tau!r}")


def _stencil(nx, dx, diff2, drift, react):
    """Rows of the interior operator diff2 * v_xx + drift * v_x + react * v."""
    sub = np.full(nx + 1, diff2 / dx**2 - drift / (2.0 * dx))
    diag = np.full(nx + 1, -2.0 * diff2 / dx**2 + react)
    sup = np.full(nx + 1, diff2 / dx**2 + drift / (2.0 * dx))
    for arr in (sub, diag, sup):
        arr[0] = arr[-1] = 0.0
    return sub, diag, sup


def _implicit_bands(nx, sub, diag, sup, theta_dt):
    """Banded form of I - theta_dt * A with identity boundary rows."""
    ab = np.zeros((3, nx + 1))
    ab[1, :] = 1.0 - theta_dt * diag
    ab[0, 1:] = -theta_dt * sup[:-1]
    ab[2, :-1] = -theta_dt * sub[1:]
    return ab


def _apply_interior(sub, diag, sup, v):
    out = np.zeros_like(v)
    out[1:-1] = sub[1:-1] * v[:-2] + diag[1:-1] * v[1:-1] + sup[1:-1] * v[2:]
    return out


def _crank_nicolson(v, start, op, dt, source, left, right, lagged=None):
    """March v[i] -> v[i + 1] for i = start, ..., len(v) - 2 in place.

    ``op`` is the (sub, diag, sup) stencil of the implicit operator,
    ``source[i - start]`` the source row at time row i, and ``left`` /
    ``right`` the boundary values per time row.  ``lagged(i)``, when given,
    is the lagged term at time row i; like the source it is explicit data,
    averaged over both ends of each step.
    """
    ab = _implicit_bands(v.shape[1] - 1, *op, 0.5 * dt)
    lag_next = lagged(start)[1:-1] if lagged is not None else None
    for i in range(start, v.shape[0] - 1):
        j = i - start
        rhs = v[i] + 0.5 * dt * _apply_interior(*op, v[i])
        if lagged is not None:
            lag_now, lag_next = lag_next, lagged(i + 1)[1:-1]
            rhs[1:-1] += 0.5 * dt * (lag_now + lag_next)
        rhs[1:-1] += 0.5 * dt * (source[j, 1:-1] + source[j + 1, 1:-1])
        rhs[0], rhs[-1] = left[i + 1], right[i + 1]
        v[i + 1] = solve_banded((1, 1), ab, rhs)


def fd_solve_nodelay(p, cfg):
    """Finite-difference solution of the drift-reaction heat equation."""
    if cfg.nt is None:
        raise InputError("FdConfig.nt is required for problems without delay")
    nx, nt = cfg.nx, cfg.nt
    x = np.linspace(0.0, p.length, nx + 1)
    t = np.linspace(0.0, p.horizon, nt + 1)
    dx = x[1] - x[0]
    dt = t[1] - t[0]

    g_rows = np.asarray(p.g(x[None, :], t[:, None]), dtype=float)
    left = np.asarray(p.theta1(0.0, t), dtype=float)
    right = np.asarray(p.theta2(0.0, t), dtype=float)

    v = np.empty((nt + 1, nx + 1))
    v[0] = np.asarray(p.psi(x, 0.0), dtype=float)
    v[0, 0], v[0, -1] = left[0], right[0]
    _crank_nicolson(v, 0, _stencil(nx, dx, p.a**2, p.b, p.c), dt, g_rows,
                    left, right)

    meta = {
        "model": "heat_nodelay",
        "scheme": "crank_nicolson",
        "nx": nx,
        "nt": nt,
        "dx": float(dx),
        "dt": float(dt),
    }
    return SolutionField(x=x, t=t, v=v, source="fd", meta=meta)


def fd_solve_delay(p, cfg):
    """Method-of-steps finite-difference solution of the delayed heat equation.

    The time step divides tau exactly, so v(., t - tau) is a stored row; its
    spatial derivatives are taken with the same central stencils and fed to
    the implicit step as data.
    """
    if cfg.nt_per_tau is None:
        raise InputError("FdConfig.nt_per_tau is required for delayed problems")
    nx, m = cfg.nx, cfg.nt_per_tau
    dt = p.tau / m
    steps = int(math.ceil(p.horizon / dt - 1e-9))
    x = np.linspace(0.0, p.length, nx + 1)
    t = dt * np.arange(-m, steps + 1)
    dx = x[1] - x[0]

    lag_op = _stencil(nx, dx, p.a2**2, p.b2, p.d2)
    left = np.asarray(p.theta1(0.0, t), dtype=float)
    right = np.asarray(p.theta2(0.0, t), dtype=float)
    t_pos = t[m:]
    g_rows = np.asarray(p.g(x[None, :], t_pos[:, None]), dtype=float)

    v = np.empty((t.size, nx + 1))
    v[: m + 1] = np.asarray(p.psi(x[None, :], t[: m + 1, None]), dtype=float)
    v[: m + 1, 0], v[: m + 1, -1] = left[: m + 1], right[: m + 1]
    _crank_nicolson(v, m, _stencil(nx, dx, p.a1**2, p.b1, p.d1), dt, g_rows,
                    left, right,
                    lagged=lambda i: _apply_interior(*lag_op, v[i - m]))

    meta = {
        "model": "heat_delay",
        "scheme": "crank_nicolson",
        "nx": nx,
        "nt_per_tau": m,
        "dx": float(dx),
        "dt": float(dt),
    }
    return SolutionField(x=x, t=t, v=v, source="fd", meta=meta)

"""Finite-difference cross-check solver (method of lines + method of steps).

Space: central second-order stencils on a uniform grid, Dirichlet rows pinned.
Time: Crank-Nicolson, tridiagonal solves via banded LU.  The delayed terms
are explicit data: with dt = tau / nt_per_tau the lagged time level t - tau
is exactly a stored row, so each step of the delayed problem only solves the
instantaneous operator implicitly.  Both problem kinds share one march,
:func:`_crank_nicolson`; the delayed one hands it the lagged term.

Both solvers take the series solvers' :class:`~delayheat.field.GridSpec` and
read x and t from it, so an oracle field lies on exactly the grid of the
series field it checks.  ``FdConfig`` is an alias of ``GridSpec`` kept for
the benchmark harness only.

This module is deliberately independent of the spectral solver stack
(delayed_exp / delay_ode / spectral / heat_* are never imported here); the
two solution paths share nothing but problem data, the grid and the field
container.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_banded

from .errors import InputError
from .field import GridSpec, SolutionField

FdConfig = GridSpec  # the benchmark harness imports the grid under this name


def _points(p, grid, tau=None):
    """x and t of the series grid; the central stencils need nx >= 3."""
    if grid.nx < 3:
        raise InputError(f"nx must be at least 3, got {grid.nx!r}")
    return grid.x_points(p.length), grid.t_points(p.horizon, tau)


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


def fd_solve_nodelay(p, grid):
    """Finite-difference solution of the drift-reaction heat equation on
    ``grid``, a :class:`~delayheat.field.GridSpec` with ``nt``."""
    x, t = _points(p, grid)
    nx, nt = grid.nx, grid.nt
    dx = x[1] - x[0]
    dt = t[1] - t[0]  # not grid.time_step: horizon / nt can differ in the last bit

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


def fd_solve_delay(p, grid):
    """Method-of-steps finite-difference solution of the delayed heat equation
    on ``grid``, a :class:`~delayheat.field.GridSpec` with ``nt_per_tau``.

    The time step divides tau exactly, so v(., t - tau) is a stored row; its
    spatial derivatives are taken with the same central stencils and fed to
    the implicit step as data.
    """
    x, t = _points(p, grid, p.tau)
    nx, m = grid.nx, grid.nt_per_tau
    dt = grid.time_step(p.horizon, p.tau)
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

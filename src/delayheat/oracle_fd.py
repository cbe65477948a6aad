"""Finite-difference cross-check solver (method of lines + method of steps).

Space: central second-order stencils on a uniform grid, Dirichlet rows pinned.
Time: Crank-Nicolson, tridiagonal solves via banded LU.  The delayed terms
are explicit data: with dt = tau / nt_per_tau the lagged time level t - tau
is exactly a stored row, so each step of the delayed problem only solves the
instantaneous operator implicitly.  Both entry points run one driver,
:func:`_march`: it fills the history rows with psi (row 0 alone without a
delay), pins the traces, builds the source rows and runs the one
Crank-Nicolson march, :func:`_crank_nicolson`; the delayed problem adds a
lagged stencil.  Each entry point keeps only its grid, stencils and meta.

Both solvers take the series solvers' :class:`~delayheat.field.GridSpec` and
read x and t from it, so an oracle field lies on exactly the grid of the
series field it checks.  ``FdConfig`` is an alias of ``GridSpec`` kept for
the benchmark harness only.

This module is deliberately independent of the spectral solver stack
(delay_ode / spectral / heat_* are never imported here); the
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


def _march(p, x, t, start, dt, op, lag_op=None):
    """The field of ``p`` on (x, t): rows 0..start hold psi, every row pins
    the traces, and the march from row ``start`` uses the implicit stencil
    ``op`` and the source rows from ``start`` on.  With a lagged stencil
    ``lag_op`` the lag is ``start`` rows: the lagged term at row i is
    ``lag_op`` applied to row i - start."""
    left = np.asarray(p.theta1(0.0, t), dtype=float)
    right = np.asarray(p.theta2(p.length, t), dtype=float)
    g_rows = np.asarray(p.g(x[None, :], t[start:, None]), dtype=float)

    v = np.empty((t.size, x.size))
    v[: start + 1] = np.asarray(p.psi(x[None, :], t[: start + 1, None]),
                                dtype=float)
    v[: start + 1, 0], v[: start + 1, -1] = left[: start + 1], right[: start + 1]
    lagged = (None if lag_op is None
              else lambda i: _apply_interior(*lag_op, v[i - start]))
    _crank_nicolson(v, start, op, dt, g_rows, left, right, lagged)
    return v


def fd_solve_nodelay(p, grid):
    """Finite-difference solution of the drift-reaction heat equation on
    ``grid``, a :class:`~delayheat.field.GridSpec` with ``nt``."""
    x, t = _points(p, grid)
    dx = x[1] - x[0]
    dt = t[1] - t[0]  # not grid.time_step: horizon / nt can differ in the last bit
    v = _march(p, x, t, 0, dt, _stencil(grid.nx, dx, p.a**2, p.b, p.c))
    meta = {
        "model": "heat_nodelay",
        "scheme": "crank_nicolson",
        "nx": grid.nx,
        "nt": grid.nt,
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
    dx = x[1] - x[0]
    dt = grid.time_step(p.horizon, p.tau)
    v = _march(p, x, t, grid.nt_per_tau, dt,
               _stencil(grid.nx, dx, p.a1**2, p.b1, p.d1),
               lag_op=_stencil(grid.nx, dx, p.a2**2, p.b2, p.d2))
    meta = {
        "model": "heat_delay",
        "scheme": "crank_nicolson",
        "nx": grid.nx,
        "nt_per_tau": grid.nt_per_tau,
        "dx": float(dx),
        "dt": float(dt),
    }
    return SolutionField(x=x, t=t, v=v, source="fd", meta=meta)

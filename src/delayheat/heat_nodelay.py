"""Spectral solver for the 1D linear heat equation with drift and reaction:

    v_t = a^2 v_xx + b v_x + c v + g(x, t)      on (0, l) x (0, T],
    v(0, t) = theta1(t),  v(l, t) = theta2(t),  v(x, 0) = psi(x).

Change of variables
-------------------
With mu = -b / (2 a^2) and gamma = c - (b / (2a))^2, the substitution
v = exp(mu x + gamma t) u removes drift and reaction:

    u_t = a^2 u_xx + f,                 f = exp(-mu x - gamma t) g,
    u(0, t) = mu1(t) = exp(-gamma t) theta1(t),
    u(l, t) = mu2(t) = exp(-mu l - gamma t) theta2(t),
    u(x, 0) = phi(x) = exp(-mu x) psi(x).

Writing u = w + lift with the linear boundary lift
lift(x, t) = mu1(t) + (x / l)(mu2(t) - mu1(t)) (each trace is read at its
own boundary, so the lift is linear in x whatever x a trace's expression
mentions) gives a homogeneous Dirichlet problem for w with initial value
Phi = phi - lift(., 0) and forcing F = f - d/dt lift (the lift is spatially
linear, so it drops out of the diffusion term; no zeroth-order term survives
the substitution).

This reduction, and every step after it, is the delayed solver's, written
once in :mod:`delayheat.heat_delay`: the frame, Phi and F with the reduced
record (``reduce_frame``, here with a1 = a, a2 = c1 = c2 = 0 and no delay,
kept on the problem so that the checks and the solve of a run reduce it
once), the modal rates (``modal_rates``: -(pi n a / l)^2 and a lag rate of
0), the forcing family (``forcing_paths``: F_n and F_n' at 257 times on
[0, T], as cubic Hermite paths, with the lift's share in closed form) and
the synthesis (``to_field``).  F needs a t-derivative: with a trace
tabulated linearly in t it has none, and :func:`solve` raises
:class:`UnsupportedOperationError` when the forcing family evaluates it.

The solution splits into three parts synthesized over the sine eigenbasis:

    u1: free decay of Phi,      u1_n(t) = Phi_n exp(-(pi n a / l)^2 t)
    u2: Duhamel forcing term,   u2_n(t) = integral_0^t exp(-(pi n a / l)^2 (t-s)) F_n(s) ds
    u3: the boundary lift itself.

On the output grid, u1 is the exact exponential.  u2_n is the forced
solution of the delay ODE x' = -(pi n a / l)^2 x + F_n without lag coupling,
so :func:`solve` evaluates every mode at all grid times with one call of the
delay solver's grid engine (:func:`delayheat.delay_ode.solve_modes`, with a
delay of one time step).  With b = 0 the engine's kernel is the pure
exponential exp(-(pi n a / l)^2 (t - s)), so it advances the trajectories by
a one-term recursion, one step of decay plus the newest panel, in O(nt)
rather than O(nt^2), all modes of a group at once.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .delay_ode import DelayOdeParams, solve_at, solve_modes
from .errors import InputError
from .funcspec import FunctionSpec, fs_scale
from .heat_delay import (check_data, forcing_paths, modal_rates, reduce_frame,
                         to_field)
from .quadrature import QuadratureConfig
from .spectral import EigenBasis, project_paths


@dataclass
class HeatProblem:
    """Problem data for the drift-reaction heat equation (no delay)."""

    a: float
    b: float
    c: float
    length: float
    horizon: float
    g: FunctionSpec
    psi: FunctionSpec
    theta1: FunctionSpec
    theta2: FunctionSpec
    # (field values, ReducedProblem) of the last reduce_problem call.
    _reduced: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        check_data(self, ("a", "b", "c"))
        if self.a == 0.0:
            raise InputError("diffusion coefficient a must be nonzero")


def reduce_problem(p):
    """Apply the drift/reaction-removing change of variables:
    :func:`~delayheat.heat_delay.reduce_frame` with a1 = a,
    a2 = c1 = c2 = 0 and no delay."""
    mu = -p.b / (2.0 * p.a**2)
    gamma = p.c - (p.b / (2.0 * p.a)) ** 2
    return reduce_frame(p, p.a, 0.0, 0.0, 0.0, mu, gamma, None)


# ---------------------------------------------------------------------------
# Mode data (projected coefficient paths)
# ---------------------------------------------------------------------------


def _initial_coefficients(rp, basis, quad):
    """Phi_n at t = 0: one :func:`~delayheat.spectral.project_paths` pass
    with no t-derivative, the lift's share in closed form.  It is kept on
    ``rp`` per basis and quadrature, as ``build_modes`` keeps its mode
    system, so the compat gate and the solve of a run project Phi once."""
    key = ("initial", basis, quad)
    if key not in rp._cache:
        (initial,) = project_paths(rp.phi, np.zeros(1), basis, quad, kt=0,
                                   linear=fs_scale(rp.lift, -1.0))
        rp._cache[key] = initial[:, 0]
    return rp._cache[key]


def _mode_data(rp, basis, quad):
    """Phi_n at t = 0 (:func:`_initial_coefficients`), the modal rates
    (-(pi n a / l)^2, 0) and the forcing paths F_n
    (:func:`~delayheat.heat_delay.forcing_paths`)."""
    return (_initial_coefficients(rp, basis, quad), modal_rates(rp, basis),
            forcing_paths(rp, basis, quad))


def _duhamel_decay(a, forcing, t, quad):
    """integral_0^t exp(a (t - s)) forcing(s) ds: the forced solution of
    x' = a x + forcing at t, with the delay set to t so that the kernel is
    exp(a (t - s)) over the whole interval.  No solver calls it (:func:`solve`
    runs the grid engine); it is the tests' per-mode reference, as
    :func:`~delayheat.heat_delay.mode_solution` is for the delayed kind, and
    perfbench's tracer wraps it by name."""
    if t == 0.0:
        return 0.0
    return solve_at(DelayOdeParams(a, 0.0, tau=t), None, forcing, t, quad)


def solve(p, basis, grid, quad=QuadratureConfig()):
    """Solve the full problem on a :class:`GridSpec`; returns a
    :class:`SolutionField` (see :func:`~delayheat.heat_delay.to_field`)."""
    if not isinstance(basis, EigenBasis):
        raise InputError("basis must be an EigenBasis")
    rp = reduce_problem(p)
    t = grid.t_points(p.horizon)
    initial, (rate, lag_rate), forcing = _mode_data(rp, basis, quad)

    # Modal trajectories: the exact free decay plus the Duhamel term, which is
    # the grid engine with no lag coupling and a delay of one time step, so
    # that its kernel is exp(rate (t - s)).
    traj = np.exp(np.outer(t, rate)) * initial  # (nt+1, N)
    traj[1:] += solve_modes(rate, lag_rate, grid.time_step(p.horizon), None,
                            forcing, 1, grid.nt, quad).T
    meta = {
        "model": "heat_nodelay",
        "coefficients": {"a": p.a, "b": p.b, "c": p.c},
        "length": p.length,
        "horizon": p.horizon,
        "n_modes": basis.n_modes,
        "mu": rp.mu,
        "gamma": rp.gamma,
        "quad": asdict(quad),
    }
    return to_field(rp, basis, grid.x_points(p.length), t, traj, meta)

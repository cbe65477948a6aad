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
lift(x, t) = mu1(t) + (x / l)(mu2(t) - mu1(t)) (f, phi, mu1, mu2 and the lift
come from :func:`delayheat.heat_delay.weighted_frame`, which the delayed
reduction shares with gamma = 0) gives a homogeneous Dirichlet
problem for w with initial value Phi = phi - lift(., 0) and forcing
F = f - d/dt lift (the lift is spatially linear, so it drops out of the
diffusion term; no zeroth-order term survives the substitution).

The solution splits into three parts synthesized over the sine eigenbasis:

    u1: free decay of Phi,      u1_n(t) = Phi_n exp(-(pi n a / l)^2 t)
    u2: Duhamel forcing term,   u2_n(t) = integral_0^t exp(-(pi n a / l)^2 (t-s)) F_n(s) ds
    u3: the boundary lift itself.

F_n is the cubic Hermite path (:class:`delayheat.spectral.HermitePaths`) of
F_n and F_n' projected at 257 times on [0, T], so F needs a t-derivative:
with a trace tabulated linearly in t it has none, and :func:`solve` raises
:class:`UnsupportedOperationError`.

On the output grid, u1 is the exact exponential.  u2_n is the forced
solution of the delay ODE x' = -(pi n a / l)^2 x + F_n without lag coupling,
so :func:`solve` evaluates it at all grid times at once with the same grid
engine as the delay solver (:func:`delayheat.delay_ode.solve_on_grid`, with
a delay of one time step).  With b = 0 the engine's kernel is the pure
exponential exp(-(pi n a / l)^2 (t - s)), so it advances each trajectory by
a one-term recursion, one step of decay plus the newest panel, in O(nt)
rather than O(nt^2).  :func:`solve_u2` keeps a per-point quadrature of the
same integral, evaluable at any t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .delay_ode import DelayOdeParams, solve_on_grid
from .errors import DomainError, InputError
from .field import GridSpec, SolutionField
from .funcspec import FunctionSpec, fs_const, fs_ramp_x, fs_scale, fs_sum
from .heat_delay import weighted_frame
from .quadrature import QuadratureConfig, composite_gauss, graded_breakpoints
from .spectral import (EigenBasis, HermitePaths, project_paths,
                       sine_projection_rule)


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

    def __post_init__(self):
        for name in ("a", "b", "c", "length", "horizon"):
            if not math.isfinite(getattr(self, name)):
                raise InputError(f"{name} must be finite")
        if self.a == 0.0:
            raise InputError("diffusion coefficient a must be nonzero")
        if self.length <= 0.0:
            raise InputError(f"length must be positive, got {self.length!r}")
        if self.horizon <= 0.0:
            raise InputError(f"horizon must be positive, got {self.horizon!r}")
        for name in ("g", "psi", "theta1", "theta2"):
            if not isinstance(getattr(self, name), FunctionSpec):
                raise InputError(f"{name} must be a FunctionSpec")


@dataclass
class ReducedProblem:
    """Drift-free form of a :class:`HeatProblem` after the exponential
    change of variables; produced by :func:`reduce_problem`."""

    a: float
    length: float
    horizon: float
    mu: float
    gamma: float
    lift: FunctionSpec
    shifted_initial: FunctionSpec  # Phi = phi - lift(., 0)
    forcing: FunctionSpec          # F = f - d/dt lift


def reduce_problem(p):
    """Apply the drift/reaction-removing change of variables."""
    mu = -p.b / (2.0 * p.a**2)
    gamma = p.c - (p.b / (2.0 * p.a)) ** 2
    f, phi, mu1, mu2, lift = weighted_frame(p, mu, gamma)
    mu1_0 = mu1(0.0, 0.0)
    mu2_0 = mu2(0.0, 0.0)
    shifted_initial = fs_sum(
        phi,
        fs_const(-mu1_0),
        fs_ramp_x(fs_const(-(mu2_0 - mu1_0) / p.length)),
    )
    forcing = fs_sum(f, fs_scale(lift.differentiate("t"), -1.0))
    return ReducedProblem(
        a=p.a,
        length=p.length,
        horizon=p.horizon,
        mu=mu,
        gamma=gamma,
        lift=lift,
        shifted_initial=shifted_initial,
        forcing=forcing,
    )


# ---------------------------------------------------------------------------
# Mode data (projected coefficient paths)
# ---------------------------------------------------------------------------


@dataclass
class _ModeData:
    """Phi_n, the decay rates, and the forcing paths F_n."""

    initial_coeffs: np.ndarray      # Phi_n
    decay_rates: np.ndarray         # (pi n a / l)^2
    forcing: HermitePaths           # F_n(t) on [0, T]


def _mode_data(rp, basis, quad):
    """Project Phi at t = 0, and F and dF/dt at 257 times on [0, T].

    F and dF/dt come from one :func:`~delayheat.spectral.project_paths`
    pass, read off one jet; Phi needs no t-derivative.
    """
    rule = sine_projection_rule(basis, quad)
    ts = np.linspace(0.0, rp.horizon, 257)
    (initial,) = project_paths(rp.shifted_initial, np.zeros(1), rule,
                               basis.length, kt=0)
    return _ModeData(
        initial_coeffs=initial[:, 0],
        decay_rates=basis.eigenvalues() * rp.a**2,
        forcing=HermitePaths(ts, *project_paths(rp.forcing, ts, rule,
                                                basis.length)),
    )


def _duhamel_decay(rate, forcing, t, quad):
    """integral_0^t exp(-rate (t - s)) forcing(s) ds with graded panels."""
    if t == 0.0:
        return 0.0

    def integrand(s):
        return np.exp(-rate * (t - s)) * forcing(s)

    breaks = graded_breakpoints(0.0, t, rate)
    return composite_gauss(integrand, 0.0, t, quad, breaks)


def _check_point(rp, x, t):
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < -1e-12) or np.any(x_arr > rp.length + 1e-12):
        raise DomainError(f"x outside [0, {rp.length}]")
    if not (-1e-12 <= t <= rp.horizon + 1e-9):
        raise DomainError(f"t={t!r} outside [0, {rp.horizon}]")


def solve_u1(rp, basis, x, t, quad=None):
    """Free-decay part sum_n Phi_n exp(-(pi n a / l)^2 t) sin(pi n x / l)."""
    if quad is None:
        quad = QuadratureConfig()
    _check_point(rp, x, t)
    data = _mode_data(rp, basis, quad)
    weights = data.initial_coeffs * np.exp(-data.decay_rates * t)
    out = weights @ basis.eigenfunctions(x)
    return float(out[0]) if np.ndim(x) == 0 else out


def solve_u2(rp, basis, x, t, quad=None):
    """Duhamel part of the forced response at (x, t)."""
    if quad is None:
        quad = QuadratureConfig()
    _check_point(rp, x, t)
    data = _mode_data(rp, basis, quad)
    coeffs = np.array([
        _duhamel_decay(rate, data.forcing.row(n), float(t), quad)
        for n, rate in enumerate(data.decay_rates, 1)
    ])
    out = coeffs @ basis.eigenfunctions(x)
    return float(out[0]) if np.ndim(x) == 0 else out


def solve_u3(rp, x, t):
    """Boundary lift mu1(t) + (x / l)(mu2(t) - mu1(t))."""
    _check_point(rp, x, t)
    return rp.lift(x, t)


def solve(p, basis, grid=None, quad=None):
    """Solve the full problem on a grid; returns a :class:`SolutionField`.

    The field carries both the reduced-frame values u and the original-frame
    values v = exp(mu x + gamma t) u.
    """
    if quad is None:
        quad = QuadratureConfig()
    if grid is None:
        grid = GridSpec(nx=200, nt=200)
    if not isinstance(basis, EigenBasis):
        raise InputError("basis must be an EigenBasis")
    rp = reduce_problem(p)
    x = grid.x_points(p.length)
    t = grid.t_points(p.horizon)
    data = _mode_data(rp, basis, quad)

    # Modal trajectories: the exact free decay plus the Duhamel term, which is
    # the grid engine with a = -rate, no lag coupling and a delay of one time
    # step, so that its kernel is exp(-rate (t - s)).
    traj = np.exp(-np.outer(t, data.decay_rates)) * data.initial_coeffs  # (nt+1, N)
    dt = grid.time_step(p.horizon)
    for i in range(basis.n_modes):
        params = DelayOdeParams(a=-float(data.decay_rates[i]), b=0.0, tau=dt)
        traj[1:, i] += solve_on_grid(params, None, data.forcing.row(i + 1), 1,
                                     grid.nt, quad)
    u = traj @ basis.eigenfunctions(x)

    # Boundary lift and return to the original frame.
    u += np.asarray(rp.lift(x[None, :], t[:, None]), dtype=float)
    v = u * np.exp(rp.mu * x)[None, :] * np.exp(rp.gamma * t)[:, None]
    meta = {
        "model": "heat_nodelay",
        "coefficients": {"a": p.a, "b": p.b, "c": p.c},
        "length": p.length,
        "horizon": p.horizon,
        "n_modes": basis.n_modes,
        "mu": rp.mu,
        "gamma": rp.gamma,
        "quad": {
            "nodes_per_panel": quad.nodes_per_panel,
            "max_panel_splits": quad.max_panel_splits,
            "abs_tol": quad.abs_tol,
        },
    }
    return SolutionField(x=x, t=t, v=v, u=u, source="spectral", meta=meta)

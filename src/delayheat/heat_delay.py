"""Spectral solver for the 1D linear heat equation with one constant delay:

    v_t = a1^2 v_xx(x, t) + a2^2 v_xx(x, t - tau)
        + b1 v_x(x, t)  + b2 v_x(x, t - tau)
        + d1 v(x, t)    + d2 v(x, t - tau) + g(x, t)

on (0, l) x (0, T], with Dirichlet traces theta1/theta2 on [-tau, T] and the
initial segment v = psi on [0, l] x [-tau, 0].

Change of variables
-------------------
Drift can be removed from both the instantaneous and the lagged part at once
only when they share the same exponential weight:

    -b1 / (2 a1^2) = -b2 / (2 a2^2) = mu   (proportionality requirement).

Then v = exp(mu x) u satisfies the drift-free delayed equation with reaction
coefficients c1 = d1 - (b1 / (2 a1))^2 and c2 = d2 - (b2 / (2 a2))^2, the
lagged term keeping its shifted argument u(x, t - tau).  Subtracting the
linear boundary lift gives homogeneous Dirichlet data with

    Phi(x, t) = phi(x, t) - lift(x, t)                      on [-tau, 0],
    F(x, t)   = f - d/dt lift + c1 lift(t) + c2 lift(t - tau)   on [0, T].

Every sine mode then satisfies a scalar delay ODE

    X_n'(t) = L_n X_n(t) + B_n X_n(t - tau),
    L_n = c1 - (pi n a1 / l)^2,    B_n = c2 - (pi n a2 / l)^2,

solved in closed form by :mod:`delayheat.delay_ode`.  The delayed-exponential
parameter B_n * exp(-L_n tau) overflows for large n, so only (L_n, B_n) are
ever passed around; the kernel combines the factors in log space.

:func:`solve_delay` evaluates every mode, whether or not its data vanish, on
the output grid at once with :func:`delayheat.delay_ode.solve_on_grid`;
:func:`mode_solution` evaluates one mode at any t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .delay_ode import (
    DelayOdeParams,
    HistoryFunction,
    solve_homogeneous,
    solve_on_grid,
    superpose,
)
from .errors import CompatibilityError, InputError
from .field import GridSpec, SolutionField
from .funcspec import (
    FunctionSpec,
    fs_exp_weight,
    fs_ramp_x,
    fs_scale,
    fs_sum,
    fs_time_shift,
)
from .quadrature import QuadratureConfig
from .spectral import (EigenBasis, HermitePaths, project_paths,
                       sine_projection_rule)


@dataclass
class DelayHeatProblem:
    """Problem data for the delayed heat equation."""

    a1: float
    a2: float
    b1: float
    b2: float
    d1: float
    d2: float
    tau: float
    length: float
    horizon: float
    g: FunctionSpec
    psi: FunctionSpec       # initial segment, function of (x, t) on [-tau, 0]
    theta1: FunctionSpec
    theta2: FunctionSpec
    # (field values, ReducedDelayProblem) of the last reduce_delay call.
    _reduced: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("a1", "a2", "b1", "b2", "d1", "d2", "tau", "length", "horizon"):
            if not math.isfinite(getattr(self, name)):
                raise InputError(f"{name} must be finite")
        if self.a1 == 0.0:
            raise InputError("instantaneous diffusion coefficient a1 must be nonzero")
        if self.tau <= 0.0:
            raise InputError(f"tau must be positive, got {self.tau!r}")
        if self.length <= 0.0:
            raise InputError(f"length must be positive, got {self.length!r}")
        if self.horizon <= 0.0:
            raise InputError(f"horizon must be positive, got {self.horizon!r}")
        for name in ("g", "psi", "theta1", "theta2"):
            if not isinstance(getattr(self, name), FunctionSpec):
                raise InputError(f"{name} must be a FunctionSpec")


@dataclass
class ReducedDelayProblem:
    """Drift-free delayed problem after v = exp(mu x) u."""

    a1: float
    a2: float
    c1: float
    c2: float
    mu: float
    tau: float
    length: float
    horizon: float
    phi: FunctionSpec              # exp(-mu x) psi on [-tau, 0]
    lift: FunctionSpec
    shifted_initial: FunctionSpec  # Phi on [-tau, 0]
    forcing: FunctionSpec          # F on [0, T]
    _cache: dict = field(default_factory=dict, repr=False)


def weighted_frame(p, mu, gamma=0.0):
    """Data of ``p`` in the frame v = exp(mu x + gamma t) u.

    Returns (f, phi, mu1, mu2, lift): f = exp(-mu x - gamma t) g, the
    initial data phi = exp(-mu x) psi, the traces mu1 = exp(-gamma t) theta1
    and mu2 = exp(-mu l - gamma t) theta2, and the linear boundary lift
    mu1 + (x / l)(mu2 - mu1).  Both reductions build their frame here; the
    delayed one passes gamma = 0, and a weight whose coefficients are all
    zero is the spec itself.
    """
    f = fs_exp_weight(p.g, coef_x=-mu, coef_t=-gamma)
    phi = fs_exp_weight(p.psi, coef_x=-mu)
    mu1 = fs_exp_weight(p.theta1, coef_t=-gamma)
    mu2 = fs_exp_weight(p.theta2, coef_t=-gamma, offset=-mu * p.length)
    slope = fs_scale(fs_sum(mu2, fs_scale(mu1, -1.0)), 1.0 / p.length)
    return f, phi, mu1, mu2, fs_sum(mu1, fs_ramp_x(slope))


def reduce_delay(p):
    """Apply the drift-removing weight; rejects non-proportional drift pairs.

    The reduction is kept on ``p`` and returned again while no field of ``p``
    has been reassigned, so the compat checks and the solve of one problem
    share it, and with it the projections :func:`build_modes` caches.
    """
    inputs = tuple(getattr(p, f.name) for f in fields(p) if f.init)
    if p._reduced is not None and all(
            a is b for a, b in zip(p._reduced[0], inputs)):
        return p._reduced[1]
    lhs = p.b1 * p.a2**2
    rhs = p.b2 * p.a1**2
    scale = max(abs(lhs), abs(rhs), 1.0)
    if abs(lhs - rhs) > 1e-12 * scale:
        raise CompatibilityError(
            "drift coefficients violate the proportionality requirement "
            f"b1/(2 a1^2) == b2/(2 a2^2): b1*a2^2={lhs!r} vs b2*a1^2={rhs!r}",
            mismatch=abs(lhs - rhs),
        )
    mu = -p.b1 / (2.0 * p.a1**2)
    # Zeroth-order coefficients after the weight (valid also when a2 == 0).
    c1 = p.a1**2 * mu**2 + p.b1 * mu + p.d1
    c2 = p.a2**2 * mu**2 + p.b2 * mu + p.d2

    f, phi, _, _, lift = weighted_frame(p, mu)
    shifted_initial = fs_sum(phi, fs_scale(lift, -1.0))
    forcing = fs_sum(
        f,
        fs_scale(lift.differentiate("t"), -1.0),
        fs_scale(lift, c1),
        fs_scale(fs_time_shift(lift, p.tau), c2),
    )
    rp = ReducedDelayProblem(
        a1=p.a1,
        a2=p.a2,
        c1=c1,
        c2=c2,
        mu=mu,
        tau=p.tau,
        length=p.length,
        horizon=p.horizon,
        phi=phi,
        lift=lift,
        shifted_initial=shifted_initial,
        forcing=forcing,
    )
    p._reduced = (inputs, rp)
    return rp


# ---------------------------------------------------------------------------
# Mode system: per-mode delay-ODE coefficients and coefficient paths
# ---------------------------------------------------------------------------


@dataclass
class ModeSystem:
    """Per-mode scalar delay ODEs with sampled coefficient paths.

    ``ode_a``/``ode_b`` are the instantaneous/lagged rates (L_n, B_n).  The
    history paths Phi_n and their slopes Phi_n' live on ``hist_times``; the
    forcing paths F_n and their slopes F_n' on ``forcing_times``.  Slopes
    are projections of the t-differentiated data, not differences of the
    samples.  Each family is one :class:`~delayheat.spectral.HermitePaths`
    of its samples and slopes (``history_paths``, ``forcing_paths``), which
    :meth:`mode_history` and :meth:`mode_forcing` view one mode at a time.
    beta_n' is the derivative of the beta_n path itself, so the two always
    agree.
    """

    basis: EigenBasis
    tau: float
    horizon: float
    ode_a: np.ndarray
    ode_b: np.ndarray
    hist_times: np.ndarray
    phi_samples: np.ndarray         # (N, len(hist_times))
    phi_prime_samples: np.ndarray
    forcing_times: np.ndarray
    forcing_samples: np.ndarray     # (N, len(forcing_times))
    forcing_prime_samples: np.ndarray
    history_paths: HermitePaths = field(init=False, repr=False, compare=False)
    forcing_paths: HermitePaths = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.history_paths = HermitePaths(self.hist_times, self.phi_samples,
                                          self.phi_prime_samples)
        self.forcing_paths = HermitePaths(self.forcing_times, self.forcing_samples,
                                          self.forcing_prime_samples)

    def mode_params(self, n):
        return DelayOdeParams(a=float(self.ode_a[n - 1]),
                              b=float(self.ode_b[n - 1]), tau=self.tau)

    def mode_history(self, n):
        beta = self.history_paths.row(n)
        return HistoryFunction(beta=beta, beta_prime=lambda s: beta(s, 1))

    def mode_forcing(self, n):
        return self.forcing_paths.row(n)

    def diagnostics(self):
        """Per-mode table: rates, delayed-parameter log magnitude, path sizes."""
        rows = []
        for n in range(1, self.basis.n_modes + 1):
            log_d = self.mode_params(n).log_abs_scaled_delay_coeff()
            rows.append({
                "n": n,
                "ode_a": float(self.ode_a[n - 1]),
                "ode_b": float(self.ode_b[n - 1]),
                "log_abs_scaled_delay_coeff": log_d,
                "scaled_delay_overflows": bool(log_d > 700.0),
                "sup_phi": float(np.max(np.abs(self.phi_samples[n - 1]))),
                "sup_forcing": float(np.max(np.abs(self.forcing_samples[n - 1]))),
            })
        return rows


def build_modes(rp, basis, quad=None):
    """Project the reduced problem onto the sine basis.

    Phi_n and Phi_n' are sampled at 129 times on [-tau, 0]; F_n and F_n' at
    max(257, 64 ceil(T / tau) + 1) times on [0, T].  Each family is one
    :func:`~delayheat.spectral.project_paths` pass, which reads the values
    and the t-slopes off one jet.
    """
    if quad is None:
        quad = QuadratureConfig()
    path_samples = max(257, 64 * int(math.ceil(rp.horizon / rp.tau)) + 1)
    key = ("modes", basis, quad)
    cached = rp._cache.get(key)
    if cached is not None:
        return cached

    rule = sine_projection_rule(basis, quad)
    hist_times = np.linspace(-rp.tau, 0.0, 129)
    forcing_times = np.linspace(0.0, rp.horizon, path_samples)
    phi, phi_prime = project_paths(rp.shifted_initial, hist_times, rule, rp.length)
    forcing, forcing_prime = project_paths(rp.forcing, forcing_times, rule,
                                           rp.length)
    lam1 = basis.eigenvalues() * rp.a1**2
    lam2 = basis.eigenvalues() * rp.a2**2
    ms = ModeSystem(
        basis=basis,
        tau=rp.tau,
        horizon=rp.horizon,
        ode_a=rp.c1 - lam1,
        ode_b=rp.c2 - lam2,
        hist_times=hist_times,
        phi_samples=phi,
        phi_prime_samples=phi_prime,
        forcing_times=forcing_times,
        forcing_samples=forcing,
        forcing_prime_samples=forcing_prime,
    )
    rp._cache[key] = ms
    return ms


def mode_solution(ms, n, t, quad=None):
    """X_n(t): the n-th modal trajectory via the closed-form delay ODE."""
    if not 1 <= n <= ms.basis.n_modes:
        raise InputError(f"mode number {n} outside 1..{ms.basis.n_modes}")
    if quad is None:
        quad = QuadratureConfig()
    params = ms.mode_params(n)
    history = ms.mode_history(n)
    if float(np.max(np.abs(ms.forcing_samples[n - 1]))) == 0.0:
        return solve_homogeneous(params, history, t, quad)
    return superpose(params, history, ms.mode_forcing(n), t, quad)


def solve_delay(p, basis, grid=None, quad=None):
    """Solve the delayed problem on a grid; returns a :class:`SolutionField`.

    History rows (t <= 0) carry psi directly; rows t > 0 are synthesized from
    the modal trajectories plus the boundary lift, then mapped back through
    v = exp(mu x) u.
    """
    if quad is None:
        quad = QuadratureConfig()
    if grid is None:
        grid = GridSpec(nx=200, nt_per_tau=64)
    t = grid.t_points(p.horizon, p.tau)
    if not isinstance(basis, EigenBasis):
        raise InputError("basis must be an EigenBasis")
    rp = reduce_delay(p)
    ms = build_modes(rp, basis, quad)
    x = grid.x_points(p.length)
    n_hist = int(np.sum(t <= 0.0))
    t_pos = t[n_hist:]

    u = np.zeros((t.size, x.size))
    # History segment: the data itself, in the reduced frame.
    u[:n_hist] = np.asarray(rp.phi(x[None, :], t[:n_hist, None]), float)

    traj = np.empty((t_pos.size, basis.n_modes))
    for i in range(basis.n_modes):
        traj[:, i] = solve_on_grid(ms.mode_params(i + 1), ms.mode_history(i + 1),
                                   ms.mode_forcing(i + 1), grid.nt_per_tau,
                                   t_pos.size, quad)
    u[n_hist:] = traj @ basis.eigenfunctions(x)
    u[n_hist:] += np.asarray(rp.lift(x[None, :], t_pos[:, None]), float)

    v = u * np.exp(rp.mu * x)[None, :]
    meta = {
        "model": "heat_delay",
        "coefficients": {"a1": p.a1, "a2": p.a2, "b1": p.b1, "b2": p.b2,
                         "d1": p.d1, "d2": p.d2},
        "tau": p.tau,
        "length": p.length,
        "horizon": p.horizon,
        "n_modes": basis.n_modes,
        "mu": rp.mu,
        "c1": rp.c1,
        "c2": rp.c2,
        "quad": {
            "nodes_per_panel": quad.nodes_per_panel,
            "max_panel_splits": quad.max_panel_splits,
            "abs_tol": quad.abs_tol,
        },
    }
    return SolutionField(x=x, t=t, v=v, u=u, source="spectral", meta=meta)

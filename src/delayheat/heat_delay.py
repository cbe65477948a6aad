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

The lift is A(t) + x B(t) with theta1 read at x = 0 and theta2 at x = l,
so its sine coefficients are known in closed form: :func:`build_modes`
projects only phi and f on the quadrature grid and adds the lift's share.

:func:`solve_delay` evaluates every mode, whether or not its data vanish, on
the output grid with one call of :func:`delayheat.delay_ode.solve_modes`,
which evaluates all of them at once; :func:`mode_solution` evaluates one
mode at any t.

The problem without delay (:mod:`delayheat.heat_nodelay`) is reduced by the
same change of variables, with a time weight exp(gamma t) as well, and each
of its modes is this scalar delay ODE with B_n = 0.  So the reduction and
the steps after it are written here once, for both kinds, and take the
kind's numbers: :func:`reduce_frame`, which builds the reduced record
:class:`ReducedProblem` and keeps it on the problem until a field is
reassigned, :func:`modal_rates`, the forcing family :func:`forcing_paths`
(which chooses its sample times from the kind's horizon and delay) and the
field synthesis :func:`to_field`, which keeps the modal trajectories and
synthesizes the field one block of time rows at a time as it is read.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .delay_ode import DelayOdeParams, solve_at, solve_modes
from .errors import CompatibilityError, InputError, NumericError
from .field import SolutionField
from .funcspec import (
    FunctionSpec,
    fs_at_x,
    fs_exp_weight,
    fs_ramp_x,
    fs_scale,
    fs_sum,
    fs_time_shift,
)
from .quadrature import QuadratureConfig
from .spectral import EigenBasis, HermitePaths, project_paths


def check_data(p, coefficients):
    """Check the rules both problem kinds share: the fields named in
    ``coefficients``, the length and the horizon are finite, the length and
    the horizon are positive, and g, psi, theta1 and theta2 are
    FunctionSpecs.  Each problem class adds its own rules after these."""
    for name in (*coefficients, "length", "horizon"):
        if not math.isfinite(getattr(p, name)):
            raise InputError(f"{name} must be finite")
    for name in ("length", "horizon"):
        if getattr(p, name) <= 0.0:
            raise InputError(f"{name} must be positive, got {getattr(p, name)!r}")
    for name in ("g", "psi", "theta1", "theta2"):
        if not isinstance(getattr(p, name), FunctionSpec):
            raise InputError(f"{name} must be a FunctionSpec")


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
    # (field values, ReducedProblem) of the last reduce_delay call.
    _reduced: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        check_data(self, ("a1", "a2", "b1", "b2", "d1", "d2", "tau"))
        if self.a1 == 0.0:
            raise InputError("instantaneous diffusion coefficient a1 must be nonzero")
        if self.tau <= 0.0:
            raise InputError(f"tau must be positive, got {self.tau!r}")


@dataclass
class ReducedProblem:
    """Drift-free problem after v = exp(mu x + gamma t) u, for both kinds.

    Every sine mode n obeys X_n' = L_n X_n + B_n X_n(t - tau) + F_n with the
    rates of :func:`modal_rates`.  :func:`reduce_frame` builds it:
    :func:`reduce_delay` passes gamma = 0,
    :func:`delayheat.heat_nodelay.reduce_problem` a1 = a, a2 = c1 = c2 = 0
    and tau = None, so that B_n = 0.
    """

    a1: float
    a2: float
    c1: float
    c2: float
    mu: float
    gamma: float
    tau: float                     # None without a delay
    length: float
    horizon: float
    phi: FunctionSpec              # exp(-mu x) psi (on [-tau, 0])
    source: FunctionSpec           # f = exp(-mu x - gamma t) g
    lift: FunctionSpec             # A(t) + x B(t)
    lift_slope: FunctionSpec       # B
    lift_forcing: FunctionSpec     # F - f: the lift's share, linear in x
    shifted_initial: FunctionSpec  # Phi = phi - lift
    forcing: FunctionSpec          # F on [0, T]
    _cache: dict = field(default_factory=dict, repr=False)


def reduce_frame(p, a1, a2, c1, c2, mu, gamma, tau):
    """The :class:`ReducedProblem` of ``p`` in the frame
    v = exp(mu x + gamma t) u.

    f = exp(-mu x - gamma t) g and phi = exp(-mu x) psi.  The traces
    mu1 = exp(-gamma t) theta1(0, t) and mu2 = exp(-mu l - gamma t) theta2(l, t)
    are each read at their own boundary, so the lift mu1 + (x / l)(mu2 - mu1)
    is linear in x whatever x their expressions mention.  Phi = phi - lift
    and F = f - d/dt lift, plus c1 lift + c2 lift(t - tau) when ``tau`` is
    set.  A weight whose coefficients are all zero is the spec itself.

    The result is kept on ``p`` and returned again while no field of ``p``
    has been reassigned, so the compat checks and the solve of one problem
    share it, and with it the projections :func:`build_modes` caches.
    """
    inputs = tuple(getattr(p, f.name) for f in fields(p) if f.init)
    if p._reduced is not None and all(
            a is b for a, b in zip(p._reduced[0], inputs)):
        return p._reduced[1]
    f = fs_exp_weight(p.g, coef_x=-mu, coef_t=-gamma)
    phi = fs_exp_weight(p.psi, coef_x=-mu)
    mu1 = fs_exp_weight(fs_at_x(p.theta1, 0.0), coef_t=-gamma)
    mu2 = fs_exp_weight(fs_at_x(p.theta2, p.length), coef_t=-gamma,
                        offset=-mu * p.length)
    slope = fs_scale(fs_sum(mu2, fs_scale(mu1, -1.0)), 1.0 / p.length)
    lift = fs_sum(mu1, fs_ramp_x(slope))
    lift_terms = [fs_scale(lift.differentiate("t"), -1.0)]
    if tau is not None:
        lift_terms += [fs_scale(lift, c1),
                       fs_scale(fs_time_shift(lift, tau), c2)]
    lift_forcing = fs_sum(*lift_terms)
    rp = ReducedProblem(
        a1=a1, a2=a2, c1=c1, c2=c2, mu=mu, gamma=gamma, tau=tau,
        length=p.length, horizon=p.horizon, phi=phi, source=f, lift=lift,
        lift_slope=slope, lift_forcing=lift_forcing,
        shifted_initial=fs_sum(phi, fs_scale(lift, -1.0)),
        forcing=fs_sum(f, lift_forcing),
    )
    p._reduced = (inputs, rp)
    return rp


def reduce_delay(p):
    """Apply the drift-removing weight (:func:`reduce_frame` with gamma = 0);
    rejects non-proportional drift pairs."""
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
    return reduce_frame(p, p.a1, p.a2, c1, c2, mu, 0.0, p.tau)


# ---------------------------------------------------------------------------
# Mode system: per-mode delay-ODE coefficients and coefficient paths
# ---------------------------------------------------------------------------


def modal_rates(rp, basis):
    """(L_n, B_n) = (c1 - lambda_n a1^2, c2 - lambda_n a2^2), n = 1..N."""
    lam = basis.eigenvalues()
    return rp.c1 - lam * rp.a1**2, rp.c2 - lam * rp.a2**2


def forcing_paths(rp, basis, quad):
    """The forcing family F_n, with slopes F_n', as
    :class:`~delayheat.spectral.HermitePaths`: at 257 times on [0, T]
    without a delay; with one, at max(257, 64 m + 1) times on
    [0, max(T, m tau)] for the m = :func:`steps_covered` delay intervals
    that cover [0, T], so the grid rows past T, up to T_eff <= m tau, read F
    where it was sampled.

    One :func:`~delayheat.spectral.project_paths` pass reads values and
    slopes off one jet per rung of its panel ladder (of f's t-factors where
    f separates); the lift's share F - f is linear in x and added in closed
    form.
    """
    if rp.tau is None:
        times = np.linspace(0.0, rp.horizon, 257)
    else:
        m = steps_covered(rp.horizon, rp.tau)
        times = np.linspace(0.0, max(rp.horizon, m * rp.tau),
                            max(257, 64 * m + 1))
    return HermitePaths(times, *project_paths(rp.source, times, basis, quad,
                                              linear=rp.lift_forcing))


@dataclass
class ModeSystem:
    """Per-mode scalar delay ODEs with their coefficient paths.

    ``ode_a``/``ode_b`` are the instantaneous/lagged rates (L_n, B_n).  The
    history paths Phi_n on [-tau, 0] and the forcing paths F_n from 0 are
    each one :class:`~delayheat.spectral.HermitePaths` of the projected
    samples and slopes; slopes are projections of the t-differentiated data,
    not differences of the samples.  A family's ``row(n)`` is mode n's data
    in the form the delay-ODE solvers take.
    """

    basis: EigenBasis
    tau: float
    horizon: float
    ode_a: np.ndarray
    ode_b: np.ndarray
    history_paths: HermitePaths
    forcing_paths: HermitePaths

    def mode_params(self, n):
        return DelayOdeParams(a=float(self.ode_a[n - 1]),
                              b=float(self.ode_b[n - 1]), tau=self.tau)


def steps_covered(horizon, tau):
    """Number of delay intervals covering [0, T]: m = ceil(T / tau)."""
    return int(math.ceil(horizon / tau - 1e-9))


def build_modes(rp, basis, quad=QuadratureConfig()):
    """Project the reduced problem onto the sine basis.

    Phi_n and Phi_n' are sampled at 129 times on [-tau, 0]; F_n and F_n' at
    the times :func:`forcing_paths` chooses.
    Each family is one :func:`~delayheat.spectral.project_paths` pass, which
    reads the values and the t-slopes off one jet per rung and climbs from
    P/8 panels, P = max(4, 2N), with table knots as panel edges, until two
    rungs agree, or raises :class:`QuadratureError`.  Only phi and f are
    evaluated on the quadrature points: by their x- and t-factors where they
    separate, else on the (points x times) grid.  The lift's share of Phi
    and F is linear in x and is added in closed form.
    """
    key = ("modes", basis, quad)
    cached = rp._cache.get(key)
    if cached is not None:
        return cached

    hist_times = np.linspace(-rp.tau, 0.0, 129)
    history = HermitePaths(hist_times, *project_paths(
        rp.phi, hist_times, basis, quad, linear=fs_scale(rp.lift, -1.0)))
    ms = ModeSystem(basis, rp.tau, rp.horizon, *modal_rates(rp, basis),
                    history, forcing_paths(rp, basis, quad))
    rp._cache[key] = ms
    return ms


def mode_solution(ms, n, t, quad=QuadratureConfig()):
    """X_n(t): the n-th modal trajectory via the closed-form delay ODE."""
    if not 1 <= n <= ms.basis.n_modes:
        raise InputError(f"mode number {n} outside 1..{ms.basis.n_modes}")
    return solve_at(ms.mode_params(n), ms.history_paths.row(n),
                    ms.forcing_paths.row(n), t, quad)


def to_field(rp, basis, x, t, traj, meta):
    """The :class:`SolutionField` of the modal trajectories ``traj``
    (times x modes), which cover the last rows of ``t``.

    The rows before them (the delayed kind's t <= 0) hold phi; every other
    row is the sine synthesis of ``traj`` plus the boundary lift.  Both are
    mapped back through v = exp(mu x + gamma t) u.  The field keeps
    ``traj``, the sine table at x, the lift's A(t) = lift(0, t) and B(t) on
    the series rows and the weights, and synthesizes one block of time rows
    at a time as it is read (see :class:`~delayheat.field.SolutionField`):
    phi is evaluated on the block's rows then, and raises then.  A weight
    that leaves float range raises :class:`NumericError` here, and a
    block with a value that does when it is read.
    """
    n_hist = t.size - traj.shape[0]
    sines = basis.eigenfunctions(x)
    lift_a = rp.lift(0.0, t[n_hist:, None])
    lift_b = rp.lift_slope(0.0, t[n_hist:, None])
    with np.errstate(over="ignore"):
        x_weight = np.exp(rp.mu * x)[None, :]
        t_weight = np.exp(rp.gamma * t)[:, None]
    if not (np.all(np.isfinite(x_weight)) and np.all(np.isfinite(t_weight))):
        raise NumericError("field weight exp(mu x + gamma t) overflows")

    def rows(j0, j1):
        # Rows j0:k hold phi, rows k:j1 the series.
        k = min(max(n_hist, j0), j1)
        u = np.empty((j1 - j0, x.size))
        if k > j0:
            u[:k - j0] = rp.phi(x[None, :], t[j0:k, None])
        with np.errstate(over="ignore", invalid="ignore"):
            if j1 > k:
                series = slice(k - n_hist, j1 - n_hist)
                u[k - j0:] = traj[series] @ sines
                u[k - j0:] += lift_a[series] + x * lift_b[series]
            v = u * x_weight * t_weight[j0:j1]
        # The weights are finite, so a non-finite u makes v non-finite too.
        if not np.all(np.isfinite(v)):
            raise NumericError("field value exp(mu x + gamma t) u overflows")
        return v, u

    return SolutionField(x=x, t=t, source="spectral", meta=meta, rows=rows)


def solve_delay(p, basis, grid, quad=QuadratureConfig()):
    """Solve the delayed problem on a :class:`GridSpec`; returns a
    :class:`SolutionField` (see :func:`to_field`).

    The modal trajectories and the lift's time factors are computed here,
    and their errors raise here.  The field's values are synthesized when
    read, one block of time rows at a time, so memory stays
    O(block + trajectories) and an error of phi on the grid raises from
    the reader (``write_csv``, ``field_difference_report``)."""
    t = grid.t_points(p.horizon, p.tau)
    if not isinstance(basis, EigenBasis):
        raise InputError("basis must be an EigenBasis")
    rp = reduce_delay(p)
    ms = build_modes(rp, basis, quad)
    traj = solve_modes(ms.ode_a, ms.ode_b, p.tau, ms.history_paths,
                       ms.forcing_paths, grid.nt_per_tau,
                       int(np.sum(t > 0.0)), quad)
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
        "quad": asdict(quad),
    }
    return to_field(rp, basis, grid.x_points(p.length), t, traj.T, meta)

"""Energy traces and the exponential growth bound behind uniqueness.

For a difference field w of two solutions sharing boundary data, the a-priori
estimates give E(t) <= exp(C t) E(0) with

* no delay:   E(t) = integral w^2 dx,
              C = 2 (c + |b| / (2 epsilon)),  requiring epsilon |b| / 2 < a^2;
* with delay: E(t) = integral w^2 dx
                     + omega * integral_0^1 integral w_x(x, t - tau s)^2 dx ds,
              C = 2 d1 + |b2| + |d2| + |b1| / epsilon,
              requiring 2 a1^2 - |b1| epsilon - a2^2 epsilon > 0 and
              omega tau - a2^2 / epsilon - |b2| >= 0.

Integrals use the trapezoid rule on the solution grid (the history integral
runs over the stored rows between t - tau and t).  One computation gives the
trace and, on every other x column and (for an even number of steps per
delay) every other history row, the half-resolution trace whose distance
estimates the quadrature error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError


@dataclass
class EnergyReport:
    """Energy values over time plus the smallest fitted growth rate."""

    times: np.ndarray
    values: np.ndarray
    c_fit: float
    omega: float
    quad_error_estimate: float


def energy_trace(field, tau=None, omega=0.0):
    """Energy of a field for t >= 0; pass ``tau`` and ``omega`` for the
    delay functional (the field must store the history rows)."""
    x = field.x
    t = field.t
    w = field.v
    pos = t >= -1e-12
    times = t[pos]
    if times.size < 2:
        raise InputError("field needs at least two time rows with t >= 0")
    if tau is not None:
        if not np.isclose(t[0], -tau, rtol=1e-9, atol=1e-12):
            raise InputError("delay energy needs history rows starting at -tau")
        dt = float(t[1] - t[0])
        m = int(round(tau / dt))
        if not math.isclose(m * dt, tau, rel_tol=1e-9, abs_tol=1e-12):
            raise InputError("field time step does not divide tau")

    def trace(cols, stride):
        """E(t) from the x columns ``cols``, the history integral over
        every ``stride``-th row of its window."""
        xc = x[cols]
        values = np.trapezoid(w[pos][:, cols]**2, xc, axis=-1)
        if tau is None:
            return values
        gx = np.gradient(w[:, cols], xc, axis=-1)
        grad = np.trapezoid(gx**2, xc, axis=-1)
        hist = [np.trapezoid(grad[j - m: j + 1][::stride], dx=stride * dt) / tau
                for j in np.flatnonzero(pos)]
        return values + omega * np.array(hist)

    values = trace(slice(None), 1)
    # Every other x column (and the last), and every other history row when
    # that leaves the window's end rows in.
    coarse = np.union1d(np.arange(0, x.size, 2), [x.size - 1])
    values_coarse = trace(coarse, 2 if tau is not None and m % 2 == 0 and m >= 2
                          else 1)
    est = float(np.max(np.abs(values - values_coarse))) if values.size else 0.0

    e0 = float(values[0])
    c_fit = 0.0
    floor = max(1e-300, 1e-15 * float(values.max(initial=0.0)))
    if e0 <= floor:
        c_fit = math.inf if float(values[1:].max(initial=0.0)) > floor else 0.0
    else:
        with np.errstate(divide="ignore"):
            ratios = np.log(np.maximum(values[1:], 1e-300) / e0) / (times[1:] - times[0])
        c_fit = float(ratios.max(initial=0.0))
    return EnergyReport(
        times=times,
        values=values,
        c_fit=c_fit,
        omega=float(omega) if tau is not None else 0.0,
        quad_error_estimate=est,
    )


def nodelay_growth_constant(p, epsilon=None):
    """Theoretical growth rate C and the Young-inequality weight for a
    :class:`~delayheat.heat_nodelay.HeatProblem`."""
    if epsilon is None:
        epsilon = p.a**2 / (abs(p.b) + 1.0)
    if not epsilon > 0.0:
        raise InputError("epsilon must be positive")
    if not epsilon * abs(p.b) / 2.0 < p.a**2:
        raise InputError(
            f"epsilon={epsilon!r} violates epsilon |b| / 2 < a^2"
        )
    c_theory = 2.0 * (p.c + abs(p.b) / (2.0 * epsilon))
    return c_theory, epsilon


def delay_growth_constant(p, epsilon=None, omega=None):
    """Theoretical growth rate C plus (epsilon, omega) for a
    :class:`~delayheat.heat_delay.DelayHeatProblem`."""
    if epsilon is None:
        epsilon = p.a1**2 / (abs(p.b1) + p.a2**2 + 1.0)
    if not epsilon > 0.0:
        raise InputError("epsilon must be positive")
    if not 2.0 * p.a1**2 - abs(p.b1) * epsilon - p.a2**2 * epsilon > 0.0:
        raise InputError(
            f"epsilon={epsilon!r} violates 2 a1^2 - |b1| eps - a2^2 eps > 0"
        )
    if omega is None:
        omega = (p.a2**2 / epsilon + abs(p.b2) + 1.0) / p.tau
    if omega * p.tau - p.a2**2 / epsilon - abs(p.b2) < 0.0:
        raise InputError(
            f"omega={omega!r} violates omega tau - a2^2 / eps - |b2| >= 0"
        )
    c_theory = 2.0 * p.d1 + abs(p.b2) + abs(p.d2) + abs(p.b1) / epsilon
    return c_theory, epsilon, omega


@dataclass
class GronwallResult:
    passed: bool
    margin: float
    c_theory: float
    slack: float
    worst_time: float


def gronwall_check(report, c_theory, slack=None, solver_tol=0.0):
    """Check E(t) <= exp(C t) (E(0) + slack) pointwise on the trace.

    ``slack`` defaults to 10 x (trapezoid error estimate + solver tolerance).
    """
    if slack is None:
        slack = 10.0 * (report.quad_error_estimate + solver_tol)
    t0 = report.times[0]
    bound = np.exp(c_theory * (report.times - t0)) * (report.values[0] + slack)
    margins = bound - report.values
    worst = int(np.argmin(margins))
    return GronwallResult(
        passed=bool(np.all(margins >= 0.0)),
        margin=float(margins[worst]),
        c_theory=float(c_theory),
        slack=float(slack),
        worst_time=float(report.times[worst]),
    )

"""Admissibility screens for problem data.

Two kinds of checks with different severities:

* **Hard**: the initial value must meet the boundary traces (corner
  compatibility).  Violations make the mixed problem ill-posed in the
  classical sense and solving is refused.

* **Advisory**: sufficient (not necessary) smoothness/decay conditions under
  which the constructed series is a classical solution.  These are checked
  as fitted log-slope proxies on the projected coefficient paths plus
  endpoint identities of the reduced data, and failures only block solving
  until the caller explicitly overrides.

For a horizon covering m delay intervals (m = ceil(T / tau)), the decay
proxies ask that

    n^(2m+3+delta) |Phi_n(-tau)|,
    n^(2m+1+delta) max_s (|Phi_n''| + n^2 |Phi_n'| + n^4 |Phi_n|),
    n^(2m-1+delta) max_s (|F_n'| + n^2 |F_n|)

all decay: the fitted slope of log(sequence) against log(n) over the nonzero
tail must be negative beyond ``fit_slack``.  Sequences whose tail sits at the
numerical floor pass vacuously (finitely many active modes).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError,
    InputError,
    InsufficientDataError,
    UnsupportedOperationError,
)
from .heat_delay import DelayHeatProblem, build_modes, reduce_delay, steps_covered
from .heat_nodelay import HeatProblem, reduce_problem
from .quadrature import QuadratureConfig
from .spectral import EigenBasis, decay_fit, sine_coefficients

_FLOOR_REL = 1e-13
# Sample times per time window of the boundary and endpoint checks.
SAMPLES = 65


@dataclass
class CompatReport:
    """Assembled admissibility report."""

    problem_kind: str
    boundary: dict
    decay: list = field(default_factory=list)
    endpoint: list = field(default_factory=list)
    m: int = None
    delta: float = None

    @property
    def hard_pass(self):
        return bool(self.boundary.get("pass", False))

    @property
    def advisory_pass(self):
        return all(entry.get("status") != "fail" for entry in self.decay)

    def to_dict(self):
        return {
            "problem_kind": self.problem_kind,
            "boundary": self.boundary,
            "decay": self.decay,
            "endpoint": self.endpoint,
            "m": self.m,
            "delta": self.delta,
            "hard_pass": self.hard_pass,
            "advisory_pass": self.advisory_pass,
        }


def check_compatibility(p, tol=1e-8):
    """Hard corner/trace compatibility of the initial value with the traces.

    Delay problems compare psi with the traces on all of [-tau, 0]; problems
    without delay compare at t = 0 only.
    """
    if isinstance(p, DelayHeatProblem):
        ts = np.linspace(-p.tau, 0.0, SAMPLES)
    elif isinstance(p, HeatProblem):
        ts = np.zeros(1)
    else:
        raise InputError("expected a HeatProblem or DelayHeatProblem")
    left, right = (float(np.max(np.abs(np.asarray(p.psi(x, ts))
                                       - np.asarray(trace(x, ts)))))
                   for x, trace in ((0.0, p.theta1), (p.length, p.theta2)))
    return {
        "at_x0": left,
        "at_xl": right,
        "tol": tol,
        "pass": bool(left <= tol and right <= tol),
    }


def _fit_sequence(name, exponent, seq, fit_slack):
    """Fitted log-slope proxy: pass when the tail decays (slope < -fit_slack)."""
    seq = np.asarray(seq, dtype=float)
    top = float(seq.max(initial=0.0))
    entry = {"name": name, "exponent": exponent, "slope": None,
             "window": None, "status": None}
    if top == 0.0:
        entry["status"] = "pass"
        entry["detail"] = "sequence is identically zero"
        return entry
    floor = top * _FLOOR_REL
    usable = np.flatnonzero(seq > floor)
    tail_start = seq.size // 2
    if np.all(seq[tail_start:] <= floor):
        entry["status"] = "pass"
        entry["detail"] = "tail sits at the numerical floor (finitely many active modes)"
        return entry
    if usable.size < 8:
        entry["status"] = "unverifiable"
        entry["detail"] = f"only {usable.size} usable entries; need 8 for a fit"
        return entry
    report = decay_fit(seq)
    entry["slope"] = -report.slope
    entry["window"] = list(report.window)
    entry["status"] = "pass" if entry["slope"] <= -abs(fit_slack) else "fail"
    return entry


def _floor_small(arr):
    """Zero entries that sit at projection-noise level relative to the
    family's largest entry, so the n-power weights cannot amplify noise
    into a fake non-decaying tail."""
    arr = np.asarray(arr, dtype=float).copy()
    top = float(arr.max(initial=0.0))
    if top > 0.0:
        arr[arr <= _FLOOR_REL * top] = 0.0
    return arr


def check_decay_conditions(ms, m=None, delta=0.5, fit_slack=0.25):
    """Advisory decay proxies on the projected coefficient paths.

    Needs at least 16 modes for the tail fits to mean anything.
    """
    if ms.basis.n_modes < 16:
        raise InsufficientDataError(
            f"decay proxies need at least 16 modes, got {ms.basis.n_modes}")
    if m is None:
        m = steps_covered(ms.horizon, ms.tau)
    n = ms.basis.mode_numbers.astype(float)

    hist, forcing = ms.history_paths, ms.forcing_paths
    phi_start = _floor_small(np.abs(hist.values[:, 0]))
    seq1 = n ** (2 * m + 3 + delta) * phi_start

    # Phi_n'' is the second derivative of the Hermite history paths,
    # evaluated on a refined grid so interior extremes are caught.
    fine = np.linspace(hist.times[0], hist.times[-1], 4 * hist.times.size)
    phi_sup = _floor_small(np.max(np.abs(hist.values), axis=1))
    phi_prime_sup = _floor_small(np.max(np.abs(hist.slopes), axis=1))
    phi_second_sup = np.max(np.abs(hist(fine, 2)), axis=1)
    # Curvature of a path through data known only to roundoff is noise of
    # size ~eps/h^2; entries below that (relative to the path scale) are
    # indistinguishable from zero and must not feed the fit.
    h = float(hist.times[1] - hist.times[0])
    curvature_noise = 50.0 * np.finfo(float).eps / h**2 * float(
        np.max(np.abs(hist.values), initial=0.0))
    phi_second_sup[phi_second_sup <= curvature_noise] = 0.0
    phi_second_sup = _floor_small(phi_second_sup)
    seq2 = n ** (2 * m + 1 + delta) * (
        phi_second_sup + n**2 * phi_prime_sup + n**4 * phi_sup
    )

    f_sup = _floor_small(np.max(np.abs(forcing.values), axis=1))
    f_prime_sup = _floor_small(np.max(np.abs(forcing.slopes), axis=1))
    seq3 = n ** (2 * m - 1 + delta) * (f_prime_sup + n**2 * f_sup)

    return [
        _fit_sequence("history_endpoint_decay", 2 * m + 3 + delta, seq1, fit_slack),
        _fit_sequence("history_path_decay", 2 * m + 1 + delta, seq2, fit_slack),
        _fit_sequence("forcing_path_decay", 2 * m - 1 + delta, seq3, fit_slack),
    ]


def _unverifiable(name, tol, exc):
    return {"name": name, "residual": None, "tol": tol,
            "status": "unverifiable", "detail": str(exc)}


def _row_checks(spec, row, xs, ts, tol):
    """Endpoint checks of one row of partial derivatives of ``spec``.

    ``row`` lists (name, steps) entries by increasing order; an entry is
    max |d spec| over the sample product after the (var, order) ``steps``.
    Every entry is read off one jet of the row's top order.  An entry whose
    steps exceed the representation's derivative budget is 'unverifiable';
    so is the top entry when the jet leaves the function's domain, and the
    row then shrinks by that entry and is evaluated again, because a lower
    order may still stay inside the domain.
    """
    checks, live = {}, []
    for name, steps in row:
        try:  # differentiate checks the budget one step at a time
            part = spec
            for var, order in steps:
                part = part.differentiate(var, order)
        except UnsupportedOperationError as exc:
            checks[name] = _unverifiable(name, tol, exc)
            continue
        live.append((name, (sum(k for v, k in steps if v == "x"),
                            sum(k for v, k in steps if v == "t"))))
    while live:
        try:
            values = spec.partials(xs, ts, [order for _, order in live])
        except DomainError as exc:
            name = live.pop()[0]
            checks[name] = _unverifiable(name, tol, exc)
            continue
        for (name, _), value in zip(live, values):
            residual = float(np.max(np.abs(value)))
            checks[name] = {"name": name, "residual": residual, "tol": tol,
                            "status": "pass" if residual <= tol else "fail"}
        break
    return [checks[name] for name, _ in row]


def check_endpoint_conditions(p, m=None, tol=1e-8):
    """Endpoint identities behind the classical-solvability statement.

    All conditions are phrased on the reduced homogeneous-boundary data
    (initial offset Phi and forcing F): trace values and even x-derivatives
    must vanish at both ends, at decreasing time-derivative depth as the
    spatial order grows.  Conditions needing derivatives beyond a sampled
    representation's budget are reported as unverifiable, not failed.
    Each row of conditions (one time-derivative depth) is evaluated at both
    ends at once, from one jet of the row's highest order.
    """
    checks = []
    if isinstance(p, DelayHeatProblem):
        rp = reduce_delay(p)
        if m is None:
            m = steps_covered(p.horizon, p.tau)
        hist_ts = np.linspace(-p.tau, 0.0, SAMPLES)[None, :]
        pos_ts = np.linspace(0.0, p.horizon, SAMPLES)[None, :]
        ends = np.array([0.0, p.length])[:, None]

        checks += _row_checks(rp.shifted_initial, [("initial_trace", [])],
                              ends, hist_ts, tol)
        for k in range(0, 3):
            checks += _row_checks(rp.shifted_initial, [
                (f"initial_x{2 * j}_t{k}", [("x", 2)] * j + [("t", 1)] * k)
                for j in range(1, m + 2 - k + 1)], ends, hist_ts, tol)

        for depth, count in ((0, m + 1), (1, m)):
            t_steps = [("t", 1)] * depth
            budget = rp.forcing.smoothness("t")
            if budget is not None and budget < depth:
                # Without the t-derivative one entry stands for the whole row.
                row = [(f"forcing_t{depth}", t_steps)]
            else:
                row = [(f"forcing_x{2 * j}_t{depth}", t_steps + [("x", 2)] * j)
                       for j in range(count)]
            checks += _row_checks(rp.forcing, row, ends, pos_ts, tol)
        return checks

    if isinstance(p, HeatProblem):
        rp = reduce_problem(p)
        pos_ts = np.linspace(0.0, p.horizon, SAMPLES)[None, :]
        ends = np.array([0.0, p.length])[:, None]
        checks += _row_checks(rp.shifted_initial, [("initial_trace", [])],
                              ends, np.zeros((1, 1)), tol)
        checks += _row_checks(rp.forcing, [("forcing_trace", []),
                                           ("forcing_x2_t0", [("x", 2)])],
                              ends, pos_ts, tol)
        return checks

    raise InputError("expected a HeatProblem or DelayHeatProblem")


def check_problem(p, basis=None, quad=None, m=None, delta=0.5, fit_slack=0.25,
                  tol=1e-8):
    """Assemble the full :class:`CompatReport` for a problem."""
    if quad is None:
        quad = QuadratureConfig()
    boundary = check_compatibility(p, tol=tol)
    if isinstance(p, DelayHeatProblem):
        if basis is None or basis.n_modes < 16:
            # The decay screen needs a tail to fit; checking with more modes
            # than the solve will use is always sound.
            basis = EigenBasis(p.length, max(16, 64 if basis is None else 16))
        rp = reduce_delay(p)
        ms = build_modes(rp, basis, quad)
        if m is None:
            m = steps_covered(p.horizon, p.tau)
        decay = check_decay_conditions(ms, m=m, delta=delta, fit_slack=fit_slack)
        endpoint = check_endpoint_conditions(p, m=m, tol=tol)
        return CompatReport(problem_kind="delay", boundary=boundary,
                            decay=decay, endpoint=endpoint, m=m, delta=delta)
    if isinstance(p, HeatProblem):
        if basis is None:
            basis = EigenBasis(p.length, 64)
        rp = reduce_problem(p)
        phi0 = lambda x: np.asarray(rp.shifted_initial(x, 0.0), dtype=float)
        coeffs = sine_coefficients(phi0, basis, quad)
        # H^4-type regularity proxy: class threshold with two covered steps.
        decay_entry = {"name": "initial_coefficient_decay", "exponent": 4.5,
                       "slope": None, "window": None, "status": None}
        try:
            report = decay_fit(coeffs, m=2, fit_slack=fit_slack)
            # The log-log slope, as in the delay entries; decay_fit's rate is
            # its negative.
            decay_entry["slope"] = -report.slope
            decay_entry["window"] = list(report.window)
            decay_entry["status"] = "pass" if report.passed else "fail"
            if report.super_polynomial:
                decay_entry["detail"] = "super-polynomial decay"
        except InsufficientDataError:
            mags = np.abs(coeffs)
            tail = mags[mags.size // 2:]
            if float(tail.max(initial=0.0)) <= _FLOOR_REL * float(mags.max(initial=0.0)):
                decay_entry["status"] = "pass"
                decay_entry["detail"] = "tail sits at the numerical floor"
            else:
                decay_entry["status"] = "unverifiable"
        endpoint = check_endpoint_conditions(p, tol=tol)
        return CompatReport(problem_kind="nodelay", boundary=boundary,
                            decay=[decay_entry], endpoint=endpoint,
                            m=None, delta=None)
    raise InputError("expected a HeatProblem or DelayHeatProblem")

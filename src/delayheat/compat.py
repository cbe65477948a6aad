"""Admissibility screens for problem data.

Two kinds of checks with different severities:

* **Hard**: the initial value must meet the boundary traces (corner
  compatibility).  Violations make the mixed problem ill-posed in the
  classical sense: solving is refused and the advisory screens do not run.

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

all decay.  Without a delay, the initial offset's sine coefficients must
decay at rate ``NODELAY_RATE`` less ``fit_slack``, or faster than any power.

Both kinds run one flow (:func:`check_problem`): the boundary check, then,
when it passes, the decay entries on at least ``DECAY_MIN_MODES`` modes and
the endpoint rows.  Every decay entry is judged by one rule
(:func:`_fit_sequence`): an identically zero sequence passes, a tail at the
numerical floor passes (finitely many active modes), fewer than 8 entries
above the floor is unverifiable, and otherwise the kind's verdict judges
the fitted log-log slope.  A delay entry passes when its weighted sequence
decays at a rate of at least ``fit_slack``.  The settings are one
:class:`CheckSettings` record, which checks itself when built.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (
    DomainError,
    InputError,
    InsufficientDataError,
    UnsupportedOperationError,
)
from .heat_delay import DelayHeatProblem, build_modes, reduce_delay, steps_covered
from .heat_nodelay import HeatProblem, _initial_coefficients, reduce_problem
from .quadrature import QuadratureConfig
from .spectral import FLOOR_REL, EigenBasis, decay_fit

# Sample times per time window of the boundary and endpoint checks.
SAMPLES = 65
# The decay proxies fit a tail: with fewer modes they mean nothing.
DECAY_MIN_MODES = 16
# The no-delay proxy's H^4-type class: rate 2 m + 1/2 with m = 2 covered steps.
NODELAY_RATE = 4.5


@dataclass(frozen=True)
class CheckSettings:
    """The gate's settings, checked when built: the delay intervals ``m``
    the delay screens assume (None: ceil(T / tau)), the margin ``delta`` of
    their weight powers, the decay verdicts' margin ``fit_slack`` and the
    largest boundary or endpoint residual ``tol``.

    ``fit_slack`` has opposite senses in the two kinds: a delay entry passes
    when its fitted log-log slope is at most -fit_slack (raising it is
    stricter), the no-delay entry when the coefficients' rate is at least
    NODELAY_RATE - fit_slack (raising it is laxer).  So has ``exponent``: a
    delay entry's weight power, the no-delay entry's rate to reach.
    """

    m: int = None
    delta: float = 0.5
    fit_slack: float = 0.25
    tol: float = 1e-8

    def __post_init__(self):
        # JSON's Infinity and NaN literals would empty the gate they set.
        for key in ("delta", "fit_slack", "tol"):
            if not math.isfinite(getattr(self, key)):
                raise InputError(f"check {key} must be finite")
        if self.fit_slack < 0.0:
            raise InputError("check fit_slack must be non-negative")
        if self.tol <= 0.0:
            raise InputError("check tol must be positive")
        if self.m is not None and self.m < 1:
            raise InputError(f"check m must be null or at least 1, got {self.m}")


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
        """None when the hard check failed: the advisory screens did not run."""
        if self.hard_pass:
            return all(entry.get("status") != "fail" for entry in self.decay)

    def to_dict(self):
        return {**asdict(self), "hard_pass": self.hard_pass,
                "advisory_pass": self.advisory_pass}


def check_compatibility(p, tol=CheckSettings.tol):
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


def _fit_sequence(name, exponent, seq, verdict):
    """The decay entry of the non-negative ``seq``, by the module's one rule;
    ``verdict`` judges its :func:`~delayheat.spectral.decay_fit` and is
    false (fail), true (pass) or a string (a pass with that detail)."""
    seq = np.asarray(seq, dtype=float)
    top = float(seq.max(initial=0.0))
    entry = {"name": name, "exponent": exponent, "slope": None,
             "window": None, "status": None}
    if top == 0.0:
        entry["status"] = "pass"
        entry["detail"] = "sequence is identically zero"
        return entry
    floor = top * FLOOR_REL
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
    fit = decay_fit(seq)
    passed = verdict(fit)
    # The log-log slope: the fit's rate negated.
    entry["slope"] = -fit.slope
    entry["window"] = list(fit.window)
    entry["status"] = "pass" if passed else "fail"
    if isinstance(passed, str):
        entry["detail"] = passed
    return entry


def _delay_verdict(fit_slack):
    """A weighted delay sequence passes at a rate of at least ``fit_slack``."""
    return lambda fit: fit.slope >= fit_slack


def _nodelay_verdict(fit_slack):
    """No-delay coefficients pass at the class rate less ``fit_slack``, or
    when they decay faster than any power (with that detail)."""
    return lambda fit: ("super-polynomial decay" if fit.super_polynomial
                        else fit.slope >= NODELAY_RATE - fit_slack)


def _floor_small(arr):
    """Zero entries that sit at projection-noise level relative to the
    family's largest entry, so the n-power weights cannot amplify noise
    into a fake non-decaying tail."""
    arr = np.asarray(arr, dtype=float).copy()
    top = float(arr.max(initial=0.0))
    if top > 0.0:
        arr[arr <= FLOOR_REL * top] = 0.0
    return arr


def check_decay_conditions(ms, m=None, delta=CheckSettings.delta,
                           fit_slack=CheckSettings.fit_slack):
    """Advisory decay proxies on the projected coefficient paths.

    Needs at least ``DECAY_MIN_MODES`` modes for the tail fits.
    """
    if ms.basis.n_modes < DECAY_MIN_MODES:
        raise InsufficientDataError(
            f"decay proxies need at least {DECAY_MIN_MODES} modes, "
            f"got {ms.basis.n_modes}")
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

    verdict = _delay_verdict(fit_slack)
    return [
        _fit_sequence("history_endpoint_decay", 2 * m + 3 + delta, seq1, verdict),
        _fit_sequence("history_path_decay", 2 * m + 1 + delta, seq2, verdict),
        _fit_sequence("forcing_path_decay", 2 * m - 1 + delta, seq3, verdict),
    ]


def _row_checks(spec, row, xs, ts, tol):
    """Endpoint checks of one row of partial derivatives of ``spec``.

    ``row`` lists (name, (i, j)) entries by increasing order; an entry is
    max |d^(i + j) spec / dx^i dt^j| over the sample product.  Every entry is
    read off one jet of the row's top order.  An entry whose partial needs a
    derivative a sampled table cannot supply is 'unverifiable' (a partial
    that vanishes identically needs none); so is the top entry when the jet
    leaves the function's domain.  The row then shrinks by that entry and is
    evaluated again, because a lower order may still stay inside the domain.
    """
    checks, live = {}, list(row)
    while live:
        orders = [order for _, order in live]
        try:
            values = spec.partials(xs, ts, orders)
        except (UnsupportedOperationError, DomainError) as exc:
            lacking = isinstance(exc, UnsupportedOperationError)
            name = live.pop(orders.index(exc.order) if lacking else -1)[0]
            checks[name] = {"name": name, "residual": None, "tol": tol,
                            "status": "unverifiable", "detail": str(exc)}
            continue
        for (name, _), value in zip(live, values):
            residual = float(np.max(np.abs(value)))
            checks[name] = {"name": name, "residual": residual, "tol": tol,
                            "status": "pass" if residual <= tol else "fail"}
        break
    return [checks[name] for name, _ in row]


def check_endpoint_conditions(p, m=None, tol=CheckSettings.tol):
    """Endpoint identities behind the classical-solvability statement.

    All conditions are phrased on the reduced homogeneous-boundary data
    (initial offset Phi and forcing F): trace values and even x-derivatives
    must vanish at both ends, at decreasing time-derivative depth as the
    spatial order grows.  Conditions needing a derivative that a sampled
    table cannot supply are reported as unverifiable, not failed.
    Each kind names its rows (one time-derivative depth each) and the times
    of Phi; every row is then evaluated at both ends at once, from one jet
    of the row's highest order, Phi's rows before F's.
    """
    if isinstance(p, DelayHeatProblem):
        rp = reduce_delay(p)
        if m is None:
            m = steps_covered(p.horizon, p.tau)
        initial_ts = np.linspace(-p.tau, 0.0, SAMPLES)[None, :]
        initial_rows = [[("initial_trace", (0, 0))]] + [
            [(f"initial_x{2 * j}_t{k}", (2 * j, k)) for j in range(1, m + 2 - k + 1)]
            for k in range(3)]
        forcing_rows = [
            [(f"forcing_x{2 * j}_t{depth}", (2 * j, depth)) for j in range(count)]
            for depth, count in ((0, m + 1), (1, m))]
    elif isinstance(p, HeatProblem):
        rp = reduce_problem(p)
        initial_ts = np.zeros((1, 1))
        initial_rows = [[("initial_trace", (0, 0))]]
        forcing_rows = [[("forcing_trace", (0, 0)), ("forcing_x2_t0", (2, 0))]]
    else:
        raise InputError("expected a HeatProblem or DelayHeatProblem")
    ends = np.array([0.0, p.length])[:, None]
    forcing_ts = np.linspace(0.0, p.horizon, SAMPLES)[None, :]
    rows = ([(rp.shifted_initial, initial_ts, row) for row in initial_rows]
            + [(rp.forcing, forcing_ts, row) for row in forcing_rows])
    return [check for spec, ts, row in rows
            for check in _row_checks(spec, row, ends, ts, tol)]


def check_problem(p, basis=None, quad=QuadratureConfig(), check=CheckSettings()):
    """Assemble the full :class:`CompatReport` for a problem under the
    settings ``check``, in one flow for both kinds.  The hard check comes
    first: a rejected problem gets its verdict alone (and, delayed, m and
    delta), with no reduction, projection or fit that could hide it.  The
    decay entries are then fitted on at least ``DECAY_MIN_MODES`` modes
    (more than the solve uses is always sound), the endpoint rows last."""
    boundary = check_compatibility(p, tol=check.tol)
    delayed = isinstance(p, DelayHeatProblem)
    m = (check.m or steps_covered(p.horizon, p.tau)) if delayed else None
    report = CompatReport(problem_kind="delay" if delayed else "nodelay",
                          boundary=boundary, m=m,
                          delta=check.delta if delayed else None)
    if not report.hard_pass:
        return report
    n_modes = 64 if basis is None else basis.n_modes
    basis = EigenBasis(p.length, max(DECAY_MIN_MODES, n_modes))
    if delayed:
        report.decay = check_decay_conditions(
            build_modes(reduce_delay(p), basis, quad), m=m, delta=check.delta,
            fit_slack=check.fit_slack)
    else:
        initial = _initial_coefficients(reduce_problem(p), basis, quad)
        report.decay = [_fit_sequence("initial_coefficient_decay", NODELAY_RATE,
                                      np.abs(initial),
                                      _nodelay_verdict(check.fit_slack))]
    report.endpoint = check_endpoint_conditions(p, m=m, tol=check.tol)
    return report

"""Independent method-of-steps integrator for scalar delay ODEs.

Solves x'(t) = a x(t) + b x(t - tau) + rho(t) on [0, T] with a prescribed
history on [-tau, 0], one delay interval at a time: on [k tau, (k+1) tau] the
lagged term is known data (history or the previous interval's dense output),
so each step is a plain ODE integrated with scipy's solve_ivp.

This is a test oracle.  It deliberately shares no code with the library's
closed-form evaluator; only numpy/scipy are used.
"""

import numpy as np
from scipy.integrate import solve_ivp


def dde_steps(a, b, tau, history, t_eval, rho=None, rtol=1e-12, atol=1e-14,
              method="DOP853"):
    """Values of the solution at ``t_eval`` (entries in [-tau, T])."""
    t_arr = np.asarray(t_eval, dtype=float)
    scalar = t_arr.ndim == 0
    t_eval = np.atleast_1d(t_arr)
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    horizon = float(t_eval.max(initial=0.0))
    segments = []  # (lo, hi, dense-output callable)

    def past(s):
        if s <= 0.0:
            return float(history(s))
        for lo, hi, dense in segments:
            if lo - 1e-12 <= s <= hi + 1e-12:
                return float(dense(min(max(s, lo), hi))[0])
        raise RuntimeError(f"lagged time {s} not covered yet")

    def rhs(t, y):
        value = a * y[0] + b * past(t - tau)
        if rho is not None:
            value += float(rho(t))
        return [value]

    x_now = float(history(0.0))
    n_intervals = int(np.ceil(horizon / tau - 1e-12))
    for k in range(max(n_intervals, 0)):
        lo = k * tau
        hi = min((k + 1) * tau, horizon)
        sol = solve_ivp(rhs, (lo, hi), [x_now], method=method,
                        dense_output=True, rtol=rtol, atol=atol,
                        max_step=tau / 4)
        if not sol.success:
            raise RuntimeError(f"integration failed on [{lo}, {hi}]: {sol.message}")
        segments.append((lo, hi, sol.sol))
        x_now = float(sol.y[0, -1])

    out = np.empty(t_eval.size)
    for i, s in enumerate(t_eval):
        out[i] = past(float(s))
    return float(out[0]) if scalar else out


def dde_steps_exact(a, b, tau, history_poly, t_eval, rho_poly=(), dps=50):
    """Method of steps in exact arithmetic for polynomial history and forcing.

    ``history_poly`` and ``rho_poly`` are ascending coefficient lists of
    beta(s) on [-tau, 0] and rho(t).  On every delay interval the solution has
    the form A(u) + B(u) exp(a u), u = t - k tau, with polynomials A and B;
    each step integrates y' = a y + b x(t - tau) + rho in closed form:

        y = P(u) + (y(0) - P(0) + integral_0^u b B_prev) exp(a u),
        P = -sum_i (b A_prev + rho)^{(i)} / a^{i+1}.

    Coefficients are mpmath numbers at ``dps`` digits, so the reference is
    sharper than any float64 evaluation.  Needs a != 0.
    """
    import mpmath

    with mpmath.workdps(dps):
        a_, b_, tau_ = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(tau)
        if a_ == 0:
            raise ValueError("dde_steps_exact needs a nonzero rate a")

        def shift(coeffs, h):
            """Coefficients of p(u + h) from those of p(u)."""
            out = [mpmath.mpf(0)] * len(coeffs)
            for i, c in enumerate(coeffs):
                for j in range(i + 1):
                    out[j] += mpmath.mpf(c) * mpmath.binomial(i, j) * h ** (i - j)
            return out

        def add(p, q):
            n = max(len(p), len(q))
            p = list(p) + [mpmath.mpf(0)] * (n - len(p))
            q = list(q) + [mpmath.mpf(0)] * (n - len(q))
            return [x + y for x, y in zip(p, q)]

        def deriv(p):
            return [i * c for i, c in enumerate(p)][1:]

        def integral(p):
            return [mpmath.mpf(0)] + [c / (i + 1) for i, c in enumerate(p)]

        def value(p, u):
            return mpmath.polyval(list(reversed(p)), u) if p else mpmath.mpf(0)

        # Interval -1 is the history, written in u = s + tau.
        pieces = [(shift([mpmath.mpf(c) for c in history_poly], -tau_), [])]
        t_arr = np.atleast_1d(np.asarray(t_eval, dtype=float))
        horizon = mpmath.mpf(float(t_arr.max(initial=0.0)))
        k = 0
        while k * tau_ < horizon:
            A, B = pieces[-1]
            y0 = value(A, tau_) + value(B, tau_) * mpmath.exp(a_ * tau_)
            f = add([b_ * c for c in A], shift(list(rho_poly), k * tau_))
            P, term = [mpmath.mpf(0)] * len(f), f
            for i in range(len(f)):
                P = add(P, [-c / a_ ** (i + 1) for c in term])
                term = deriv(term)
            B_next = add([y0 - value(P, 0)], integral([b_ * c for c in B]))
            pieces.append((P, B_next))
            k += 1

        out = []
        for t in t_arr:
            t_mp = mpmath.mpf(float(t))
            idx = max(int(mpmath.floor(t_mp / tau_)), -1)
            if idx >= 0 and idx * tau_ == t_mp:
                idx -= 1  # a knot: use the interval that ends there
            idx = min(idx, len(pieces) - 2)
            A, B = pieces[idx + 1]
            u = t_mp - idx * tau_
            out.append(float(value(A, u) + value(B, u) * mpmath.exp(a_ * u)))
        return np.array(out)

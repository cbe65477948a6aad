"""Seeded run-config generator for the benchmark workloads.

``generate(workload, seed)`` returns a list of ``(name, json_text)`` pairs.
The same (workload, seed) always gives byte-identical text: all randomness
comes from one ``random.Random`` seeded from the pair, and every drawn number
is rounded to six decimals before it is written.

The structural choices that set how much work an op does (delay, horizon in
delay intervals, whether the forcing term is present, the sign pattern of the
expressions) follow a fixed design per op index; the seed draws the
coefficients, the magnitudes and the sine mode numbers.
That keeps the cost of a run close across seeds while every seed still gives
different problems.  No draw is rejected or redrawn.
"""

from __future__ import annotations

import json
import math
import os
import random

WORKLOADS = ("delay_compare", "delay_check", "nodelay_field")

# (tau, horizon / tau, forced) per op index: every (tau, horizon) cell
# twice, with the forcing term left out in two of the eight.
_DELAY_COMPARE_DESIGN = (
    (0.25, 2, True), (0.25, 3, True), (0.5, 2, True), (0.5, 3, True),
    (0.25, 2, False), (0.25, 3, True), (0.5, 2, True), (0.5, 3, False),
)
_DELAY_CHECK_DESIGN = (
    (0.25, 3, True), (0.25, 4, True), (0.5, 3, True), (0.5, 4, True),
    (0.25, 3, False), (0.25, 4, True), (0.5, 3, True), (0.5, 4, False),
)
_NODELAY_OPS = 4


def _r(value):
    """Round to six decimals; ``+ 0.0`` turns -0.0 into 0.0."""
    return round(value, 6) + 0.0


def _num(rng, lo, hi):
    """A magnitude drawn from [lo, hi], formatted for an expression string.

    Expression constants are positive and their signs are fixed by position:
    the simplifier folds signs and unit factors, so random signs or a mode
    number of 1 would change the size of the derivative trees, and with it
    the cost of the compat checks, from seed to seed."""
    return repr(_r(rng.uniform(lo, hi)))


def _linear(rng, lo, hi, op):
    """``c0 op c1*t`` with both magnitudes drawn from [lo, hi]."""
    return f"{_num(rng, lo, hi)} {op} {_num(rng, lo, hi)}*t"


def _modes(rng):
    """Three distinct sine mode numbers from 2..7, ascending."""
    return sorted(rng.sample(range(2, 8), 3))


def _delay_problem(rng, tau, steps, forced):
    length = math.pi
    a1 = _r(rng.uniform(0.8, 1.2))
    a2 = _r(rng.uniform(0.2, 0.5))
    b1 = _r(rng.uniform(-0.5, 0.5))
    # Proportional drift pair, so the drift-removing weight exists; b2 comes
    # from the rounded values so that b1*a2^2 == b2*a1^2 holds to rounding.
    b2 = b1 * a2**2 / a1**2
    d1 = _r(rng.uniform(-0.5, 0.2))
    d2 = _r(rng.uniform(-0.6, -0.1))
    left = _linear(rng, 0.25, 0.5, "+")
    right = _linear(rng, 0.25, 0.5, "-")
    # Initial segment = linear trace lift + sines with amplitudes linear in t;
    # it meets both traces on [-tau, 0] exactly, so the hard check passes.
    lift = f"({left}) + (x/l)*(({right}) - ({left}))"
    sines = " + ".join(
        f"({_linear(rng, 0.5, 1.0, op)})*sin({k}*x)"
        for op, k in zip("+-+", _modes(rng))
    )
    if forced:
        source = (f"{_num(rng, 0.5, 2.0)}*x*(l - x)"
                  f"*cos({_num(rng, 1.0, 4.0)}*t)")
    else:
        source = "0"
    return {
        "kind": "delay",
        "diffusion": a1,
        "diffusion_lag": a2,
        "drift": b1,
        "drift_lag": b2,
        "reaction": d1,
        "reaction_lag": d2,
        "delay": tau,
        "length": length,
        "horizon": tau * steps,
        "source": source,
        "initial": f"{lift} + {sines}",
        "trace_left": left,
        "trace_right": right,
    }


def _delay_configs(rng, design, solver):
    return [{"problem": _delay_problem(rng, tau, steps, forced),
             "solver": dict(solver)}
            for tau, steps, forced in design]


def _nodelay_configs(rng):
    out = []
    for _ in range(_NODELAY_OPS):
        a, b, c = (_num(rng, 0.5, 1.0) for _ in range(3))
        k1, k2, k3 = _modes(rng)
        initial = (f"{a}*sin({k1}*pi*x/l) - {b}*sin({k2}*pi*x/l) "
                   f"+ {c}*sin({k3}*pi*x/l) + {_num(rng, 0.5, 2.0)}*x*(l - x)")
        source = (f"{_num(rng, 0.5, 2.0)}*x*(l - x)"
                  f"*cos({_num(rng, 1.0, 4.0)}*t)")
        out.append({
            "problem": {
                "kind": "nodelay",
                "diffusion": _r(rng.uniform(0.8, 1.2)),
                "drift": _r(rng.uniform(-0.5, 0.5)),
                "reaction": _r(rng.uniform(-0.5, 0.5)),
                "length": _r(rng.uniform(2.5, 3.5)),
                "horizon": 0.5,
                "source": source,
                "initial": initial,
                "trace_left": 0,
                "trace_right": 0,
            },
            "solver": {"modes": 16, "nx": 800, "nt": 400},
        })
    return out


def generate(workload, seed):
    """Return ``[(name, json_text), ...]`` for ``workload`` and ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{int(seed)}")
    if workload == "delay_compare":
        cfgs = _delay_configs(rng, _DELAY_COMPARE_DESIGN,
                              {"modes": 32, "nx": 200, "nt_per_tau": 16})
    elif workload == "delay_check":
        cfgs = _delay_configs(rng, _DELAY_CHECK_DESIGN,
                              {"modes": 64, "nx": 200, "nt_per_tau": 32})
    else:
        cfgs = _nodelay_configs(rng)
    return [(f"{workload}_{i}.json", json.dumps(cfg, indent=2, sort_keys=True) + "\n")
            for i, cfg in enumerate(cfgs)]


def warmup_config(workload):
    """A small fixed config of the workload's problem kind, for warm-up ops."""
    if workload == "nodelay_field":
        problem = {
            "kind": "nodelay", "diffusion": 1.0, "drift": 0.2, "reaction": 0.1,
            "length": 3.0, "horizon": 0.25, "source": "x*(l - x)*cos(2*t)",
            "initial": "sin(pi*x/l) + x*(l - x)", "trace_left": 0,
            "trace_right": 0,
        }
        solver = {"modes": 16, "nx": 20, "nt": 10}
    else:
        problem = {
            "kind": "delay", "diffusion": 1.0, "diffusion_lag": 0.3,
            "drift": 0.0, "drift_lag": 0.0, "reaction": 0.0,
            "reaction_lag": -0.5, "delay": 0.5, "length": math.pi,
            "horizon": 0.5, "source": "x*(l - x)*cos(2*t)",
            "initial": "(1 + t) + (x/l)*((t) - (1 + t)) + sin(x)",
            "trace_left": "1 + t", "trace_right": "t",
        }
        solver = {"modes": 16, "nx": 20, "nt_per_tau": 4}
    return json.dumps({"problem": problem, "solver": solver},
                      indent=2, sort_keys=True) + "\n"


# What a user types for each workload; paths are appended per op.
COMMANDS = {
    "delay_compare": ["compare", "--override-advisory"],
    "delay_check": ["check"],
    "nodelay_field": ["solve", "--override-advisory"],
}
WRITES_FIELD = {"delay_compare": True, "delay_check": False,
                "nodelay_field": True}


def op_argv(workload, config, report, field=None):
    """The argv of one op: the workload's command on one config."""
    argv = COMMANDS[workload] + ["--config", config, "--out-report", report]
    if WRITES_FIELD[workload]:
        argv += ["--out-field", field]
    return argv


def warmup_argv(workload, config, workdir):
    return op_argv(workload, config, os.path.join(workdir, "warmup_report.json"),
                   os.path.join(workdir, "warmup_field.csv"))

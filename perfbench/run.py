"""Seeded end-to-end benchmark of the ``delayheat`` command line.

    python3 perfbench/run.py --workload delay_compare --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each workload is a closed loop with one client: serial in-process calls of
``delayheat.cli.main(argv)`` with exactly the argv a user would type, on run
configs generated from the seed (see ``gen.py``).  Ops cycle through the
seed's configs until ``--seconds`` is spent, after at least one full pass.
Every op's output is checked off the clock.  ``--trace 1`` runs each op
untraced and then under the per-layer tracer (``layers.py``), back to back.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md in this directory for the metrics and why each workload exists.
"""

from __future__ import annotations

import os

# Load and thread settings, fixed before numpy is imported anywhere: the
# program's own worker pool stays at its default of one, BLAS is capped at
# the CPUs this process may use.
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
    else os.cpu_count()
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = str(NPROC)
os.environ.pop("RETARD_HEAT_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import gen  # noqa: E402
import numpy as np  # noqa: E402

SETUP_PROBES = 5
# End-to-end times are rescaled to a reference machine speed.  The speed is
# sampled next to every timed op with a fixed CPU kernel (``calibration``);
# on a shared host it drifts by about 20 % over minutes, which raw wall
# times carry into every run and which this rescaling removes.  The constant
# is the kernel's median time on the 2-core machine the baseline was taken
# on, so rescaled figures read as seconds on that machine.
CAL_REF_S = 0.022
# sup |series - FD| may be at most CN_FACTOR times CN's own refinement
# difference |CN(nx, m) - CN(2nx, 2m)|, plus the series truncation bound
# where the data have a tail beyond the solved modes.  For a second-order
# scheme the error of CN(nx, m) is about 4/3 of that difference, so the
# factor leaves a margin of three.
CN_FACTOR = 4.0
# Exact counters that must repeat across repeats of one config.
EXACT_COUNTERS = ("kernel.points", "quad.points", "quad.levels", "modal.calls",
                  "fd.steps", "field.csv_bytes")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

# (metric, unit, source key in the tracer's figures or None if derived)
PER_LAYER = (
    ("cli.self_s", "s", "op.self_s"),
    ("cli.report_bytes", "bytes", None),
    ("config.load_s", "s", "config.load.total_s"),
    ("funcspec.parse_s", "s", "funcspec.parse.s"),
    ("funcspec.diff_calls", "count", "funcspec.diff.calls"),
    ("funcspec.diff_s", "s", "funcspec.diff.s"),
    ("funcspec.eval_calls", "count", "funcspec.eval.calls"),
    ("funcspec.eval_points", "count", "funcspec.eval.points"),
    ("funcspec.eval_s", "s", "funcspec.eval.s"),
    ("compat.s", "s", "compat.total_s"),
    ("compat.endpoint_s", "s", "compat.endpoint.total_s"),
    ("compat.decay_s", "s", "compat.decay.total_s"),
    ("compat.endpoint_checks", "count", "compat.endpoint_checks"),
    ("compat.unverifiable", "count", "compat.unverifiable"),
    ("reduce.s", "s", "reduce.total_s"),
    ("project.s", "s", "project.total_s"),
    ("modal.evals", "count", "modal.calls"),
    ("modal.s", "s", "modal.total_s"),
    ("solve.self_s", "s", "solve.self_s"),
    ("kernel.calls", "count", "kernel.calls"),
    ("kernel.points", "count", "kernel.points"),
    ("kernel.s", "s", "kernel.s"),
    ("quad.calls", "count", "quad.calls"),
    ("quad.levels", "count", "quad.levels"),
    ("quad.points", "count", "quad.points"),
    ("quad.failures", "count", "quad.failures"),
    ("quad.s", "s", "quad.s"),
    ("quad.levels_per_call", "ratio", None),
    ("parallel.items", "count", "parallel.items"),
    ("parallel.workers", "count", "parallel.workers"),
    ("fd.s", "s", "fd.total_s"),
    ("fd.steps", "count", "fd.steps"),
    ("field.csv_s", "s", "field.csv.total_s"),
    ("field.csv_rows", "count", "field.csv_rows"),
    ("field.csv_bytes", "bytes", "field.csv_bytes"),
    ("field.diff_s", "s", "field.diff.total_s"),
    ("trace.overhead_s", "s", None),
    ("trace.accounted_share", "ratio", None),
)
# The disjoint spans whose self times partition one op.
PARTITION = ("cli.self_s", "config.load_s", "compat.s", "reduce.s", "project.s",
             "modal.s", "solve.self_s", "fd.s", "field.csv_s", "field.diff_s")


def calibration():
    """One timing of a fixed CPU kernel with the mix the ops spend their time
    in: interpreter arithmetic, float formatting and small numpy calls."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(60000):
        acc += (i % 13) * 0.5
    [f"{v:.17g}" for v in np.linspace(0.0, 1.0, 6000)]
    a = np.linspace(0.0, 1.0, 64)
    for _ in range(1500):
        a = np.exp(-a) * 0.9 + 0.01
    return time.perf_counter() - start


def speed_samples():
    """Three calibration timings, taken off the clock."""
    return [calibration() for _ in range(3)]


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def stamp(seed):
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src = hashlib.sha256()
    pkg = os.path.join(SRC, "delayheat")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            src.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as handle:
                src.update(handle.read())
    return {
        "seed": seed,
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "RETARD_HEAT_THREADS": os.environ.get("RETARD_HEAT_THREADS"),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


class Workload:
    """One workload's configs, ops and checks inside a private work dir."""

    def __init__(self, name, seed, workdir):
        import delayheat.cli
        from delayheat.config import load_config

        self.name = name
        self.workdir = workdir
        self.cli = delayheat.cli
        self.paths = {}
        self.configs = {}
        for cfg_name, text in gen.generate(name, seed):
            path = os.path.join(workdir, cfg_name)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            self.paths[cfg_name] = path
            self.configs[cfg_name] = load_config(path)
        self.names = list(self.paths)
        self.first = {}  # config -> first op record, kept for checking
        self.count = 0

    def warm_up(self):
        path = os.path.join(self.workdir, "warmup.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(gen.warmup_config(self.name))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            self.cli.main(gen.warmup_argv(self.name, path, self.workdir))

    def run_op(self, cfg_name, tracer=None):
        """One timed CLI call.  The speed samples around it and the digests of
        the outputs after it are taken off the clock."""
        i = self.count
        self.count += 1
        report = os.path.join(self.workdir, f"report_{i}.json")
        field = os.path.join(self.workdir, f"field_{i}.csv")
        argv = gen.op_argv(self.name, self.paths[cfg_name], report, field)
        rec = {"config": cfg_name, "error": None, "trace": None, "cal": None}
        before = speed_samples() if tracer is None else None
        err = io.StringIO()
        if tracer is not None:
            tracer.install()
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                start = time.perf_counter()
                try:
                    rec["code"] = self.cli.main(argv)
                except Exception as exc:  # an op that crashes is a failed op
                    rec["code"] = None
                    rec["error"] = f"{type(exc).__name__}: {exc}"
                rec["seconds"] = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
                rec["trace"] = tracer.take()
        if before is not None:
            rec["cal"] = statistics.median(before + speed_samples())
        rec["stderr"] = err.getvalue()[-500:]
        rec["report"] = None
        if os.path.exists(report):
            with open(report, "rb") as handle:
                rec["report"] = handle.read()
        rec["field_sha"] = None
        if os.path.exists(field):
            rec["field_sha"] = sha256_file(field)
            rec["field"] = field
        first = self.first.setdefault(cfg_name, rec)
        if (first is not rec and rec["field_sha"] is not None
                and rec["field_sha"] == first["field_sha"]):
            os.remove(field)
        return rec

    def run_ops(self, budget, tracer=None):
        """Closed loop: cycle through the configs until ``budget`` seconds are
        spent, never starting an op expected to overrun it after the first
        full pass.  With a tracer, each config runs untraced and then traced,
        back to back, so that both see the same machine state."""
        modes = (None,) if tracer is None else (None, tracer)
        ops = []
        spent = {name: [] for name in self.names}
        start = time.perf_counter()
        for k in itertools.count():
            name = self.names[k % len(self.names)]
            if k >= len(self.names):
                expected = statistics.median(spent[name])
                if time.perf_counter() - start + expected > budget:
                    break
            recs = [self.run_op(name, mode) for mode in modes]
            ops.extend(recs)
            spent[name].append(sum(rec["seconds"] for rec in recs))
        return ops

    # -- correctness, off the clock ---------------------------------------

    def reference(self, cfg_name):
        """FD oracle on the op's grid, and the sup tolerance for the op."""
        import numpy as np
        from delayheat.oracle_fd import FdConfig, fd_solve_delay, fd_solve_nodelay

        cfg = self.configs[cfg_name]
        s = cfg.solver
        if cfg.kind == "delay":
            fine_cfg = FdConfig(nx=2 * s.nx, nt_per_tau=2 * s.nt_per_tau)
            coarse = fd_solve_delay(cfg.problem, FdConfig(nx=s.nx, nt_per_tau=s.nt_per_tau))
            fine = fd_solve_delay(cfg.problem, fine_cfg)
            tail = 0.0
        else:
            coarse = fd_solve_nodelay(cfg.problem, FdConfig(nx=s.nx, nt=s.nt))
            fine = fd_solve_nodelay(cfg.problem, FdConfig(nx=2 * s.nx, nt=2 * s.nt))
            tail = nodelay_tail_bound(cfg.problem, s.modes)
        refinement = float(np.max(np.abs(coarse.v - fine.v[::2, ::2])))
        return coarse, refinement, tail, CN_FACTOR * refinement + tail

    def check(self, ops):
        """Return (problems per op, sup |series - FD| and tolerance per config)."""
        import numpy as np

        sups, verdicts, refs = {}, [], {}
        for rec in ops:
            name = rec["config"]
            first = self.first[name]
            problems = []
            report = None
            if rec["error"]:
                problems.append(rec["error"])
            try:
                report = json.loads(rec["report"])
            except (TypeError, ValueError):
                problems.append("report missing or not JSON")
            if report is not None:
                compat = report.get("compat", {})
                if compat.get("hard_pass") is not True:
                    problems.append("hard_pass is not true")
                if self.name == "delay_check":
                    want = 0 if compat.get("advisory_pass") else 3
                    if rec["report"] != first["report"]:
                        problems.append("report bytes differ from the first run")
                else:
                    want = 0
                if rec["code"] != want:
                    problems.append(f"exit code {rec['code']}, expected {want}")
            if gen.WRITES_FIELD[self.name]:
                if rec["field_sha"] is None:
                    problems.append("no field written")
                elif rec["field_sha"] != first["field_sha"]:
                    problems.append("field bytes differ from the first run")
                elif name not in sups and report is not None:
                    if name not in refs:
                        refs[name] = self.reference(name)
                    oracle, refinement, tail, tol = refs[name]
                    try:
                        v = read_field(first["field"], oracle)
                    except ValueError as exc:
                        problems.append(f"field unreadable: {exc}")
                        verdicts.append(problems)
                        continue
                    sup = float(np.max(np.abs(v - oracle.v)))
                    sups[name] = {"sup": sup, "tol": tol, "refinement": refinement,
                                  "tail": tail, "cells": v.size}
                    if self.name == "delay_compare":
                        said = report.get("difference", {}).get("sup")
                        if said is None or abs(said - sup) > 1e-12 * max(1.0, sup):
                            problems.append(
                                f"report sup {said!r} != field sup {sup!r}")
                if name in sups and not sups[name]["sup"] <= sups[name]["tol"]:
                    problems.append(
                        f"sup |series - FD| {sups[name]['sup']:.3e} > tol "
                        f"{sups[name]['tol']:.3e}")
            verdicts.append(problems)
        return verdicts, sups


def nodelay_tail_bound(p, n_modes):
    """Upper bound on sup |v| of the data's sine tail beyond ``n_modes``.

    In the reduced frame u = exp(-mu x - gamma t) v (zero traces, so no
    lift), the series drops sum_{n>N} Phi_n exp(-lambda_n t) sin(n pi x/l)
    from the initial data and, from the forcing, at most
    sup_t |F_n| min(T, 1/lambda_n) per mode.  Both are bounded by coefficient
    sums from a 512-mode projection on a fine grid, mapped back through the
    largest weight exp(mu x + gamma t).
    """
    import numpy as np

    length, horizon = p.length, p.horizon
    mu = -p.b / (2.0 * p.a**2)
    gamma = p.c - (p.b / (2.0 * p.a)) ** 2
    x = np.linspace(0.0, length, 4097)
    n = np.arange(1, 513)
    sines = np.sin(np.outer(n, np.pi * x / length))

    def coeffs(values):
        return (2.0 / length) * np.trapezoid(sines * values, x, axis=-1)

    phi = np.exp(-mu * x) * np.asarray(p.psi(x, 0.0), dtype=float)
    tail_initial = float(np.sum(np.abs(coeffs(phi)[n_modes:])))
    ts = np.linspace(0.0, horizon, 33)
    forcing = np.array([
        coeffs(np.exp(-mu * x - gamma * tj) * np.asarray(p.g(x, tj), dtype=float))
        for tj in ts])
    rates = (np.pi * n * p.a / length) ** 2
    per_mode = np.max(np.abs(forcing), axis=0) * np.minimum(horizon, 1.0 / rates)
    tail_forcing = float(np.sum(per_mode[n_modes:]))
    weight = np.exp(max(mu * length, 0.0) + max(gamma * horizon, 0.0))
    return weight * (tail_initial + tail_forcing)


def read_field(path, oracle):
    """v from a field CSV written on the oracle's grid (checks the grid)."""
    import numpy as np

    with open(path, encoding="utf-8") as handle:
        ncol = handle.readline().count(",") + 1
        values = np.array(handle.read().replace("\n", ",").split(",")[:-1],
                          dtype=float)
    data = values.reshape(-1, ncol)
    nt1, nx1 = oracle.v.shape
    if data.shape[0] != nt1 * nx1:
        raise ValueError(f"{path}: {data.shape[0]} rows, expected {nt1 * nx1}")
    if (np.max(np.abs(data[:, 0] - np.tile(oracle.x, nt1))) > 1e-12
            or np.max(np.abs(data[:, 1] - np.repeat(oracle.t, nx1))) > 1e-12):
        raise ValueError(f"{path}: grid differs from the oracle's")
    return data[:, 2].reshape(nt1, nx1)


def measure_setup(workload, seed, workdir):
    """Median wall time of fresh-interpreter set-ups, the speed samples taken
    before them, and the median of their parts."""
    walls, cals, parts = [], [], []
    env = dict(os.environ, PYTHONPATH=SRC)
    for k in range(SETUP_PROBES):
        probe_dir = os.path.join(workdir, f"setup_{k}")
        os.makedirs(probe_dir)
        cals += speed_samples()
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload,
             str(seed), probe_dir],
            env=env, capture_output=True, text=True, timeout=120)
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-2000:]}")
        parts.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    median_parts = {key: statistics.median(p[key] for p in parts)
                    for key in ("import_s", "configs_s", "warmup_s")}
    return statistics.median(walls), cals, median_parts


def pass_seconds(ops, key="seconds"):
    """One pass: the sum over configs of each config's median op time."""
    values = {}
    for rec in ops:
        values.setdefault(rec["config"], []).append(rec[key])
    return sum(statistics.median(v) for v in values.values())


def layer_metrics(untraced, traced, report_bytes):
    """Per-layer figures for one pass: per config, exact counters must repeat
    and times are medians; the pass figure sums over configs."""
    by_config = {}
    for rec in traced:
        by_config.setdefault(rec["config"], []).append(rec["trace"])
    mismatches = []
    summed = {}
    for name, runs in by_config.items():
        for key in EXACT_COUNTERS:
            seen = {run.get(key, 0) for run in runs}
            if len(seen) > 1:
                mismatches.append(f"{name}: {key} varies {sorted(seen)}")
        for key in set().union(*runs):
            vals = [run.get(key, 0) for run in runs]
            if key == "parallel.workers":
                summed[key] = max(summed.get(key, 0), max(vals))
            elif key.endswith(("_s", ".s")):
                summed[key] = summed.get(key, 0) + statistics.median(vals)
            else:  # a count: exact, so any run's value
                summed[key] = summed.get(key, 0) + vals[0]
    out = {}
    for metric, unit, src in PER_LAYER:
        if src is not None:
            value = summed.get(src, 0)
            out[metric] = {"value": value, "unit": unit}
    calls = summed.get("quad.calls", 0)
    out["quad.levels_per_call"] = {
        "value": summed.get("quad.levels", 0) / calls if calls else 0.0,
        "unit": "ratio"}
    out["cli.report_bytes"] = {"value": report_bytes, "unit": "bytes"}
    traced_wall = pass_seconds(traced)
    untraced_wall = pass_seconds(untraced)
    out["trace.overhead_s"] = {"value": traced_wall - untraced_wall, "unit": "s"}
    accounted = sum(out[m]["value"] for m in PARTITION)
    out["trace.accounted_share"] = {"value": accounted / traced_wall, "unit": "ratio"}
    return out, mismatches, traced_wall, untraced_wall


def run_one(workload, seed, seconds, traced):
    workdir = os.path.join(ROOT, ".perfbench_work", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return _run_one(workload, seed, seconds, traced, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))  # only when no other run uses it


def _run_one(workload, seed, seconds, traced, workdir):
    setup = None
    if not traced:
        setup = measure_setup(workload, seed, workdir)
    sys.path.insert(0, SRC)
    wl = Workload(workload, seed, workdir)
    wl.warm_up()
    print(f"workload {workload} seed {seed} trace {int(traced)}: "
          f"{len(wl.names)} configs, closed loop, 1 client")
    print("stamp " + json.dumps(stamp(seed), sort_keys=True))

    if traced:
        from layers import Tracer

        ops = wl.run_ops(seconds, Tracer())
        untraced_ops = [rec for rec in ops if rec["trace"] is None]
        traced_ops = [rec for rec in ops if rec["trace"] is not None]
    else:
        ops = wl.run_ops(seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    verdicts, sups = wl.check(ops)
    failed = sum(1 for v in verdicts if v)
    for rec, problems in zip(ops, verdicts):
        if problems:
            print(f"FAILED op {rec['config']} ({rec['seconds']:.3f} s): "
                  + "; ".join(problems) + (f" | stderr: {rec['stderr']!r}"
                                           if rec["stderr"] else ""))
    for name, c in sorted(sups.items()):
        print(f"check {name}: sup |series - FD| {c['sup']:.6e} <= tol {c['tol']:.6e} "
              f"= {CN_FACTOR:g} x CN refinement {c['refinement']:.6e} + series tail "
              f"{c['tail']:.6e}: {'ok' if c['sup'] <= c['tol'] else 'FAIL'}")
    correct = failed == 0
    report_bytes = sum(len(r["report"] or b"") for r in wl.first.values())

    if traced:
        metrics, mismatches, traced_wall, untraced_wall = layer_metrics(
            untraced_ops, traced_ops, report_bytes)
        for line in mismatches:
            print(f"FAILED counter repeat: {line}")
        correct = correct and not mismatches
        print(f"traced ops {len(traced_ops)}, untraced ops {len(untraced_ops)}; "
              f"per-pass wall traced {traced_wall:.4f} s, untraced "
              f"{untraced_wall:.4f} s")
        for metric, unit, _ in PER_LAYER:
            print(f"layer {metric} = {metrics[metric]['value']!r} {unit}")
    else:
        for rec in ops:
            rec["scaled"] = rec["seconds"] * CAL_REF_S / rec["cal"]
        wall = pass_seconds(ops, "scaled")
        setup_raw, setup_cals, parts = setup
        # Set-up runs in child processes, so it is rescaled by the run's
        # median speed rather than by the one sample before each probe.
        cal = statistics.median([r["cal"] for r in ops] + setup_cals)
        setup_s = setup_raw * CAL_REF_S / cal
        metrics = {
            "wall_s": wall,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in metrics.items()}
        total_cells = sum(c["cells"] for c in sups.values())
        sup_max = max((c["sup"] for c in sups.values()), default=None)
        op_p50 = statistics.median(r["scaled"] for r in ops)
        print(f"speed: calibration kernel median {cal * 1e3:.2f} ms against the "
              f"reference {CAL_REF_S * 1e3:.2f} ms; times below are rescaled "
              f"to the reference, raw figures in brackets")
        print(f"metric wall_s = {wall!r} s [raw {pass_seconds(ops)!r} s] (one "
              f"pass: the sum over {len(wl.names)} configs of each config's "
              f"median op time; {len(ops)} ops)")
        print(f"metric op_s.p50 = {op_p50!r} s [raw "
              f"{statistics.median(r['seconds'] for r in ops)!r} s] (median of "
              f"{len(ops)} ops)")
        if total_cells:
            print(f"metric cells_per_s = {total_cells / wall!r} 1/s "
                  f"({total_cells} cells per pass)")
        else:
            print("metric cells_per_s = n/a (no field on this workload)")
        print(f"metric setup_s = {setup_s!r} s [raw {setup_raw!r} s] (median of "
              f"{SETUP_PROBES} fresh interpreters; raw parts "
              + json.dumps(parts) + ")")
        print(f"metric peak_rss_mb = {peak_rss_mb!r} MiB")
        print("metric sup_diff.max = "
              + (f"{sup_max!r}" if sup_max is not None else "n/a"))
        print(f"metric fail_ratio = {failed / len(ops)!r} ({failed}/{len(ops)})")
    print(f"correct {correct}: {len(ops) - failed}/{len(ops)} ops passed")
    return {"correct": bool(correct), "attempted": len(ops), "failed": failed,
            "metrics": metrics}


def run_all(args):
    """Each workload in its own process, one after another."""
    results = {}
    for workload in gen.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=1800)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        results[workload] = json.loads(lines[-1]) if proc.returncode == 0 else None
    print(json.dumps(results, sort_keys=True))
    return 0 if all(r and r["correct"] for r in results.values()) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=gen.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "delayheat", "cli.py")):
        print(f"error: no delayheat sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands::

    delayheat check   --config cfg.json [--modes N] [--out-report r.json]
    delayheat solve   --config cfg.json [--modes N] [--nx N] [--nt N]
                      [--nt-per-tau N] [--out-field f.csv] [--out-report r.json]
                      [--override-advisory]
    delayheat compare --config cfg.json [...same flags...]
    delayheat sweep   --config cfg.json [--modes 8,16,32,64] [...]
    delayheat dde solve --rate A --lagged-rate B --delay TAU --horizon T
                      [--history EXPR] [--forcing EXPR] [--samples N] [--out f.csv]

Exit codes: 0 success (advisory warnings allowed), 1 configuration/usage
error, 2 hard compatibility rejection, 3 numeric failure — including refusal
to solve past failed advisory decay proxies without ``--override-advisory``
(no trusted numerics were produced, and the code keeps hard rejections
distinguishable from advisory ones).

Reports are JSON with sorted keys; fields are CSV with 17-significant-digit
floats.  Neither embeds timestamps or randomness, so identical configs give
byte-identical outputs (sweep reports are the exception: they include wall
times by design).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import fields

import numpy as np

from .compat import check_problem
from .config import SolverSettings, load_config, other_grid_keys
from .delay_ode import DelayOdeParams, solve_at
from .errors import (
    CompatibilityError,
    ConfigError,
    DelayHeatError,
    NumericError,
    QuadratureError,
)
from .field import csv_rows, difference_blocks, field_difference_report
from .funcspec import parse_function
from .heat_delay import solve_delay
from .heat_nodelay import solve as solve_nodelay
from .oracle_fd import fd_solve_delay, fd_solve_nodelay

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_REJECTED = 2
EXIT_NUMERIC = 3

_SWEEP_MODES = (8, 16, 32, 64)


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with the config-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _report_text(payload):
    return json.dumps(payload, indent=2, sort_keys=True)


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(_report_text(payload) + "\n")


def _emit_report(path, payload):
    if path:
        _write_json(path, payload)
    else:
        print(_report_text(payload))


def _check_writable(*paths):
    for path in paths:
        if not path:
            continue
        parent = os.path.dirname(os.path.abspath(path)) or "."
        if not os.path.isdir(parent):
            raise ConfigError(f"output directory does not exist: {parent}")
        if not os.access(parent, os.W_OK):
            raise ConfigError(f"output directory is not writable: {parent}")
        if os.path.isdir(path):
            raise ConfigError(f"output path is a directory: {path}")


def _load(args):
    """The config with the flag overrides applied and checked by the same
    rules as the config's own settings.  Sweep's ``--modes`` list is parsed
    into ``args.mode_list`` and each count judged by the basis, before any
    work."""
    cfg = load_config(args.config)
    for key in other_grid_keys(cfg.kind):
        if getattr(args, key, None) is not None:
            flag = "--" + key.replace("_", "-")
            raise ConfigError(f"{flag} does not apply to {cfg.kind} problems")
    for setting in fields(SolverSettings):
        if getattr(args, setting.name, None) is not None:
            setattr(cfg.solver, setting.name, getattr(args, setting.name))
    cfg.check_solver()
    if hasattr(args, "modes_list"):
        args.mode_list = (_parse_mode_list(args.modes_list) if args.modes_list
                          else _SWEEP_MODES)
        for n_modes in args.mode_list:
            cfg.basis(n_modes)
    return cfg


def _resolve_outputs(args, cfg):
    """(field CSV, report JSON) paths: the flags first, then the config's
    ``outputs``.  ``check`` and ``sweep`` write no field."""
    out_report = args.out_report or cfg.outputs.get("report_json")
    if not hasattr(args, "out_field"):
        return None, out_report
    return args.out_field or cfg.outputs.get("field_csv"), out_report


def _compat_report(cfg):
    return check_problem(cfg.problem, basis=cfg.basis(),
                         quad=cfg.solver.quadrature, check=cfg.check)


def _gate(cfg, override):
    """Run admissibility checks; return (report, exit code or EXIT_OK)."""
    report = _compat_report(cfg)
    if not report.hard_pass:
        print(
            "rejected: initial value does not meet the boundary traces "
            f"(mismatch at x=0: {report.boundary['at_x0']:.3e}, "
            f"at x=l: {report.boundary['at_xl']:.3e})",
            file=sys.stderr,
        )
        return report, EXIT_REJECTED
    failed = report.failed_screens
    if failed:
        if override:
            print(
                "warning: advisory decay proxies failed "
                f"({', '.join(failed)}); proceeding under --override-advisory",
                file=sys.stderr,
            )
            return report, EXIT_OK
        print(
            "refusing to solve: advisory decay proxies failed "
            f"({', '.join(failed)}); pass --override-advisory to proceed "
            "(the conditions are sufficient, not necessary)",
            file=sys.stderr,
        )
        return report, EXIT_NUMERIC
    return report, EXIT_OK


def _solve_field(cfg, modes=None):
    solve = solve_delay if cfg.kind == "delay" else solve_nodelay
    return solve(cfg.problem, cfg.basis(modes), cfg.grid(),
                 cfg.solver.quadrature)


def _fd_field(cfg):
    solve = fd_solve_delay if cfg.kind == "delay" else fd_solve_nodelay
    return solve(cfg.problem, cfg.grid())


def _print_check_summary(report):
    boundary = report.boundary
    mark = "pass" if boundary["pass"] else "FAIL"
    print(f"boundary compatibility: {mark} "
          f"(x=0: {boundary['at_x0']:.3e}, x=l: {boundary['at_xl']:.3e})")
    if not report.hard_pass:
        print("advisory screens: not run (the hard check failed)")
        return
    for entry in report.decay:
        slope = entry.get("slope")
        slope_txt = f"slope {slope:+.3f}" if slope is not None else "no fit"
        print(f"decay proxy {entry['name']}: {entry['status']} ({slope_txt})")
    statuses = [c["status"] for c in report.endpoint]
    print(
        f"endpoint identities: {statuses.count('pass')} pass, "
        f"{statuses.count('fail')} fail, "
        f"{statuses.count('unverifiable')} unverifiable"
    )


def _cmd_check(args):
    cfg = _load(args)
    _, out_report = _resolve_outputs(args, cfg)
    _check_writable(out_report)
    report = _compat_report(cfg)
    payload = {"command": "check", "compat": report.to_dict()}
    _emit_report(out_report, payload)
    _print_check_summary(report)
    if not report.hard_pass:
        return EXIT_REJECTED
    if not report.advisory_pass:
        return EXIT_NUMERIC
    return EXIT_OK


def _run_gated(args):
    """Shared frame of solve, compare and sweep.

    Loads the config, checks that its outputs are writable and runs the
    gate.  On refusal the report holds the gate's verdict only.  Otherwise
    the subcommand's ``args.body(args, cfg, out_field, payload)`` does the
    work, adds its results to the payload and returns the summary printed
    after the report.
    """
    cfg = _load(args)
    out_field, out_report = _resolve_outputs(args, cfg)
    _check_writable(out_field, out_report)
    report, code = _gate(cfg, args.override_advisory)
    payload = {"command": args.command, "compat": report.to_dict()}
    if code != EXIT_OK:
        if out_report:
            _write_json(out_report, payload)
        return code
    summary = args.body(args, cfg, out_field, payload)
    _emit_report(out_report, payload)
    print(summary)
    return EXIT_OK


def _solve_body(args, cfg, out_field, payload):
    field = _solve_field(cfg)
    payload["field_meta"] = field.meta
    if out_field:
        field.write_csv(out_field)
        payload["outputs"] = {"field_csv": out_field}
    else:
        # The values are synthesized when read: read them all, one block at
        # a time, so that a solve fails whether or not it writes the field.
        for _ in field.blocks():
            pass
    return (f"solved on {field.x.size} x {field.t.size} grid "
            f"with {cfg.solver.modes} modes"
            + (f"; field written to {out_field}" if out_field else ""))


def _compare_body(args, cfg, out_field, payload):
    spectral = _solve_field(cfg)
    oracle = _fd_field(cfg)
    rows = None
    if out_field:
        # One pass over the series field's blocks: the CSV writer reads them,
        # and the report takes each time row's differences on the way.
        rows = np.empty((2, spectral.t.size))
        spectral.write_csv(out_field, difference_blocks(spectral, oracle, rows))
        payload["outputs"] = {"field_csv": out_field}
    diff = field_difference_report(spectral, oracle, rows)
    payload["difference"] = diff
    payload["spectral_meta"] = spectral.meta
    payload["oracle_meta"] = oracle.meta
    return (f"sup difference spectral vs finite-difference: {diff['sup']:.6e}\n"
            f"l2 difference: {diff['l2']:.6e}")


def _parse_mode_list(text):
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"--modes expects a comma-separated integer list: {exc}")
    if not values:
        raise ConfigError("--modes expects at least one mode count")
    return values


def _sweep_body(args, cfg, out_field, payload):
    oracle = _fd_field(cfg)
    rows = []
    for n_modes in args.mode_list:
        # The rung's field is synthesized as the report reads it, so the
        # wall time spans both.
        start = time.perf_counter()
        diff = field_difference_report(_solve_field(cfg, modes=n_modes), oracle)
        wall = time.perf_counter() - start
        rows.append({
            "modes": n_modes,
            "sup_diff": diff["sup"],
            "l2_diff": diff["l2"],
            "wall_time_s": wall,
        })
    sups = [row["sup_diff"] for row in rows]
    non_increasing = all(sups[i + 1] <= 1.1 * sups[i] for i in range(len(sups) - 1))
    payload["rows"] = rows
    payload["non_increasing_within_band"] = non_increasing
    lines = [f"{'modes':>6} {'sup_diff':>14} {'l2_diff':>14} {'wall_s':>9}"]
    lines += [f"{row['modes']:>6} {row['sup_diff']:>14.6e} "
              f"{row['l2_diff']:>14.6e} {row['wall_time_s']:>9.3f}" for row in rows]
    lines.append(f"non-increasing within 10% band: {non_increasing}")
    return "\n".join(lines)


def _function_of_t(flag, text, tau):
    """``text`` parsed as a function of t alone: a scalar delay ODE has no
    x, and an x read as 0 would give a quietly wrong trajectory."""
    fs = parse_function(text, tau=tau)
    if "x" in fs.variables():
        raise ConfigError(f"{flag} must be a function of t alone, got {text!r}")
    return fs


def _cmd_dde_solve(args):
    if not 0.0 < args.delay < math.inf:
        raise ConfigError("--delay must be positive and finite")
    if not 0.0 < args.horizon < math.inf:
        raise ConfigError("--horizon must be positive and finite")
    for flag, value in (("--rate", args.rate), ("--lagged-rate", args.lagged_rate)):
        if not math.isfinite(value):
            raise ConfigError(f"{flag} must be finite")
    if args.samples < 2:
        raise ConfigError("--samples must be at least 2")
    _check_writable(args.out)
    params = DelayOdeParams(a=args.rate, b=args.lagged_rate, tau=args.delay)
    history_fs = _function_of_t("--history", args.history, args.delay)
    history = lambda s, nu=0: history_fs.partials(0.0, s, [(0, nu)])[0]
    forcing = None
    if args.forcing is not None:
        forcing_fs = _function_of_t("--forcing", args.forcing, args.delay)
        forcing = lambda s: forcing_fs(0.0, s)
    t = np.linspace(0.0, args.horizon, args.samples)
    values = solve_at(params, history, forcing, t)
    text = b"t,value\n" + csv_rows(t, values)
    if args.out:
        with open(args.out, "wb") as handle:
            handle.write(text)
        print(f"wrote {args.samples} samples to {args.out}")
    else:
        sys.stdout.write(text.decode("ascii"))
    return EXIT_OK


def _add_common_flags(p, with_field=True, with_override=True, sweep=False):
    p.add_argument("--config", required=True, help="JSON run configuration")
    if sweep:
        p.add_argument("--modes", dest="modes_list", default=None,
                       help="comma-separated mode counts (default 8,16,32,64)")
    else:
        p.add_argument("--modes", type=int, default=None,
                       help="number of series modes")
    p.add_argument("--nx", type=int, default=None,
                   help="override: space intervals")
    p.add_argument("--nt", type=int, default=None,
                   help="override: time steps over [0, T] (no-delay grids)")
    p.add_argument("--nt-per-tau", dest="nt_per_tau", type=int, default=None,
                   help="override: time steps per delay interval (delay grids)")
    if with_field:
        p.add_argument("--out-field", dest="out_field", default=None,
                       help="write the solution field CSV here")
    p.add_argument("--out-report", dest="out_report", default=None,
                   help="write the JSON report here (default: stdout)")
    if with_override:
        p.add_argument("--override-advisory", dest="override_advisory",
                       action="store_true",
                       help="solve even when advisory decay proxies fail")


def build_parser():
    parser = _Parser(
        prog="delayheat",
        description="Series solver for the one-dimensional heat equation "
                    "with one constant delay, with validation utilities.",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p_check = sub.add_parser("check", help="run admissibility checks only")
    _add_common_flags(p_check, with_field=False, with_override=False)
    p_check.set_defaults(func=_cmd_check)

    p_solve = sub.add_parser("solve", help="solve and emit the field")
    _add_common_flags(p_solve)
    p_solve.set_defaults(func=_run_gated, body=_solve_body)

    p_cmp = sub.add_parser("compare",
                           help="solve via series and finite differences; report differences")
    _add_common_flags(p_cmp)
    p_cmp.set_defaults(func=_run_gated, body=_compare_body)

    p_sweep = sub.add_parser("sweep",
                             help="accuracy/runtime sweep over mode counts")
    _add_common_flags(p_sweep, with_field=False, sweep=True)
    p_sweep.set_defaults(func=_run_gated, body=_sweep_body)

    p_dde = sub.add_parser("dde", help="scalar delay ODE utilities")
    dde_sub = p_dde.add_subparsers(dest="dde_command", required=True,
                                   parser_class=_Parser)
    p_dde_solve = dde_sub.add_parser(
        "solve", help="solve x'(t) = a x(t) + b x(t - tau) + forcing")
    p_dde_solve.add_argument("--rate", type=float, required=True,
                             help="instantaneous rate a")
    p_dde_solve.add_argument("--lagged-rate", dest="lagged_rate", type=float,
                             required=True, help="lagged rate b")
    p_dde_solve.add_argument("--delay", type=float, required=True,
                             help="lag tau")
    p_dde_solve.add_argument("--horizon", type=float, required=True,
                             help="solve on [0, horizon]")
    p_dde_solve.add_argument("--history", default="1",
                             help="history expression in t on [-tau, 0] (default: 1)")
    p_dde_solve.add_argument("--forcing", default=None,
                             help="forcing expression in t (default: none)")
    p_dde_solve.add_argument("--samples", type=int, default=201,
                             help="number of output samples (default 201)")
    p_dde_solve.add_argument("--out", default=None,
                             help="write t,value CSV here (default: stdout)")
    p_dde_solve.set_defaults(func=_cmd_dde_solve)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CompatibilityError as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return EXIT_REJECTED
    except (QuadratureError, NumericError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except DelayHeatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

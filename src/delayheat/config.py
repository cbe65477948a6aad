"""JSON run configuration.

A run is described by one JSON object::

    {
      "problem": {
        "kind": "delay",                 # or "nodelay"
        "diffusion": 1.0,                # instantaneous diffusion (squared rate)
        "drift": 0.0,                    # instantaneous drift
        "reaction": 0.0,                 # instantaneous reaction
        "diffusion_lag": 0.5,            # lagged counterparts (delay only)
        "drift_lag": 0.0,
        "reaction_lag": -1.0,
        "delay": 1.0,                    # lag tau (delay only)
        "length": 3.141592653589793,
        "horizon": 2.0,
        "source": "0",                   # f(x, t)
        "initial": "sin(x)",             # initial value (delay: on [-tau, 0])
        "trace_left": 0,                 # boundary trace at x = 0
        "trace_right": 0                 # boundary trace at x = length
      },
      "solver": {
        "modes": 64, "nx": 200, "nt_per_tau": 16,
        "quadrature": {"nodes_per_panel": 16, "max_panel_splits": 8,
                       "abs_tol": 1e-10}
      },
      "check": {"m": null, "delta": 0.5, "fit_slack": 0.25, "tol": 1e-8},
      "outputs": {"field_csv": "field.csv", "report_json": "report.json"}
    }

``outputs`` holds optional default paths; command-line flags take
precedence.  :func:`load_config` resolves a relative ``outputs`` path
against the directory of the config file, so a run writes the same files
from any working directory; a relative path given as a flag stays relative
to the working directory.  The time grid is set by ``nt_per_tau`` for delay
problems (default 16) and by ``nt`` for problems without delay (default
200); the setting of the other kind is an error, not ignored, and so are
``check.m`` and ``check.delta`` without a delay.  The run's basis and grid
check the solver settings (:meth:`RunConfig.check_solver`), and
:class:`~delayheat.compat.CheckSettings` the ``check`` section: this module
checks JSON types and passes each settings class only the keys the file sets.

Each function slot accepts a number (a constant), an expression string over
``x`` and ``t`` (with ``pi`` plus the problem's ``l`` and ``tau`` bound as
constants), or a sampled table::

    {"table": "1d", "var": "t", "points": [...], "values": [...],
     "interp": "cubic"}
    {"table": "2d", "x": [...], "t": [...], "values": [[...]],
     "interp": "cubic"}        # values[i][j] = f(x[i], t[j])

The problem keys of each kind, and the problem fields they fill, are one
table per kind (``_PROBLEM_KINDS``) plus one table of the four function
slots (``_FUNCTION_KEYS``) that both kinds share.  Unknown keys anywhere are
rejected so typos cannot silently change a run.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from .compat import CheckSettings
from .errors import ConfigError, DelayHeatError, InputError
from .field import GridSpec
from .funcspec import (
    FunctionSpec,
    Sampled1DFunction,
    Sampled2DFunction,
    fs_const,
    parse_function,
)
from .heat_delay import DelayHeatProblem
from .heat_nodelay import HeatProblem
from .quadrature import QuadratureConfig
from .spectral import EigenBasis


@dataclass
class SolverSettings:
    """Discretization choices for a run."""

    modes: int = 64
    nx: int = 200
    nt: int = None           # resolved per problem kind by config_from_dict
    nt_per_tau: int = None
    quadrature: QuadratureConfig = field(default_factory=QuadratureConfig)


@dataclass
class RunConfig:
    problem: object
    solver: SolverSettings
    check: CheckSettings
    outputs: dict = field(default_factory=dict)

    @property
    def kind(self):
        return "delay" if isinstance(self.problem, DelayHeatProblem) else "nodelay"

    def basis(self, modes=None):
        """The run's sine basis: ``solver.modes`` modes, or ``modes``."""
        return EigenBasis(self.problem.length,
                          self.solver.modes if modes is None else modes)

    def grid(self):
        """The one grid of a run, shared by the series field and the oracle."""
        s = self.solver
        return GridSpec(nx=s.nx, nt=s.nt, nt_per_tau=s.nt_per_tau)

    def check_solver(self):
        """Judge the solver settings by the basis's and the grid's rules."""
        try:
            self.basis()
            self.grid()
        except InputError as exc:
            raise ConfigError(f"invalid solver settings: {exc}") from exc


def _require(mapping, key, where):
    if key not in mapping:
        raise ConfigError(f"missing key {key!r} in {where}")
    return mapping[key]


def _reject_unknown(mapping, allowed, where):
    extra = sorted(set(mapping) - set(allowed))
    if extra:
        raise ConfigError(f"unknown key(s) {extra} in {where}")


def _number(value, key):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key!r} must be a number, got {value!r}")
    return float(value)


def _integers(mapping, keys, where):
    """The integer settings of ``keys`` that ``mapping`` sets (null: unset)."""
    values = {key: mapping[key] for key in keys if mapping.get(key) is not None}
    for key, value in values.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{key!r} in {where} must be an integer, got {value!r}")
    return values


def build_function(value, length, tau=None, slot="function"):
    """Turn a config function slot into a :class:`FunctionSpec`."""
    if isinstance(value, FunctionSpec):
        return value
    if isinstance(value, bool):
        raise ConfigError(f"{slot}: expected a function, got {value!r}")
    if isinstance(value, (int, float)):
        return fs_const(float(value))
    consts = {"l": length}
    if tau is not None:
        consts["tau"] = tau
    if isinstance(value, str):
        try:
            return parse_function(value, **consts)
        except DelayHeatError as exc:
            raise ConfigError(f"{slot}: {exc}") from exc
    if isinstance(value, dict):
        table = value.get("table")
        try:
            if table == "1d":
                _reject_unknown(value, ("table", "var", "points", "values", "interp"),
                                slot)
                return Sampled1DFunction(
                    var=_require(value, "var", slot),
                    points=_require(value, "points", slot),
                    values=_require(value, "values", slot),
                    kind=value.get("interp", "cubic"),
                )
            if table == "2d":
                _reject_unknown(value, ("table", "x", "t", "values", "interp"), slot)
                return Sampled2DFunction(
                    x_points=_require(value, "x", slot),
                    t_points=_require(value, "t", slot),
                    values=_require(value, "values", slot),
                    kind=value.get("interp", "cubic"),
                )
        except DelayHeatError as exc:
            raise ConfigError(f"{slot}: {exc}") from exc
        raise ConfigError(f"{slot}: table kind must be '1d' or '2d', got {table!r}")
    raise ConfigError(f"{slot}: expected number, expression string, or table object")


# Per problem kind: its class, and its coefficient keys mapped to the fields
# they fill, in the order they are read.  Of these, only "delay" and
# "diffusion" are required; the others default to 0.
_PROBLEM_KINDS = {
    "nodelay": (HeatProblem, {"diffusion": "a", "drift": "b", "reaction": "c"}),
    "delay": (DelayHeatProblem, {
        "delay": "tau", "diffusion": "a1", "diffusion_lag": "a2", "drift": "b1",
        "drift_lag": "b2", "reaction": "d1", "reaction_lag": "d2"}),
}
_REQUIRED = ("delay", "diffusion")
# The function slots of both kinds, mapped to the fields they fill.
_FUNCTION_KEYS = {"source": "g", "initial": "psi", "trace_left": "theta1",
                  "trace_right": "theta2"}


def problem_from_dict(data):
    """Build a problem object from the ``"problem"`` section."""
    if not isinstance(data, dict):
        raise ConfigError("'problem' must be an object")
    kind = data.get("kind")
    if kind not in ("delay", "nodelay"):
        raise ConfigError(f"problem kind must be 'delay' or 'nodelay', got {kind!r}")
    where = "problem"
    length = _number(_require(data, "length", where), "length")
    horizon = _number(_require(data, "horizon", where), "horizon")
    problem_cls, coefficient_keys = _PROBLEM_KINDS[kind]
    try:
        _reject_unknown(data, ("kind", "length", "horizon", *coefficient_keys,
                               *_FUNCTION_KEYS), where)
        values = {
            name: _number(_require(data, key, where) if key in _REQUIRED
                          else data.get(key, 0.0), key)
            for key, name in coefficient_keys.items()}
        values.update(
            (name, build_function(_require(data, key, where), length,
                                  values.get("tau"), f"problem.{key}"))
            for key, name in _FUNCTION_KEYS.items())
        return problem_cls(length=length, horizon=horizon, **values)
    except ConfigError:
        raise
    except DelayHeatError as exc:
        raise ConfigError(f"invalid problem data: {exc}") from exc


def solver_from_dict(data):
    if data is None:
        return SolverSettings()
    if not isinstance(data, dict):
        raise ConfigError("'solver' must be an object")
    where = "solver"
    _reject_unknown(data, ("modes", "nx", "nt", "nt_per_tau", "quadrature"),
                    where)
    settings = {}
    quad_data = data.get("quadrature")
    if isinstance(quad_data, dict):
        _reject_unknown(quad_data, ("nodes_per_panel", "max_panel_splits",
                                    "abs_tol"), "solver.quadrature")
        values = _integers(quad_data, ("nodes_per_panel", "max_panel_splits"),
                           "solver.quadrature")
        if "abs_tol" in quad_data:
            values["abs_tol"] = _number(quad_data["abs_tol"], "abs_tol")
        try:
            settings["quadrature"] = QuadratureConfig(**values)
        except DelayHeatError as exc:
            raise ConfigError(f"invalid quadrature settings: {exc}") from exc
    elif quad_data is not None:
        raise ConfigError("'solver.quadrature' must be an object")
    settings.update(_integers(data, ("modes", "nx", "nt", "nt_per_tau"), where))
    return SolverSettings(**settings)


def check_from_dict(data):
    if data is None:
        return CheckSettings()
    if not isinstance(data, dict):
        raise ConfigError("'check' must be an object")
    _reject_unknown(data, ("m", "delta", "fit_slack", "tol"), "check")
    values = _integers(data, ("m",), "check")
    values.update((key, _number(data[key], key))
                  for key in ("delta", "fit_slack", "tol") if key in data)
    try:
        return CheckSettings(**values)
    except InputError as exc:
        raise ConfigError(str(exc)) from exc


def outputs_from_dict(data):
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ConfigError("'outputs' must be an object")
    _reject_unknown(data, ("field_csv", "report_json"), "outputs")
    for key, value in data.items():
        if value is not None and not isinstance(value, str):
            raise ConfigError(f"outputs.{key} must be a path string")
    return {key: value for key, value in data.items() if value is not None}


def config_from_dict(data):
    if not isinstance(data, dict):
        raise ConfigError("run configuration must be a JSON object")
    _reject_unknown(data, ("problem", "solver", "check", "outputs"),
                    "run configuration")
    cfg = RunConfig(
        problem=problem_from_dict(_require(data, "problem", "run configuration")),
        solver=solver_from_dict(data.get("solver")),
        check=check_from_dict(data.get("check")),
        outputs=outputs_from_dict(data.get("outputs")),
    )
    key, other, default = (("nt_per_tau", "nt", 16) if cfg.kind == "delay"
                           else ("nt", "nt_per_tau", 200))
    if getattr(cfg.solver, other) is not None:
        raise ConfigError(
            f"solver.{other} does not apply to {cfg.kind} problems; "
            f"set solver.{key}")
    if getattr(cfg.solver, key) is None:
        setattr(cfg.solver, key, default)
    if cfg.kind == "nodelay":
        for name in ("m", "delta"):
            if (data.get("check") or {}).get(name) is not None:
                raise ConfigError(
                    f"check.{name} does not apply to nodelay problems")
    cfg.check_solver()
    return cfg


def load_config(path):
    """Read a JSON run configuration from ``path``; relative ``outputs``
    paths name files beside it."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    cfg = config_from_dict(data)
    base = os.path.dirname(path)
    cfg.outputs = {key: os.path.join(base, value)
                   for key, value in cfg.outputs.items()}
    return cfg

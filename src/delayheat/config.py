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
against the directory of the config file; a relative flag path stays
relative to the working directory.

A settings section is read by the fields of the class it builds
(:func:`settings_from_dict`): ``solver`` by :class:`SolverSettings` (its
``quadrature`` by :class:`~delayheat.quadrature.QuadratureConfig`) and
``check`` by :class:`~delayheat.compat.CheckSettings`.  An int field takes a
JSON integer (null: the default), a float field a number, a nested settings
field an object; each class judges its own values, and a refusal reads
``invalid <section> settings: ...``.

Each function slot accepts a number (a constant), an expression string over
``x`` and ``t`` (with ``pi`` plus the problem's ``l`` and ``tau`` bound as
constants), or a sampled table::

    {"table": "1d", "var": "t", "points": [...], "values": [...],
     "interp": "cubic"}
    {"table": "2d", "x": [...], "t": [...], "values": [[...]],
     "interp": "cubic"}        # values[i][j] = f(x[i], t[j])

The keys and rules of each problem kind are one table (``_PROBLEM_KINDS``),
as are the function slots both kinds share (``_FUNCTION_KEYS``) and the keys
of each table kind (``_TABLE_KINDS``).  Unknown keys anywhere are rejected
so typos cannot silently change a run.
"""

from __future__ import annotations

import json
import os
import typing
from dataclasses import dataclass, field, fields
from functools import cache

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


def _number(value, key, where, kind=float):
    """A JSON number as ``kind``: an integer for int, any number for float."""
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key!r} in {where} must be {noun}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:  # a JSON integer past float range
        raise ConfigError(f"{key!r} in {where}: number out of float range") from None


@cache
def _field_types(cls):
    """Each field of the settings class ``cls`` mapped to its type."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def settings_from_dict(cls, data, where):
    """``cls`` read from the section ``data`` by its own fields; null: defaults."""
    if data is None:
        return cls()
    if not isinstance(data, dict):
        raise ConfigError(f"{where!r} must be an object")
    types = _field_types(cls)
    _reject_unknown(data, types, where)
    values = {key: _number(data[key], key, where, kind) if kind in (int, float)
              else settings_from_dict(kind, data[key], f"{where}.{key}")
              for key, kind in types.items()
              if key in data and (data[key] is not None or kind is float)}
    try:
        return cls(**values)
    except InputError as exc:
        raise ConfigError(f"invalid {where} settings: {exc}") from exc


# Per table kind: its class, and its keys mapped to the fields they fill;
# "interp" (default "cubic") is optional in both.
_TABLE_KINDS = {
    "1d": (Sampled1DFunction, {"var": "var", "points": "points", "values": "values"}),
    "2d": (Sampled2DFunction, {"x": "x_points", "t": "t_points", "values": "values"}),
}


def build_function(value, length, tau=None, slot="function"):
    """Turn a config function slot into a :class:`FunctionSpec`."""
    if isinstance(value, FunctionSpec):
        return value
    if isinstance(value, bool):
        raise ConfigError(f"{slot}: expected a function, got {value!r}")
    if isinstance(value, (int, float)):
        try:
            return fs_const(float(value))
        except OverflowError:  # a JSON integer past float range
            raise ConfigError(f"{slot}: number out of float range") from None
    if not isinstance(value, (str, dict)):
        raise ConfigError(f"{slot}: expected number, expression string, or table object")
    try:
        if isinstance(value, str):
            return parse_function(value, l=length,
                                  **({} if tau is None else {"tau": tau}))
        table = value.get("table")
        if not isinstance(table, str) or table not in _TABLE_KINDS:
            raise InputError(f"table kind must be '1d' or '2d', got {table!r}")
        table_cls, keys = _TABLE_KINDS[table]
        _reject_unknown(value, ("table", "interp", *keys), slot)
        return table_cls(kind=value.get("interp", "cubic"),
                         **{name: _require(value, key, slot) for key, name in keys.items()})
    except ConfigError:
        raise
    except DelayHeatError as exc:
        raise ConfigError(f"{slot}: {exc}") from exc


# Per problem kind: its class; its coefficient keys mapped to the fields
# they fill, in the order they are read (of these, only "delay" and
# "diffusion" are required, the others default to 0); its time-grid setting
# and that setting's default (the other kind's setting is an error, not
# ignored); and the check settings it refuses (the delay screens' m and
# delta mean nothing without a delay).
_PROBLEM_KINDS = {
    "nodelay": (HeatProblem, {"diffusion": "a", "drift": "b", "reaction": "c"},
                ("nt", 200), ("m", "delta")),
    "delay": (DelayHeatProblem, {
        "delay": "tau", "diffusion": "a1", "diffusion_lag": "a2", "drift": "b1",
        "drift_lag": "b2", "reaction": "d1", "reaction_lag": "d2"},
        ("nt_per_tau", 16), ()),
}
_REQUIRED = ("delay", "diffusion")
# The function slots of both kinds, mapped to the fields they fill.
_FUNCTION_KEYS = {"source": "g", "initial": "psi", "trace_left": "theta1",
                  "trace_right": "theta2"}


def other_grid_keys(kind):
    """The time-grid settings of the problem kinds other than ``kind``."""
    return [key for other, (_, _, (key, _), _) in _PROBLEM_KINDS.items()
            if other != kind]


def problem_from_dict(data):
    """Build a problem object from the ``"problem"`` section."""
    if not isinstance(data, dict):
        raise ConfigError("'problem' must be an object")
    kind = data.get("kind")
    if kind not in ("delay", "nodelay"):
        raise ConfigError(f"problem kind must be 'delay' or 'nodelay', got {kind!r}")
    where = "problem"
    length = _number(_require(data, "length", where), "length", where)
    horizon = _number(_require(data, "horizon", where), "horizon", where)
    problem_cls, coefficient_keys, _, _ = _PROBLEM_KINDS[kind]
    try:
        _reject_unknown(data, ("kind", "length", "horizon", *coefficient_keys,
                               *_FUNCTION_KEYS), where)
        values = {
            name: _number(_require(data, key, where) if key in _REQUIRED
                          else data.get(key, 0.0), key, where)
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
        solver=settings_from_dict(SolverSettings, data.get("solver"), "solver"),
        check=settings_from_dict(CheckSettings, data.get("check"), "check"),
        outputs=outputs_from_dict(data.get("outputs")),
    )
    _, _, (key, default), refused = _PROBLEM_KINDS[cfg.kind]
    for other in other_grid_keys(cfg.kind):
        if getattr(cfg.solver, other) is not None:
            raise ConfigError(f"solver.{other} does not apply to {cfg.kind} "
                              f"problems; set solver.{key}")
    if getattr(cfg.solver, key) is None:
        setattr(cfg.solver, key, default)
    for name in refused:
        if (data.get("check") or {}).get(name) is not None:
            raise ConfigError(f"check.{name} does not apply to {cfg.kind} problems")
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

"""Series solver for the one-dimensional heat equation with one constant
delay, validated against an independent finite-difference oracle.

The package solves

    v_t = a1^2 v_xx + b1 v_x + d1 v + a2^2 v_xx(t - tau) + b2 v_x(t - tau)
          + d2 v(t - tau) + g(x, t)

on a strip [0, l] x [0, T] with Dirichlet traces and an initial segment on
[-tau, 0] (plus the no-delay drift-reaction special case), by an exponential
change of variables, a boundary lift, and a Dirichlet sine expansion whose
modal trajectories are scalar linear delay ODEs with piecewise-polynomial
closed forms.
"""

from .compat import (
    CheckSettings,
    CompatReport,
    check_compatibility,
    check_endpoint_conditions,
    check_decay_conditions,
    check_problem,
    steps_covered,
)
from .config import (
    RunConfig,
    SolverSettings,
    build_function,
    config_from_dict,
    load_config,
)
from .delay_ode import DelayOdeParams, kernel, solve_at
from .energy import (
    EnergyReport,
    GronwallResult,
    delay_growth_constant,
    energy_trace,
    gronwall_check,
    nodelay_growth_constant,
)
from .errors import (
    CompatibilityError,
    ConfigError,
    DelayHeatError,
    DomainError,
    InputError,
    InsufficientDataError,
    NumericError,
    ParseError,
    QuadratureError,
    UnsupportedOperationError,
)
from .field import GridSpec, SolutionField, field_difference_report, read_field_csv
from .funcspec import (
    ExprFunction,
    FunctionSpec,
    Sampled1DFunction,
    Sampled2DFunction,
    fs_const,
    fs_exp_weight,
    fs_ramp_x,
    fs_scale,
    fs_sum,
    fs_time_shift,
    parse_expression,
    parse_function,
)
from .heat_delay import (
    DelayHeatProblem,
    ModeSystem,
    ReducedProblem,
    build_modes,
    mode_solution,
    reduce_delay,
    solve_delay,
)
from .heat_nodelay import HeatProblem, reduce_problem, solve
from .oracle_fd import fd_solve_delay, fd_solve_nodelay
from .quadrature import QuadratureConfig, composite_gauss, graded_breakpoints
from .spectral import DecayReport, EigenBasis, decay_fit

__version__ = "1.0.0"


__all__ = [
    "CheckSettings",
    "CompatReport",
    "CompatibilityError",
    "ConfigError",
    "DecayReport",
    "DelayHeatError",
    "DelayHeatProblem",
    "DelayOdeParams",
    "DomainError",
    "EigenBasis",
    "EnergyReport",
    "ExprFunction",
    "FunctionSpec",
    "GridSpec",
    "GronwallResult",
    "HeatProblem",
    "InputError",
    "InsufficientDataError",
    "ModeSystem",
    "NumericError",
    "ParseError",
    "QuadratureConfig",
    "QuadratureError",
    "ReducedProblem",
    "RunConfig",
    "Sampled1DFunction",
    "Sampled2DFunction",
    "SolutionField",
    "SolverSettings",
    "UnsupportedOperationError",
    "build_function",
    "build_modes",
    "check_compatibility",
    "check_endpoint_conditions",
    "check_decay_conditions",
    "check_problem",
    "composite_gauss",
    "config_from_dict",
    "decay_fit",
    "delay_growth_constant",
    "energy_trace",
    "fd_solve_delay",
    "fd_solve_nodelay",
    "field_difference_report",
    "fs_const",
    "fs_exp_weight",
    "fs_ramp_x",
    "fs_scale",
    "fs_sum",
    "fs_time_shift",
    "graded_breakpoints",
    "gronwall_check",
    "kernel",
    "load_config",
    "mode_solution",
    "nodelay_growth_constant",
    "parse_expression",
    "parse_function",
    "read_field_csv",
    "reduce_delay",
    "reduce_problem",
    "solve",
    "solve_delay",
    "solve_at",
    "steps_covered",
]

"""Two-level decomposition of multi-time-scale MILPs with autotuned
high-level cost parameters, demonstrated on integrated design-and-scheduling
of a resource task network."""

__version__ = "0.1.0"

from .dfo import BoxDomain, DfoConfig, DfoResult, DomainError, run_dfo
from .engine import (
    EvalResult,
    TuningTrace,
    TwoLevelProblem,
    emit_trace,
    evaluate,
    transfer_tune,
    tune,
)
from .milp import SolveReport, brute_force_milp, solve_milp, solve_model
from .model import (
    Kind,
    LinExpr,
    ModelError,
    ModelInstance,
    Sense,
    Solution,
    SolveOptions,
    Status,
)
from .rtn import (
    DemandProfile,
    RtnDesign,
    RtnNetwork,
    ScenarioSet,
    TunableParameters,
    build_full_space,
    build_high_level,
    build_low_level,
    make_two_level_problem,
)

__all__ = [name for name in dir() if not name.startswith("_")]

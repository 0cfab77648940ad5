"""Transient optimal control of hydrogen blending in gas pipeline networks."""

from .network import (
    Network,
    ParseError,
    Scenario,
    load_network,
    load_scenario,
    parse_network,
    parse_scenario,
    segment_pipes,
    validate_topology,
)
from .solution import SolutionTrajectory, read_solution, write_solution
from .solver import (
    SolveResult,
    SolverOptions,
    solve_nlp,
    solve_steady,
    solve_transient,
)
from .transcription import assemble_nlp
from .validation import run_audits

__version__ = "0.1.0"

__all__ = [
    "Network",
    "ParseError",
    "Scenario",
    "SolveResult",
    "SolverOptions",
    "SolutionTrajectory",
    "assemble_nlp",
    "load_network",
    "load_scenario",
    "parse_network",
    "parse_scenario",
    "read_solution",
    "run_audits",
    "segment_pipes",
    "solve_nlp",
    "solve_steady",
    "solve_transient",
    "validate_topology",
    "write_solution",
    "__version__",
]

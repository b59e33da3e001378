"""Exact solver toolkit for multi-trip biomedical specimen collection routing.

Pipeline: parse Solomon-format files into instances, build the
replenishment-arc multigraph with tightened time windows, generate the
two-index MIP, solve it through a pluggable MILP adapter (or emit LP/MPS
files for any external solver), then decode, validate and evaluate the
resulting multi-trip tours. An exhaustive oracle provides ground truth at
desk scale, and a benchmark harness reproduces the standard reporting
table.
"""

from .formulation import (
    FileSolverAdapter,
    MipModel,
    ModelDecodeError,
    ScipyMilpAdapter,
    SolveLimits,
    SolveOutcome,
    SolveStatus,
    SolverConfigError,
    build_model,
    emit_model,
    extract_solution,
    solve,
    write_model,
)
from .harness import (
    BenchmarkReport,
    ManifestEntry,
    RunRecord,
    f_prime,
    load_manifest,
    report_table,
    run_instance,
    run_suite,
)
from .instances import (
    Instance,
    InstanceConfig,
    InstanceError,
    RawInstance,
    Setting,
    Site,
    SolomonParseError,
    build_instance,
    parse_solomon,
    write_solomon,
)
from .network import (
    ArcKind,
    InfeasibleWindowError,
    Multigraph,
    TimeWindows,
    build_multigraph,
    preprocess_time_windows,
)
from .oracle import OracleConsistencyError, OracleResult, OracleSizeError, exact_solve_tiny
from .routes import (
    EvaluatedSolution,
    InfeasibleTourError,
    Tour,
    ValidationReport,
    assemble_solution,
    schedule_tour,
    solution_to_json,
    validate_solution,
)

__version__ = "0.1.0"

__all__ = [
    "ArcKind",
    "BenchmarkReport",
    "EvaluatedSolution",
    "FileSolverAdapter",
    "InfeasibleTourError",
    "InfeasibleWindowError",
    "Instance",
    "InstanceConfig",
    "InstanceError",
    "ManifestEntry",
    "MipModel",
    "ModelDecodeError",
    "Multigraph",
    "OracleConsistencyError",
    "OracleResult",
    "OracleSizeError",
    "RawInstance",
    "RunRecord",
    "ScipyMilpAdapter",
    "Setting",
    "Site",
    "SolomonParseError",
    "SolveLimits",
    "SolveOutcome",
    "SolveStatus",
    "SolverConfigError",
    "TimeWindows",
    "Tour",
    "ValidationReport",
    "assemble_solution",
    "build_instance",
    "build_model",
    "build_multigraph",
    "emit_model",
    "exact_solve_tiny",
    "extract_solution",
    "f_prime",
    "load_manifest",
    "parse_solomon",
    "preprocess_time_windows",
    "report_table",
    "run_instance",
    "run_suite",
    "schedule_tour",
    "solution_to_json",
    "solve",
    "validate_solution",
    "write_model",
    "write_solomon",
]

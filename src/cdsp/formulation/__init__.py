"""MIP generation, serialization, solving and solution decoding."""

from .decode import INTEGRALITY_TOL, ModelDecodeError, extract_solution
from .model import SENSE_EQ, SENSE_GE, SENSE_LE, ColumnLayout, MipModel, build_model
from .solvers import (
    FileSolverAdapter,
    ScipyMilpAdapter,
    SolveLimits,
    SolveOutcome,
    SolveStatus,
    SolverAdapter,
    SolverConfigError,
    model_to_arrays,
    solve,
)
from .writers import emit_model, write_lp, write_model, write_mps

__all__ = [
    "ColumnLayout",
    "FileSolverAdapter",
    "INTEGRALITY_TOL",
    "MipModel",
    "ModelDecodeError",
    "ScipyMilpAdapter",
    "SENSE_EQ",
    "SENSE_GE",
    "SENSE_LE",
    "SolveLimits",
    "SolveOutcome",
    "SolveStatus",
    "SolverAdapter",
    "SolverConfigError",
    "build_model",
    "emit_model",
    "extract_solution",
    "model_to_arrays",
    "solve",
    "write_lp",
    "write_model",
    "write_mps",
]

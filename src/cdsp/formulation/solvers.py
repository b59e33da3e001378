"""MILP solving behind a small stateless adapter contract.

Adapters take a built model plus limits and return a SolveOutcome carrying
status, incumbent values, the solver-reported dual bound and wall time.
Two implementations ship: the bundled HiGHS backend (scipy.optimize.milp)
and a file-based adapter that writes the model, invokes an arbitrary
external solver executable and parses its solution file.
"""

from __future__ import annotations

import enum
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Protocol

import numpy as np

from .model import MipModel
from .writers import MODEL_FORMATS, write_model


#: HiGHS's MIP and primal feasibility tolerances in `ScipyMilpAdapter`.
FEASIBILITY_TOL = 1e-9


class SolveStatus(str, enum.Enum):
    OPTIMAL = "optimal"
    FEASIBLE_TIME_LIMIT = "feasible-time-limit"
    INFEASIBLE = "infeasible"
    NO_SOLUTION_TIME_LIMIT = "no-solution-time-limit"
    ERROR = "error"


class SolverConfigError(RuntimeError):
    """An adapter is configured with an unknown model or solution format."""


@dataclass(frozen=True)
class SolveLimits:
    time_limit_s: float = 3600.0
    threads: int = 16
    gap_target: float = 0.0  # relative MIP gap at which the solver may stop

    def __post_init__(self):
        if self.time_limit_s <= 0:
            raise ValueError("time limit must be positive")
        if self.threads < 1:
            raise ValueError("thread cap must be >= 1")
        if self.gap_target < 0:
            raise ValueError("gap target must be >= 0")


@dataclass
class SolveOutcome:
    status: SolveStatus
    objective: float | None = None
    bound: float | None = None
    values: np.ndarray | None = None
    wall_s: float = 0.0
    message: str = ""

    @property
    def has_incumbent(self) -> bool:
        return self.values is not None


class SolverAdapter(Protocol):
    name: str

    def solve(self, model: MipModel, limits: SolveLimits) -> SolveOutcome: ...


def model_to_arrays(model: MipModel):
    """Objective, CSR row matrix, row bounds, column bounds and integrality:
    the model's own arrays, which callers must not modify."""
    return (
        model.c,
        model.matrix,
        model.row_lower,
        model.row_upper,
        model.col_lower,
        model.col_upper,
        model.integrality,
    )


@dataclass(frozen=True)
class ScipyMilpAdapter:
    """Bundled backend: HiGHS through scipy.optimize.milp.

    Runs single-threaded (scipy does not expose a thread option), which
    never exceeds the configured cap. Deterministic for fixed inputs.

    Feasibility tolerances are FEASIBILITY_TOL (1e-9), well below HiGHS's
    1e-6 MIP default: incumbents may shave binding constraints by up to that
    tolerance, which would blur objective comparisons at the 1e-6 level.
    """

    name: str = "scipy-highs"

    def solve(self, model: MipModel, limits: SolveLimits) -> SolveOutcome:
        import warnings

        from scipy.optimize import Bounds, LinearConstraint, milp

        c, matrix, row_lb, row_ub, lb, ub, integrality = model_to_arrays(model)
        start = time.perf_counter()
        with warnings.catch_warnings():
            # scipy warns about non-scipy option names but forwards them to
            # HiGHS, which is exactly what the tolerance options need
            warnings.filterwarnings("ignore", message="Unrecognized options detected")
            res = milp(
                c,
                constraints=[LinearConstraint(matrix, row_lb, row_ub)] if len(row_lb) else None,
                integrality=integrality,
                bounds=Bounds(lb, ub),
                options={
                    "time_limit": limits.time_limit_s,
                    "mip_rel_gap": limits.gap_target,
                    "mip_feasibility_tolerance": FEASIBILITY_TOL,
                    "primal_feasibility_tolerance": FEASIBILITY_TOL,
                },
            )
        wall = time.perf_counter() - start
        bound = getattr(res, "mip_dual_bound", None)
        bound = float(bound) if bound is not None else None
        values = np.asarray(res.x, dtype=float) if res.x is not None else None
        objective = float(res.fun) if values is not None else None
        if res.status == 0:
            status = SolveStatus.OPTIMAL
            if bound is None:
                bound = objective
        elif res.status == 1:
            status = (
                SolveStatus.FEASIBLE_TIME_LIMIT
                if values is not None
                else SolveStatus.NO_SOLUTION_TIME_LIMIT
            )
        elif res.status == 2:
            status = SolveStatus.INFEASIBLE
        else:
            status = SolveStatus.ERROR
        return SolveOutcome(
            status=status,
            objective=objective,
            bound=bound,
            values=values,
            wall_s=wall,
            message=str(res.message),
        )


@dataclass(frozen=True)
class FileSolverAdapter:
    """Drive any external MILP solver through model/solution files.

    The command is a template; {model}, {solution}, {time_limit} and
    {threads} placeholders are substituted per call. The solver must write
    a solution file that one of the bundled parsers understands:

    - "plain": optional ``status <word>`` / ``objective <num>`` /
      ``bound <num>`` headers, then one ``<variable> <value>`` per line
      ("#" comments ignored);
    - "highs": the HiGHS ``--solution_file`` layout;
    - "cbc": the COIN-OR CBC ``solve ... solu`` layout.

    Variables absent from the file default to 0 (the usual sparse-output
    convention).
    """

    command: tuple[str, ...]
    model_format: str = "lp"
    solution_format: str = "plain"
    name: str = "file"

    def __post_init__(self):
        # stored lower-cased: external solvers pick their reader by extension
        fmt = self.model_format.lower()
        if fmt not in MODEL_FORMATS:
            raise SolverConfigError(
                f"unknown model format {self.model_format!r} (known: {list(MODEL_FORMATS)})"
            )
        object.__setattr__(self, "model_format", fmt)
        if self.solution_format not in SOLUTION_PARSERS:
            raise SolverConfigError(
                f"unknown solution format {self.solution_format!r} "
                f"(known: {sorted(SOLUTION_PARSERS)})"
            )

    def solve(self, model: MipModel, limits: SolveLimits) -> SolveOutcome:
        parser = SOLUTION_PARSERS[self.solution_format]
        start = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix="cdsp-solve-") as tmp:
            model_path = Path(tmp) / f"model.{self.model_format}"
            solution_path = Path(tmp) / "model.sol"
            with open(model_path, "w", encoding="utf-8", newline="") as file:
                write_model(model, self.model_format, file)
            substitutions = {
                "{model}": str(model_path),
                "{solution}": str(solution_path),
                "{time_limit}": f"{limits.time_limit_s:g}",
                "{threads}": str(limits.threads),
            }

            def fill(part: str) -> str:
                # literal replacement: solver flags may contain other braces
                for placeholder, value in substitutions.items():
                    part = part.replace(placeholder, value)
                return part

            cmd = [fill(part) for part in self.command]
            try:
                proc = subprocess.run(
                    cmd,
                    capture_output=True,
                    text=True,
                    timeout=limits.time_limit_s * 1.5 + 30.0,
                )
            except subprocess.TimeoutExpired:
                return SolveOutcome(
                    status=SolveStatus.NO_SOLUTION_TIME_LIMIT,
                    wall_s=time.perf_counter() - start,
                    message="external solver killed after exceeding the time limit",
                )
            except OSError as exc:
                return SolveOutcome(
                    status=SolveStatus.ERROR,
                    wall_s=time.perf_counter() - start,
                    message=f"cannot run {cmd[0]!r}: {exc}",
                )
            wall = time.perf_counter() - start
            if not solution_path.exists():
                return SolveOutcome(
                    status=SolveStatus.ERROR,
                    wall_s=wall,
                    message=(
                        f"solver wrote no solution file (exit {proc.returncode}): "
                        + proc.stderr.strip()[-500:]
                    ),
                )
            parsed = parser(solution_path.read_text())
        return self._to_outcome(model, parsed, wall, proc.returncode)

    def _to_outcome(self, model, parsed: "_ParsedSolution", wall, returncode) -> SolveOutcome:
        status_word = (parsed.status or "").lower()
        if "infeasible" in status_word:
            return SolveOutcome(
                status=SolveStatus.INFEASIBLE, bound=parsed.bound, wall_s=wall, message=status_word
            )
        values = None
        objective = None
        if parsed.values:
            columns = {name: col for col, name in enumerate(model.layout.names())}
            values = np.zeros(model.num_columns)
            matched = 0
            for name, value in parsed.values.items():
                col = columns.get(name)
                if col is not None:
                    values[col] = value
                    matched += 1
            if matched == 0:
                return SolveOutcome(
                    status=SolveStatus.ERROR,
                    wall_s=wall,
                    message="solution file contains no recognizable variables",
                )
            costed = np.flatnonzero(model.c)
            objective = (
                parsed.objective
                if parsed.objective is not None
                else float(sum(model.c[costed] * values[costed]))
            )
        if "optimal" in status_word:
            if values is None:
                return SolveOutcome(
                    status=SolveStatus.ERROR,
                    wall_s=wall,
                    message="solver claims optimal but reported no values",
                )
            bound = parsed.bound if parsed.bound is not None else objective
            return SolveOutcome(
                status=SolveStatus.OPTIMAL,
                objective=objective,
                bound=bound,
                values=values,
                wall_s=wall,
                message=status_word,
            )
        if values is not None:
            return SolveOutcome(
                status=SolveStatus.FEASIBLE_TIME_LIMIT,
                objective=objective,
                bound=parsed.bound,
                values=values,
                wall_s=wall,
                message=status_word or "stopped before proving optimality",
            )
        if returncode != 0:
            return SolveOutcome(
                status=SolveStatus.ERROR, wall_s=wall, message=f"solver exit {returncode}"
            )
        return SolveOutcome(
            status=SolveStatus.NO_SOLUTION_TIME_LIMIT,
            bound=parsed.bound,
            wall_s=wall,
            message=status_word or "no incumbent reported",
        )


@dataclass
class _ParsedSolution:
    status: str | None = None
    objective: float | None = None
    bound: float | None = None
    values: dict[str, float] = field(default_factory=dict)


def _parse_plain(text: str) -> _ParsedSolution:
    out = _ParsedSolution()
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        key = tokens[0].lower()
        try:
            if key == "status" and len(tokens) >= 2:
                out.status = tokens[1]
            elif key == "objective" and len(tokens) >= 2:
                out.objective = float(tokens[1])
            elif key == "bound" and len(tokens) >= 2:
                out.bound = float(tokens[1])
            elif len(tokens) >= 2:
                out.values[tokens[0]] = float(tokens[1])
        except ValueError:
            continue
    return out


def _parse_highs(text: str) -> _ParsedSolution:
    out = _ParsedSolution()
    lines = text.splitlines()
    section = None
    expect_status = False
    in_columns = False
    for line in lines:
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.lower() == "model status":
            expect_status = True
            continue
        if expect_status:
            out.status = stripped
            expect_status = False
            continue
        if stripped.startswith("#"):
            tag = stripped.lstrip("# ").lower()
            in_columns = tag.startswith("columns")
            continue
        lower = stripped.lower()
        if lower.startswith("objective"):
            tokens = stripped.split()
            if len(tokens) >= 2:
                out.objective = float(tokens[-1])
            continue
        if in_columns:
            tokens = stripped.split()
            if len(tokens) >= 2:
                try:
                    out.values[tokens[0]] = float(tokens[-1])
                except ValueError:
                    pass
    return out


def _parse_cbc(text: str) -> _ParsedSolution:
    out = _ParsedSolution()
    lines = text.splitlines()
    if lines:
        header = lines[0]
        out.status = header.split("-")[0].strip() or header.strip()
        if "objective value" in header.lower():
            try:
                out.objective = float(header.split()[-1])
            except ValueError:
                pass
    for line in lines[1:]:
        tokens = line.split()
        if len(tokens) >= 3:
            try:
                out.values[tokens[1]] = float(tokens[2])
            except ValueError:
                continue
    return out


SOLUTION_PARSERS: dict[str, Callable[[str], _ParsedSolution]] = {
    "plain": _parse_plain,
    "highs": _parse_highs,
    "cbc": _parse_cbc,
}

def solve(
    model: MipModel, limits: SolveLimits | None = None, adapter: SolverAdapter | None = None
) -> SolveOutcome:
    """Solve a built model through an adapter (bundled backend by default).

    Adapter crashes become an error outcome with the diagnostic attached.
    """
    limits = limits or SolveLimits()
    adapter = adapter or ScipyMilpAdapter()
    try:
        return adapter.solve(model, limits)
    except Exception as exc:  # adapter bug or backend crash
        return SolveOutcome(
            status=SolveStatus.ERROR,
            message=f"adapter {getattr(adapter, 'name', '?')} crashed: {exc!r}",
        )

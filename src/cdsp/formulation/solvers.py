"""MILP solving behind a small stateless adapter contract.

Adapters take a built model plus limits and return a SolveOutcome carrying
status, incumbent values, the solver-reported dual bound and wall time.
Two implementations ship: the bundled HiGHS backend, which hands
`solver_view(model)` straight to the HiGHS binding that scipy bundles for
`scipy.optimize.milp` (without `milp` itself), and a file-based adapter
that writes the model as built, invokes an arbitrary external solver
executable and parses its solution file.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import enum
import functools
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, ClassVar, Protocol

import numpy as np
import scipy.sparse as sp

from ..network import ArcKind
from .model import SENSE_GE, CsrRows, MipModel
from .writers import MODEL_FORMATS, write_model


#: HiGHS's MIP and primal feasibility tolerances in `ScipyMilpAdapter`.
FEASIBILITY_TOL = 1e-9

#: Whether `ScipyMilpAdapter` lets HiGHS run its feasibility-jump heuristic
#: (Luteberget & Sartor 2023), which HiGHS 1.12 runs before every root LP
#: at a fixed cost per solve: 47-53 ms, against 1.3-1.6 ms without it, on a
#: 1-column MIP with presolve off (2-core x86-64 host). Off, the benchmark's
#: 14 `oracle-tiny` instances take 0.29-0.32 s of HiGHS time in all instead
#: of 0.53-0.60 s (15 nodes either way), and its 14 `solve-small` instances
#: 1.3-1.6 s instead of 1.9-2.1 s (12 nodes instead of 11), at the same
#: optima; the n = 15-25 instances keep their optima and node counts. A
#: HiGHS that has no such option ignores it.
FEASIBILITY_JUMP = False

#: Whether `ScipyMilpAdapter` lets HiGHS run its root reduced-cost
#: heuristic, a sub-MIP over the columns its root reduced costs leave free:
#: most of the root work on small models, and HiGHS 1.12 crashes inside it
#: on one seeded n = 50 draw. A HiGHS that has no such option ignores it.
ROOT_REDUCED_COST = False

#: How far past a deadline a carry's earliest arrival must fall before
#: `dominated_carries` fixes it: well above the triangle tolerance summed
#: over a trip and FEASIBILITY_TOL, and far below any time in an instance.
DOMINANCE_MARGIN = 1e-6

#: The row families that involve the elapsed-shift columns tau; `solver_view`
#: leaves them out where `slack_shift_start` finds the cap slack.
SHIFT_FAMILIES = frozenset({"shift_lo", "sprop", "shift_cap"})


class SolveStatus(str, enum.Enum):
    OPTIMAL = "optimal"
    FEASIBLE_TIME_LIMIT = "feasible-time-limit"
    INFEASIBLE = "infeasible"
    NO_SOLUTION_TIME_LIMIT = "no-solution-time-limit"
    ERROR = "error"


class SolverConfigError(RuntimeError):
    """An adapter is configured with an unknown model or solution format, or
    HiGHS rejects an option the bundled adapter sets."""


@dataclass(frozen=True)
class SolveLimits:
    time_limit_s: float = 3600.0
    threads: int = 16

    def __post_init__(self):
        if self.time_limit_s <= 0:
            raise ValueError("time limit must be positive")
        if self.threads < 1:
            raise ValueError("thread cap must be >= 1")


@dataclass
class SolveOutcome:
    status: SolveStatus
    objective: float | None = None
    bound: float | None = None
    values: np.ndarray | None = None
    wall_s: float = 0.0
    message: str = ""
    nodes: int | None = None  # branch-and-bound nodes, where the solver reports them

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


def time_bound_rows(model: MipModel):
    """The 3n degree-weighted time-bound rows, each ``row @ columns >= 0``,
    that `solver_view` stacks under the model's rows, as `CsrRows.assemble` returns them.

    With r' the preprocessed release (r'_0 = 0), c_a the arc cost and t_k0
    the instance's travel time from k to the depot, for each request j
    (rows j - 1, n + j - 1 and 2n + j - 1):

    - (P)  z_j - sum_{a = i->j} max(r'_i + c_a, r'_j) x_a >= 0
    - (S1) C_j - z_j - sum_{inter a = j->k} (c_a + t_k0) x_a
      - sum_{other a out of j} t_j0 x_a >= 0
    - (S2) C_j - sum_{inter a = j->k} (max(r'_k, r'_j + c_a) + t_k0) x_a
      - sum_{other a out of j} (r'_j + t_j0) x_a >= 0

    Validity: in an integer solution exactly one arc enters and one leaves
    j (visit_in, visit_out), so each row reduces to one per-arc bound. (P)
    is ``tprop`` (z_j >= z_i + c_a) with z_i >= r'_i, together with
    z_j >= r'_j (the window bound); on a depot-out arc r'_j >= t_0j, so its
    coefficient is r'_j. Through an inter arc j->k the carry rows force
    y_kj = 1 (y_jj = 1 by its bound or the ``collect`` row), and ``compl``
    then gives C_j >= z_k + t_k0, where z_k >= z_j + c_a >= r'_j + c_a by
    ``tprop`` and z_k >= r'_k by k's window: (S1) and (S2). Through any
    other arc out of j, the trip ends at j and ``compl`` with y_jj = 1
    gives C_j >= z_j + t_j0 >= r'_j + t_j0. So the rows cut off no integer
    solution and change no optimum. In the LP relaxation the big-M rows
    switch off under fractional x and y; these rows average the same
    per-arc bounds over the degree equalities with no big-M, which lifts
    the root bound above the direct-trip bound. Taking the larger of the
    two lower bounds on z in (P) and (S2) lifts each coefficient as far as
    the windows allow. The lifting is the one Desrochers & Laporte (1991)
    and Kara, Laporte & Bektas (2004) apply to MTZ rows.
    """
    n, lay, graph = model.n, model.layout, model.graph
    arcs = graph.arcs
    src, tgt, cost = arcs["source"], arcs["target"], arcs["cost"]
    release = np.concatenate(([0.0], graph.windows.release[1:]))
    to_depot = model.inst.travel[:, 0]

    nodes = np.arange(1, n + 1)
    leaving, entering = graph.incident_arcs()  # row j - 1: node j's arcs
    arrival = np.maximum(release[src[entering]] + cost[entering], release[tgt[entering]])
    j, k = src[leaving], tgt[leaving]
    inter = arcs["kind"][leaving] == ArcKind.INTER.code
    through = np.where(inter, cost[leaving] + to_depot[k], to_depot[j])
    last_visit = np.where(inter, np.maximum(release[k], release[j] + cost[leaving]), release[j])
    earliest = last_visit + np.where(inter, to_depot[k], to_depot[j])

    # each row: its arcs in id order, then z_j and C_j, whose columns follow
    degree = leaving.shape[1]
    rows = CsrRows(model.num_columns)
    for name, width in zip(("tbound_p", "tbound_s1", "tbound_s2"), (1, 2, 1)):
        rows.add([(name, nodes[:, None], SENSE_GE, 0.0)], degree + width)
    rows.allocate()
    cols, vals = rows.block("tbound_p")
    cols[:, :-1], vals[:, :-1] = lay.x(entering), -arrival
    cols[:, -1], vals[:, -1] = lay.z(nodes), 1.0
    cols, vals = rows.block("tbound_s1")
    cols[:, :-2], vals[:, :-2] = lay.x(leaving), -through
    cols[:, -2], vals[:, -2] = lay.z(nodes), -1.0
    cols[:, -1], vals[:, -1] = lay.completion(nodes), 1.0
    cols, vals = rows.block("tbound_s2")
    cols[:, :-1], vals[:, :-1] = lay.x(leaving), -earliest
    cols[:, -1], vals[:, -1] = lay.completion(nodes), 1.0
    return rows.assemble()


def dominated_carries(model: MipModel) -> np.ndarray:
    """The carry columns y_ij (i != j) that no minimal carry assignment
    sets, which `solver_view` fixes to 0: those with
    r'_j + c(j->i) > d'_i + DOMINANCE_MARGIN, for r' and d' the
    preprocessed windows and c(j->i) the cost of the inter arc j->i.

    Validity: the carry rows only push y forward along inter arcs, and
    ``compl`` only bounds C from below, so the carry assignment in which
    y_ij = 1 exactly when j is visited before i on the same trip (or
    i = j) is feasible with every routing, and no other assignment gives
    a smaller objective. In it, y_ij = 1 needs z_i >= z_j + (the trip's
    path cost from j to i) >= r'_j + c(j->i) by ``tprop`` and the
    triangle inequality, which ``Instance`` enforces to within
    ``TRIANGLE_TOL`` per step; z_i <= d'_i then rules it out. So fixing
    these columns removes only non-minimal carries and keeps every
    optimal value. HiGHS's presolve cannot find them: they follow from a
    dominance argument, not from propagating the rows. The margin absorbs
    the triangle tolerance over a path of up to n arcs and the solve's
    feasibility tolerance.
    """
    arcs = model.graph.arcs
    windows = model.graph.windows
    inter = np.flatnonzero(arcs["kind"] == ArcKind.INTER.code)
    j, i = arcs["source"][inter], arcs["target"][inter]
    late = windows.release[j] + arcs["cost"][inter] > windows.deadline[i] + DOMINANCE_MARGIN
    return model.layout.y(i[late], j[late])


def slack_shift_start(model: MipModel) -> float | None:
    """The shift start S = min_j (r'_j - t_0j) when the shift cap cannot
    bind, that is when cap >= E - S with E = max_j (d'_j + t_j0); None
    otherwise. Here r' and d' are the preprocessed windows and t_0j, t_j0
    the depot legs, read from the instance's travel times.

    Validity: for any z inside the windows, tau = z - S meets every shift
    row. Along a used arc s->t, ``sprop`` asks tau_t - tau_s >= z_t - z_s,
    which holds with equality; along an unused one it asks
    0 >= -(d'_t - t_0t), and d'_t >= r'_t >= t_0t. The bounds hold too:
    z_j - S >= r'_j - (r'_j - t_0j) = t_0j, and
    z_j - S <= d'_j - S <= E - t_j0 - S <= cap - t_j0. So when the test
    holds, the shift rows (``sprop``, and ``shift_lo`` and ``shift_cap``
    under explicit rows) constrain no z, x or y: leaving them out changes
    neither the LP relaxation's bound nor any optimum, and setting
    tau = z - S afterwards gives a point of the full model. HiGHS's
    presolve cannot see this, since it needs the windows of every request
    at once. Under the default cap, the depot deadline D, it always holds:
    preprocessing makes d'_j + t_j0 <= D and r'_j >= t_0j, so E <= D and
    S >= 0. Removing rows that are provably redundant but invisible to
    presolve is one of the reductions surveyed by Achterberg et al.
    (INFORMS J. Comput. 2020).
    """
    inst, windows = model.inst, model.graph.windows
    start = float(np.min(windows.release[1:] - inst.travel[0, 1:]))
    end = float(np.max(windows.deadline[1:] + inst.travel[1:, 0]))
    return start if inst.shift_cap >= end - start else None


def solver_view(model: MipModel) -> tuple[MipModel, Callable[[np.ndarray], np.ndarray]]:
    """The problem the bundled solve gives HiGHS, as a MipModel: the model
    without the SHIFT_FAMILIES rows where `slack_shift_start` finds the cap
    slack, then the `time_bound_rows` as families tbound_p, tbound_s1 and
    tbound_s2, with the `dominated_carries` fixed to 0; each of those
    functions argues its validity. Also ``restore``, which makes the view's
    solution values the model's, in place: tau = z - S where the shift rows
    were left out.
    """
    shift_start = slack_shift_start(model)
    kept = model.families
    if shift_start is not None:
        kept = tuple(fam for fam in kept if fam.name not in SHIFT_FAMILIES)
        # build_model builds the shift families last, so leaving them out
        # truncates the rows and the other families keep their ranges
        assert kept == model.families[: len(kept)]
    keep = model.num_rows - sum(len(fam.rows) for fam in model.families[len(kept) :])
    col_upper = model.col_upper.copy()
    col_upper[dominated_carries(model)] = 0.0
    top = model.matrix
    bounds, lower, upper, families = time_bound_rows(model)
    end = top.indptr[keep]
    matrix = sp.csr_matrix(
        (
            np.concatenate((top.data[:end], bounds.data)),
            np.concatenate((top.indices[:end], bounds.indices)),
            np.concatenate((top.indptr[: keep + 1], bounds.indptr[1:] + end)),
        ),
        shape=(keep + bounds.shape[0], model.num_columns),
    )
    view = dataclasses.replace(
        model,
        matrix=matrix,
        row_lower=np.concatenate((model.row_lower[:keep], lower)),
        row_upper=np.concatenate((model.row_upper[:keep], upper)),
        col_upper=col_upper,
        families=kept
        + tuple(
            dataclasses.replace(fam, rows=range(keep + fam.rows.start, keep + fam.rows.stop))
            for fam in families
        ),
    )

    def restore(values: np.ndarray) -> np.ndarray:
        if shift_start is not None:
            nodes = np.arange(1, model.n + 1)
            values[model.layout.tau(nodes)] = values[model.layout.z(nodes)] - shift_start
        return values

    return view, restore


#: The options `ScipyMilpAdapter` may skip: heuristic toggles that an
#: older HiGHS lacks, where HiGHS runs on its own default instead.
OPTIONAL_OPTIONS = frozenset(
    {"mip_heuristic_run_feasibility_jump", "mip_heuristic_run_root_reduced_cost"}
)


def _highs_lp(highspy, model: MipModel):
    """A HighsLp of the binding module ``highspy`` holding the model's own
    arrays, its CSR matrix passed row-wise as it is."""
    c, matrix, row_lb, row_ub, lb, ub, integrality = model_to_arrays(model)
    lp = highspy.HighsLp()
    lp.num_row_, lp.num_col_ = matrix.shape
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = c, lb, ub
    lp.row_lower_, lp.row_upper_ = row_lb, row_ub
    a = lp.a_matrix_
    a.format_ = highspy.MatrixFormat.kRowwise
    a.num_row_, a.num_col_ = matrix.shape
    a.start_, a.index_, a.value_ = matrix.indptr, matrix.indices, matrix.data
    kinds = (highspy.HighsVarType.kContinuous, highspy.HighsVarType.kInteger)
    lp.integrality_ = [kinds[kind] for kind in integrality.tolist()]
    return lp


def _highs_run(highspy, lp, options: dict):
    """One HiGHS solve of ``lp`` under ``options``: the Highs object and its
    model status, kModelError where HiGHS refuses the model. An option that
    HiGHS rejects raises SolverConfigError, except those in OPTIONAL_OPTIONS."""
    highs = highspy._Highs()
    for name, value in options.items():
        if highs.setOptionValue(name, value) == highspy.HighsStatus.kError:
            if name not in OPTIONAL_OPTIONS:
                raise SolverConfigError(f"HiGHS rejects option {name} = {value!r}")
    if highs.passModel(lp) == highspy.HighsStatus.kError:
        return highs, highspy.HighsModelStatus.kModelError
    highs.run()
    return highs, highs.getModelStatus()


@dataclass(frozen=True)
class ScipyMilpAdapter:
    """Bundled backend: HiGHS through the binding that scipy bundles for
    `scipy.optimize.milp` (``scipy.optimize._highspy._core``), called
    directly.

    HiGHS gets `solver_view(model)`, built here on each call: the same
    optima as the model as built, in far fewer branch-and-bound nodes. The
    returned values are the model's. HiGHS's relative gap target is 0, so
    a reported optimum is a proven one.

    The view's arrays go to HiGHS as they are, the CSR matrix row-wise.
    `milp` would check its inputs first: finite costs, integrality codes in
    0-3, bounds and row bounds of the right lengths, a matrix of the right
    shape. `MipModel` holds those invariants by construction and
    `solver_view` keeps them, so the checks are left out with the rest of
    the wrapper. So are row duals, bound marginals and the basis, which
    nothing here reads.

    HiGHS gets no thread setting: it runs with its own default whatever
    `limits.threads` says, which only `FileSolverAdapter`'s ``{threads}``
    placeholder reads. Deterministic for fixed inputs.

    Feasibility tolerances are FEASIBILITY_TOL (1e-9), well below HiGHS's
    1e-6 MIP default: incumbents may shave binding constraints by up to that
    tolerance, which would blur objective comparisons at the 1e-6 level.
    HiGHS's feasibility-jump heuristic is off (FEASIBILITY_JUMP): a fixed
    cost per solve that saved no branch-and-bound node on the benchmark.
    So is its root reduced-cost heuristic (ROOT_REDUCED_COST), most of the
    root work on small models. A HiGHS that lacks one of those two toggles
    runs on its default; any other option it rejects raises
    SolverConfigError naming it.

    HiGHS's model status sets the outcome's status, and its text the
    message. A model that HiGHS refuses to load (a "Model error", such as
    coefficients of 1e15 and up) is an error, not infeasible. Any other
    status without an answer is retried once without presolve, within the
    time left; the outcome's message says so.
    """

    name: ClassVar[str] = "scipy-highs"

    def solve(self, model: MipModel, limits: SolveLimits) -> SolveOutcome:
        from scipy.optimize._highspy import _core as highspy

        start = time.perf_counter()
        view, restore = solver_view(model)
        lp = _highs_lp(highspy, view)
        options = {
            "log_to_console": False,
            "time_limit": float(limits.time_limit_s),
            "mip_rel_gap": 0.0,
            "mip_feasibility_tolerance": FEASIBILITY_TOL,
            "primal_feasibility_tolerance": FEASIBILITY_TOL,
            "mip_heuristic_run_feasibility_jump": FEASIBILITY_JUMP,
            "mip_heuristic_run_root_reduced_cost": ROOT_REDUCED_COST,
        }
        answers = {
            highspy.HighsModelStatus.kOptimal: SolveStatus.OPTIMAL,
            highspy.HighsModelStatus.kTimeLimit: SolveStatus.FEASIBLE_TIME_LIMIT,
            highspy.HighsModelStatus.kInfeasible: SolveStatus.INFEASIBLE,
        }
        refused = (highspy.HighsModelStatus.kModelError, highspy.HighsModelStatus.kLoadError)
        note = ""
        with _stdout_to_stderr():
            highs, status = _highs_run(highspy, lp, options)
            remaining = limits.time_limit_s - (time.perf_counter() - start)
            if status not in answers and status not in refused and remaining > 0:
                # HiGHS checks the optimum it accepted on the presolved model
                # again on the original one, and reports a solve error when
                # postsolve round-off leaves it a hair over the tolerance
                # there ("MIP solver claims optimality, but with ...
                # infeasibilities"). Without presolve there is no round trip.
                note = f" (re-solved without presolve after: {highs.modelStatusToString(status)})"
                highs, status = _highs_run(
                    highspy, lp, {**options, "presolve": "off", "time_limit": remaining}
                )
            info = highs.getInfo()
            found = status in answers and (
                info.primal_solution_status == highspy.kSolutionStatusFeasible
            )
            values = restore(np.array(highs.getSolution().col_value)) if found else None
        wall = time.perf_counter() - start
        kind = answers.get(status, SolveStatus.ERROR)
        if kind is SolveStatus.FEASIBLE_TIME_LIMIT and not found:
            kind = SolveStatus.NO_SOLUTION_TIME_LIMIT
        return SolveOutcome(
            status=kind,
            objective=float(info.objective_function_value) if found else None,
            bound=float(info.mip_dual_bound) if found else None,
            values=values,
            wall_s=wall,
            message=highs.modelStatusToString(status) + note,
            nodes=int(info.mip_node_count) if found else None,
        )


@functools.cache
def _libc():
    """The process's C library, for fflush; None where ctypes cannot load it."""
    try:
        libc = ctypes.CDLL(None)
        libc.fflush.argtypes = [ctypes.c_void_p]
        libc.fflush.restype = ctypes.c_int
    except (OSError, TypeError, AttributeError):
        return None
    return libc


@contextlib.contextmanager
def _stdout_to_stderr():
    """Point file descriptor 1 at descriptor 2 while HiGHS runs.

    HiGHS 1.12 prints ``HighsMipSolverData::transformNewIntegerFeasibleSolution
    tmpSolver.run();`` straight to the C stdout, which neither ``output_flag``
    nor ``log_to_console`` stops, and it would land in the CLI's output.
    The Python and C buffers are flushed before each switch, so what the
    program prints before and after the solve stays on stdout, in order.
    Without a C library or an fd 1, nothing is redirected.
    """
    libc = _libc()
    try:
        saved = os.dup(1) if libc is not None else None
    except OSError:
        saved = None
    if saved is None:
        yield
        return
    if sys.stdout is not None:
        sys.stdout.flush()
    libc.fflush(None)
    try:
        os.dup2(2, 1)
        yield
    finally:
        libc.fflush(None)
        os.dup2(saved, 1)
        os.close(saved)


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
    name: ClassVar[str] = "file"

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
    model: MipModel, limits: SolveLimits, adapter: SolverAdapter = ScipyMilpAdapter()
) -> SolveOutcome:
    """Solve a built model through an adapter (bundled backend by default).

    Adapter crashes become an error outcome with the diagnostic attached.
    """
    try:
        return adapter.solve(model, limits)
    except Exception as exc:  # adapter bug or backend crash
        return SolveOutcome(
            status=SolveStatus.ERROR,
            message=f"adapter {getattr(adapter, 'name', '?')} crashed: {exc!r}",
        )

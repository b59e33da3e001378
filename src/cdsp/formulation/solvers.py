"""MILP solving behind a small stateless adapter contract.

Adapters take a built model plus limits and return a SolveOutcome carrying
status, incumbent values and the solver-reported dual bound; the caller
times the solve.
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
import types
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, ClassVar, Protocol

import numpy as np
import scipy.sparse as sp

from ..network import ArcKind
from .model import SENSE_GE, CsrRows, MipModel
from .writers import MODEL_FORMATS, write_model


#: Every option `ScipyMilpAdapter` gives HiGHS but the time limit, read-only;
#: its retry adds ``presolve`` off. The config fingerprint states it.
HIGHS_OPTIONS = types.MappingProxyType(
    {
        "log_to_console": False,
        # 0, so a reported optimum is a proven one
        "mip_rel_gap": 0.0,
        # well below HiGHS's 1e-6 MIP default: the decoded F is exact (the
        # decoder times the routes itself), and what remains is comparing
        # it with HiGHS's objective at 1e-6
        "mip_feasibility_tolerance": 1e-9,
        "primal_feasibility_tolerance": 1e-9,
        # feasibility jump (Luteberget & Sartor 2023), which HiGHS 1.12 runs
        # before every root LP at a fixed cost per solve: 47-53 ms, against
        # 1.3-1.6 ms without it, on a 1-column MIP with presolve off (2-core
        # x86-64 host). Off, the benchmark's 14 `oracle-tiny` instances take
        # 0.29-0.32 s of HiGHS time in all instead of 0.53-0.60 s (15 nodes
        # either way), and its 14 `solve-small` instances 1.3-1.6 s instead
        # of 1.9-2.1 s (12 nodes instead of 11), at the same optima; the
        # n = 15-25 instances keep their optima and node counts
        "mip_heuristic_run_feasibility_jump": False,
        # the root reduced-cost heuristic, a sub-MIP over the columns the
        # root reduced costs leave free: most of the root work on small
        # models, and HiGHS 1.12 crashes inside it on one seeded n = 50 draw
        "mip_heuristic_run_root_reduced_cost": False,
    }
)

#: The options `ScipyMilpAdapter` may skip: the heuristic toggles, which an
#: older HiGHS lacks, where HiGHS runs on its own default instead.
OPTIONAL_OPTIONS = frozenset(name for name in HIGHS_OPTIONS if name.startswith("mip_heuristic_"))

#: How far past a deadline a carry's earliest arrival must fall before
#: `dominated_carries` fixes it: well above the triangle tolerance summed
#: over a trip and HiGHS's feasibility tolerance (HIGHS_OPTIONS), and far
#: below any time in an instance.
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

    def __str__(self) -> str:  # the value, as print and f-strings show it on every Python
        return self.value


class SolverConfigError(RuntimeError):
    """An adapter is configured with an unknown model or solution format or
    a command holding {threads}, or HiGHS rejects an option the bundled
    adapter sets."""


@dataclass(frozen=True)
class SolveLimits:
    time_limit_s: float = 3600.0

    def __post_init__(self):
        if not self.time_limit_s > 0:  # NaN too
            raise ValueError("time limit must be positive")


@dataclass
class SolveOutcome:
    """One solve as an adapter reports it. Two rules hold whatever the
    adapter: a time-limit stop without values is no-solution-time-limit,
    and an optimum claimed without values is an error saying so."""

    status: SolveStatus
    objective: float | None = None
    bound: float | None = None
    values: np.ndarray | None = None
    message: str = ""
    nodes: int | None = None  # branch-and-bound nodes, where the solver reports them

    def __post_init__(self):
        if self.values is None and self.status is SolveStatus.FEASIBLE_TIME_LIMIT:
            self.status = SolveStatus.NO_SOLUTION_TIME_LIMIT
        elif self.values is None and self.status is SolveStatus.OPTIMAL:
            self.status = SolveStatus.ERROR
            self.message = "solver claims optimal but reported no values"

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


@functools.cache
def load_highs():
    """scipy's HiGHS binding, ``scipy.optimize._highspy._core``, imported on
    the first call: 0.2-0.4 s on a 2-core x86-64 host, which `run_instance`
    spends before it starts the solve clock."""
    from scipy.optimize._highspy import _core

    return _core


def _highs_model(highspy, model: MipModel) -> tuple:
    """The arguments of the binding's array overload of ``_Highs.passModel``
    for the model: its own arrays, the CSR matrix row-wise as it is, the
    integrality as int32 codes (0 continuous, 1 integer)."""
    c, matrix, row_lb, row_ub, lb, ub, integrality = model_to_arrays(model)
    num_row, num_col = matrix.shape
    rowwise, minimize = highspy.MatrixFormat.kRowwise, highspy.ObjSense.kMinimize
    return (
        num_col, num_row, matrix.nnz, int(rowwise), int(minimize), 0.0,
        c, lb, ub, row_lb, row_ub,
        matrix.indptr, matrix.indices, matrix.data, integrality.astype(np.int32),
    )


def _highs_run(highspy, arrays: tuple, options: dict):
    """One HiGHS solve of the model `_highs_model` gave as ``arrays`` under
    ``options``: the Highs object and its model status, kModelError where
    HiGHS refuses the model. An option that HiGHS rejects raises
    SolverConfigError, except those in OPTIONAL_OPTIONS."""
    highs = highspy._Highs()
    for name, value in options.items():
        if highs.setOptionValue(name, value) == highspy.HighsStatus.kError:
            if name not in OPTIONAL_OPTIONS:
                raise SolverConfigError(f"HiGHS rejects option {name} = {value!r}")
    if highs.passModel(*arrays) == highspy.HighsStatus.kError:
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
    returned values are the model's. HiGHS gets HIGHS_OPTIONS and the time
    limit; a HiGHS that lacks one of the OPTIONAL_OPTIONS runs on its
    default, and any other option it rejects raises SolverConfigError
    naming it.

    The view's arrays go to HiGHS as they are, through the binding's array
    overload of ``passModel``, the CSR matrix row-wise. The binding casts
    index arrays to HiGHS's int32 without a check, so a matrix whose
    indices scipy keeps as int64 (past 2**31 - 1 nonzeros) is an error
    outcome saying so, not a solve of a truncated matrix.
    `milp` would check its inputs first: finite costs, integrality codes in
    0-3, bounds and row bounds of the right lengths, a matrix of the right
    shape. `MipModel` holds those invariants by construction and
    `solver_view` keeps them, so the checks are left out with the rest of
    the wrapper. So are row duals, bound marginals and the basis, which
    nothing here reads.

    HiGHS gets no thread setting and runs with its own default.
    Deterministic for fixed inputs.

    HiGHS's model status sets the outcome's status, and its text the
    message. A model that HiGHS refuses to load (a "Model error", such as
    coefficients of 1e15 and up) is an error, not infeasible. Any other
    status without an answer is retried once without presolve, within the
    time left; the outcome's message says so.
    """

    name: ClassVar[str] = "scipy-highs"

    def solve(self, model: MipModel, limits: SolveLimits) -> SolveOutcome:
        highspy = load_highs()
        start = time.perf_counter()  # for the time left to a retry
        view, restore = solver_view(model)
        matrix = view.matrix
        index_dtype = np.result_type(matrix.indptr, matrix.indices)
        if index_dtype != np.int32:
            # the binding would cast them to HiGHS's int32 without a check
            return SolveOutcome(
                status=SolveStatus.ERROR,
                message=f"HiGHS takes int32 matrix indices; this matrix's are {index_dtype}"
                f" ({matrix.nnz} nonzeros)",
            )
        arrays = _highs_model(highspy, view)
        options = {**HIGHS_OPTIONS, "time_limit": float(limits.time_limit_s)}
        answers = {
            highspy.HighsModelStatus.kOptimal: SolveStatus.OPTIMAL,
            highspy.HighsModelStatus.kTimeLimit: SolveStatus.FEASIBLE_TIME_LIMIT,
            highspy.HighsModelStatus.kInfeasible: SolveStatus.INFEASIBLE,
        }
        refused = (highspy.HighsModelStatus.kModelError, highspy.HighsModelStatus.kLoadError)
        note = ""
        with _stdout_to_stderr():
            highs, status = _highs_run(highspy, arrays, options)
            remaining = limits.time_limit_s - (time.perf_counter() - start)
            if status not in answers and status not in refused and remaining > 0:
                # HiGHS checks the optimum it accepted on the presolved model
                # again on the original one, and reports a solve error when
                # postsolve round-off leaves it a hair over the tolerance
                # there ("MIP solver claims optimality, but with ...
                # infeasibilities"). Without presolve there is no round trip.
                note = f" (re-solved without presolve after: {highs.modelStatusToString(status)})"
                highs, status = _highs_run(
                    highspy, arrays, {**options, "presolve": "off", "time_limit": remaining}
                )
            info = highs.getInfo()
            found = status in answers and (
                info.primal_solution_status == highspy.kSolutionStatusFeasible
            )
            values = restore(np.array(highs.getSolution().col_value)) if found else None
        return SolveOutcome(
            status=answers.get(status, SolveStatus.ERROR),
            objective=float(info.objective_function_value) if found else None,
            bound=float(info.mip_dual_bound) if found else None,
            values=values,
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

    The command is a template; {model}, {solution} and {time_limit}
    placeholders are substituted per call. A thread count, if the solver
    takes one, is written into the command itself: a command holding
    {threads} raises SolverConfigError. The solver's stdout is discarded,
    and the tail of its stderr goes into the message when it writes no
    solution file. The solver must write a solution file that one of the
    bundled parsers understands:

    - "plain": optional ``status <word>`` / ``objective <num>`` /
      ``bound <num>`` headers, then one ``<variable> <value>`` per line
      ("#" comments ignored);
    - "highs": the HiGHS ``--solution_file`` layout;
    - "cbc": the COIN-OR CBC ``solve ... solu`` layout.

    Variables absent from the file default to 0 (the usual sparse-output
    convention). The status text, stripped and lower-cased, decides the
    outcome: one holding "infeasible" is infeasible and exactly "optimal"
    is optimal; any other is feasible-time-limit with values, and without
    them no-solution-time-limit, or error on a non-zero exit.
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
        if any("{threads}" in part for part in self.command):
            raise SolverConfigError(
                "the {threads} placeholder is not filled in; write the thread count "
                "into the command"
            )

    def solve(self, model: MipModel, limits: SolveLimits) -> SolveOutcome:
        parser = SOLUTION_PARSERS[self.solution_format]
        with tempfile.TemporaryDirectory(prefix="cdsp-solve-") as tmp:
            model_path = Path(tmp) / f"model.{self.model_format}"
            solution_path = Path(tmp) / "model.sol"
            with open(model_path, "w", encoding="utf-8", newline="") as file:
                write_model(model, self.model_format, file)
            substitutions = {
                "{model}": str(model_path),
                "{solution}": str(solution_path),
                "{time_limit}": f"{limits.time_limit_s:g}",
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
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.PIPE,
                    text=True,
                    errors="replace",
                    timeout=limits.time_limit_s * 1.5 + 30.0,
                )
            except subprocess.TimeoutExpired:
                return SolveOutcome(
                    status=SolveStatus.NO_SOLUTION_TIME_LIMIT,
                    message="external solver killed after exceeding the time limit",
                )
            except OSError as exc:
                return SolveOutcome(
                    status=SolveStatus.ERROR,
                    message=f"cannot run {cmd[0]!r}: {exc}",
                )
            if not solution_path.exists():
                return SolveOutcome(
                    status=SolveStatus.ERROR,
                    message=(
                        f"solver wrote no solution file (exit {proc.returncode}): "
                        + proc.stderr.strip()[-500:]
                    ),
                )
            parsed = parser(solution_path.read_text(encoding="utf-8", errors="replace"))
        return self._to_outcome(model, parsed, proc.returncode)

    def _to_outcome(self, model, parsed: "_ParsedSolution", returncode) -> SolveOutcome:
        status_word = (parsed.status or "").strip().lower()
        if "infeasible" in status_word:
            return SolveOutcome(SolveStatus.INFEASIBLE, bound=parsed.bound, message=status_word)
        values = objective = None
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
                    message="solution file contains no recognizable variables",
                )
            costed = np.flatnonzero(model.c)
            objective = (
                parsed.objective
                if parsed.objective is not None
                else float(sum(model.c[costed] * values[costed]))
            )
        optimal = status_word == "optimal"
        if values is None and returncode != 0 and not optimal:
            return SolveOutcome(status=SolveStatus.ERROR, message=f"solver exit {returncode}")
        note = "no incumbent reported" if values is None else "stopped before proving optimality"
        return SolveOutcome(
            status=SolveStatus.OPTIMAL if optimal else SolveStatus.FEASIBLE_TIME_LIMIT,
            objective=objective,
            bound=objective if optimal and parsed.bound is None else parsed.bound,
            values=values,
            message=status_word or note,
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

"""Per-row and per-column views of a built model, for tests.

The library stores a model as arrays only. These helpers rebuild the
pictures tests assert on from the public arrays (`integrality`, `c`,
`col_lower`/`col_upper`, `layout.names()`, `families`, `matrix`,
`row_name_codes()` and `row_senses()`): column views, the objective as a
dict, variable counts, the joined row names, one family's rows, the per-arc
big-M reference formulas that `build_model` vectorizes, the triplet build
of the constraint rows that its direct CSR placement replaced, the column
values that embed a routed solution, and a solution's trips per vehicle.

The graph's arc table gets the same treatment: `Arc` is one validated arc,
`reference_arcs` the per-arc enumeration that `build_multigraph` vectorizes,
and `arc_list` the table as `Arc`s. `reference_triangle_violations` is the
exhaustive slack-cube listing that `instances.triangle_violations` runs only
once its O(m^2)-memory scan has found a violation.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from cdsp.formulation.model import (
    SENSE_EQ,
    SENSE_GE,
    SENSE_LE,
    SENSES,
    ColumnLayout,
    MipModel,
    Row,
    RowFamily,
)
from cdsp.instances import TRIANGLE_TOL, Instance
from cdsp.network import ArcKind, Multigraph, TimeWindows
from cdsp.routes import EvaluatedSolution

BINARY = "binary"
CONTINUOUS = "continuous"


class Variable(NamedTuple):
    """Read-only view of one column."""

    name: str
    column: int
    kind: str
    lower: float
    upper: float


def variables(model: MipModel) -> list[Variable]:
    """One view per column, in column order."""
    return [
        Variable(name, col, BINARY if integer else CONTINUOUS, lo, up)
        for col, (name, integer, lo, up) in enumerate(
            zip(
                model.layout.names(),
                model.integrality.tolist(),
                model.col_lower.tolist(),
                model.col_upper.tolist(),
            )
        )
    ]


def objective(model: MipModel) -> dict[int, float]:
    """Column -> cost over the columns with a nonzero cost."""
    cols = np.flatnonzero(model.c)
    return dict(zip(cols.tolist(), model.c[cols].tolist()))


def count_binary(model: MipModel) -> int:
    return int(np.count_nonzero(model.integrality))


def count_continuous(model: MipModel) -> int:
    return model.num_columns - count_binary(model)


def row_names(model: MipModel) -> np.ndarray:
    """Constraint names in row order as an object array, joined from the
    head and tail codes of `MipModel.row_name_codes`."""
    heads, tails, head_code, tail_code = model.row_name_codes()
    return np.array(heads, dtype=object)[head_code] + np.array(tails, dtype=object)[tail_code]


def rows_by_family(model: MipModel, family: str) -> list[Row]:
    """Rows named ``<family>_<key>[_<key>]``, in row order; none for a family
    of one row named ``<family>`` (depot_balance, fleet_cap)."""
    for fam in model.families:
        if fam.name == family and fam.keys.shape[1]:
            break
    else:
        return []
    codes, rhs = model.row_senses()
    ptr, cols, vals = model.matrix.indptr, model.matrix.indices, model.matrix.data
    names = row_names(model)[fam.rows.start : fam.rows.stop : fam.rows.step]
    return [
        Row(
            name,
            dict(zip(cols[ptr[r] : ptr[r + 1]].tolist(), vals[ptr[r] : ptr[r + 1]].tolist())),
            SENSES[codes[r]],
            float(rhs[r]),
        )
        for r, name in zip(fam.rows, names.tolist())
    ]


@dataclass(frozen=True)
class Arc:
    id: int
    source: int
    target: int
    kind: ArcKind
    cost: float

    def __post_init__(self):
        if self.cost < 0:
            raise ValueError(f"arc {self.id}: negative cost")
        if self.kind is ArcKind.DEPOT:
            if (self.source == 0) == (self.target == 0):
                raise ValueError(f"arc {self.id}: depot arc must touch the depot exactly once")
        else:
            if self.source == 0 or self.target == 0 or self.source == self.target:
                raise ValueError(
                    f"arc {self.id}: {self.kind.value} arc must join two distinct points of care"
                )


def reference_arcs(inst: Instance) -> list[Arc]:
    """The arcs one at a time, in id order: depot-out, depot-in, inter, then
    replenishment, each block in lexicographic (source, target) order."""
    n = inst.n
    travel = inst.travel
    arcs: list[Arc] = []

    def add(source: int, target: int, kind: ArcKind, cost: float):
        arcs.append(Arc(id=len(arcs), source=source, target=target, kind=kind, cost=cost))

    for j in range(1, n + 1):
        add(0, j, ArcKind.DEPOT, float(travel[0, j]))
    for j in range(1, n + 1):
        add(j, 0, ArcKind.DEPOT, float(travel[j, 0]))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                add(i, j, ArcKind.INTER, float(travel[i, j]))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                add(i, j, ArcKind.REPLENISH, float(travel[i, 0] + travel[0, j]))
    return arcs


def reference_triangle_violations(travel) -> list[tuple[int, int, int, float]]:
    """Every (i, j, k, slack) with slack = c_ij + c_jk - c_ik < -TRIANGLE_TOL,
    in (i, j, k) order, read off the full (m, m, m) slack cube."""
    t = np.asarray(travel, dtype=float)
    slack = t[:, :, None] + t[None, :, :] - t[:, None, :]  # slack[i,j,k]
    bad = np.argwhere(slack < -TRIANGLE_TOL)
    return [(int(i), int(j), int(k), float(slack[i, j, k])) for i, j, k in bad]


def arc_list(graph: Multigraph) -> list[Arc]:
    """The graph's arc table as validated `Arc`s, in id order."""
    kinds = tuple(ArcKind)
    return [Arc(a, s, t, kinds[k], c) for a, (s, t, k, c) in enumerate(graph.arcs.tolist())]


def big_m_visit(arc: Arc, windows: TimeWindows) -> float:
    """Deactivation constant for time propagation along a movement arc."""
    if arc.kind is ArcKind.DEPOT:
        raise ValueError("visit big-M is defined only between points of care")
    return max(0.0, float(windows.deadline[arc.source] + arc.cost - windows.release[arc.target]))


def big_m_completion(i: int, windows: TimeWindows, travel: np.ndarray) -> float:
    """Deactivation constant for the completion link of carrier node i."""
    return float(windows.deadline[i] + travel[i, 0])


def big_m_shift(arc: Arc, windows: TimeWindows, travel: np.ndarray) -> float:
    """Deactivation constant for elapsed-shift propagation along a movement arc.

    Nonnegative for preprocessed windows; a negative value signals a window
    preprocessing should have flagged as empty.
    """
    if arc.kind is ArcKind.DEPOT:
        raise ValueError("shift big-M is defined only between points of care")
    return float(windows.deadline[arc.target] - travel[0, arc.target])


def _dense_rows(cols: list, vals: list):
    """(row, column, value) triplets of rows of equal width, given column by
    column; a value list entry may be a scalar shared by every row."""
    cols = np.column_stack(cols)
    vals = np.column_stack([np.broadcast_to(v, len(cols)) for v in vals])
    return np.repeat(np.arange(len(cols)), cols.shape[1]), cols.ravel(), vals.ravel()


class _RowBlocks:
    """Row blocks appended in matrix order as (row, column, value) triplets,
    plus the family table and the row bounds."""

    def __init__(self):
        self.triplets: list[tuple] = []
        self.bounds: list[tuple] = []
        self.families: list[RowFamily] = []
        self.num_rows = 0

    def add(self, families, triplets):
        """Append rows given as triplets with rows counted from 0 in the
        block; ``families`` lists (name, keys, sense, rhs) with 2-D keys, one
        key per row, and block row r belongs to families[r % len(families)]."""
        rows, cols, vals = triplets
        num_rows = sum(len(keys) for _, keys, _, _ in families)
        stride = len(families)
        lower = np.empty(num_rows)
        upper = np.empty(num_rows)
        for offset, (name, keys, sense, rhs) in enumerate(families):
            start = self.num_rows + offset
            self.families.append(
                RowFamily(name, range(start, self.num_rows + num_rows, stride), keys)
            )
            lower[offset::stride] = -math.inf if sense == SENSE_LE else rhs
            upper[offset::stride] = math.inf if sense == SENSE_GE else rhs
        self.triplets.append((rows + self.num_rows, cols, vals))
        self.bounds.append((lower, upper))
        self.num_rows += num_rows

    def assemble(self, num_columns: int):
        """One COO to CSR conversion, in which scipy sorts the columns within
        each row; then the zero coefficients (big-Ms that vanish) are dropped."""
        rows, cols, vals = (np.concatenate(part) for part in zip(*self.triplets))
        matrix = sp.csr_matrix((vals, (rows, cols)), shape=(self.num_rows, num_columns))
        matrix.eliminate_zeros()
        lower, upper = (np.concatenate(b) for b in zip(*self.bounds))
        return matrix, lower, upper, tuple(self.families)


def reference_rows(graph: Multigraph, inst: Instance, explicit_bounds: bool = False):
    """The constraint matrix, row bounds and family table of
    `build_model(graph, inst, explicit_bounds)`, built as the library built
    them before it placed each row's entries directly: each family as
    (row, column, value) triplets in family order, joined and converted
    from COO to CSR by scipy, which sorts the columns within each row, and
    then without the zero coefficients."""
    n = graph.n
    windows = graph.windows
    travel = inst.travel
    release, deadline = windows.release, windows.deadline
    lay = ColumnLayout(n)
    nodes = np.arange(1, n + 1)
    node_keys = nodes[:, None]
    no_keys = np.empty((1, 0), dtype=np.int64)  # for a single named row

    arcs = graph.arcs
    src, tgt, cost = arcs["source"], arcs["target"], arcs["cost"]
    is_depot = arcs["kind"] == ArcKind.DEPOT.code
    is_inter = arcs["kind"] == ArcKind.INTER.code

    rows = _RowBlocks()

    depot_in, depot_out = np.flatnonzero(tgt == 0), np.flatnonzero(src == 0)
    rows.add(
        [
            ("depot_balance", no_keys, SENSE_EQ, 0.0),
            ("fleet_cap", no_keys, SENSE_LE, inst.fleet_size),
        ],
        (
            np.repeat([0, 0, 1], [len(depot_out), len(depot_in), len(depot_out)]),
            lay.x(np.concatenate((depot_out, depot_in, depot_out))),
            np.repeat([1.0, -1.0, 1.0], [len(depot_out), len(depot_in), len(depot_out)]),
        ),
    )

    leaves, enters = np.flatnonzero(src > 0), np.flatnonzero(tgt > 0)
    rows.add(
        [("visit_out", node_keys, SENSE_EQ, 1.0), ("visit_in", node_keys, SENSE_EQ, 1.0)],
        (
            np.concatenate((2 * (src[leaves] - 1), 2 * (tgt[enters] - 1) + 1)),
            lay.x(np.concatenate((leaves, enters))),
            np.ones(len(leaves) + len(enters)),
        ),
    )

    move = np.flatnonzero(~is_depot)
    s, t = src[move], tgt[move]
    m_visit = np.maximum(0.0, deadline[s] + cost[move] - release[t])
    rows.add(
        [("tprop", move[:, None], SENSE_LE, m_visit - cost[move])],
        _dense_rows([lay.x(move), lay.z(s), lay.z(t)], [m_visit, 1.0, -1.0]),
    )

    if explicit_bounds:
        rows.add(
            [
                ("window_lo", node_keys, SENSE_GE, release[1:]),
                ("window_hi", node_keys, SENSE_LE, deadline[1:]),
            ],
            _dense_rows([np.repeat(lay.z(nodes), 2)], [1.0]),
        )
        rows.add(
            [("collect", node_keys, SENSE_EQ, 1.0)], _dense_rows([lay.y(nodes, nodes)], [1.0])
        )

    inter = np.repeat(np.flatnonzero(is_inter), n)
    carried = np.tile(nodes, np.count_nonzero(is_inter))
    keep = carried != tgt[inter]
    inter, carried = inter[keep], carried[keep]
    rows.add(
        [("carry", np.column_stack((inter, carried)), SENSE_LE, 1.0)],
        _dense_rows(
            [lay.x(inter), lay.y(src[inter], carried), lay.y(tgt[inter], carried)],
            [1.0, 1.0, -1.0],
        ),
    )

    carrier, carried = np.repeat(nodes, n), np.tile(nodes, n)
    m_completion = deadline[carrier] + travel[carrier, 0]
    completion_rhs = m_completion - travel[carrier, 0]
    rows.add(
        [("compl", np.column_stack((carrier, carried)), SENSE_LE, completion_rhs)],
        _dense_rows(
            [lay.y(carrier, carried), lay.z(carrier), lay.completion(carried)],
            [m_completion, 1.0, -1.0],
        ),
    )

    if explicit_bounds:
        rows.add(
            [("shift_lo", node_keys, SENSE_GE, travel[0, 1:])],
            _dense_rows([lay.tau(nodes)], [1.0]),
        )

    m_shift = deadline[t] - travel[0, t]
    rows.add(
        [("sprop", move[:, None], SENSE_LE, m_shift)],
        _dense_rows(
            [lay.x(move), lay.z(s), lay.z(t), lay.tau(s), lay.tau(t)],
            [m_shift, -1.0, 1.0, 1.0, -1.0],
        ),
    )

    if explicit_bounds:
        rows.add(
            [("shift_cap", node_keys, SENSE_LE, inst.shift_cap - travel[1:, 0])],
            _dense_rows([lay.tau(nodes)], [1.0]),
        )

    return rows.assemble(lay.num_columns)


def trips_by_vehicle(sol: EvaluatedSolution) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Each tour's trips, tours in vehicle order."""
    return tuple(tour.trips for tour in sorted(sol.tours, key=lambda tour: tour.vehicle))


def solution_column_values(
    sol: EvaluatedSolution, model: MipModel, graph: Multigraph
) -> np.ndarray:
    """Column values implied by a routed, scheduled solution.

    Used to check that every generated constraint admits the solutions an
    independent search deems feasible.
    """
    lay = model.layout
    n = model.n
    vec = np.zeros(model.num_columns)

    arcs = arc_list(graph)
    inter = {(a.source, a.target): a.id for a in arcs if a.kind is ArcKind.INTER}
    replenish = {(a.source, a.target): a.id for a in arcs if a.kind is ArcKind.REPLENISH}

    for tour in sol.tours:
        first = tour.trips[0][0]
        vec[lay.x(first - 1)] = 1.0  # depot arc 0 -> first
        last = tour.trips[-1][-1]
        vec[lay.x(n + last - 1)] = 1.0  # depot arc last -> 0
        prev_trip = None
        for trip in tour.trips:
            if prev_trip is not None:
                vec[lay.x(replenish[(prev_trip[-1], trip[0])])] = 1.0
            for u, v in zip(trip, trip[1:]):
                vec[lay.x(inter[(u, v)])] = 1.0
            for pos, j in enumerate(trip):
                for i in trip[pos:]:
                    vec[lay.y(i, j)] = 1.0
            prev_trip = trip

    for j in range(1, n + 1):
        vec[lay.y(j, j)] = 1.0  # also for unrouted nodes of partial solutions

    for tour in sol.tours:
        for trip in tour.trips:
            for node in trip:
                z = sol.visit[node]
                vec[lay.z(node)] = z
                vec[lay.tau(node)] = z - tour.departure
    for j, completed in sol.completion.items():
        vec[lay.completion(j)] = completed
    return vec

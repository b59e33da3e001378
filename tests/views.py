"""Per-row and per-column views of a built model, for tests.

The library stores a model as arrays only. These helpers rebuild the
pictures tests assert on from the public arrays (`integrality`, `c`,
`col_lower`/`col_upper`, `layout.names()`, `families`, `matrix` and
`row_senses()`): column views, the objective as a dict, variable counts,
one family's rows, the per-arc big-M reference formulas that `build_model`
vectorizes, and the column values that embed a routed solution.
"""

from typing import NamedTuple

import numpy as np

from cdsp.formulation.model import SENSES, MipModel, Row
from cdsp.network import Arc, ArcKind, Multigraph, TimeWindows
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
    return [
        Row(
            name,
            dict(zip(cols[ptr[r] : ptr[r + 1]].tolist(), vals[ptr[r] : ptr[r + 1]].tolist())),
            SENSES[codes[r]],
            float(rhs[r]),
        )
        for r, name in zip(fam.rows, fam.names().tolist())
    ]


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

    inter = {(a.source, a.target): a.id for a in graph.arcs if a.kind is ArcKind.INTER}
    replenish = {(a.source, a.target): a.id for a in graph.arcs if a.kind is ArcKind.REPLENISH}

    for tour in sol.tours:
        first = tour.trips[0].nodes[0]
        vec[lay.x(first - 1)] = 1.0  # depot arc 0 -> first
        last = tour.trips[-1].nodes[-1]
        vec[lay.x(n + last - 1)] = 1.0  # depot arc last -> 0
        prev_trip = None
        for trip in tour.trips:
            if prev_trip is not None:
                vec[lay.x(replenish[(prev_trip.nodes[-1], trip.nodes[0])])] = 1.0
            for u, v in zip(trip.nodes, trip.nodes[1:]):
                vec[lay.x(inter[(u, v)])] = 1.0
            nodes = trip.nodes
            for pos, j in enumerate(nodes):
                for i in nodes[pos:]:
                    vec[lay.y(i, j)] = 1.0
            prev_trip = trip

    for j in range(1, n + 1):
        vec[lay.y(j, j)] = 1.0  # also for unrouted nodes of partial solutions

    for tour in sol.tours:
        for trip in tour.trips:
            for node in trip.nodes:
                z = sol.timing.visit[node]
                vec[lay.z(node)] = z
                vec[lay.tau(node)] = z - tour.departure
    for j, completed in sol.timing.completion.items():
        vec[lay.completion(j)] = completed
    return vec

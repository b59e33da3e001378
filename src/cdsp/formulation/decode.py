"""Decode incumbent column values into multi-trip tours.

Decoding follows traversed arcs out of the depot; replenishment arcs expand
into depot visits that split trips. Visit times come from the incumbent;
completion times are recomputed from the decoded trips (the carry binaries
are ignored, since minimization already pins them down), and departures are
set to the latest time that reaches the first stop without waiting.
"""

from __future__ import annotations

import numpy as np

from ..network import ArcKind
from ..routes import EvaluatedSolution, Tour, evaluated_solution
from .model import MipModel

INTEGRALITY_TOL = 1e-6


class ModelDecodeError(ValueError):
    """Incumbent values do not encode a structurally valid routing."""


def extract_solution(model: MipModel, values) -> EvaluatedSolution:
    """Rebuild at most K vehicle tours, in depot-out arc order, from
    incumbent column values over the model's graph and instance.

    Raises ModelDecodeError on binaries more than INTEGRALITY_TOL from an
    integer or on arc degrees violating the flow clauses (both signal
    solver-tolerance or model bugs rather than recoverable outcomes).
    """
    vec = _as_vector(model, values)
    graph, lay, travel = model.graph, model.layout, model.inst.travel
    n = model.n

    x = vec[: lay.num_arcs]  # lay.x is the identity on arc ids
    rounded = np.round(x)
    fractional = np.abs(x - rounded) > INTEGRALITY_TOL
    bad = fractional | ((rounded != 0) & (rounded != 1))
    if bad.any():
        a = int(np.argmax(bad))
        if fractional[a]:
            raise ModelDecodeError(f"fractional arc value x_{a} = {float(vec[a])}")
        raise ModelDecodeError(f"arc value x_{a} = {float(vec[a])} outside {{0,1}}")
    y = vec[lay.y(1, 1) : lay.y(n, n) + 1]
    bad = np.abs(y - np.round(y)) > INTEGRALITY_TOL
    if bad.any():
        k = int(np.argmax(bad))
        i, j = divmod(k, n)
        raise ModelDecodeError(f"fractional carry value y_{i + 1}_{j + 1} = {float(y[k])}")

    # the traversed arcs, in id order; positions below index into them
    traversed = np.flatnonzero(rounded == 1)
    table = graph.arcs[traversed]
    src, tgt = table["source"], table["target"]
    leaves = np.flatnonzero(src > 0)
    _, first = np.unique(src[leaves], return_index=True)
    repeated = np.ones(len(leaves), dtype=bool)
    repeated[first] = False
    if repeated.any():
        node = src[leaves[np.argmax(repeated)]]
        raise ModelDecodeError(f"node {node} has out-degree > 1")
    out_deg = np.bincount(src, minlength=n + 1)
    in_deg = np.bincount(tgt, minlength=n + 1)
    bad = (out_deg[1:] != 1) | (in_deg[1:] != 1)
    if bad.any():
        j = int(np.argmax(bad)) + 1
        raise ModelDecodeError(
            f"node {j} has out-degree {out_deg[j]}, in-degree {in_deg[j]} (must be 1/1)"
        )
    if out_deg[0] > model.inst.fleet_size:
        raise ModelDecodeError(
            f"{out_deg[0]} vehicles leave the depot, fleet size {model.inst.fleet_size}"
        )

    succ = np.full(n + 1, -1)
    succ[src[leaves]] = leaves
    succ, targets, kinds = succ.tolist(), tgt.tolist(), table["kind"].tolist()
    depot, replenish = ArcKind.DEPOT.code, ArcKind.REPLENISH.code
    visit = dict(zip(range(1, n + 1), vec[lay.z(1) : lay.z(n) + 1].tolist()))
    tours: list[Tour] = []
    used = 0
    # every point of care has one arc in and one out, so the depot's two
    # degrees are equal and each walk is a simple path back to the depot: a
    # repeated node would have in-degree 2
    for start in np.flatnonzero(src == 0).tolist():
        current = targets[start]
        trips: list[list[int]] = [[current]]
        pos = succ[current]
        while kinds[pos] != depot:
            current = targets[pos]
            if kinds[pos] == replenish:
                trips.append([current])
            else:
                trips[-1].append(current)
            pos = succ[current]
        used += sum(map(len, trips)) + 1
        first = trips[0][0]
        departure = visit[first] - float(travel[0, first])
        deliveries = [visit[trip[-1]] + float(travel[trip[-1], 0]) for trip in trips]
        tours.append(Tour(trips, departure, deliveries))

    if used != len(traversed):
        raise ModelDecodeError(
            f"{len(traversed) - used} traversed arcs unreachable from the depot"
        )

    return evaluated_solution(tours, visit, graph.windows)


def _as_vector(model: MipModel, values) -> np.ndarray:
    vec = np.asarray(values, dtype=float)
    if vec.shape != (model.num_columns,):
        raise ModelDecodeError(
            f"value vector has shape {vec.shape}, expected ({model.num_columns},)"
        )
    return vec

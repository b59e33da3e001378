"""Decode incumbent column values into multi-trip tours.

Routes come from the arcs: decoding follows traversed arcs out of the depot,
and replenishment arcs expand into depot visits that split trips. Times come
from `schedule_tour`, which times the oracle's tours and is the rule
`validate_solution` checks. The continuous columns (z, tau, C) are not read
and the carry binaries are only checked for integrality, so the decoded
solution does not depend on the solver's float bits.
"""

from __future__ import annotations

import numpy as np

from ..network import ArcKind
from ..routes import EvaluatedSolution, InfeasibleTourError, assemble_solution
from .model import MipModel

INTEGRALITY_TOL = 1e-6


class ModelDecodeError(ValueError):
    """Incumbent values do not encode a structurally valid routing."""


def extract_solution(model: MipModel, values) -> EvaluatedSolution:
    """Rebuild at most K vehicle tours, in depot-out arc order, from
    incumbent column values over the model's graph and instance.

    Raises ModelDecodeError on binaries more than INTEGRALITY_TOL from an
    integer, on arc degrees violating the flow clauses, or on a tour that
    `schedule_tour` cannot time, with its message (all signal
    solver-tolerance or model bugs rather than recoverable outcomes).
    """
    vec = _as_vector(model, values)
    graph, lay, n = model.graph, model.layout, model.n

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
    routes: list[list[list[int]]] = []
    used = 0
    # every point of care has one arc in and one out, so the depot's two
    # degrees are equal and each walk is a simple path back to the depot: a
    # repeated node would have in-degree 2
    for start in np.flatnonzero(src == 0).tolist():
        current = targets[start]
        trips: list[list[int]] = [[current]]
        pos = succ[current]
        while kinds[pos] != ArcKind.DEPOT:
            current = targets[pos]
            if kinds[pos] == ArcKind.REPLENISH:
                trips.append([current])
            else:
                trips[-1].append(current)
            pos = succ[current]
        used += sum(map(len, trips)) + 1
        routes.append(trips)

    if used != len(traversed):
        raise ModelDecodeError(
            f"{len(traversed) - used} traversed arcs unreachable from the depot"
        )

    try:
        return assemble_solution(routes, model.inst, graph.windows)
    except InfeasibleTourError as exc:
        raise ModelDecodeError(str(exc)) from exc


def _as_vector(model: MipModel, values) -> np.ndarray:
    vec = np.asarray(values, dtype=float)
    if vec.shape != (model.num_columns,):
        raise ModelDecodeError(
            f"value vector has shape {vec.shape}, expected ({model.num_columns},)"
        )
    return vec

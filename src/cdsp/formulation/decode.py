"""Decode incumbent column values into multi-trip tours.

Decoding follows traversed arcs out of the depot; replenishment arcs expand
into depot visits that split trips. Visit times come from the incumbent;
completion times are recomputed from the decoded trips (the carry binaries
are ignored, since minimization already pins them down), and departures are
set to the latest time that reaches the first stop without waiting.
"""

from __future__ import annotations

import numpy as np

from ..network import ArcKind, Multigraph
from ..routes import EvaluatedSolution, Timing, Tour, Trip
from .model import MipModel

INTEGRALITY_TOL = 1e-6


class ModelDecodeError(ValueError):
    """Incumbent values do not encode a structurally valid routing."""


def extract_solution(
    model: MipModel,
    values,
    graph: Multigraph,
    integrality_tol: float = INTEGRALITY_TOL,
) -> EvaluatedSolution:
    """Rebuild at most K vehicle tours from incumbent column values.

    Raises ModelDecodeError on fractional binaries beyond tolerance or on
    arc degrees violating the flow clauses (both signal solver-tolerance or
    model bugs rather than recoverable outcomes).
    """
    vec = _as_vector(model, values)
    lay = model.layout
    n = model.n

    traversed: list[int] = []
    for arc in graph.arcs:
        val = vec[lay.x(arc.id)]
        if abs(val - round(val)) > integrality_tol:
            raise ModelDecodeError(f"fractional arc value x_{arc.id} = {val!r}")
        if round(val) == 1:
            traversed.append(arc.id)
        elif round(val) != 0:
            raise ModelDecodeError(f"arc value x_{arc.id} = {val!r} outside {{0,1}}")
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            val = vec[lay.y(i, j)]
            if abs(val - round(val)) > integrality_tol:
                raise ModelDecodeError(f"fractional carry value y_{i}_{j} = {val!r}")

    arc_by_id = {a.id: a for a in graph.arcs}
    out_next: dict[int, int] = {}
    depot_starts: list[int] = []
    in_count = {j: 0 for j in range(0, n + 1)}
    for arc_id in traversed:
        arc = arc_by_id[arc_id]
        if arc.source == 0:
            depot_starts.append(arc_id)
        else:
            if arc.source in out_next:
                raise ModelDecodeError(f"node {arc.source} has out-degree > 1")
            out_next[arc.source] = arc_id
        in_count[arc.target] += 1

    for j in range(1, n + 1):
        outs = 1 if j in out_next else 0
        if outs != 1 or in_count[j] != 1:
            raise ModelDecodeError(
                f"node {j} has out-degree {outs}, in-degree {in_count[j]} (must be 1/1)"
            )
    if len(depot_starts) != in_count[0]:
        raise ModelDecodeError(
            f"depot out-degree {len(depot_starts)} != in-degree {in_count[0]}"
        )
    if len(depot_starts) > model.fleet_size:
        raise ModelDecodeError(
            f"{len(depot_starts)} vehicles leave the depot, fleet size {model.fleet_size}"
        )

    visit = {j: float(vec[lay.z(j)]) for j in range(1, n + 1)}
    tours: list[Tour] = []
    deliveries: list[tuple[float, ...]] = []
    completion: dict[int, float] = {}
    used = 0
    for vehicle, start_arc in enumerate(sorted(depot_starts), start=1):
        trips: list[list[int]] = [[arc_by_id[start_arc].target]]
        current = arc_by_id[start_arc].target
        used += 1
        for _ in range(n + 1):
            arc = arc_by_id[out_next[current]] if current in out_next else None
            if arc is None:
                raise ModelDecodeError(f"walk stranded at node {current}")
            used += 1
            if arc.kind is ArcKind.DEPOT:
                break
            if arc.kind is ArcKind.REPLENISH:
                trips.append([arc.target])
            else:
                trips[-1].append(arc.target)
            current = arc.target
        else:
            raise ModelDecodeError("vehicle walk never returns to the depot")
        trip_objs = tuple(Trip(tuple(t)) for t in trips)
        first = trip_objs[0].nodes[0]
        departure = visit[first] - graph.cost_from_depot(first)
        returns = []
        clock = 0.0
        for trip in trip_objs:
            clock = visit[trip.nodes[-1]] + graph.cost_to_depot(trip.nodes[-1])
            returns.append(clock)
            for node in trip.nodes:
                completion[node] = clock
        tours.append(Tour(vehicle=vehicle, trips=trip_objs, departure=departure))
        deliveries.append(tuple(returns))

    if used != len(traversed):
        raise ModelDecodeError(
            f"{len(traversed) - used} traversed arcs unreachable from the depot"
        )

    total = float(sum(completion.values()))
    release_sum = float(np.sum(graph.windows.release[1:]))
    timing = Timing(visit=visit, deliveries=tuple(deliveries), completion=completion)
    return EvaluatedSolution(
        tours=tuple(tours),
        timing=timing,
        total_completion=total,
        net_completion=total - release_sum,
    )


def _as_vector(model: MipModel, values) -> np.ndarray:
    vec = np.asarray(values, dtype=float)
    if vec.shape != (model.num_columns,):
        raise ModelDecodeError(
            f"value vector has shape {vec.shape}, expected ({model.num_columns},)"
        )
    return vec

"""Multi-trip tours: timing, feasibility validation and objective evaluation.

A tour is one vehicle's depot-to-depot trips, timed as a `Tour` and numbered
by its position, from 1. Visit times must respect the (tightened) windows; a
vehicle arriving early waits at the point of care. A vehicle's shift runs
from its first depot departure to its final return and is capped. The
objective is the sum of request completion times, a request completing when
the trip carrying it returns to the depot.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .instances import Instance
from .network import TimeWindows

#: Absolute tolerance for all time comparisons.
TIME_TOL = 1e-6


class InfeasibleTourError(Exception):
    """No feasible timing exists for a fixed tour."""

    def __init__(self, node: int | None, reason: str):
        where = f"node {node}" if node is not None else "shift"
        super().__init__(f"tour infeasible at {where}: {reason}")
        self.node = node
        self.reason = reason


#: A vehicle's depot-to-depot trips, each its points of care in visit order.
Trips = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Tour:
    """One vehicle's schedule: its trips, its depot departure, the visit
    time of each stop (one tuple per trip) and the return time of each trip."""

    trips: Trips
    departure: float
    visits: tuple[tuple[float, ...], ...]
    deliveries: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "trips", _trips(self.trips))
        object.__setattr__(self, "visits", tuple(map(tuple, self.visits)))
        object.__setattr__(self, "deliveries", tuple(self.deliveries))
        if len(self.deliveries) != len(self.trips):
            raise ValueError(f"{len(self.deliveries)} deliveries for {len(self.trips)} trips")
        if list(map(len, self.visits)) != list(map(len, self.trips)):
            raise ValueError(f"visit times {self.visits} do not match trips {self.trips}")

    @property
    def shift(self) -> float:
        return self.deliveries[-1] - self.departure


def _trips(trips) -> Trips:
    """The trips as node tuples, each nonempty and without a repeat."""
    trips = tuple(map(tuple, trips))
    if not trips:
        raise ValueError("tour must contain at least one trip")
    for trip in trips:
        if not trip:
            raise ValueError("trip must visit at least one point of care")
        if len(set(trip)) != len(trip):
            raise ValueError(f"repeated node within trip {trip}")
    return trips


@dataclass(frozen=True)
class EvaluatedSolution:
    """A routed solution: its timed tours, one per vehicle. Visit times,
    completions and F are read off the tours."""

    tours: tuple[Tour, ...]

    @property
    def visit(self) -> dict[int, float]:
        """Each request's visit time."""
        return {
            node: z
            for tour in self.tours
            for trip, times in zip(tour.trips, tour.visits)
            for node, z in zip(trip, times)
        }

    @property
    def completion(self) -> dict[int, float]:
        """Each request's completion time, the return of the trip carrying
        it, in tour, trip and visit order."""
        return {
            node: delivered
            for tour in self.tours
            for trip, delivered in zip(tour.trips, tour.deliveries)
            for node in trip
        }

    @property
    def total_completion(self) -> float:
        """F, the completion times summed in tour, trip and visit order."""
        return float(sum(self.completion.values()))


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def schedule_tour(trips, inst: Instance, windows: TimeWindows) -> Tour:
    """The timed `Tour` for fixed trips (node sequences), minimizing the sum
    of trip return times.

    A forward pass from departure 0 computes earliest visit times (wait when
    early). If the resulting shift fits the cap, the departure is delayed by
    the largest amount that leaves every visit and delivery unchanged (the
    minimum accumulated waiting), shortening the shift for free. Otherwise
    the tour leaves at t* = D0 - cap, D0 being the first pass's last return,
    and a second pass gives the earliest schedule from there. That is exact
    (the forward time slack argument, Savelsbergh 1992):

    - From departure t >= 0 each earliest visit is max(t + travel to it, its
      departure-0 time), so the last return is max(t + L, D0), L being the
      tour's travel time: no departure below t* meets the cap.
    - Earliest visits and deliveries are non-decreasing in t, and no timing
      is earlier than the earliest schedule from its own departure. So the
      schedule from t* has every delivery as early as any feasible timing
      has it, whatever the weights; if it misses a deadline, or L > cap, no
      timing exists.

    Trips a `Tour` rejects, or a node on two trips, raise ValueError before
    any timing. Raises InfeasibleTourError when no timing exists, naming the
    node whose deadline is missed, or None when travel alone busts the cap.
    """
    trips = _trips(trips)
    flat = [node for trip in trips for node in trip]
    if len(set(flat)) != len(flat):
        raise ValueError(f"node repeated across trips: {trips}")

    visits, deliveries, min_cum_wait = _forward_pass(trips, inst, windows, departure=0.0)
    # Delaying by the minimum accumulated waiting keeps every visit and
    # delivery in place, so it is free; take it whenever it already meets
    # the cap, otherwise leave at the smallest departure that meets it.
    if deliveries[-1] - min_cum_wait <= inst.shift_cap + TIME_TOL:
        return Tour(trips, min_cum_wait, visits, deliveries)
    departure = deliveries[-1] - inst.shift_cap
    visits, deliveries, _ = _forward_pass(trips, inst, windows, departure)
    if deliveries[-1] - departure > inst.shift_cap + TIME_TOL:
        raise InfeasibleTourError(None, "no timing satisfies the shift cap")
    return Tour(trips, departure, visits, deliveries)


def _forward_pass(trips, inst, windows, departure):
    """Earliest feasible visit times from a fixed departure.

    Returns (visits, deliveries, min_cum_wait): the visit times one tuple per
    trip, each trip's return, and the minimum over visits of accumulated
    waiting up to that visit; it is the largest departure delay that changes
    nothing downstream.
    """
    travel = inst.travel
    release, deadline = windows.release, windows.deadline
    visits: list[list[float]] = []
    deliveries: list[float] = []
    clock = departure
    at = 0
    cum_wait = 0.0
    min_cum_wait = math.inf
    for trip in trips:
        times = []
        for node in trip:
            arrive = float(clock + travel[at, node])
            z = max(arrive, float(release[node]))
            if z > deadline[node] + TIME_TOL:
                raise InfeasibleTourError(
                    node, f"earliest visit {z:.6g} beyond deadline {deadline[node]:.6g}"
                )
            cum_wait += z - arrive
            min_cum_wait = min(min_cum_wait, cum_wait)
            times.append(z)
            clock, at = z, node
        visits.append(times)
        clock = float(clock + travel[at, 0])
        deliveries.append(clock)
        at = 0
    return visits, deliveries, min_cum_wait


def assemble_solution(vehicle_trips, inst: Instance, windows: TimeWindows) -> EvaluatedSolution:
    """Schedule one tour per vehicle and assemble the evaluated solution.

    vehicle_trips: sequence of tours, each a sequence of trips (node lists).
    Raises InfeasibleTourError if any tour has no feasible timing.
    """
    return EvaluatedSolution(
        tours=tuple(schedule_tour(trips, inst, windows) for trips in vehicle_trips)
    )


def validate_solution(
    sol: EvaluatedSolution, inst: Instance, windows: TimeWindows
) -> ValidationReport:
    """Check a solution against every feasibility clause; collect all violations.

    Checks: request partition, fleet bound, window containment, leg-by-leg
    time consistency (waiting allowed), shift caps and the depot deadline.
    """
    travel = inst.travel
    release, deadline = windows.release, windows.deadline
    bad: list[str] = []

    seen = Counter(node for tour in sol.tours for trip in tour.trips for node in trip)
    for node, count in sorted(seen.items()):
        if node < 1 or node > inst.n:
            bad.append(f"unknown node {node} visited")
        elif count > 1:
            bad.append(f"node {node} visited {count} times")
    for node in inst.points_of_care:
        if node not in seen:
            bad.append(f"node {node} never visited")

    if len(sol.tours) > inst.fleet_size:
        bad.append(f"{len(sol.tours)} tours exceed fleet size {inst.fleet_size}")

    for vehicle, tour in enumerate(sol.tours, start=1):
        if tour.departure < -TIME_TOL:
            bad.append(f"vehicle {vehicle}: negative departure {tour.departure:.6g}")
        clock = tour.departure
        at = 0
        for trip, times, ret in zip(tour.trips, tour.visits, tour.deliveries):
            for node, z in zip(trip, times):
                if z < release[node] - TIME_TOL or z > deadline[node] + TIME_TOL:
                    bad.append(
                        f"node {node} visited at {z:.6g} outside window "
                        f"[{release[node]:.6g}, {deadline[node]:.6g}]"
                    )
                if z < clock + travel[at, node] - TIME_TOL:
                    bad.append(
                        f"vehicle {vehicle}: visit of {node} at {z:.6g} "
                        f"before reachable time {clock + travel[at, node]:.6g}"
                    )
                clock, at = z, node
            expected = clock + travel[at, 0]
            if abs(ret - expected) > TIME_TOL:
                bad.append(
                    f"vehicle {vehicle}: trip return {ret:.6g} != "
                    f"last visit + depot leg {expected:.6g}"
                )
            clock, at = ret, 0
        if tour.shift > inst.shift_cap + TIME_TOL:
            bad.append(
                f"vehicle {vehicle}: shift {tour.shift:.6g} exceeds cap {inst.shift_cap:.6g}"
            )
        if tour.deliveries[-1] > inst.depot_deadline + TIME_TOL:
            bad.append(
                f"vehicle {vehicle}: final return {tour.deliveries[-1]:.6g} "
                f"after depot deadline {inst.depot_deadline:.6g}"
            )

    return ValidationReport(violations=tuple(bad))


def solution_to_json(sol: EvaluatedSolution, f_prime: float, fingerprint: dict) -> dict:
    """JSON-serializable form: tours, timing, F, the given F' (see
    `harness.f_prime`) and the config fingerprint."""
    return {
        "tours": [
            {
                "vehicle": vehicle,
                "departure": tour.departure,
                "trips": [list(trip) for trip in tour.trips],
            }
            for vehicle, tour in enumerate(sol.tours, start=1)
        ],
        "timing": {
            "visit": {str(node): t for node, t in sorted(sol.visit.items())},
            "deliveries": [list(tour.deliveries) for tour in sol.tours],
            "completion": {str(node): t for node, t in sorted(sol.completion.items())},
        },
        "F": sol.total_completion,
        "F_prime": f_prime,
        "config": dict(fingerprint),
    }

"""Exhaustive exact solver for desk-scale instances.

Ground truth for tests. One depth-first search from the depot builds every
visit order and trip split of every request set: it extends the open trip by
one stop, or returns to the depot and starts the next trip. It carries the
earliest schedule, the departure-0 forward pass of `schedule_tour` with the
same float operations in the same order. A prefix whose earliest visit
misses a deadline is cut with all its extensions; this loses nothing,
because appending stops leaves the prefix's earliest times as they are and
no timing visits earlier than those. Every return to the depot closes a
complete tour of the set visited so far. When delaying its departure by the
minimum accumulated waiting meets the shift cap, its total is read off the
pass; otherwise `schedule_tour` times it from the smallest departure that
meets the cap. The best tour per set is then combined over every partition
of the requests into at most K blocks. Exponential in n; refuses instances
beyond a small size. An n = 7 instance takes milliseconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .instances import Instance
from .network import TimeWindows, preprocess_time_windows
from .routes import (
    TIME_TOL,
    EvaluatedSolution,
    InfeasibleTourError,
    Trips,
    assemble_solution,
    schedule_tour,
)

DEFAULT_LIMIT = 7


class OracleSizeError(ValueError):
    """Instance too large for exhaustive enumeration."""


class OracleConsistencyError(RuntimeError):
    """The searched optimum disagrees with the recomputed schedule of its routes."""


@dataclass(frozen=True)
class OracleResult:
    solution: EvaluatedSolution | None
    best_total: float  # objective F; infinity when nothing is feasible
    # every (partition, visit order, trip split) the search covers, counted
    # in closed form, including the ones cut before they were timed
    candidates: int


def exact_solve_tiny(inst: Instance, limit: int = DEFAULT_LIMIT) -> OracleResult:
    """Globally optimal solution by exhaustive search (n <= limit).

    The search is deterministic; ties between equal-objective candidates
    break to the lexicographically smallest route encoding, so golden values
    derived from this solver are stable. Raises OracleConsistencyError when
    the assembled optimum's F differs from the searched one by more than
    TIME_TOL per request.
    """
    n = inst.n
    if n > limit:
        raise OracleSizeError(f"n={n} exceeds the exhaustive-search limit {limit}")
    windows = preprocess_time_windows(inst)

    max_blocks = min(inst.fleet_size, n)
    best_by_set = _best_tours(inst, windows, max_blocks)
    best_total = math.inf
    best_routes: tuple[Trips, ...] | None = None
    candidates = _candidate_count(n, max_blocks)
    for masks in _set_partitions(list(inst.points_of_care), max_blocks):
        total = 0.0
        for mask in masks:
            found = best_by_set.get(mask)
            if found is None:
                break
            total += found[0]
        else:
            # the routes are sorted only for a partition that can win
            if total <= best_total:
                encoding = tuple(sorted(best_by_set[mask][1] for mask in masks))
                if total < best_total or encoding < best_routes:
                    best_total, best_routes = total, encoding

    if best_routes is None:
        return OracleResult(solution=None, best_total=math.inf, candidates=candidates)
    solution = assemble_solution(best_routes, inst, windows)
    if abs(solution.total_completion - best_total) > TIME_TOL * n:
        raise OracleConsistencyError(
            f"searched F = {best_total!r}, but its routes {best_routes} "
            f"schedule to F = {solution.total_completion!r}"
        )
    return OracleResult(solution=solution, best_total=best_total, candidates=candidates)


def _best_tours(
    inst: Instance, windows: TimeWindows, max_blocks: int
) -> dict[int, tuple[float, Trips]]:
    """Best (total, trips) of one vehicle per request set, keyed by bit mask.

    Only sets that can be a block of a partition into at most max_blocks
    blocks are evaluated (for one block, the full set). Among equal totals
    the smallest trips tuple wins.
    """
    n = inst.n
    travel = inst.travel.tolist()
    release = windows.release.tolist()
    latest = (windows.deadline + TIME_TOL).tolist()
    cap = inst.shift_cap + TIME_TOL
    everyone = (1 << (n + 1)) - 2
    best: dict[int, tuple[float, Trips]] = {}

    # One step of routes._forward_pass, operation for operation, so that the
    # totals equal what schedule_tour would return bit for bit.
    def visit(node, trips, trip, clock, at, cum_wait, min_cum_wait, closed, mask):
        arrive = clock + travel[at][node]
        z = max(arrive, release[node])
        if z > latest[node]:
            return
        cum_wait += z - arrive
        min_cum_wait = min(min_cum_wait, cum_wait)
        trip += (node,)
        mask |= 1 << node
        ret = z + travel[node][0]
        done = closed + ret * len(trip)
        tour = trips + (trip,)
        if max_blocks > 1 or mask == everyone:
            total: float | None = done
            if ret - min_cum_wait > cap:
                try:
                    timed = schedule_tour(tour, inst, windows)[0]
                except InfeasibleTourError:
                    total = None
                else:
                    total = sum(d * len(t) for t, d in zip(tour, timed.deliveries))
            found = best.get(mask)
            if total is not None and (
                found is None or total < found[0] or (total == found[0] and tour < found[1])
            ):
                best[mask] = (total, tour)
        for nxt in range(1, n + 1):
            if not mask >> nxt & 1:
                visit(nxt, trips, trip, z, node, cum_wait, min_cum_wait, closed, mask)
                visit(nxt, tour, (), ret, 0, cum_wait, min_cum_wait, done, mask)

    for node in range(1, n + 1):
        visit(node, (), (), 0.0, 0, 0.0, math.inf, 0.0, 0)
    return best


def _candidate_count(n: int, max_blocks: int) -> int:
    """The (partition into at most max_blocks blocks, visit order, trip
    split) candidates of n requests: sum_k L(n, k) * 2^(n - k), where the
    Lah number L(n, k) = C(n - 1, k - 1) * n! / k! counts the partitions into
    k blocks in visit order, and s ordered requests split into 2^(s - 1) trips."""
    return sum(
        math.comb(n - 1, k - 1) * math.factorial(n) // math.factorial(k) << (n - k)
        for k in range(1, min(max_blocks, n) + 1)
    )


def _set_partitions(items: list[int], max_blocks: int):
    """All partitions of items into at most max_blocks nonempty blocks, each
    as the blocks' bit masks, in block order."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    bit = 1 << first
    for masks in _set_partitions(rest, max_blocks):
        for i, mask in enumerate(masks):
            yield masks[:i] + (mask | bit,) + masks[i + 1 :]
        if len(masks) < max_blocks:
            yield (bit, *masks)

"""Exhaustive exact solver for desk-scale instances.

Ground truth for tests. One depth-first search from the depot builds every
visit order and trip split of every request set, one stop or one return to
the depot at a time, on the earliest schedule: the departure-0 forward pass
of `schedule_tour`, operation for operation. A prefix whose earliest visit
misses a deadline is cut with all its extensions; this loses nothing, as no
timing visits earlier and appending stops leaves its earliest times as they
are. Each return to the depot closes a tour of the visited set, whose total
is read off the pass when delaying its departure by the minimum accumulated
waiting meets the shift cap, and timed by `schedule_tour` otherwise. A
dynamic program over request sets combines the best tours into at most K
blocks. Exponential in n: n = 10 takes up to seconds, and more is refused.
"""

from __future__ import annotations

import functools
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

DEFAULT_LIMIT = 10


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
    candidates = _candidate_count(n, max_blocks)
    best_by_set = _best_tours(inst, windows, max_blocks)
    best_total, best_routes = _combine(best_by_set, (1 << (n + 1)) - 2, max_blocks)
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
                    timed = schedule_tour(tour, inst, windows)
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


def _combine(best_by_set: dict[int, tuple[float, Trips]], everyone: int, max_blocks: int):
    """Least (total, sorted routes) over the partitions of everyone into at
    most max_blocks blocks of best_by_set; routes None if there is none.

    The block holding a set's highest request is added last, so a total is
    summed from 0.0 in ascending order of its blocks' highest request, as the
    partition loop summed it. Adding a block can round two rest totals to one
    sum, so ties go to the least sorted routes among all optimal partitions.
    """

    def blocks(rest: int, k: int):  # (block, total, route) holding rest's highest request
        block, top = rest, 1 << rest.bit_length() >> 1
        while block & top:
            if block in best_by_set:
                yield block, *best_by_set[block]
            block = block - 1 & rest if k > 1 else 0  # the last block is all of rest

    @functools.cache
    def least(rest: int, k: int) -> float:
        totals = (least(rest ^ block, k - 1) + total for block, total, _ in blocks(rest, k))
        return min(totals, default=math.inf) if rest else 0.0

    def tied(rest, k, after):  # partitions of rest whose sum, followed by after's, is best
        if not rest:
            yield ()
        for block, total, route in blocks(rest, k):
            then = (total, *after)
            if functools.reduce(float.__add__, then, least(rest ^ block, k - 1)) == best:
                yield from ((*others, route) for others in tied(rest ^ block, k - 1, then))

    best = least(everyone, max_blocks)
    found = tied(everyone, max_blocks, ()) if best < math.inf else ()
    return best, min((tuple(sorted(routes)) for routes in found), default=None)


def _candidate_count(n: int, max_blocks: int) -> int:
    """The (partition into at most max_blocks blocks, visit order, trip
    split) candidates of n requests: sum_k L(n, k) * 2^(n - k), where the
    Lah number L(n, k) = C(n - 1, k - 1) * n! / k! counts the partitions into
    k blocks in visit order, and s ordered requests split into 2^(s - 1) trips."""
    return sum(
        math.comb(n - 1, k - 1) * math.factorial(n) // math.factorial(k) << (n - k)
        for k in range(1, min(max_blocks, n) + 1)
    )

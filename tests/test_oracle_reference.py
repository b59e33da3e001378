"""The exhaustive oracle against a brute-force reference.

`reference_solve` is the oracle as first written: for every request block it
times every (visit order, trip split) candidate from scratch with
`schedule_tour`, keeps the best per block under the (total, trips) order,
then combines blocks over every partition into at most K blocks. The
oracle must return the same optimum to the last bit, the same routes, the
same timing and the same candidate count. `partition_loop` is the oracle's
combine as it was before the subset dynamic program, which must match it on
the same best tours.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from cdsp import InfeasibleTourError, assemble_solution, preprocess_time_windows, schedule_tour
from cdsp.oracle import _best_tours, _candidate_count, _combine, exact_solve_tiny

from gen import random_instance, split_bits
from views import trips_by_vehicle


def set_partitions(items, max_blocks):
    """All partitions of items into at most max_blocks nonempty blocks, each
    as the blocks' bit masks. With items ascending, the blocks come in
    ascending order of their highest item, the order the oracle sums in."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    bit = 1 << first
    for masks in set_partitions(rest, max_blocks):
        for i, mask in enumerate(masks):
            yield masks[:i] + (mask | bit,) + masks[i + 1 :]
        if len(masks) < max_blocks:
            yield (bit, *masks)


def partition_loop(best_by_set, n, max_blocks):
    """(best_total, routes or None) over every partition of requests 1..n
    into at most max_blocks blocks of best_by_set: a total is summed in
    block order, and equal totals go to the smallest sorted route encoding."""
    best_total, best_routes = math.inf, None
    for masks in set_partitions(list(range(1, n + 1)), max_blocks):
        total = 0.0
        for mask in masks:
            found = best_by_set.get(mask)
            if found is None:
                break
            total += found[0]
        else:
            if total <= best_total:
                encoding = tuple(sorted(best_by_set[mask][1] for mask in masks))
                if total < best_total or encoding < best_routes:
                    best_total, best_routes = total, encoding
    return best_total, best_routes


def _best_tour(block, inst, windows):
    best = None
    for perm in itertools.permutations(sorted(block)):
        for bits in range(1 << (len(perm) - 1)):
            trips = tuple(tuple(trip) for trip in split_bits(list(perm), bits))
            try:
                tour = schedule_tour(trips, inst, windows)
            except InfeasibleTourError:
                continue
            total = sum(delivered * len(trip) for trip, delivered in zip(trips, tour.deliveries))
            if best is None or total < best[0] or (total == best[0] and trips < best[1]):
                best = (total, trips)
    return best


def reference_solve(inst, windows):
    """(best_total, routes or None, candidates) by timing every candidate."""
    cache = {}
    best_total, best_routes, candidates = math.inf, None, 0
    nodes = inst.points_of_care
    for masks in set_partitions(list(nodes), min(inst.fleet_size, inst.n)):
        partition = [[node for node in nodes if mask >> node & 1] for mask in masks]
        candidates += math.prod(math.factorial(len(b)) << (len(b) - 1) for b in partition)
        total = 0.0
        routes = []
        for block in partition:
            key = frozenset(block)
            if key not in cache:
                cache[key] = _best_tour(key, inst, windows)
            if cache[key] is None:
                break
            total += cache[key][0]
            routes.append(cache[key][1])
        else:
            encoding = tuple(sorted(routes))
            if total < best_total or (
                total == best_total and best_routes is not None and encoding < best_routes
            ):
                best_total, best_routes = total, encoding
    return best_total, best_routes, candidates


def _cases(fleet_size, count=40):
    """Seeded instances with n <= 5; every third one has its shift cap scaled
    by U(0.5, 1.0), which makes tours leave late to meet the cap and leaves
    some instances infeasible."""
    rng = np.random.default_rng(100 + fleet_size)
    for i in range(count):
        inst = random_instance(rng, int(rng.integers(1, 6)), fleet_size)
        if i % 3 == 2:
            inst = dataclasses.replace(
                inst, shift_cap=inst.shift_cap * float(rng.uniform(0.5, 1.0))
            )
        yield i, inst


@pytest.mark.parametrize("fleet_size", [1, 2, 3])
def test_matches_brute_force_reference(fleet_size):
    for i, inst in _cases(fleet_size):
        windows = preprocess_time_windows(inst)
        best_total, routes, candidates = reference_solve(inst, windows)
        result = exact_solve_tiny(inst)
        assert result.best_total == best_total, i
        assert result.candidates == candidates, i
        if routes is None:
            assert result.solution is None, i
            continue
        expected = assemble_solution(routes, inst, windows)
        assert result.solution.tours == expected.tours, i
        assert result.solution.visit == expected.visit, i
        assert result.solution.completion == expected.completion, i


@pytest.mark.parametrize("n", range(1, 9))
def test_closed_form_candidate_count(n):
    # the count enumerated over the partitions, as reference_solve adds it up
    for max_blocks in range(1, n + 2):
        enumerated = sum(
            math.prod(math.factorial(m.bit_count()) << (m.bit_count() - 1) for m in masks)
            for masks in set_partitions(list(range(1, n + 1)), max_blocks)
        )
        assert _candidate_count(n, max_blocks) == enumerated, max_blocks


# Recorded with the enumerating oracle (reference_solve's algorithm) on
# random_instance(np.random.default_rng(seed), 7, fleet_size).
GOLDEN_N7 = [
    # (seed, fleet_size, best_total, trips_by_vehicle)
    (1, 1, 2944.461271020605, (((7, 6, 3, 1), (5, 2, 4)),)),
    (2, 2, 1319.1400397263656, (((2, 7), (1,)), ((6,), (5,), (4,), (3,)))),
    (3, 3, 1104.8223264543255, (((2,), (5,)), ((3, 4), (6,)), ((7, 1),))),
]


@pytest.mark.parametrize("seed, fleet_size, best_total, trips", GOLDEN_N7)
def test_golden_n7(seed, fleet_size, best_total, trips):
    inst = random_instance(np.random.default_rng(seed), 7, fleet_size)
    result = exact_solve_tiny(inst)
    assert result.best_total == best_total
    assert trips_by_vehicle(result.solution) == trips


def _combine_draws(n):
    """Seeded draws of n requests and 1-4 vehicles: tight windows, wide ones
    (deadline slack in the hundreds), and tight ones with the shift cap
    scaled by U(0.6, 1), which can leave no feasible partition."""
    rng = np.random.default_rng(n)
    for kind in ("tight", "wide", "capped"):
        fleet_size = int(rng.integers(1, 5))
        slack = (100.0, 400.0) if kind == "wide" else (2.0, 40.0)
        inst = random_instance(rng, n, fleet_size, deadline_slack=slack)
        if kind == "capped":
            inst = dataclasses.replace(
                inst, shift_cap=inst.shift_cap * float(rng.uniform(0.6, 1.0))
            )
        yield kind, inst


@pytest.mark.parametrize("n", range(8, 12))
def test_combine_matches_the_partition_loop(n):
    for kind, inst in _combine_draws(n):
        max_blocks = min(inst.fleet_size, n)
        best_by_set = _best_tours(inst, preprocess_time_windows(inst), max_blocks)
        expected = partition_loop(best_by_set, n, max_blocks)
        # == on the totals is bit equality here: no total is -0.0 or NaN
        assert _combine(best_by_set, (1 << n + 1) - 2, max_blocks) == expected, kind


def _tours(totals):
    """A synthetic best_by_set: {block: total} -> {mask: (total, trips)},
    each block served by one trip in ascending request order."""
    return {
        sum(1 << node for node in block): (total, (tuple(sorted(block)),))
        for block, total in totals.items()
    }


def test_combine_ties_go_to_the_smallest_sorted_routes():
    # {1} | {2} | {3, 4}, {1, 3} | {2, 4} and {1, 4} | {2, 3} all sum to
    # 20.0 exactly, and the whole set as one block costs 20.5. The first
    # sorts first, as ((1,),) precedes ((1, 3),) and ((1, 4),); with two
    # blocks, {1, 3} | {2, 4} precedes {1, 4} | {2, 3}
    best_by_set = _tours(
        {(1,): 5.0, (2,): 5.0, (3, 4): 10.0, (1, 3): 10.0, (2, 4): 10.0}
        | {(1, 4): 10.0, (2, 3): 10.0, (1, 2, 3, 4): 20.5}
    )
    for max_blocks, routes in [
        (3, (((1,),), ((2,),), ((3, 4),))),
        (2, (((1, 3),), ((2, 4),))),
        (1, (((1, 2, 3, 4),),)),
    ]:
        expected = (20.0 if max_blocks > 1 else 20.5, routes)
        assert partition_loop(best_by_set, 4, max_blocks) == expected
        assert _combine(best_by_set, 0b11110, max_blocks) == expected


def test_combine_breaks_ties_after_rounding():
    # {1, 2} costs 1.0 and {1} | {2} one ulp more, but adding {3} at 2.0
    # rounds both sums to 3.0. The tie then goes to {1} | {2} | {3}, whose
    # routes sort first; the least total of {1, 2} alone would pick {1, 2}
    ulp = 2.0**-52
    best_by_set = _tours({(1, 2): 1.0, (1,): 0.5, (2,): 0.5 + ulp, (3,): 2.0})
    assert 1.0 < 0.5 + (0.5 + ulp) and 1.0 + 2.0 == 0.5 + (0.5 + ulp) + 2.0
    expected = (3.0, (((1,),), ((2,),), ((3,),)))
    assert partition_loop(best_by_set, 3, 3) == expected
    assert _combine(best_by_set, 0b1110, 3) == expected
    # a generated draw where this happens: 1090.4990231311294 either way,
    # and the least rest total would give (((1,), (4,), (3,)), ((2,),), ...)
    inst = random_instance(np.random.default_rng(25), 6, 3)
    best_by_set = _best_tours(inst, preprocess_time_windows(inst), 3)
    expected = partition_loop(best_by_set, 6, 3)
    assert expected[1] == (((1,),), ((2,), (4,), (3,)), ((6, 5),))
    assert _combine(best_by_set, 0b1111110, 3) == expected

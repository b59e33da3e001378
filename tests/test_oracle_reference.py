"""The exhaustive oracle against a brute-force reference.

`reference_solve` is the oracle as first written: for every request block it
times every (visit order, trip split) candidate from scratch with
`schedule_tour`, keeps the best per block under the (total, trips) order,
then combines blocks over every partition into at most K blocks. The
oracle must return the same optimum to the last bit, the same routes, the
same timing and the same candidate count.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from cdsp import InfeasibleTourError, assemble_solution, preprocess_time_windows, schedule_tour
# the oracle's own partitions: a partition's total is summed in their block order
from cdsp.oracle import _candidate_count, _set_partitions, exact_solve_tiny

from gen import random_instance, split_bits
from views import trips_by_vehicle


def _best_tour(block, inst, windows):
    best = None
    for perm in itertools.permutations(sorted(block)):
        for bits in range(1 << (len(perm) - 1)):
            trips = tuple(tuple(trip) for trip in split_bits(list(perm), bits))
            try:
                tour = schedule_tour(trips, inst, windows)[0]
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
    for masks in _set_partitions(list(nodes), min(inst.fleet_size, inst.n)):
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
            for masks in _set_partitions(list(range(1, n + 1)), max_blocks)
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

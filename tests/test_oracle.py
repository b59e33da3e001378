import math

import numpy as np
import pytest

from cdsp import f_prime, preprocess_time_windows, validate_solution
from cdsp.oracle import OracleSizeError, exact_solve_tiny

from conftest import make_tiny2
from gen import random_instance, split_bits
from views import trips_by_vehicle


class TestTiny2:
    def test_optimum(self, tiny2):
        result = exact_solve_tiny(tiny2)
        assert result.best_total == 20.0
        windows = preprocess_time_windows(tiny2)
        assert f_prime(result.best_total, tiny2, windows, raw_release=False) == 13.0
        assert trips_by_vehicle(result.solution) == (((1,), (2,)),)

    def test_tight_second_deadline_forces_single_trip(self):
        # with d_2 = 7 the trip split misses the window (arrival 10) and the
        # 1-then-2 direct leg arrives at 8; only serving 2 first survives
        inst = make_tiny2(deadline2=7.0)
        result = exact_solve_tiny(inst)
        assert result.best_total == 24.0
        assert trips_by_vehicle(result.solution) == (((2, 1),),)

    def test_one_request(self):
        from cdsp import Instance, Site

        inst = Instance(
            sites=(Site(0, 0.0, 0.0, 0.0, 30.0), Site(1, 3.0, 0.0, 0.0, 10.0)),
            travel=np.array([[0.0, 3.0], [3.0, 0.0]]),
            fleet_size=1,
            shift_cap=30.0,
            depot_deadline=30.0,
            label="one",
        )
        result = exact_solve_tiny(inst)
        assert result.best_total == 6.0
        assert result.candidates == 1


class TestContract:
    def test_size_refused(self):
        rng = np.random.default_rng(0)
        inst = random_instance(rng, 8, 2)
        with pytest.raises(OracleSizeError):
            exact_solve_tiny(inst, limit=7)

    def test_infeasible_instance_reports_infinity(self):
        # deadline so tight no candidate survives, but windows stay non-empty
        inst = make_tiny2(shift_cap=5.0)  # every route needs shift >= 6
        result = exact_solve_tiny(inst)
        assert result.solution is None
        assert result.best_total == math.inf
        assert result.candidates > 0

    def test_deterministic(self):
        rng1, rng2 = np.random.default_rng(9), np.random.default_rng(9)
        a = exact_solve_tiny(random_instance(rng1, 5, 2))
        b = exact_solve_tiny(random_instance(rng2, 5, 2))
        assert a.best_total == b.best_total
        assert trips_by_vehicle(a.solution) == trips_by_vehicle(b.solution)
        assert a.candidates == b.candidates

    def test_candidate_count_single_vehicle(self, tiny2):
        # K=1, n=2: one partition, 2 orders x 2 split patterns
        assert exact_solve_tiny(tiny2).candidates == 4

    def test_candidate_count_two_vehicles(self):
        inst = make_tiny2(fleet_size=2)
        # {1,2} together: 4 candidates; {1}|{2}: 1
        assert exact_solve_tiny(inst).candidates == 5

    def test_vehicle_exchange_symmetry(self):
        inst = make_tiny2(fleet_size=2)
        result = exact_solve_tiny(inst)
        tours = trips_by_vehicle(result.solution)
        assert tuple(sorted(tours)) == tours  # canonical vehicle order

    def test_best_solutions_validate(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            inst = random_instance(rng, int(rng.integers(1, 7)), int(rng.integers(1, 3)))
            w = preprocess_time_windows(inst)
            result = exact_solve_tiny(inst)
            assert result.solution is not None
            assert validate_solution(result.solution, inst, w).ok
            assert result.solution.total_completion == pytest.approx(result.best_total)

    def test_search_disagreeing_with_schedule_raises(self, tiny2, monkeypatch):
        from cdsp import oracle

        search = oracle._best_tours

        def drifted(*args):
            return {mask: (total + 1.0, trips) for mask, (total, trips) in search(*args).items()}

        monkeypatch.setattr(oracle, "_best_tours", drifted)
        with pytest.raises(oracle.OracleConsistencyError, match="searched F = 21.0"):
            exact_solve_tiny(tiny2)

    def test_every_schedulable_candidate_validates(self):
        # exhaustive over all single-vehicle candidates of small instances:
        # schedulable ones pass validation, unschedulable ones carry a reason
        import itertools

        from cdsp import InfeasibleTourError, assemble_solution

        rng = np.random.default_rng(33)
        for _ in range(6):
            inst = random_instance(rng, int(rng.integers(2, 5)), 1)
            w = preprocess_time_windows(inst)
            for perm in itertools.permutations(inst.points_of_care):
                for bits in range(1 << (len(perm) - 1)):
                    trips = split_bits(list(perm), bits)
                    try:
                        sol = assemble_solution([trips], inst, w)
                    except InfeasibleTourError as err:
                        assert err.reason
                        continue
                    assert validate_solution(sol, inst, w).ok, trips

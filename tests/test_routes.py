import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdsp import (
    EvaluatedSolution,
    InfeasibleTourError,
    Tour,
    assemble_solution,
    f_prime,
    preprocess_time_windows,
    schedule_tour,
    solution_to_json,
    validate_solution,
)
from cdsp import routes
from cdsp.routes import TIME_TOL, _forward_pass

from conftest import make_tiny2
from gen import random_instance, split_bits
from timing_lp import schedule_lp


class TestScheduleTour:
    def test_tiny2_two_trips(self, tiny2):
        w = preprocess_time_windows(tiny2)
        t = schedule_tour([[1], [2]], tiny2, w)
        assert t.trips == ((1,), (2,))
        assert t.visits == ((3.0,), (10.0,))
        assert t.deliveries == (6.0, 14.0)
        assert t.shift == 14.0
        assert t.departure == 0.0

    def test_single_trip_no_waiting(self, tiny2):
        w = preprocess_time_windows(tiny2)
        t = schedule_tour([[1]], tiny2, w)
        assert t.visits == ((3.0,),)
        assert t.deliveries == (6.0,)
        assert t.departure == 0.0
        assert t.shift == 6.0

    def test_waiting_absorbed_by_departure_delay(self):
        # raising site 1's release to 5 creates 2 units of waiting everywhere
        base = make_tiny2(deadline2=20.0)
        inst = dataclasses.replace(
            base,
            sites=(
                base.sites[0],
                dataclasses.replace(base.sites[1], release=5.0),
                base.sites[2],
            ),
        )
        w = preprocess_time_windows(inst)
        t = schedule_tour([[1], [2]], inst, w)
        assert t.visits == ((5.0,), (12.0,))
        assert t.deliveries == (8.0, 16.0)
        assert t.departure == 2.0
        assert t.shift == 14.0

    def test_shift_cap_infeasible_despite_delay(self):
        # first stop pinned at its release, second released far out: the
        # waiting cannot be absorbed, and the smallest departure that meets
        # the cap, 104 - 50 = 54, reaches site 1 at 57, past its deadline 3
        inst = _cap_instance(first_deadline=3.0)
        w = preprocess_time_windows(inst)
        with pytest.raises(InfeasibleTourError) as err:
            schedule_tour([[1], [2]], inst, w)
        assert err.value.node == 1

    def test_shift_cap_below_travel_time(self):
        # the tour's legs alone take 3 + 3 + 4 + 4 = 14 > 13
        inst = dataclasses.replace(_cap_instance(first_deadline=150.0), shift_cap=13.0)
        w = preprocess_time_windows(inst)
        with pytest.raises(InfeasibleTourError, match="no timing satisfies the shift cap") as err:
            schedule_tour([[1], [2]], inst, w)
        assert err.value.node is None

    def test_shift_cap_solved_by_timing_relaxation(self):
        inst = _cap_instance(first_deadline=150.0)
        w = preprocess_time_windows(inst)
        t = schedule_tour([[1], [2]], inst, w)
        assert t.shift <= inst.shift_cap + 1e-6
        assert t.deliveries[0] + t.deliveries[1] == pytest.approx(164.0)

    def test_repeated_node_rejected(self, tiny2, monkeypatch):
        w = preprocess_time_windows(tiny2)
        # a Tour may hold a node on two trips, which validate_solution
        # reports; schedule_tour refuses one before any timing
        assert Tour([[1], [1]], 0.0, [[3.0], [9.0]], [6.0, 12.0]).trips == ((1,), (1,))
        monkeypatch.setattr(routes, "_forward_pass", None)
        with pytest.raises(ValueError, match="repeated"):
            schedule_tour([[1, 1]], tiny2, w)
        with pytest.raises(ValueError, match="repeated across"):
            schedule_tour([[1], [1]], tiny2, w)

    @pytest.mark.parametrize(
        "trips, message",
        [
            ([], "tour must contain at least one trip"),
            ([[1], []], "trip must visit at least one point of care"),
            ([[1, 2, 1]], r"repeated node within trip \(1, 2, 1\)"),
        ],
        ids=["empty-tour", "empty-trip", "repeat-within-trip"],
    )
    def test_rejects_what_a_tour_rejects(self, tiny2, trips, message, monkeypatch):
        # the same ValueError as Tour's, raised before any timing
        monkeypatch.setattr(routes, "_forward_pass", None)
        with pytest.raises(ValueError, match=message) as from_tour:
            Tour(trips, 0.0, [[0.0] * len(trip) for trip in trips], [0.0] * len(trips))
        with pytest.raises(ValueError, match=message) as from_schedule:
            schedule_tour(trips, tiny2, preprocess_time_windows(tiny2))
        assert str(from_schedule.value) == str(from_tour.value)

    def test_delay_changes_no_delivery(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            inst = random_instance(rng, int(rng.integers(1, 7)), 1)
            w = preprocess_time_windows(inst)
            nodes = list(rng.permutation(np.arange(1, inst.n + 1)))
            trips = split_bits(
                [int(x) for x in nodes], int(rng.integers(0, 1 << (inst.n - 1)))
            )
            try:
                t = schedule_tour(trips, inst, w)
            except InfeasibleTourError:
                continue
            visits2, deliveries2, _ = _forward_pass(trips, inst, w, departure=t.departure)
            assert visits2 == [pytest.approx(times) for times in t.visits]
            assert tuple(deliveries2) == pytest.approx(t.deliveries)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_objective_certified_against_departure_grid(self, seed):
        # over tours of <= 4 nodes, compare with exhaustive search over a
        # grid of candidate departures (forward pass is optimal per departure)
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        inst = random_instance(rng, n, 1, horizon_slack=(0.5, 6.0))
        w = preprocess_time_windows(inst)
        nodes = [int(x) for x in rng.permutation(np.arange(1, n + 1))]
        trips = split_bits(nodes, int(rng.integers(0, 1 << (n - 1))))
        try:
            t = schedule_tour(trips, inst, w)
        except InfeasibleTourError:
            t = None
        scheduled = sum(t.deliveries) if t is not None else math.inf
        best_grid = math.inf
        for dep in np.linspace(0.0, float(w.deadline[1:].max()), 300):
            try:
                _, deliveries, _ = _forward_pass(trips, inst, w, departure=float(dep))
            except InfeasibleTourError:
                continue
            shift = deliveries[-1] - dep
            if shift <= inst.shift_cap + 1e-9:
                best_grid = min(best_grid, sum(deliveries))
        if best_grid < math.inf:
            assert scheduled <= best_grid + 1e-6
        if t is not None:
            # scheduled timing itself must be feasible
            assert t.shift <= inst.shift_cap + 1e-6

    def test_capped_timing_matches_linear_program(self):
        # tours whose free delay cannot meet the cap, timed in closed form
        # and by the timing LP the closed form replaced
        rng = np.random.default_rng(2024)
        feasible = infeasible = 0
        while feasible + infeasible < 300:
            n = int(rng.integers(1, 9))
            slack = (2.0, 40.0) if rng.random() < 0.5 else (40.0, 400.0)
            inst = random_instance(
                rng, n, 1, release_fwd=float(rng.uniform(20.0, 120.0)), deadline_slack=slack
            )
            w = preprocess_time_windows(inst)
            for _ in range(4):  # tours per instance
                nodes = [int(x) for x in rng.permutation(np.arange(1, n + 1))]
                trips = split_bits(nodes, int(rng.integers(0, 1 << (n - 1))))
                try:
                    _, deliveries, min_cum_wait = _forward_pass(trips, inst, w, departure=0.0)
                except InfeasibleTourError:
                    continue
                legs = [0] + [node for trip in trips for node in (*trip, 0)]
                travel = float(sum(inst.travel[u, v] for u, v in zip(legs, legs[1:])))
                free = deliveries[-1] - min_cum_wait
                if free - 1e-3 <= 0.95 * travel:
                    continue
                cap = float(rng.uniform(0.95 * travel, free - 1e-3))
                capped = dataclasses.replace(inst, shift_cap=cap)
                try:
                    ref = schedule_lp(trips, capped, w)
                except InfeasibleTourError:
                    ref = None
                try:
                    t = schedule_tour(trips, capped, w)
                except InfeasibleTourError:
                    t = None
                assert (t is None) == (ref is None), trips
                if t is None:
                    infeasible += 1
                    continue
                feasible += 1
                # the closed form leaves at the smallest departure that meets
                # the cap, and from it every visit and delivery is earliest
                assert t.trips == ref.trips
                assert t.departure <= ref.departure + 1e-6
                visits = [z for times in t.visits for z in times]
                ref_visits = [z for times in ref.visits for z in times]
                assert all(z <= r + 1e-6 for z, r in zip(visits, ref_visits))
                weights = [len(trip) for trip in trips]
                total = sum(k * d for k, d in zip(weights, t.deliveries))
                ref_total = sum(k * d for k, d in zip(weights, ref.deliveries))
                assert total == pytest.approx(ref_total, rel=1e-9)
                assert all(d <= r + 1e-6 for d, r in zip(t.deliveries, ref.deliveries))
                assert t.shift <= cap + TIME_TOL
        assert feasible >= 25 and infeasible >= 100


class TestValidateAndEvaluate:
    def test_tiny2_optimum_valid(self, tiny2):
        w = preprocess_time_windows(tiny2)
        sol = assemble_solution([[[1], [2]]], tiny2, w)
        assert sol.total_completion == 20.0
        assert f_prime(sol.total_completion, tiny2, w, raw_release=False) == 13.0
        assert validate_solution(sol, tiny2, w).ok

    def test_single_trip_variant_valid_but_worse(self, tiny2):
        w = preprocess_time_windows(tiny2)
        sol = assemble_solution([[[1, 2]]], tiny2, w)
        assert sol.visit[2] == 8.0
        assert sol.completion == {1: 12.0, 2: 12.0}
        assert sol.total_completion == 24.0
        assert validate_solution(sol, tiny2, w).ok

    def test_duplicate_across_tours_invalid(self):
        inst = make_tiny2(fleet_size=2)
        w = preprocess_time_windows(inst)
        sol = assemble_solution([[[1, 2]], [[1]]], inst, w)
        report = validate_solution(sol, inst, w)
        assert not report.ok
        assert any("node 1 visited 2 times" in v for v in report.violations)

    def test_fleet_bound_checked(self, tiny2):
        w = preprocess_time_windows(tiny2)
        sol = assemble_solution([[[1]], [[2]]], tiny2, w)  # two tours, K=1
        report = validate_solution(sol, tiny2, w)
        assert any("fleet size" in v for v in report.violations)

    def test_missing_node_flagged(self, tiny2):
        w = preprocess_time_windows(tiny2)
        sol = assemble_solution([[[1]]], tiny2, w)
        report = validate_solution(sol, tiny2, w)
        assert any("node 2 never visited" in v for v in report.violations)

    def test_window_violation_flagged(self, tiny2):
        w = preprocess_time_windows(tiny2)
        sol = assemble_solution([[[1], [2]]], tiny2, w)
        (tour,) = sol.tours
        early = dataclasses.replace(tour, visits=((2.0,), (10.0,)))  # before release 3
        report = validate_solution(EvaluatedSolution((early,)), tiny2, w)
        assert any("node 1 visited at 2 outside window" in v for v in report.violations)

    def test_visit_before_reachable_time_flagged(self, tiny2):
        # node 2 lies 5 from node 1, visited at 3
        w = preprocess_time_windows(tiny2)
        sol = assemble_solution([[[1, 2]]], tiny2, w)
        (tour,) = sol.tours
        assert tour.visits == ((3.0, 8.0),)
        hasty = dataclasses.replace(tour, visits=((3.0, 7.0),))
        report = validate_solution(EvaluatedSolution((hasty,)), tiny2, w)
        assert any("visit of 2 at 7 before reachable time 8" in v for v in report.violations)

    def test_one_request_net(self):
        inst = _one_request_instance()
        w = preprocess_time_windows(inst)
        sol = assemble_solution([[[1]]], inst, w)
        assert sol.total_completion == 6.0
        assert f_prime(sol.total_completion, inst, w, raw_release=False) == 3.0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_net_identity_random(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, int(rng.integers(1, 7)), int(rng.integers(1, 3)))
        w = preprocess_time_windows(inst)
        from cdsp.oracle import exact_solve_tiny

        result = exact_solve_tiny(inst)
        sol = result.solution
        assert sol is not None
        assert f_prime(sol.total_completion, inst, w, raw_release=False) == pytest.approx(
            sol.total_completion - float(np.sum(w.release[1:]))
        )
        assert validate_solution(sol, inst, w).ok


def test_trip_invariants():
    # a tour holds its trips as node tuples, a visit time per stop and one
    # return time per trip
    tour = Tour([[1, 2], [3]], 2.0, [[3.0, 5.0], [10.0]], [8.0, 12.0])
    assert tour.trips == ((1, 2), (3,)) and tour.deliveries == (8.0, 12.0)
    assert tour.visits == ((3.0, 5.0), (10.0,))
    assert tour.shift == 10.0
    with pytest.raises(ValueError, match="at least one trip"):
        Tour((), 0.0, (), ())
    with pytest.raises(ValueError, match="at least one point of care"):
        Tour(((1,), ()), 0.0, ((1.0,), ()), (4.0, 4.0))
    with pytest.raises(ValueError, match="repeated node within trip"):
        Tour(((1, 2, 1),), 0.0, ((1.0, 2.0, 3.0),), (9.0,))
    with pytest.raises(ValueError, match="1 deliveries for 2 trips"):
        Tour(((1,), (2,)), 0.0, ((3.0,), (8.0,)), (6.0,))


@pytest.mark.parametrize(
    "visits",
    [((3.0,),), ((3.0,), (10.0,), (11.0,)), ((3.0, 4.0), (10.0,)), ((3.0,), ())],
    ids=["one-trip-short", "one-trip-over", "stop-over", "stop-short"],
)
def test_tour_rejects_visit_times_that_do_not_match_its_trips(visits):
    with pytest.raises(ValueError, match="do not match trips"):
        Tour(((1,), (2,)), 0.0, visits, (6.0, 14.0))


def test_solution_json_roundtrips(tiny2):
    w = preprocess_time_windows(tiny2)
    sol = assemble_solution([[[1], [2]]], tiny2, w)
    payload = solution_to_json(sol, f_prime(20.0, tiny2, w, False), {"service_mode": "ignore"})
    text = json.dumps(payload)
    loaded = json.loads(text)
    assert loaded["F"] == 20.0
    assert loaded["F_prime"] == 13.0
    assert loaded["tours"][0]["trips"] == [[1], [2]]
    assert loaded["config"]["service_mode"] == "ignore"


def _cap_instance(first_deadline: float):
    from cdsp import Instance, Site

    sites = (
        Site(0, 0.0, 0.0, 0.0, 200.0),
        Site(1, 0.0, 3.0, 3.0, first_deadline),
        Site(2, 4.0, 0.0, 100.0, 120.0),
    )
    xy = np.array([(s.x, s.y) for s in sites])
    travel = np.hypot(*(xy[:, None, :] - xy[None, :, :]).transpose(2, 0, 1))
    return Instance(
        sites=sites,
        travel=travel,
        fleet_size=1,
        shift_cap=50.0,
        depot_deadline=200.0,
        label="cap",
    )


def _one_request_instance():
    from cdsp import Instance, Site

    sites = (Site(0, 0.0, 0.0, 0.0, 30.0), Site(1, 3.0, 0.0, 0.0, 10.0))
    travel = np.array([[0.0, 3.0], [3.0, 0.0]])
    return Instance(
        sites=sites, travel=travel, fleet_size=1, shift_cap=30.0, depot_deadline=30.0, label="one"
    )

"""Cross-module sweeps: shift-capped tour timing, config modes, harness statuses."""

import dataclasses
import math

import numpy as np
import pytest

from cdsp import (
    InstanceConfig,
    RawInstance,
    Site,
    SolveLimits,
    SolveStatus,
    build_instance,
    build_model,
    build_multigraph,
    extract_solution,
    preprocess_time_windows,
    solve,
    validate_solution,
)
from cdsp.harness import run_instance
from cdsp.oracle import exact_solve_tiny
from cdsp.routes import InfeasibleTourError, _forward_pass, schedule_tour

from gen import random_instance, split_on


def _min_shift_curve(trips, inst, windows):
    """(t0_max, shift at t0_max, earliest shift, delay slack) by bisection."""
    lo, hi = 0.0, float(windows.deadline[1:].max())
    _, deliveries, min_wait = _forward_pass(trips, inst, windows, departure=0.0)

    def feasible(t0):
        try:
            _forward_pass(trips, inst, windows, departure=t0)
        except InfeasibleTourError:
            return False
        return True

    if feasible(hi):
        t0_max = hi
    else:
        for _ in range(80):
            mid = (lo + hi) / 2
            if feasible(mid):
                lo = mid
            else:
                hi = mid
        t0_max = lo
    _, deliveries_max, _ = _forward_pass(trips, inst, windows, departure=t0_max)
    return t0_max, deliveries_max[-1] - t0_max, deliveries[-1], min_wait


class TestTimingRelaxationIsExact:
    def test_lp_path_matches_parametric_optimum(self):
        # force the capped timing by picking a cap between the tightest shift
        # any departure reaches and the shift the free delay reaches, then
        # check it against the minimal feasible departure found by bisection
        rng = np.random.default_rng(77)
        exercised = 0
        for trial in range(400):
            n = int(rng.integers(2, 7))
            inst = random_instance(
                rng, n, 1, release_fwd=float(rng.uniform(20.0, 120.0))
            )
            windows = preprocess_time_windows(inst)
            nodes = [int(x) for x in rng.permutation(np.arange(1, n + 1))]
            trips = split_on(nodes, rng.integers(0, 2, size=n - 1))
            try:
                t0_max, shift_min, shift0, min_wait = _min_shift_curve(trips, inst, windows)
            except InfeasibleTourError:
                continue
            if shift0 - min_wait <= shift_min + 1e-6:
                continue  # no room to force the capped timing
            cap = float(rng.uniform(shift_min + 1e-4, shift0 - min_wait - 1e-4))
            capped = dataclasses.replace(inst, shift_cap=cap)
            tour = schedule_tour(trips, capped, windows)
            assert tour.shift <= cap + 1e-6
            # minimal feasible departure by bisection over the cap constraint
            lo, hi = 0.0, t0_max
            for _ in range(80):
                mid = (lo + hi) / 2
                _, deliveries, _ = _forward_pass(trips, inst, windows, departure=mid)
                if deliveries[-1] - mid <= cap:
                    hi = mid
                else:
                    lo = mid
            _, canonical, _ = _forward_pass(trips, inst, windows, departure=hi)
            weights = [len(t) for t in trips]
            lp_value = sum(w * d for w, d in zip(weights, tour.deliveries))
            canonical_value = sum(w * d for w, d in zip(weights, canonical))
            assert lp_value == pytest.approx(canonical_value, abs=1e-5)
            exercised += 1
        assert exercised >= 15


class TestExplicitRowsEquivalence:
    def test_random_instances_solve_identically(self):
        rng = np.random.default_rng(101)
        for _ in range(10):
            inst = random_instance(rng, int(rng.integers(2, 6)), int(rng.integers(1, 3)))
            g = build_multigraph(inst)
            a = solve(build_model(g, inst), SolveLimits(time_limit_s=60))
            b = solve(build_model(g, inst, explicit_bounds=True), SolveLimits(time_limit_s=60))
            assert a.status is SolveStatus.OPTIMAL and b.status is SolveStatus.OPTIMAL
            assert a.objective == pytest.approx(b.objective, abs=1e-7)


class TestConfiguredModes:
    def _random_solomon(self, rng, n, horizon=10_000.0, service_max=30.0):
        sites = [Site(0, 50.0, 50.0, 0.0, horizon, 0.0)]
        demands = [0.0]
        for j in range(1, n + 1):
            x, y = rng.uniform(0, 100, size=2)
            sites.append(
                Site(j, float(x), float(y), 0.0, horizon, float(rng.uniform(0, service_max)))
            )
            demands.append(float(rng.integers(1, 40)))
        return RawInstance(
            name=f"mode-n{n}",
            vehicle_number=2,
            vehicle_capacity=200.0,
            sites=tuple(sites),
            demands=tuple(demands),
        )

    @pytest.mark.parametrize(
        "cfg",
        [
            InstanceConfig(fleet_size="file", service_mode="fold"),
            InstanceConfig(fleet_size="file", rounding=2),
            InstanceConfig(fleet_size="file", service_mode="fold", rounding=1),
            InstanceConfig(fleet_size="file", shift_cap=400.0),
        ],
        ids=["fold", "round2", "fold+round1", "capped"],
    )
    def test_oracle_mip_agree_under_config(self, cfg):
        rng = np.random.default_rng(55)
        for _ in range(5):
            raw = self._random_solomon(rng, int(rng.integers(2, 6)))
            inst = build_instance(raw, cfg)
            windows = preprocess_time_windows(inst)
            g = build_multigraph(inst)
            outcome = solve(build_model(g, inst), SolveLimits(time_limit_s=60))
            oracle = exact_solve_tiny(inst)
            if oracle.solution is None:
                assert outcome.status is SolveStatus.INFEASIBLE
                continue
            assert outcome.status is SolveStatus.OPTIMAL
            assert abs(outcome.objective - oracle.best_total) <= 1e-6
            sol = extract_solution(model=build_model(g, inst), values=outcome.values)
            assert validate_solution(sol, inst, windows).ok


class TestHarnessTimeLimit:
    def test_time_limited_run_records_status(self, tmp_path):
        rng = np.random.default_rng(202)
        inst = random_instance(rng, 25, 10)
        # serialize to a Solomon file so the harness path is exercised
        lines = [inst.label, "", "VEHICLE", "NUMBER     CAPACITY", "  10        200", "", "CUSTOMER", "hdr", ""]
        for site, demand in zip(inst.sites, [0.0] * (inst.n + 1)):
            lines.append(
                f"{site.id} {site.x!r} {site.y!r} {demand} {site.release!r} {site.deadline!r} 0"
            )
        path = tmp_path / "big.txt"
        path.write_text("\n".join(lines) + "\n")
        record = run_instance(
            path,
            InstanceConfig(fleet_size="file", shift_cap=inst.shift_cap),
            SolveLimits(time_limit_s=0.05),
        )
        assert record.status in ("feasible-time-limit", "no-solution-time-limit")
        if record.status == "feasible-time-limit":
            assert record.net is not None  # decoded and validated

    def test_optimal_records_have_tiny_gap(self, tiny2_file):
        record = run_instance(
            tiny2_file, InstanceConfig(fleet_size="file"), SolveLimits(time_limit_s=60)
        )
        assert record.status == "optimal"
        assert record.gap_pct is not None
        assert record.gap_pct <= 1e-4


def test_euclidean_vs_rounded_objective_shift():
    # rounding perturbs travel times, so objectives move but stay close
    rng = np.random.default_rng(303)
    raw = TestConfiguredModes()._random_solomon(rng, 4)
    exact_inst = build_instance(raw, InstanceConfig(fleet_size="file"))
    rounded_inst = build_instance(raw, InstanceConfig(fleet_size="file", rounding=0))
    exact = exact_solve_tiny(exact_inst)
    rounded = exact_solve_tiny(rounded_inst)
    assert exact.solution is not None and rounded.solution is not None
    assert abs(exact.best_total - rounded.best_total) < 10.0
    assert not math.isclose(exact.best_total, rounded.best_total, abs_tol=1e-12)

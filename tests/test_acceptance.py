"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. The benchmark-reproduction criterion needs the public dataset
and hours of solver time; point CDSP_BENCHMARK_MANIFEST at a manifest of
the 25-node instances to enable it.
"""

import os
from contextlib import contextmanager

import numpy as np
import pytest

from cdsp import (
    ArcKind,
    SolveLimits,
    SolveStatus,
    build_model,
    build_multigraph,
    extract_solution,
    preprocess_time_windows,
    solve,
    validate_solution,
)
from cdsp.instances import InstanceConfig, triangle_violations
from cdsp.harness import run_suite, load_manifest
from cdsp.oracle import exact_solve_tiny

import views
from conftest import make_tiny2
from gen import random_instance

EQUIV_INSTANCES = 100
EQUIV_TOL = 1e-6
LIMITS = SolveLimits(time_limit_s=120.0)


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL: {name}")
        raise
    print(f"ACCEPTANCE PASS: {name}")


@pytest.fixture(scope="module")
def equivalence_sweep():
    """Oracle and MIP runs over >= 100 random tiny instances, shared by the
    equivalence and round-trip criteria."""
    rng = np.random.default_rng(20240917)
    runs = []
    for trial in range(EQUIV_INSTANCES):
        n = int(rng.integers(3, 7))
        fleet = int(rng.integers(1, 3))
        inst = random_instance(rng, n, fleet)
        windows = preprocess_time_windows(inst)
        graph = build_multigraph(inst, windows)
        model = build_model(graph, inst)
        outcome = solve(model, LIMITS)
        oracle = exact_solve_tiny(inst, windows)
        runs.append((inst, windows, graph, model, outcome, oracle))
    return runs


def test_oracle_mip_equivalence(equivalence_sweep):
    with criterion(
        f"oracle-MIP equivalence on {len(equivalence_sweep)} random instances"
        f" (n in 3..6, K in 1..2, tol {EQUIV_TOL})"
    ):
        assert len(equivalence_sweep) >= 100
        for inst, windows, graph, model, outcome, oracle in equivalence_sweep:
            assert outcome.status is SolveStatus.OPTIMAL, (inst.label, outcome.message)
            assert oracle.solution is not None, inst.label
            assert abs(outcome.objective - oracle.best_total) <= EQUIV_TOL, (
                inst.label,
                outcome.objective,
                oracle.best_total,
            )


def test_tiny2_fixture():
    with criterion("TINY2 fixture: F=20, F'=13, route trips [1],[2]"):
        inst = make_tiny2()
        windows = preprocess_time_windows(inst)
        # the oracle verifies the values before the model is trusted
        oracle = exact_solve_tiny(inst, windows)
        assert oracle.best_total == 20.0
        assert oracle.solution.net_completion == 13.0
        assert oracle.solution.trips_by_vehicle == (((1,), (2,)),)
        graph = build_multigraph(inst, windows)
        outcome = solve(build_model(graph, inst), LIMITS)
        assert outcome.status is SolveStatus.OPTIMAL
        assert abs(outcome.objective - 20.0) <= EQUIV_TOL


def test_structural_counts():
    with criterion("structural counts exact for n in 1..30"):
        rng = np.random.default_rng(7)
        for n in range(1, 31):
            inst = random_instance(rng, n, int(rng.integers(1, 4)))
            model = build_model(build_multigraph(inst), inst)
            assert views.count_binary(model) == 3 * n * n
            assert views.count_continuous(model) == 3 * n
            assert len(views.rows_by_family(model, "tprop")) == 2 * n * (n - 1)
            assert len(views.rows_by_family(model, "carry")) == n * (n - 1) ** 2
            assert len(views.rows_by_family(model, "compl")) == n * n
            assert len(views.rows_by_family(model, "sprop")) == 2 * n * (n - 1)


def test_round_trip_incumbents(equivalence_sweep):
    with criterion(
        "every incumbent decodes to a validated solution matching the solver"
        f" objective within {EQUIV_TOL}"
    ):
        for inst, windows, graph, model, outcome, oracle in equivalence_sweep:
            assert outcome.has_incumbent
            sol = extract_solution(model, outcome.values, graph)
            verdict = validate_solution(sol, inst, windows)
            assert verdict.ok, (inst.label, verdict.violations)
            assert abs(sol.total_completion - outcome.objective) <= EQUIV_TOL


def test_preprocessing_and_graph_invariants():
    with criterion("preprocessing/graph invariants over 1000 random instances"):
        rng = np.random.default_rng(3141)
        for trial in range(1000):
            n = int(rng.integers(1, 11))
            inst = random_instance(rng, n, int(rng.integers(1, 4)))
            windows = preprocess_time_windows(inst)
            # tightening is idempotent and never widens
            again_r = np.maximum(windows.release, inst.travel[0, :])
            again_d = np.minimum(windows.deadline, inst.depot_deadline - inst.travel[:, 0])
            again_r[0], again_d[0] = 0.0, inst.depot_deadline
            assert np.array_equal(again_r, windows.release)
            assert np.array_equal(again_d, windows.deadline)
            for j in inst.points_of_care:
                assert windows.release[j] >= inst.sites[j].release
                assert windows.deadline[j] <= inst.sites[j].deadline
            graph = build_multigraph(inst, windows)
            assert len(graph.arcs) == 2 * n * n
            inter = {
                (a.source, a.target): a.cost for a in graph.arcs if a.kind is ArcKind.INTER
            }
            for arc in graph.arcs:
                if arc.kind is ArcKind.REPLENISH:
                    assert arc.cost >= inter[(arc.source, arc.target)] - 1e-9
            assert triangle_violations(inst.travel) == []


def test_benchmark_reproduction_small_instances():
    manifest_path = os.environ.get("CDSP_BENCHMARK_MANIFEST")
    if not manifest_path:
        pytest.skip(
            "public benchmark dataset not available in this environment; set "
            "CDSP_BENCHMARK_MANIFEST to a manifest of the 25-node instances "
            "to run the reproduction (3600 s per instance)"
        )
    with criterion("benchmark reproduction: 25-node settings"):
        entries = [e for e in load_manifest(manifest_path) if e.setting and e.setting.size == 25]
        assert len(entries) == 56, "expected the 56 small instances"
        report = run_suite(
            entries,
            InstanceConfig(),
            SolveLimits(time_limit_s=3600.0, threads=16),
            workers=int(os.environ.get("CDSP_BENCHMARK_WORKERS", "1")),
        )
        agg = report.settings[(25, "C", "tight")]
        assert agg.n_opt == 9
        assert agg.avg_net == pytest.approx(672.0, abs=1.0)
        rc_wide = report.settings[(25, "RC", "wide")]
        assert rc_wide.n_opt == 7
        assert rc_wide.n_time_limit == 1
        total_opt = sum(a.n_opt for a in report.settings.values())
        assert total_opt == 55

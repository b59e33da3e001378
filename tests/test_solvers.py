import dataclasses
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

from cdsp import (
    InstanceConfig,
    SolveLimits,
    SolveStatus,
    SolverConfigError,
    build_instance,
    build_model,
    build_multigraph,
    emit_model,
    exact_solve_tiny,
    extract_solution,
    parse_solomon,
    preprocess_time_windows,
    solve,
    validate_solution,
)
from cdsp.formulation import FileSolverAdapter, model_to_arrays
from cdsp.formulation.solvers import (
    FEASIBILITY_TOL,
    _parse_cbc,
    _parse_highs,
    _parse_plain,
    dominated_carries,
    time_bound_rows,
)
from cdsp.network import TimeWindows

from conftest import TINY2_FILE
from gen import random_instance, varied_instance
from views import solution_column_values

FAKE_SOLVER = Path(__file__).parent / "fake_solver.py"
WIDE5 = Path(__file__).parent / "data" / "wide5.txt"
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def tiny2_model(tiny2):
    return build_model(build_multigraph(tiny2), tiny2)


class TestLimits:
    def test_positive_required(self):
        with pytest.raises(ValueError):
            SolveLimits(time_limit_s=0)
        with pytest.raises(ValueError):
            SolveLimits(threads=0)
        with pytest.raises(ValueError):
            SolveLimits(gap_target=-0.1)

    def test_defaults_match_benchmark_protocol(self):
        limits = SolveLimits()
        assert limits.time_limit_s == 3600.0
        assert limits.threads == 16


class TestScipyAdapter:
    def test_tiny2_optimal(self, tiny2_model):
        outcome = solve(tiny2_model, SolveLimits(time_limit_s=60))
        assert outcome.status is SolveStatus.OPTIMAL
        assert outcome.objective == pytest.approx(20.0, abs=1e-6)
        assert outcome.bound == pytest.approx(20.0, abs=1e-6)
        assert outcome.values is not None
        assert isinstance(outcome.nodes, int) and outcome.nodes >= 0

    def test_empty_window_model_is_infeasible(self, tiny2):
        # doctored windows that preprocessing would have rejected
        w = preprocess_time_windows(tiny2)
        release = w.release.copy()
        deadline = w.deadline.copy()
        release[2], deadline[2] = 9.0, 5.0
        windows = TimeWindows(release=release, deadline=deadline)
        g = dataclasses.replace(build_multigraph(tiny2), windows=windows)
        model = build_model(g, tiny2)
        outcome = solve(model, SolveLimits(time_limit_s=60))
        assert outcome.status is SolveStatus.INFEASIBLE
        assert outcome.values is None

    def test_time_limit_never_claims_optimal(self):
        rng = np.random.default_rng(13)
        inst = random_instance(rng, 30, 3)
        model = build_model(build_multigraph(inst), inst)
        outcome = solve(model, SolveLimits(time_limit_s=1e-3))
        assert outcome.status in (
            SolveStatus.FEASIBLE_TIME_LIMIT,
            SolveStatus.NO_SOLUTION_TIME_LIMIT,
        )

    def test_solve_error_is_retried_without_presolve(self, tiny2_model, monkeypatch):
        import scipy.optimize

        real_milp = scipy.optimize.milp
        calls = []

        def first_call_fails(*args, options, **kwargs):
            calls.append(options)
            if len(calls) == 1:
                return scipy.optimize.OptimizeResult(status=4, message="Solve error", x=None)
            return real_milp(*args, options=options, **kwargs)

        monkeypatch.setattr(scipy.optimize, "milp", first_call_fails)
        outcome = solve(tiny2_model, SolveLimits(time_limit_s=60))
        assert outcome.status is SolveStatus.OPTIMAL
        assert outcome.objective == pytest.approx(20.0, abs=1e-6)
        assert "presolve" not in calls[0]
        assert calls[1]["presolve"] is False
        assert 0 < calls[1]["time_limit"] <= 60
        assert all(call["mip_heuristic_run_feasibility_jump"] is False for call in calls)
        assert "re-solved without presolve after: Solve error" in outcome.message

    def test_highs_without_an_option_solves_on_its_defaults(self, tiny2_model, monkeypatch):
        # a HiGHS that lacks an option name warns "Invalid option name." and
        # ignores it; the adapter keeps that warning out of the caller's way
        import scipy.optimize

        real_milp = scipy.optimize.milp

        def older_highs(*args, options, **kwargs):
            warnings.warn("Invalid option name.", scipy.optimize.OptimizeWarning)
            options = dict(options)
            del options["mip_heuristic_run_feasibility_jump"]
            return real_milp(*args, options=options, **kwargs)

        monkeypatch.setattr(scipy.optimize, "milp", older_highs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outcome = solve(tiny2_model, SolveLimits(time_limit_s=60))
        assert outcome.status is SolveStatus.OPTIMAL
        assert outcome.objective == pytest.approx(20.0, abs=1e-6)

    def test_adapter_crash_becomes_error_outcome(self, tiny2_model):
        class Exploding:
            name = "exploding"

            def solve(self, model, limits):
                raise RuntimeError("boom")

        outcome = solve(tiny2_model, SolveLimits(time_limit_s=1), adapter=Exploding())
        assert outcome.status is SolveStatus.ERROR
        assert "boom" in outcome.message

    def test_highs_stray_stdout_stays_out_of_cli_output(self):
        # HiGHS 1.12 prints "HighsMipSolverData::transformNewIntegerFeasibleSolution
        # tmpSolver.run();" to fd 1 while solving wide5 (optimal F = 666.28);
        # the adapter sends it to fd 2. A HiGHS build that prints nothing
        # passes as well.
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "cdsp.cli", "solve", str(WIDE5), "--fleet", "file",
             "--rounding", "2"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("wide5: optimal\n"), proc.stdout
        assert "F  = 666.280000" in proc.stdout
        assert not [line for line in proc.stdout.splitlines() if "HighsMipSolverData" in line]


def _solve_paper_model(model):
    """scipy's milp on the model's own arrays with the bundled adapter's
    tolerances: the paper model alone, without the time-bound rows, on
    HiGHS's default heuristics (feasibility jump included; the seed 25/38
    false optima are the same without it)."""
    c, matrix, row_lb, row_ub, lb, ub, integrality = model_to_arrays(model)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="Unrecognized options detected")
        return milp(
            c,
            constraints=LinearConstraint(matrix, row_lb, row_ub),
            integrality=integrality,
            bounds=Bounds(lb, ub),
            options={
                "time_limit": 60.0,
                "mip_rel_gap": 0.0,
                "mip_feasibility_tolerance": FEASIBILITY_TOL,
                "primal_feasibility_tolerance": FEASIBILITY_TOL,
            },
        )


def _varied_sweep():
    """60 seeded (instance, graph, model) cases at n = 2-7 with 1-3 vehicles:
    a third wide windows, half a scaled shift cap (some then infeasible),
    a quarter with explicit rows."""
    rng = np.random.default_rng(7)
    for _ in range(60):
        inst = varied_instance(rng, int(rng.integers(2, 8)))
        g = build_multigraph(inst)
        yield inst, g, build_model(g, inst, explicit_bounds=bool(rng.random() < 0.25))


class TestTimeBoundRows:
    """The bundled solve adds valid rows and fixes dominated carries: it must
    reach the same optima."""

    def test_bundled_solve_matches_the_oracle(self):
        statuses = []
        for inst, g, model in _varied_sweep():
            outcome = solve(model, SolveLimits(time_limit_s=60))
            oracle = exact_solve_tiny(inst, g.windows)
            statuses.append(outcome.status)
            if oracle.solution is None:
                assert outcome.status is SolveStatus.INFEASIBLE
                continue
            assert outcome.status is SolveStatus.OPTIMAL
            assert outcome.objective == pytest.approx(oracle.best_total, rel=1e-6)
            sol = extract_solution(model, outcome.values)
            assert validate_solution(sol, inst, g.windows).ok
        assert SolveStatus.INFEASIBLE in statuses

    def test_oracle_optima_satisfy_the_rows_and_use_no_fixed_carry(self):
        explicit = capped = fixed = 0
        for inst, g, model in _varied_sweep():
            oracle = exact_solve_tiny(inst, g.windows)
            if oracle.solution is None:
                continue
            vec = solution_column_values(oracle.solution, model, g)
            slack = time_bound_rows(model) @ vec
            assert np.all(slack >= -1e-9), np.flatnonzero(slack < -1e-9)
            dominated = dominated_carries(model)
            assert not vec[dominated].any(), dominated[vec[dominated] != 0]
            explicit += any(fam.name == "collect" for fam in model.families)
            capped += inst.shift_cap < inst.depot_deadline
            fixed += len(dominated)
        assert explicit and capped and fixed

    def test_lifted_coefficients_on_tiny2(self):
        # t_01 = 3, t_02 = 4, t_12 = 5; r' = (3, 4), d' = (10, 10). Arcs:
        # 0: 0->1, 1: 0->2, 2: 1->0, 3: 2->0, 4/5: inter 1->2 / 2->1 (cost 5),
        # 6/7: replenish 1->2 / 2->1 (cost 7)
        raw = parse_solomon(TINY2_FILE)
        inst = build_instance(raw, InstanceConfig(fleet_size="file"), label="tiny2")
        g = build_multigraph(inst)
        model = build_model(g, inst)
        lay = model.layout
        z, C = lay.z(np.array([1, 2])), lay.completion(np.array([1, 2]))
        want = np.zeros((6, model.num_columns))
        # (P) into 1: max(0 + 3, 3), max(4 + 5, 3), max(4 + 7, 3)
        want[0, [z[0], 0, 5, 7]] = [1, -3, -9, -11]
        # (P) into 2: max(0 + 4, 4), max(3 + 5, 4), max(3 + 7, 4)
        want[1, [z[1], 1, 4, 6]] = [1, -4, -8, -10]
        # (S1) out of 1: t_10 = 3 home or by replenishment, 5 + t_20 via 2
        want[2, [C[0], z[0], 2, 4, 6]] = [1, -1, -3, -9, -3]
        want[3, [C[1], z[1], 3, 5, 7]] = [1, -1, -4, -8, -4]
        # (S2) out of 1: r'_1 + t_10 = 6, or via 2 max(r'_2, r'_1 + 5) + t_20
        # = 12 (13 with r'_2 = 9 below; 8 before the lifting)
        want[4, [C[0], 2, 4, 6]] = [1, -6, -12, -6]
        want[5, [C[1], 3, 5, 7]] = [1, -8, -12, -8]
        np.testing.assert_array_equal(time_bound_rows(model).toarray(), want)
        assert len(dominated_carries(model)) == 0

        # a release of 9 at request 2 raises every term of an arc out of 2,
        # lifts (P) into 2 where 9 exceeds the travel bound, and (S2)
        # through 1->2; y_12 (2 carried at 1) would need z_1 >= 9 + 5 >
        # d'_1 = 10 and is fixed
        w = g.windows
        release = w.release.copy()
        release[2] = 9.0
        g9 = dataclasses.replace(g, windows=TimeWindows(release=release, deadline=w.deadline))
        model9 = build_model(g9, inst)
        want[0, [5, 7]] = [-14, -16]
        want[1, [1, 4, 6]] = [-9, -9, -10]
        want[4, 4] = -13
        want[5, [3, 5, 7]] = [-13, -17, -13]
        np.testing.assert_array_equal(time_bound_rows(model9).toarray(), want)
        assert dominated_carries(model9).tolist() == [lay.y(1, 2)]

        # the fixing goes to a copy: the model's bounds stay as built
        upper = model9.col_upper.copy()
        outcome = solve(model9, SolveLimits(time_limit_s=60))
        np.testing.assert_array_equal(model9.col_upper, upper)
        assert outcome.status is SolveStatus.OPTIMAL

    @pytest.mark.parametrize("seed", [14, 19, 26, 29])
    def test_bundled_solve_matches_the_paper_model(self, seed):
        # n = 8-10 instances the paper model alone solves in under 0.3 s
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, int(rng.integers(8, 11)), int(rng.integers(2, 4)))
        model = build_model(build_multigraph(inst), inst)
        paper = _solve_paper_model(model)
        outcome = solve(model, SolveLimits(time_limit_s=60))
        assert paper.status == 0
        assert outcome.status is SolveStatus.OPTIMAL
        assert outcome.objective == pytest.approx(paper.fun, rel=1e-6)

    @pytest.mark.parametrize("seed", [25, 38])
    def test_oracle_optimum_where_the_paper_model_alone_misses_it(self, seed):
        # HiGHS with presolve on reports an optimum 1.4-1.6 % above the
        # oracle's on the paper model alone (any tolerance 1e-9..1e-6)
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, int(rng.integers(8, 11)), int(rng.integers(2, 4)))
        g = build_multigraph(inst)
        model = build_model(g, inst)
        outcome = solve(model, SolveLimits(time_limit_s=60))
        oracle = exact_solve_tiny(inst, g.windows, limit=inst.n)
        assert outcome.status is SolveStatus.OPTIMAL
        assert outcome.objective == pytest.approx(oracle.best_total, rel=1e-9)

    def test_n25_counterexample_is_solved_to_the_true_optimum(self):
        # the paper model alone reports optimal F = 6772.464 here at 1e-9
        inst = random_instance(np.random.default_rng(5), 25, 6)
        g = build_multigraph(inst)
        model = build_model(g, inst)
        outcome = solve(model, SolveLimits(time_limit_s=120))
        assert outcome.status is SolveStatus.OPTIMAL
        assert outcome.objective == pytest.approx(6762.32082322527, rel=1e-9)
        sol = extract_solution(model, outcome.values)
        assert validate_solution(sol, inst, g.windows).ok
        assert sol.total_completion == pytest.approx(6762.32082322527, rel=1e-9)


class TestFileAdapter:
    @pytest.mark.parametrize("fmt", ["lp", "mps"])
    def test_external_solver_roundtrip(self, tiny2_model, fmt):
        adapter = FileSolverAdapter(
            command=(sys.executable, str(FAKE_SOLVER), "{model}", "{solution}", "{time_limit}"),
            model_format=fmt,
            solution_format="plain",
        )
        outcome = solve(tiny2_model, SolveLimits(time_limit_s=60), adapter=adapter)
        assert outcome.status is SolveStatus.OPTIMAL
        assert outcome.objective == pytest.approx(20.0, abs=1e-6)
        assert outcome.bound == pytest.approx(20.0, abs=1e-6)
        assert outcome.nodes is None

    def test_external_solver_decodes_like_bundled(self, tiny2, tiny2_model):
        from cdsp import extract_solution, validate_solution

        adapter = FileSolverAdapter(
            command=(sys.executable, str(FAKE_SOLVER), "{model}", "{solution}"),
            model_format="lp",
        )
        outcome = solve(tiny2_model, SolveLimits(time_limit_s=60), adapter=adapter)
        g = build_multigraph(tiny2)
        sol = extract_solution(tiny2_model, outcome.values)
        assert validate_solution(sol, tiny2, g.windows).ok
        assert sol.total_completion == pytest.approx(20.0, abs=1e-6)

    def test_infeasible_model_reported(self, tiny2):
        w = preprocess_time_windows(tiny2)
        release = w.release.copy()
        release[2] = 11.0  # above deadline 10
        windows = TimeWindows(release=release, deadline=w.deadline)
        g = dataclasses.replace(build_multigraph(tiny2), windows=windows)
        model = build_model(g, tiny2)
        adapter = FileSolverAdapter(
            command=(sys.executable, str(FAKE_SOLVER), "{model}", "{solution}"),
            model_format="lp",
        )
        outcome = solve(model, SolveLimits(time_limit_s=60), adapter=adapter)
        assert outcome.status is SolveStatus.INFEASIBLE

    def test_command_with_unrelated_braces(self, tiny2_model):
        # solver flags containing braces must pass through untouched
        adapter = FileSolverAdapter(
            command=(
                sys.executable,
                "-c",
                "import sys,shutil;"
                "assert sys.argv[3] == '{\"opts\": 1}', sys.argv[3];"
                "open(sys.argv[2],'w').write('status infeasible')",
                "{model}",
                "{solution}",
                '{"opts": 1}',
            ),
        )
        outcome = solve(tiny2_model, SolveLimits(time_limit_s=10), adapter=adapter)
        assert outcome.status is SolveStatus.INFEASIBLE

    def test_broken_command_is_error(self, tiny2_model):
        adapter = FileSolverAdapter(command=("/nonexistent/solver", "{model}"))
        outcome = solve(tiny2_model, SolveLimits(time_limit_s=5), adapter=adapter)
        assert outcome.status is SolveStatus.ERROR

    def test_unknown_model_format_fails_at_construction(self):
        with pytest.raises(SolverConfigError, match="unknown model format 'gms'"):
            FileSolverAdapter(command=(sys.executable, "{model}"), model_format="gms")

    def test_unknown_solution_format_fails_at_construction(self):
        with pytest.raises(SolverConfigError, match="unknown solution format 'sol'"):
            FileSolverAdapter(command=(sys.executable, "{model}"), solution_format="sol")

    def test_model_file_bytes_equal_emit_model(self, tiny2_model, tmp_path):
        # the solver copies the model file it was given, then reports infeasible
        copy = tmp_path / "seen.mps"
        adapter = FileSolverAdapter(
            command=(
                sys.executable,
                "-c",
                "import shutil, sys; shutil.copyfile(sys.argv[1], sys.argv[3]);"
                "open(sys.argv[2], 'w').write('status infeasible')",
                "{model}",
                "{solution}",
                str(copy),
            ),
            model_format="mps",
        )
        outcome = solve(tiny2_model, SolveLimits(time_limit_s=10), adapter=adapter)
        assert outcome.status is SolveStatus.INFEASIBLE
        assert copy.read_bytes() == emit_model(tiny2_model, "mps").encode()

    def test_model_file_extension_is_lower_case(self, tiny2_model, tmp_path):
        # solvers pick their reader by the extension; the solver records the
        # path it was given, then reports infeasible
        seen = tmp_path / "path.txt"
        adapter = FileSolverAdapter(
            command=(
                sys.executable,
                "-c",
                "import sys; open(sys.argv[3], 'w').write(sys.argv[1]);"
                "open(sys.argv[2], 'w').write('status infeasible')",
                "{model}",
                "{solution}",
                str(seen),
            ),
            model_format="MPS",
        )
        outcome = solve(tiny2_model, SolveLimits(time_limit_s=10), adapter=adapter)
        assert outcome.status is SolveStatus.INFEASIBLE
        assert Path(seen.read_text()).name == "model.mps"

    def test_no_solution_file_is_error(self, tiny2_model):
        adapter = FileSolverAdapter(command=(sys.executable, "-c", "pass"))
        outcome = solve(tiny2_model, SolveLimits(time_limit_s=5), adapter=adapter)
        assert outcome.status is SolveStatus.ERROR
        assert "no solution file" in outcome.message


class TestSolutionParsers:
    def test_plain(self):
        parsed = _parse_plain("# comment\nstatus optimal\nobjective 20\nbound 19.5\nx_0 1\nz_1 3.0\n")
        assert parsed.status == "optimal"
        assert parsed.objective == 20.0
        assert parsed.bound == 19.5
        assert parsed.values == {"x_0": 1.0, "z_1": 3.0}

    def test_highs(self):
        text = """\
Model status
Optimal

# Primal solution values
Feasible
Objective 20
# Columns 3
x_0 1
z_1 3
C_1 6
# Rows 2
r0 1
r1 0
"""
        parsed = _parse_highs(text)
        assert parsed.status == "Optimal"
        assert parsed.objective == 20.0
        assert parsed.values == {"x_0": 1.0, "z_1": 3.0, "C_1": 6.0}

    def test_cbc(self):
        text = (
            "Optimal - objective value 20.00000000\n"
            "      0 x_0                 1          0\n"
            "      1 z_1                 3          0\n"
        )
        parsed = _parse_cbc(text)
        assert parsed.status == "Optimal"
        assert parsed.objective == 20.0
        assert parsed.values == {"x_0": 1.0, "z_1": 3.0}


def test_outcomes_deterministic(tiny2_model):
    a = solve(tiny2_model, SolveLimits(time_limit_s=60))
    b = solve(tiny2_model, SolveLimits(time_limit_s=60))
    assert a.objective == b.objective
    assert np.array_equal(a.values, b.values)

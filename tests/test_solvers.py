import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

from cdsp import (
    SolveLimits,
    SolveStatus,
    SolverConfigError,
    build_model,
    build_multigraph,
    emit_model,
    exact_solve_tiny,
    extract_solution,
    preprocess_time_windows,
    solve,
    validate_solution,
)
from cdsp.formulation import FileSolverAdapter, model_to_arrays
from cdsp.formulation.solvers import FEASIBILITY_TOL, _parse_cbc, _parse_highs, _parse_plain
from cdsp.network import TimeWindows

from gen import random_instance, varied_instance

FAKE_SOLVER = Path(__file__).parent / "fake_solver.py"


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
        g = build_multigraph(tiny2, TimeWindows(release=release, deadline=deadline))
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
        assert "re-solved without presolve after: Solve error" in outcome.message

    def test_adapter_crash_becomes_error_outcome(self, tiny2_model):
        class Exploding:
            name = "exploding"

            def solve(self, model, limits):
                raise RuntimeError("boom")

        outcome = solve(tiny2_model, SolveLimits(time_limit_s=1), adapter=Exploding())
        assert outcome.status is SolveStatus.ERROR
        assert "boom" in outcome.message


def _solve_paper_model(model):
    """scipy's milp on the model's own arrays with the bundled adapter's
    options: the paper model alone, without the time-bound rows."""
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


class TestTimeBoundRows:
    """The bundled solve adds valid rows: it must reach the same optima."""

    def test_bundled_solve_matches_the_oracle(self):
        # n = 2-7, 1-3 vehicles, wide windows, scaled shift caps, explicit rows
        rng = np.random.default_rng(7)
        statuses = []
        for _ in range(60):
            inst = varied_instance(rng, int(rng.integers(2, 8)))
            windows = preprocess_time_windows(inst)
            g = build_multigraph(inst, windows)
            model = build_model(g, inst, explicit_bounds=bool(rng.random() < 0.25))
            outcome = solve(model, SolveLimits(time_limit_s=60))
            oracle = exact_solve_tiny(inst, windows)
            statuses.append(outcome.status)
            if oracle.solution is None:
                assert outcome.status is SolveStatus.INFEASIBLE
                continue
            assert outcome.status is SolveStatus.OPTIMAL
            assert outcome.objective == pytest.approx(oracle.best_total, rel=1e-6)
            sol = extract_solution(model, outcome.values, g)
            assert validate_solution(sol, inst, windows).ok
        assert SolveStatus.INFEASIBLE in statuses

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
        sol = extract_solution(model, outcome.values, g)
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
        sol = extract_solution(tiny2_model, outcome.values, g)
        assert validate_solution(sol, tiny2, g.windows).ok
        assert sol.total_completion == pytest.approx(20.0, abs=1e-6)

    def test_infeasible_model_reported(self, tiny2):
        w = preprocess_time_windows(tiny2)
        release = w.release.copy()
        release[2] = 11.0  # above deadline 10
        g = build_multigraph(tiny2, TimeWindows(release=release, deadline=w.deadline))
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

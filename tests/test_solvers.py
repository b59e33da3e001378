import sys
from pathlib import Path

import numpy as np
import pytest

from cdsp import (
    SolveLimits,
    SolveStatus,
    SolverConfigError,
    build_model,
    build_multigraph,
    emit_model,
    preprocess_time_windows,
    solve,
)
from cdsp.formulation import FileSolverAdapter, ScipyMilpAdapter, make_adapter
from cdsp.formulation.solvers import _parse_cbc, _parse_highs, _parse_plain
from cdsp.network import TimeWindows

from gen import random_instance

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

    def test_adapter_crash_becomes_error_outcome(self, tiny2_model):
        class Exploding:
            name = "exploding"

            def solve(self, model, limits):
                raise RuntimeError("boom")

        outcome = solve(tiny2_model, SolveLimits(time_limit_s=1), adapter=Exploding())
        assert outcome.status is SolveStatus.ERROR
        assert "boom" in outcome.message

    def test_missing_adapter_is_config_error(self):
        with pytest.raises(SolverConfigError, match="no solver adapter"):
            make_adapter("nonexistent")

    def test_registry_default(self):
        assert isinstance(make_adapter("scipy"), ScipyMilpAdapter)

    def test_backend_name_is_not_an_adapter_name(self):
        # "scipy-highs" names the backend in fingerprints; the adapter is "scipy"
        assert ScipyMilpAdapter.name == "scipy-highs"
        with pytest.raises(SolverConfigError, match=r"registered: \[.*'scipy'"):
            make_adapter("scipy-highs")


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

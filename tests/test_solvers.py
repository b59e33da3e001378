import dataclasses
import itertools
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.optimize._highspy import _core as highspy

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
from cdsp.formulation import FileSolverAdapter, model_to_arrays, solvers
from cdsp.formulation.solvers import (
    FEASIBILITY_JUMP,
    FEASIBILITY_TOL,
    OPTIONAL_OPTIONS,
    ROOT_REDUCED_COST,
    SHIFT_FAMILIES,
    ScipyMilpAdapter,
    SolveOutcome,
    _highs_model,
    _highs_run,
    _parse_cbc,
    _parse_highs,
    _parse_plain,
    dominated_carries,
    slack_shift_start,
    solver_view,
    time_bound_rows,
)
from cdsp.network import TimeWindows

from conftest import TINY2_FILE
from gen import random_instance, varied_instance
from views import solution_column_values

FAKE_SOLVER = Path(__file__).parent / "fake_solver.py"
WIDE5 = Path(__file__).parent / "data" / "wide5.txt"
CAPPED2 = Path(__file__).parent / "data" / "capped2.txt"
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def tiny2_model(tiny2):
    return build_model(build_multigraph(tiny2), tiny2)


@pytest.fixture
def highs_spy(monkeypatch):
    """The bundled HiGHS binding's ``_Highs``, replaced by a subclass that
    keeps every object made (``made``), the options set on each
    (``options``) and the arguments of its ``passModel`` call (``arrays``).
    Tests subclass it further to change what HiGHS does."""

    class Spy(highspy._Highs):
        made = []

        def __init__(self):
            super().__init__()
            self.options = {}
            self.arrays = None
            Spy.made.append(self)

        def setOptionValue(self, name, value):
            self.options[name] = value
            return super().setOptionValue(name, value)

        def passModel(self, *arrays):
            self.arrays = arrays
            return super().passModel(*arrays)

    monkeypatch.setattr(highspy, "_Highs", Spy)
    return Spy


def test_outcome_without_values_follows_the_status_rules():
    stopped = SolveOutcome(SolveStatus.FEASIBLE_TIME_LIMIT, bound=3.0, message="Time limit")
    assert stopped.status is SolveStatus.NO_SOLUTION_TIME_LIMIT
    assert (stopped.bound, stopped.message) == (3.0, "Time limit")
    claimed = SolveOutcome(SolveStatus.OPTIMAL, objective=20.0, message="Optimal")
    assert claimed.status is SolveStatus.ERROR
    assert claimed.message == "solver claims optimal but reported no values"
    for status in SolveStatus:
        values = np.zeros(1)
        assert SolveOutcome(status, values=values).status is status
    assert SolveOutcome(SolveStatus.INFEASIBLE).status is SolveStatus.INFEASIBLE


class TestLimits:
    def test_positive_required(self):
        for bad in (0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                SolveLimits(time_limit_s=bad)

    def test_defaults_match_benchmark_protocol(self):
        limits = SolveLimits()
        assert limits.time_limit_s == 3600.0


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

    def test_solve_error_is_retried_without_presolve(self, tiny2_model, highs_spy, monkeypatch):
        class FirstRunFails(highs_spy):
            def run(self):
                if self is highs_spy.made[0]:
                    return highspy.HighsStatus.kError
                return super().run()

            def getModelStatus(self):
                if self is highs_spy.made[0]:
                    return highspy.HighsModelStatus.kSolveError
                return super().getModelStatus()

        monkeypatch.setattr(highspy, "_Highs", FirstRunFails)
        outcome = solve(tiny2_model, SolveLimits(time_limit_s=60))
        assert outcome.status is SolveStatus.OPTIMAL
        assert outcome.objective == pytest.approx(20.0, abs=1e-6)
        calls = [highs.options for highs in highs_spy.made]
        assert len(calls) == 2
        assert "presolve" not in calls[0]
        assert calls[1]["presolve"] == "off"
        assert 0 < calls[1]["time_limit"] <= 60
        assert all(call["mip_heuristic_run_feasibility_jump"] is False for call in calls)
        assert all(call["mip_heuristic_run_root_reduced_cost"] is False for call in calls)
        assert all(call["mip_rel_gap"] == 0.0 for call in calls)
        assert "re-solved without presolve after: Solve error" in outcome.message

    def test_highs_without_an_option_solves_on_its_defaults(
        self, tiny2_model, highs_spy, monkeypatch
    ):
        # a HiGHS that lacks one of the two optional heuristic toggles
        # rejects its name; the adapter skips it, warns nothing and solves
        class OlderHighs(highs_spy):
            def setOptionValue(self, name, value):
                if name in OPTIONAL_OPTIONS:
                    self.options[name] = value
                    return highspy.HighsStatus.kError
                return super().setOptionValue(name, value)

        monkeypatch.setattr(highspy, "_Highs", OlderHighs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outcome = solve(tiny2_model, SolveLimits(time_limit_s=60))
        assert outcome.status is SolveStatus.OPTIMAL
        assert outcome.objective == pytest.approx(20.0, abs=1e-6)
        (highs,) = highs_spy.made
        assert OPTIONAL_OPTIONS <= set(highs.options)
        defaults = highs_spy.__base__()
        for name in OPTIONAL_OPTIONS:
            # the toggle never reached HiGHS: it runs on its default
            assert highs.getOptionValue(name) == defaults.getOptionValue(name), name

    def test_any_other_rejected_option_is_a_config_error(self, tiny2_model, highs_spy, monkeypatch):
        class Strict(highs_spy):
            def setOptionValue(self, name, value):
                if name == "mip_feasibility_tolerance":
                    return highspy.HighsStatus.kError
                return super().setOptionValue(name, value)

        monkeypatch.setattr(highspy, "_Highs", Strict)
        with pytest.raises(SolverConfigError, match="mip_feasibility_tolerance = 1e-09"):
            ScipyMilpAdapter().solve(tiny2_model, SolveLimits(time_limit_s=60))
        outcome = solve(tiny2_model, SolveLimits(time_limit_s=60))
        assert outcome.status is SolveStatus.ERROR
        assert "mip_feasibility_tolerance" in outcome.message

    def test_this_highs_knows_every_option_the_adapter_sets(self, tiny2_model, highs_spy):
        # the adapter skips the optional toggles where HiGHS rejects them,
        # so a misspelt toggle would be a silent no-op: hand this scipy's
        # HiGHS each option the adapter sets, and the retry's presolve
        # setting, read each back and solve tiny2 under it again, from the
        # arrays the adapter passed
        assert solve(tiny2_model, SolveLimits(time_limit_s=60)).status is SolveStatus.OPTIMAL
        (highs,) = highs_spy.made
        options = {**highs.options, "presolve": "off"}
        assert OPTIONAL_OPTIONS <= set(options)
        for name, value in options.items():
            fresh = highs_spy.__base__()
            fresh.setOptionValue("log_to_console", False)
            assert fresh.setOptionValue(name, value) == highspy.HighsStatus.kOk, name
            assert fresh.getOptionValue(name) == (highspy.HighsStatus.kOk, value), name
            assert fresh.passModel(*highs.arrays) == highspy.HighsStatus.kOk, name
            fresh.run()
            assert fresh.getModelStatus() == highspy.HighsModelStatus.kOptimal, name
            assert fresh.getInfo().objective_function_value == pytest.approx(20.0), name

    def test_model_error_is_an_error_not_infeasible(self):
        # due dates of 1e15 put big-M coefficients of 1e15 in the model,
        # which HiGHS refuses to load ("Model error"); with the original due
        # dates of 30 and 10 the instance solves to F = 20
        text = TINY2_FILE.replace(" 30          0\n", " 1e15          0\n").replace(
            " 10          0\n", " 1e15          0\n"
        )
        assert text.count("1e15") == 3
        inst = build_instance(parse_solomon(text), InstanceConfig(fleet_size="file"), label="big")
        model = build_model(build_multigraph(inst), inst)
        outcome = solve(model, SolveLimits(time_limit_s=60))
        assert outcome.status is SolveStatus.ERROR
        assert outcome.message == "Model error"
        assert outcome.values is None and outcome.objective is None

    def test_highs_gets_the_gap_target_the_fingerprint_states(self, tiny2_model, monkeypatch):
        from cdsp.harness import config_fingerprint

        seen = []

        def spy(highspy, arrays, options):
            seen.append(options)
            return _highs_run(highspy, arrays, options)

        monkeypatch.setattr(solvers, "_highs_run", spy)
        assert solve(tiny2_model, SolveLimits(time_limit_s=60)).status is SolveStatus.OPTIMAL
        limits = SolveLimits(time_limit_s=60)
        fingerprint = config_fingerprint(InstanceConfig(), limits, ScipyMilpAdapter.name, False)
        assert [options["mip_rel_gap"] for options in seen] == [fingerprint["gap_target"]]
        assert fingerprint["gap_target"] == solvers.GAP_TARGET

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
    a quarter with explicit rows. Once consumed, it asserts that the cases
    include caps that cannot bind, whose shift rows the bundled solve
    drops, and caps that can."""
    rng = np.random.default_rng(7)
    slack = 0
    for _ in range(60):
        inst = varied_instance(rng, int(rng.integers(2, 8)))
        g = build_multigraph(inst)
        model = build_model(g, inst, explicit_bounds=bool(rng.random() < 0.25))
        slack += slack_shift_start(model) is not None
        yield inst, g, model
    assert 0 < slack < 60, slack


def _tight_draws():
    """12 (instance, graph, model) cases at n = 8-9 with 1-3 vehicles, tight
    `random_instance` draws taken as they come: feasible by construction,
    and tight enough for the oracle to search them in milliseconds."""
    rng = np.random.default_rng(89)
    for _ in range(12):
        inst = random_instance(rng, int(rng.integers(8, 10)), int(rng.integers(1, 4)))
        g = build_multigraph(inst)
        yield inst, g, build_model(g, inst)


def _assert_meets_paper_model(model, values, tol=1e-6):
    """Every row and column bound of the model as built, within tol."""
    activity = model.matrix @ values
    low, high = activity < model.row_lower - tol, activity > model.row_upper + tol
    assert not low.any() and not high.any(), np.flatnonzero(low | high)
    low, high = values < model.col_lower - tol, values > model.col_upper + tol
    assert not low.any() and not high.any(), np.flatnonzero(low | high)


class TestTimeBoundRows:
    """The bundled solve adds valid rows and fixes dominated carries: it must
    reach the same optima."""

    def test_bundled_solve_matches_the_oracle(self):
        statuses = []
        for inst, g, model in itertools.chain(_varied_sweep(), _tight_draws()):
            outcome = solve(model, SolveLimits(time_limit_s=60))
            oracle = exact_solve_tiny(inst, limit=inst.n)
            statuses.append(outcome.status)
            if oracle.solution is None:
                assert outcome.status is SolveStatus.INFEASIBLE
                continue
            assert outcome.status is SolveStatus.OPTIMAL
            assert outcome.objective == pytest.approx(oracle.best_total, rel=1e-6)
            _assert_meets_paper_model(model, outcome.values)
            sol = extract_solution(model, outcome.values)
            assert validate_solution(sol, inst, g.windows).ok
        assert SolveStatus.INFEASIBLE in statuses

    def test_oracle_optima_satisfy_the_rows_and_use_no_fixed_carry(self):
        explicit = capped = fixed = 0
        for inst, g, model in _varied_sweep():
            oracle = exact_solve_tiny(inst)
            if oracle.solution is None:
                continue
            vec = solution_column_values(oracle.solution, model, g)
            slack = time_bound_rows(model)[0] @ vec
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
        np.testing.assert_array_equal(time_bound_rows(model)[0].toarray(), want)
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
        np.testing.assert_array_equal(time_bound_rows(model9)[0].toarray(), want)
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
        oracle = exact_solve_tiny(inst, limit=inst.n)
        assert outcome.status is SolveStatus.OPTIMAL
        assert outcome.objective == pytest.approx(oracle.best_total, rel=1e-9)

    @pytest.mark.parametrize("seed", [25, 38])
    @pytest.mark.parametrize("rule", [12, 13])
    def test_one_presolve_rule_off_gives_the_paper_model_its_optimum(self, seed, rule):
        # with presolve on, the paper model alone reports optimal 2992.0096
        # (seed 25) and 1253.2053 (seed 38) on HiGHS 1.12; turning off only
        # presolve rule 12 (the aggregator, in HiGHS's rule order) or only
        # rule 13 (parallel rows and columns) gives the oracle's optimum
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, int(rng.integers(8, 11)), int(rng.integers(2, 4)))
        model = build_model(build_multigraph(inst), inst)
        options = {
            "log_to_console": False,
            "time_limit": 60.0,
            "mip_rel_gap": 0.0,
            "mip_feasibility_tolerance": FEASIBILITY_TOL,
            "primal_feasibility_tolerance": FEASIBILITY_TOL,
            "presolve_rule_off": 1 << rule,
        }
        highs, status = _highs_run(highspy, _highs_model(highspy, model), options)
        assert status == highspy.HighsModelStatus.kOptimal
        oracle = exact_solve_tiny(inst, limit=inst.n)
        assert highs.getInfo().objective_function_value == pytest.approx(
            oracle.best_total, rel=1e-9
        )

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


def _capped2_model(shift_cap, explicit_bounds=False):
    inst = build_instance(
        parse_solomon(CAPPED2.read_text()),
        InstanceConfig(fleet_size="file", shift_cap=shift_cap),
        label="capped2",
    )
    return build_model(build_multigraph(inst), inst, explicit_bounds=explicit_bounds)


class TestShiftRowDrop:
    """Where the shift cap cannot bind, the bundled solve leaves out the
    shift rows and sets tau = z - S: same optima, and values that meet the
    model as built."""

    def test_slack_test_on_both_sides(self):
        # capped2: d'_j + t_j0 = 8 + 3 and 25 + 4, r'_j - t_0j = 3 - 3 and
        # 15 - 4, so the cap cannot bind from E - S = 29 - 0 up; the default
        # cap is the depot deadline, 40
        assert slack_shift_start(_capped2_model("depot-deadline")) == 0.0
        assert slack_shift_start(_capped2_model(29.0)) == 0.0
        assert slack_shift_start(_capped2_model(28.5)) is None
        for cap, total, dropped in (("depot-deadline", 25.0, 4), (16.0, 28.0, 0)):
            model = _capped2_model(cap)
            assert solver_view(model)[0].num_rows == model.num_rows - dropped + 3 * model.n
            outcome = solve(model, SolveLimits(time_limit_s=60))
            assert outcome.status is SolveStatus.OPTIMAL
            assert outcome.objective == pytest.approx(total, abs=1e-6)
            _assert_meets_paper_model(model, outcome.values)
            if dropped:  # S = 0: tau is the visit time itself
                tau, z = model.layout.tau(np.array([1, 2])), model.layout.z(np.array([1, 2]))
                np.testing.assert_array_equal(outcome.values[tau], outcome.values[z])

    def test_explicit_shift_rows_are_dropped_too(self):
        bounded = _capped2_model("depot-deadline")
        explicit = _capped2_model("depot-deadline", explicit_bounds=True)
        shift_rows = sum(
            len(fam.rows) for fam in explicit.families if fam.name in SHIFT_FAMILIES
        )
        assert shift_rows == 2 + 2 * 2 * (2 - 1) + 2  # shift_lo, sprop, shift_cap
        totals = []
        for model, dropped in ((bounded, 4), (explicit, shift_rows)):
            view = solver_view(model)[0]
            assert view.num_rows == model.num_rows - dropped + 3 * model.n
            assert not [fam for fam in view.families if fam.name in SHIFT_FAMILIES]
            outcome = solve(model, SolveLimits(time_limit_s=60))
            assert outcome.status is SolveStatus.OPTIMAL
            totals.append(outcome.objective)
            _assert_meets_paper_model(model, outcome.values)
        assert totals[1] == pytest.approx(totals[0], rel=1e-9)


class TestSolverView:
    """`solver_view` is the model with the shift rows left out where the cap
    is slack, the time-bound rows after it and the dominated carries fixed;
    the model itself stays as built."""

    def test_rows_bounds_and_families(self):
        for _, _, model in _varied_sweep():
            matrix, col_upper = model.matrix.copy(), model.col_upper.copy()
            view, _ = solver_view(model)
            keep = np.ones(model.num_rows, dtype=bool)
            if slack_shift_start(model) is not None:
                for fam in model.families:
                    if fam.name in SHIFT_FAMILIES:
                        keep[list(fam.rows)] = False
            bound_rows = time_bound_rows(model)[0]
            expected = sp.vstack([model.matrix[keep], bound_rows], format="csr")
            assert view.matrix.shape == expected.shape
            assert (view.matrix != expected).nnz == 0
            np.testing.assert_array_equal(
                view.row_lower, np.concatenate((model.row_lower[keep], np.zeros(3 * model.n)))
            )
            np.testing.assert_array_equal(
                view.row_upper,
                np.concatenate((model.row_upper[keep], np.full(3 * model.n, np.inf))),
            )
            fixed = np.flatnonzero(view.col_upper != model.col_upper)
            np.testing.assert_array_equal(fixed, np.sort(dominated_carries(model)))
            assert not view.col_upper[fixed].any()
            for name in ("c", "col_lower", "integrality"):
                np.testing.assert_array_equal(getattr(view, name), getattr(model, name))

            # the families tile the view's rows exactly once, and name them
            covered = np.zeros(view.num_rows, dtype=int)
            for fam in view.families:
                np.add.at(covered, list(fam.rows), 1)
                assert len(fam.keys) == len(fam.rows), fam.name
            assert (covered == 1).all()
            heads, tails, head_code, tail_code = view.row_name_codes()
            names = [heads[h] + tails[t] for h, t in zip(head_code, tail_code)]
            model_names = model.row_name_codes()
            assert names[: keep.sum()] == [
                model_names.heads[h] + model_names.tails[t]
                for h, t in zip(model_names.head_code[keep], model_names.tail_code[keep])
            ]
            assert names[keep.sum() :] == [
                f"{family}_{j}"
                for family in ("tbound_p", "tbound_s1", "tbound_s2")
                for j in range(1, model.n + 1)
            ]

            # the model keeps its rows and bounds
            assert (model.matrix != matrix).nnz == 0
            np.testing.assert_array_equal(model.col_upper, col_upper)

    def test_highs_gets_the_arrays_of_the_view(self, highs_spy):
        for cap in ("depot-deadline", 16.0):
            model = _capped2_model(cap)
            assert solve(model, SolveLimits(time_limit_s=60)).status is SolveStatus.OPTIMAL
            arrays = highs_spy.made.pop().arrays
            c, matrix, row_lb, row_ub, lb, ub, integrality = model_to_arrays(
                solver_view(model)[0]
            )
            num_row, num_col = matrix.shape
            assert arrays[:6] == (
                num_col, num_row, matrix.nnz, int(highspy.MatrixFormat.kRowwise),
                int(highspy.ObjSense.kMinimize), 0.0,
            )
            want = c, lb, ub, row_lb, row_ub, matrix.indptr, matrix.indices, matrix.data, integrality
            for got, expected in zip(arrays[6:], want, strict=True):
                np.testing.assert_array_equal(got, expected)
            # what the binding reads without converting: a cast would copy
            # them, and a cast of int64 indices truncates
            dtypes = [a.dtype for a in arrays[6:]]
            assert dtypes == ["float64"] * 5 + ["int32", "int32", "float64", "int32"]

    def test_wide_indices_are_an_error_not_a_truncated_matrix(
        self, tiny2_model, highs_spy, monkeypatch
    ):
        # past 2**31 - 1 nonzeros scipy keeps the indices as int64, which the
        # binding would cast to HiGHS's int32 without a check
        view, restore = solver_view(tiny2_model)
        matrix = view.matrix.copy()
        matrix.indices = matrix.indices.astype(np.int64)
        wide = dataclasses.replace(view, matrix=matrix)
        monkeypatch.setattr(solvers, "solver_view", lambda model: (wide, restore))
        outcome = solve(tiny2_model, SolveLimits(time_limit_s=60))
        assert outcome.status is SolveStatus.ERROR
        assert outcome.message == (
            f"HiGHS takes int32 matrix indices; this matrix's are int64 ({matrix.nnz} nonzeros)"
        )
        assert highs_spy.made == []


def _milp_outcome(model, time_limit_s):
    """scipy's milp on `solver_view(model)` with the bundled adapter's
    options, as the SolveOutcome the adapter made of it before it called
    the binding itself."""
    view, restore = solver_view(model)
    c, matrix, row_lb, row_ub, lb, ub, integrality = model_to_arrays(view)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="Unrecognized options detected")
        res = milp(
            c,
            constraints=LinearConstraint(matrix, row_lb, row_ub),
            integrality=integrality,
            bounds=Bounds(lb, ub),
            options={
                "time_limit": time_limit_s,
                "mip_rel_gap": 0.0,
                "mip_feasibility_tolerance": FEASIBILITY_TOL,
                "primal_feasibility_tolerance": FEASIBILITY_TOL,
                "mip_heuristic_run_feasibility_jump": FEASIBILITY_JUMP,
                "mip_heuristic_run_root_reduced_cost": ROOT_REDUCED_COST,
            },
        )
    values = restore(res.x) if res.x is not None else None
    if res.status == 1:
        status = SolveStatus.FEASIBLE_TIME_LIMIT if values is not None else (
            SolveStatus.NO_SOLUTION_TIME_LIMIT
        )
    else:
        status = {0: SolveStatus.OPTIMAL, 2: SolveStatus.INFEASIBLE}.get(
            res.status, SolveStatus.ERROR
        )
    return status, res.fun, res.mip_dual_bound, values, res.mip_node_count


def test_bundled_solve_gives_what_milp_gives():
    """The adapter hands HiGHS what `milp` would, minus the wrapper: on 24
    seeded draws at n = 2-8 (4 of them infeasible, a quarter of the
    `varied_instance` ones with explicit rows) and on a time-limited n = 30
    solve, the status, objective, bound, node count and the bytes of the
    values are milp's."""
    rng = np.random.default_rng(29)
    cases = []
    for _ in range(8):
        inst = random_instance(rng, int(rng.integers(3, 9)), int(rng.integers(1, 4)))
        cases.append((build_model(build_multigraph(inst), inst), 60.0))
    for _ in range(16):
        inst = varied_instance(rng, int(rng.integers(2, 7)))
        explicit = bool(rng.random() < 0.25)
        cases.append((build_model(build_multigraph(inst), inst, explicit_bounds=explicit), 60.0))
    inst = random_instance(np.random.default_rng(13), 30, 3)
    cases.append((build_model(build_multigraph(inst), inst), 1e-6))
    statuses = []
    for model, time_limit_s in cases:
        outcome = solve(model, SolveLimits(time_limit_s=time_limit_s))
        status, objective, bound, values, nodes = _milp_outcome(model, time_limit_s)
        statuses.append(outcome.status)
        assert outcome.status is status, outcome.message
        assert (outcome.objective, outcome.bound, outcome.nodes) == (objective, bound, nodes)
        if values is None:
            assert outcome.values is None
        else:
            assert outcome.values.tobytes() == values.tobytes()
    assert statuses.count(SolveStatus.OPTIMAL) == 20
    assert statuses.count(SolveStatus.INFEASIBLE) == 4
    assert statuses[-1] is SolveStatus.NO_SOLUTION_TIME_LIMIT


def test_the_bundled_highs_binding_has_what_the_adapter_uses():
    # the adapter calls scipy's private HiGHS binding: a scipy that moves
    # or renames one of these members fails here, by name
    used = {
        "": [
            "_Highs", "MatrixFormat.kRowwise", "ObjSense.kMinimize", "HighsStatus.kError",
            "HighsModelStatus.kOptimal", "HighsModelStatus.kTimeLimit",
            "HighsModelStatus.kInfeasible", "HighsModelStatus.kModelError",
            "HighsModelStatus.kLoadError", "kSolutionStatusFeasible",
        ],
        "_Highs.": [
            "setOptionValue", "passModel", "run", "getModelStatus", "getInfo", "getSolution",
            "modelStatusToString",
        ],
        "HighsInfo.": [
            "primal_solution_status", "objective_function_value", "mip_dual_bound",
            "mip_node_count",
        ],
        "HighsSolution.": ["col_value"],
    }

    def found(path):
        obj = highspy
        for part in path.split("."):
            if not hasattr(obj, part):
                return False
            obj = getattr(obj, part)
        return True

    missing = [prefix + name for prefix, names in used.items() for name in names]
    assert [path for path in missing if not found(path)] == []


def test_the_binding_reads_the_arrays_as_the_adapter_passes_them(tiny2_model):
    # passModel's array overload takes its arguments by position: HiGHS's
    # copy of the model, read back, must be the view's, column by column
    # (HiGHS stores the matrix column-wise)
    view = solver_view(tiny2_model)[0]
    highs = highspy._Highs()
    assert highs.passModel(*_highs_model(highspy, view)) == highspy.HighsStatus.kOk
    lp = highs.getLp()
    c, matrix, row_lb, row_ub, lb, ub, integrality = model_to_arrays(view)
    assert (lp.num_row_, lp.num_col_, lp.offset_) == (*matrix.shape, 0.0)
    assert lp.sense_ == highspy.ObjSense.kMinimize
    for got, want in (
        (lp.col_cost_, c),
        (lp.col_lower_, lb),
        (lp.col_upper_, ub),
        (lp.row_lower_, row_lb),
        (lp.row_upper_, row_ub),
        ([int(kind) for kind in lp.integrality_], integrality),
    ):
        np.testing.assert_array_equal(got, want)
    a = lp.a_matrix_
    assert a.format_ == highspy.MatrixFormat.kColwise
    got = sp.csc_matrix((a.value_, a.index_, a.start_), shape=matrix.shape)
    assert (got != matrix).nnz == 0


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

    def test_threads_placeholder_fails_at_construction(self):
        with pytest.raises(SolverConfigError, match="write the thread count into the command"):
            FileSolverAdapter(command=("mysolver", "{model}", "--threads={threads}"))

    def test_bytes_that_are_not_utf8_lose_no_solve(self, tiny2_model):
        # the solver's stdout is not read; its stderr and the solution file
        # decode with replacement, here a byte in a comment line
        stub = (
            "import sys; sys.stdout.buffer.write(b'\\xff'); sys.stderr.buffer.write(b'\\xff');"
            f"sys.path.insert(0, {str(FAKE_SOLVER.parent)!r}); from fake_solver import main;"
            "code = main(*sys.argv[1:]); open(sys.argv[2], 'ab').write(b'# \\xff\\n');"
            "sys.exit(code)"
        )
        adapter = FileSolverAdapter(command=(sys.executable, "-c", stub, "{model}", "{solution}"))
        outcome = solve(tiny2_model, SolveLimits(time_limit_s=60), adapter=adapter)
        assert outcome.status is SolveStatus.OPTIMAL, outcome.message
        assert outcome.objective == pytest.approx(20.0, abs=1e-6)

    @pytest.mark.parametrize("word", ["suboptimal", "optimal_inaccurate"])
    def test_a_status_that_only_contains_optimal_proves_nothing(self, tiny2, tiny2_model, word):
        # fake_solver's solution, valid, under another status word
        stub = (
            f"import sys; sys.path.insert(0, {str(FAKE_SOLVER.parent)!r});"
            "from fake_solver import main; code = main(*sys.argv[1:]);"
            "path = sys.argv[2]; text = open(path).read();"
            f"open(path, 'w').write(text.replace('status optimal', 'status {word}'));"
            "sys.exit(code)"
        )
        adapter = FileSolverAdapter(command=(sys.executable, "-c", stub, "{model}", "{solution}"))
        outcome = solve(tiny2_model, SolveLimits(time_limit_s=60), adapter=adapter)
        assert outcome.status is SolveStatus.FEASIBLE_TIME_LIMIT, outcome.message
        assert outcome.message == word
        assert outcome.objective == pytest.approx(20.0, abs=1e-6)
        sol = extract_solution(tiny2_model, outcome.values)
        assert validate_solution(sol, tiny2, preprocess_time_windows(tiny2)).ok

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

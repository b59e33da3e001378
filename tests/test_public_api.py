"""The exported names of `cdsp` and `cdsp.formulation`, and the CLI's solver flags."""

import dataclasses
import inspect
import json
from pathlib import Path

import pytest

import cdsp
import cdsp.formulation
import cdsp.instances
import cdsp.network
import cdsp.routes
from cdsp.cli import main

TINY2 = Path(__file__).parent / "data" / "tiny2.txt"

# names that only tests used, now in tests/views.py or deleted; evaluate's
# tightened F' is the solution's own, its raw one the harness's
REMOVED_FORMULATION = (
    "Arc",
    "BINARY",
    "CONTINUOUS",
    "Variable",
    "big_m_completion",
    "big_m_shift",
    "big_m_visit",
    "default_adapter",
    "evaluate",
    "make_adapter",
    "register_adapter",
    "solution_column_values",
)
REMOVED_MODEL_ATTRIBUTES = (
    "count_binary",
    "count_continuous",
    "fleet_size",
    "label",
    "metadata",
    "objective",
    "row_names",
    "rows_by_family",
    "shift_cap",
    "variables",
)
# the depot legs are read from the instance's travel times, and the model
# reads the label, fleet size and shift cap from the instance it keeps
REMOVED_GRAPH_ATTRIBUTES = (
    "arcs_of_kind",
    "cost_from_depot",
    "cost_to_depot",
    "in_arcs",
    "movement_arcs",
    "out_arcs",
)
REMOVED_ORACLE_RESULT_ATTRIBUTES = ("feasible",)
# build_instance reads a setting only for the size-class fleet rule
REMOVED_INSTANCE_ATTRIBUTES = ("setting",)
# a tour holds its trips as node tuples and its own trip returns, a timed
# tour is a Tour, and a solution's completions are derived from its tours
REMOVED_ROUTES = ("Timing", "TourTiming", "Trip")
# a solution is its timed tours: visit times, completions and F are read off
# them, and F' is the harness's, under the run's release convention
REMOVED_SOLUTION_FIELDS = ("visit", "total_completion", "net_completion")
REMOVED_SOLUTION_ATTRIBUTES = ("net_completion",)


@pytest.mark.parametrize("module", [cdsp, cdsp.formulation], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert len(set(module.__all__)) == len(module.__all__)
    for name in module.__all__:
        assert getattr(module, name) is not None, name


@pytest.mark.parametrize("name", REMOVED_FORMULATION)
def test_removed_names_are_not_exported(name):
    for module in (cdsp, cdsp.formulation):
        assert name not in module.__all__
        assert not hasattr(module, name)


@pytest.mark.parametrize("name", REMOVED_ROUTES)
def test_removed_route_types_are_gone(name):
    assert name not in cdsp.__all__
    assert not hasattr(cdsp, name)
    assert not hasattr(cdsp.routes, name)


def test_solution_stores_each_fact_once():
    fields = [f.name for f in dataclasses.fields(cdsp.EvaluatedSolution)]
    assert fields == ["tours"]
    assert not set(REMOVED_SOLUTION_FIELDS) & set(fields)
    for name in REMOVED_SOLUTION_ATTRIBUTES:
        assert not hasattr(cdsp.EvaluatedSolution, name), name
    # a tour's vehicle number is its position in the solution
    tour_fields = [f.name for f in dataclasses.fields(cdsp.Tour)]
    assert tour_fields == ["trips", "departure", "visits", "deliveries"]


def test_removed_model_and_graph_views():
    inst = cdsp.build_instance(
        cdsp.parse_solomon(TINY2.read_text()), cdsp.InstanceConfig(fleet_size="file")
    )
    model = cdsp.build_model(cdsp.build_multigraph(inst), inst)
    for name in REMOVED_MODEL_ATTRIBUTES:
        assert not hasattr(cdsp.MipModel, name), name
        assert not hasattr(model, name), name
    for name in REMOVED_GRAPH_ATTRIBUTES:
        assert not hasattr(cdsp.network.Multigraph, name), name
    for name in REMOVED_ORACLE_RESULT_ATTRIBUTES:
        assert not hasattr(cdsp.exact_solve_tiny(inst), name), name
    for name in REMOVED_INSTANCE_ATTRIBUTES:
        assert name not in {f.name for f in dataclasses.fields(cdsp.Instance)}, name
        assert not hasattr(inst, name), name
    assert not hasattr(cdsp.network, "Arc")  # the arcs are one table


def test_tolerances_are_module_constants():
    # the one place that pins what HiGHS is told; no caller sets an option,
    # so none is a knob
    from cdsp.formulation import solvers

    assert dict(solvers.HIGHS_OPTIONS) == {
        "log_to_console": False,
        "mip_rel_gap": 0.0,
        "mip_feasibility_tolerance": 1e-9,
        "primal_feasibility_tolerance": 1e-9,
        "mip_heuristic_run_feasibility_jump": False,
        "mip_heuristic_run_root_reduced_cost": False,
    }
    with pytest.raises(TypeError):
        solvers.HIGHS_OPTIONS["mip_rel_gap"] = 1e-4
    assert dataclasses.fields(cdsp.ScipyMilpAdapter) == ()


def test_gap_target_is_gone(capsys):
    # a gap target let a result be reported optimal above the optimum
    assert not [f.name for f in dataclasses.fields(cdsp.SolveLimits) if "gap" in f.name]
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(TINY2), "--fleet", "file", "--gap-target", "0.05"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --gap-target 0.05" in capsys.readouterr().err


def test_bundled_adapter_is_the_default():
    for fn in (cdsp.solve, cdsp.run_instance, cdsp.run_suite):
        assert inspect.signature(fn).parameters["adapter"].default == cdsp.ScipyMilpAdapter()


def test_pipeline_facts_have_one_owner():
    # the model carries its graph; the harness owns F' under both conventions
    params = {
        cdsp.f_prime: ["total", "inst", "windows", "raw_release"],
        cdsp.extract_solution: ["model", "values"],
        cdsp.build_multigraph: ["inst"],
        cdsp.assemble_solution: ["vehicle_trips", "inst", "windows"],
        # the oracle works out the windows from the instance itself
        cdsp.exact_solve_tiny: ["inst", "limit"],
        cdsp.validate_solution: ["sol", "inst", "windows"],
    }
    for fn, want in params.items():
        assert list(inspect.signature(fn).parameters) == want, fn.__name__


def test_values_every_caller_passes_have_no_default():
    # every caller passes these, so none has a fallback of its own
    required = (
        (cdsp.schedule_tour, "windows"),
        (cdsp.assemble_solution, "windows"),
        (cdsp.validate_solution, "windows"),
        (cdsp.solution_to_json, "f_prime"),
        (cdsp.solution_to_json, "fingerprint"),
        (cdsp.f_prime, "raw_release"),
        (cdsp.solve, "limits"),
        (cdsp.run_instance, "cfg"),
        (cdsp.run_instance, "limits"),
        (cdsp.run_suite, "cfg"),
        (cdsp.run_suite, "limits"),
        (cdsp.build_instance, "cfg"),
    )
    for fn, name in required:
        param = inspect.signature(fn).parameters[name]
        assert param.default is inspect.Parameter.empty, (fn.__name__, name)
    assert list(inspect.signature(cdsp.run_suite).parameters)[0] == "entries"
    assert list(inspect.signature(cdsp.instances.triangle_violations).parameters) == ["travel"]


def test_limit_defaults_have_one_owner(monkeypatch):
    # the CLI's --time-limit default is SolveLimits's, its only limit
    from cdsp.cli import build_parser

    assert [f.name for f in dataclasses.fields(cdsp.SolveLimits)] == ["time_limit_s"]
    monkeypatch.setattr(cdsp.SolveLimits, "time_limit_s", 120.0)
    for command in ("solve", "suite"):
        args = build_parser().parse_args([command, "x"])
        assert args.time_limit == 120.0, command


def test_fixed_values_are_not_fields():
    for adapter in (cdsp.ScipyMilpAdapter, cdsp.FileSolverAdapter):
        assert "name" not in {f.name for f in dataclasses.fields(adapter)}, adapter.__name__
    assert cdsp.ScipyMilpAdapter.name == "scipy-highs"
    assert cdsp.FileSolverAdapter.name == "file"
    # the test view is tests/views.trips_by_vehicle
    assert not hasattr(cdsp.EvaluatedSolution, "trips_by_vehicle")
    assert not hasattr(cdsp.routes, "sorted_by_vehicle")


def test_solve_without_solver_flag_uses_bundled_backend(tmp_path, capsys):
    code = main(["solve", str(TINY2), "--fleet", "file", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "tiny2: optimal" in out
    payload = json.loads((tmp_path / "tiny2.solution.json").read_text())
    assert payload["config"]["solver"] == "scipy-highs"


def test_solver_flag_is_gone(capsys):
    # no flag is matched by a prefix: --solver-c is not --solver-cmd
    for flag, value in (("--solver", "scipy"), ("--solver-c", "echo")):
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(TINY2), "--fleet", "file", flag, value])
        assert exc.value.code == 2
        assert f"error: unrecognized arguments: {flag} {value}" in capsys.readouterr().err

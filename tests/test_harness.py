import csv
import dataclasses
import json
import multiprocessing
import os
import re
import shlex
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from cdsp import (
    ArcKind,
    FileSolverAdapter,
    InstanceConfig,
    RawInstance,
    ScipyMilpAdapter,
    Setting,
    SolveLimits,
    write_solomon,
)
from cdsp import harness
from cdsp.formulation import INTEGRALITY_TOL, SolveOutcome, SolveStatus
from cdsp.formulation.solvers import HIGHS_OPTIONS
from cdsp.harness import (
    SCHEMA_TAG,
    BenchmarkReport,
    ManifestEntry,
    RunRecord,
    config_fingerprint,
    load_manifest,
    report_csv,
    report_table,
    run_instance,
    run_suite,
    write_report,
)
from cdsp.oracle import DEFAULT_LIMIT

from conftest import DATA_DIR, TINY2_FILE
from gen import random_instance

LIMITS = SolveLimits(time_limit_s=60.0)
GEN10 = Path(__file__).parent / "data" / "gen10.txt"
GEN20 = Path(__file__).parent / "data" / "gen20.txt"
CAPPED2 = Path(__file__).parent / "data" / "capped2.txt"
WIDE5 = Path(__file__).parent / "data" / "wide5.txt"
FAKE_SOLVER = Path(__file__).parent / "fake_solver.py"

# An external solver that solves like tests/fake_solver.py, except that on
# the model of wide5 it writes an "optimal" solution with a fractional arc.
FRACTIONAL_ON_WIDE5 = f"""\
import sys
sys.path.insert(0, {str(Path(__file__).parent)!r})
from fake_solver import main
model, solution = sys.argv[1:3]
if "wide5" in open(model).read():
    with open(solution, "w") as handle:
        handle.write("status optimal\\nx_0 0.5\\n")
else:
    sys.exit(main(model, solution))
"""


@pytest.fixture
def fractional_on_wide5(tmp_path) -> tuple[str, ...]:
    """The command of an external solver whose wide5 solution does not decode."""
    script = tmp_path / "fractional_on_wide5.py"
    script.write_text(FRACTIONAL_ON_WIDE5)
    return (sys.executable, str(script), "{model}", "{solution}")


def _python(*args, **env) -> subprocess.CompletedProcess:
    """A new Python run with args and env added to the environment,
    importing cdsp from src/."""
    src = str(Path(__file__).parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, **env, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


def _summary(record: RunRecord) -> tuple:
    """A record's fields but its timings."""
    fields = ("label", "setting", "status", "total", "net", "gap_pct", "nodes", "message")
    return tuple(getattr(record, field) for field in fields)


def _cdsp_under_a_c_locale(*args) -> subprocess.CompletedProcess:
    """``python -m cdsp`` with args under the C locale's ASCII encoding."""
    return _python("-m", "cdsp", *args, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")


@dataclasses.dataclass(frozen=True)
class OffByOneAdapter:
    """Claims an optimum one above the true one on instances labelled "bad"."""

    name: str = "off-by-one"

    def solve(self, model, limits):
        outcome = ScipyMilpAdapter().solve(model, limits)
        if model.inst.label != "bad":
            return outcome
        return dataclasses.replace(outcome, objective=outcome.objective + 1.0)


@dataclasses.dataclass(frozen=True)
class SlowCrashAdapter:
    """Works for 0.2 s, then raises."""

    name: str = "slow-crash"

    def solve(self, model, limits):
        time.sleep(0.2)
        raise RuntimeError("boom")


@dataclasses.dataclass(frozen=True)
class ExitOnGen10Adapter:
    """Ends its own process on gen10, as a solver that crashes does; solves
    every other instance."""

    name: str = "exit-on-gen10"

    def solve(self, model, limits):
        if model.inst.label == "gen10":
            os._exit(9)
        return ScipyMilpAdapter().solve(model, limits)


@dataclasses.dataclass(frozen=True)
class KillOnGen10Adapter:
    """Sends its own process SIGKILL on gen10, as the OOM killer would; solves
    every other instance."""

    name: str = "kill-on-gen10"

    def solve(self, model, limits):
        if model.inst.label == "gen10":
            os.kill(os.getpid(), signal.SIGKILL)
        return ScipyMilpAdapter().solve(model, limits)


@dataclasses.dataclass(frozen=True)
class WordyAdapter:
    """Solves, with a message of a megabyte: more than a pipe holds."""

    name: str = "wordy"

    def solve(self, model, limits):
        outcome = ScipyMilpAdapter().solve(model, limits)
        return dataclasses.replace(outcome, message="x" * 2**20)


@dataclasses.dataclass(frozen=True)
class SleepyAdapter:
    """Sleeps a minute, then solves."""

    name: str = "sleepy"

    def solve(self, model, limits):
        time.sleep(60)
        return ScipyMilpAdapter().solve(model, limits)


@dataclasses.dataclass(frozen=True)
class LateRouteAdapter:
    """Reports capped2's single trip 0 -> 2 -> 1 -> 0 as optimal: node 2
    opens at 15, so node 1 (deadline 8) is reached too late."""

    name: str = "late-route"

    def solve(self, model, limits):
        depot, inter = ArcKind.DEPOT, ArcKind.INTER
        route = {(depot, 0, 2), (inter, 2, 1), (depot, 1, 0)}
        values = np.zeros(model.num_columns)
        for a, (source, target, kind, _) in enumerate(model.graph.arcs.tolist()):
            values[a] = (kind, source, target) in route
        return SolveOutcome(SolveStatus.OPTIMAL, objective=0.0, values=values)


@dataclasses.dataclass(frozen=True)
class BoundAboveAdapter:
    """Reports a dual bound `excess` above the optimum it proves."""

    excess: float
    name: str = "bound-above"

    def solve(self, model, limits):
        outcome = ScipyMilpAdapter().solve(model, limits)
        return dataclasses.replace(outcome, bound=outcome.objective + self.excess)


@dataclasses.dataclass(frozen=True)
class ClaimsOptimalAdapter:
    """Reports an optimum at 20 (tiny2's) without the values that show it."""

    name: str = "claims-optimal"

    def solve(self, model, limits):
        return SolveOutcome(SolveStatus.OPTIMAL, objective=20.0, bound=20.0)


INFEASIBLE_WINDOW_FILE = """\
BADWIN

VEHICLE
NUMBER     CAPACITY
   1          200

CUSTOMER
CUST NO.  XCOORD.   YCOORD.    DEMAND   READY TIME   DUE DATE   SERVICE TIME

    0          0          0          0          0         60          0
    1          3          0          0          0          2          0
"""


class TestRunInstance:
    def test_tiny2_end_to_end(self, tiny2_file):
        record = run_instance(tiny2_file, InstanceConfig(fleet_size="file"), LIMITS)
        assert record.status == "optimal"
        assert record.total == pytest.approx(20.0, abs=1e-6)
        assert record.net == pytest.approx(13.0, abs=1e-6)
        assert record.gap_pct is not None and record.gap_pct <= 1e-4
        assert record.build_s is not None and record.wall_s is not None
        assert isinstance(record.nodes, int) and record.nodes >= 0

    def test_gen20_optimum(self):
        # the n = 20 solve in CI's console-script step
        record = run_instance(GEN20, InstanceConfig(fleet_size="file"), LIMITS)
        assert record.status == "optimal"
        assert record.total == pytest.approx(3653.0084620646, rel=1e-9)

    def test_empty_window_is_infeasible_status(self, tmp_path):
        path = tmp_path / "badwin.txt"
        path.write_text(INFEASIBLE_WINDOW_FILE)
        record = run_instance(path, InstanceConfig(fleet_size="file"), LIMITS)
        assert record.status == "infeasible"
        assert "node 1" in record.message

    def test_unreadable_path_is_error_status(self, tmp_path):
        record = run_instance(tmp_path / "missing.txt", InstanceConfig(), LIMITS)
        assert record.status == "error"

    def test_undecodable_incumbent_is_error_status(self, fractional_on_wide5):
        adapter = FileSolverAdapter(command=fractional_on_wide5)
        record = run_instance(WIDE5, InstanceConfig(fleet_size="file"), LIMITS, adapter)
        assert (record.label, record.status) == ("wide5", "error")
        assert record.message.startswith("fractional arc value x_0 = ")
        assert record.total is None and record.wall_s is None

    def test_untimeable_route_is_error_status(self):
        adapter = LateRouteAdapter()
        record = run_instance(CAPPED2, InstanceConfig(fleet_size="file"), LIMITS, adapter)
        assert (record.label, record.status) == ("capped2", "error")
        assert record.message == "tour infeasible at node 1: earliest visit 20 beyond deadline 8"

    def test_crashed_adapter_record_carries_its_time(self, tiny2_file):
        cfg = InstanceConfig(fleet_size="file")
        report = run_suite([ManifestEntry(tiny2_file)], cfg, LIMITS, SlowCrashAdapter())
        (record,) = report.records
        assert record.status == "error"
        assert record.message == "adapter slow-crash crashed: RuntimeError('boom')"
        assert record.wall_s >= 0.2
        assert report.settings[(None, None, None)].avg_time_s >= 0.2

    def test_failed_validation_is_error_status(self, tmp_path, tiny2_file):
        bad = tmp_path / "bad.txt"
        bad.write_text(tiny2_file.read_text())
        record = run_instance(bad, InstanceConfig(fleet_size="file"), LIMITS, OffByOneAdapter())
        assert record.status == "error"
        assert record.message.startswith("bad: decoded objective ")

    def test_malformed_file_is_error_status(self, tmp_path):
        path = tmp_path / "garbage.txt"
        path.write_text("not a solomon file\n")
        record = run_instance(path, InstanceConfig(), LIMITS)
        assert record.status == "error"
        assert "VEHICLE" in record.message

    def test_solution_json_written(self, tiny2_file, tmp_path):
        out = tmp_path / "out"
        record = run_instance(
            tiny2_file, InstanceConfig(fleet_size="file"), LIMITS, out_dir=out
        )
        payload = json.loads((out / "tiny2.solution.json").read_text())
        assert payload["F"] == pytest.approx(20.0)
        assert payload["F_prime"] == pytest.approx(13.0)
        assert payload["status"] == "optimal"
        assert payload["config"]["fprime_release"] == "tightened"
        assert record.status == "optimal"

    def test_raw_release_convention(self, tiny2_file):
        record = run_instance(
            tiny2_file, InstanceConfig(fleet_size="file"), LIMITS, raw_release=True
        )
        # raw releases are zero in TINY2, so F' equals F
        assert record.net == pytest.approx(20.0, abs=1e-6)

    @pytest.mark.parametrize(
        "raw_release, net, convention", [(True, 13.0, "raw"), (False, 10.0, "tightened")]
    )
    def test_fprime_conventions_on_capped2(self, tmp_path, raw_release, net, convention):
        # raw releases 0 + 15; tightened 3 + 15 (site 1 is 3 from the depot)
        cfg = InstanceConfig(fleet_size="file", shift_cap=16.0)
        record = run_instance(CAPPED2, cfg, LIMITS, raw_release=raw_release, out_dir=tmp_path)
        assert record.status == "optimal"
        assert record.total == pytest.approx(28.0, abs=1e-6)
        assert record.net == pytest.approx(net, abs=1e-6)
        payload = json.loads((tmp_path / "capped2.solution.json").read_text())
        assert payload["F"] == pytest.approx(28.0, abs=1e-6)
        assert payload["F_prime"] == pytest.approx(net, abs=1e-6)
        assert payload["config"]["fprime_release"] == convention
        suite_dir = tmp_path / "suite"
        run_suite([ManifestEntry(CAPPED2)], cfg, LIMITS, raw_release=raw_release, out_dir=suite_dir)
        report = json.loads((suite_dir / "report.json").read_text())
        assert report["fingerprint"]["fprime_release"] == convention
        assert report["records"][0]["F"] == pytest.approx(28.0, abs=1e-6)
        assert report["records"][0]["F_prime"] == pytest.approx(net, abs=1e-6)
        assert report["settings"][0]["avg_net"] == pytest.approx(net, abs=1e-6)
        solution = json.loads((suite_dir / "solutions" / "capped2.solution.json").read_text())
        assert solution["F_prime"] == pytest.approx(net, abs=1e-6)

    def test_first_bundled_solve_leaves_the_binding_import_off_its_clock(self):
        # in a fresh interpreter: the one-time import of scipy's HiGHS
        # binding takes 0.2-0.4 s, the tiny2 solve itself milliseconds
        code = (
            "import sys\n"
            "from cdsp import InstanceConfig, SolveLimits, run_instance\n"
            "cfg, limits = InstanceConfig(fleet_size='file'), SolveLimits(60.0)\n"
            "record = run_instance(sys.argv[1], cfg, limits)\n"
            "print(record.status, record.wall_s)\n"
        )
        proc = _python("-c", code, str(DATA_DIR / "tiny2.txt"))
        assert proc.returncode == 0, proc.stderr
        status, wall_s = proc.stdout.split()
        assert status == "optimal"
        assert float(wall_s) < 0.1

    def test_deterministic_rerun(self, tiny2_file):
        cfg = InstanceConfig(fleet_size="file")
        a = run_instance(tiny2_file, cfg, LIMITS)
        b = run_instance(tiny2_file, cfg, LIMITS)
        assert a.net == b.net
        assert a.total == b.total

    def test_round_off_above_a_proven_optimum_is_no_gap(self, tiny2_file):
        # HiGHS's dual bound can sit a hair above the decoded F (wide5 gave
        # -8.34e-12 %); a larger disagreement stays visible
        cfg = InstanceConfig(fleet_size="file")
        report = run_suite([ManifestEntry(tiny2_file)], cfg, LIMITS, BoundAboveAdapter(1e-9))
        assert report.records[0].status == "optimal"
        assert report.records[0].gap_pct == 0.0
        row = report_table(report).splitlines()[1]
        assert "0.00 %" in row and "-0.00 %" not in row
        record = run_instance(tiny2_file, cfg, LIMITS, BoundAboveAdapter(1e-3))
        assert record.gap_pct == pytest.approx(-1e-3 / 20.0 * 100.0)


class TestManifest:
    def test_csv_manifest_relative_paths(self, tmp_path, tiny2_file):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("path,size,class,tw\n" f"{tiny2_file.name},25,C,tight\n")
        entries = load_manifest(manifest)
        assert entries == [
            ManifestEntry(path=tmp_path / tiny2_file.name, setting=Setting(25, "C", "tight"))
        ]

    def test_json_manifest(self, tmp_path, tiny2_file):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps([{"path": str(tiny2_file), "size": 25, "class": "C", "tw": "wide"}])
        )
        entries = load_manifest(manifest)
        assert entries[0].setting == Setting(25, "C", "wide")

    def test_manifest_without_setting(self, tmp_path, tiny2_file):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(f"path\n{tiny2_file.name}\n")
        entries = load_manifest(manifest)
        assert entries[0].setting is None

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"size": 25}, r"entry 1: entry \{'size': 25\} has no path"),
            ("tiny2.txt", r"entry 1: entry 'tiny2.txt' is not an object"),
            ({"path": "tiny2.txt", "size": "big"}, r"entry 1: size 'big' is not an integer"),
            ({"path": "tiny2.txt", "size": 25.5}, r"entry 1: size 25.5 is not an integer"),
        ],
    )
    def test_bad_json_entry_is_named(self, tmp_path, bad, message):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([{"path": "tiny2.txt"}, bad]))
        with pytest.raises(ValueError, match=message):
            load_manifest(manifest)

    def test_bad_csv_size_names_the_line(self, tmp_path):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("path,size\ntiny2.txt,25\ntiny2.txt,x\n")
        with pytest.raises(ValueError, match=r"line 3: size 'x' is not an integer"):
            load_manifest(manifest)

    def test_csv_line_with_a_nul_byte(self, tmp_path):
        # the csv module reads a NUL from Python 3.11 on; before, the line
        # is a ValueError that names it, as any csv.Error is
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("path\ntiny2.txt\nti\0ny.txt\n")
        if sys.version_info >= (3, 11):
            assert [e.path.name for e in load_manifest(manifest)] == ["tiny2.txt", "ti\0ny.txt"]
        else:
            with pytest.raises(ValueError, match=r"^line 3: line contains NUL$"):
                load_manifest(manifest)


class TestRunSuite:
    def test_suite_aggregates_and_reports(self, tmp_path, tiny2_file):
        entries = [
            ManifestEntry(path=tiny2_file, setting=Setting(25, "C", "tight")),
            ManifestEntry(path=tiny2_file, setting=Setting(25, "C", "tight")),
            ManifestEntry(path=tmp_path / "missing.txt", setting=Setting(25, "R", "wide")),
        ]
        report = run_suite(entries, InstanceConfig(fleet_size="file"), LIMITS, out_dir=tmp_path / "out")
        agg = report.settings[(25, "C", "tight")]
        assert agg.n_instances == 2
        assert agg.n_opt == 2
        assert agg.avg_net == pytest.approx(13.0, abs=1e-6)
        missing = report.settings[(25, "R", "wide")]
        assert missing.n_error == 1
        assert missing.avg_net is None
        assert report.has_errors
        assert (tmp_path / "out" / "report.csv").exists()
        assert (tmp_path / "out" / "report.json").exists()
        assert (tmp_path / "out" / "solutions" / "tiny2.solution.json").exists()

    def test_optimum_claimed_without_values_is_one_error_record(self, tiny2_file):
        cfg = InstanceConfig(fleet_size="file")
        report = run_suite([ManifestEntry(tiny2_file)], cfg, LIMITS, ClaimsOptimalAdapter())
        (record,) = report.records
        assert record.status is SolveStatus.ERROR
        assert record.message == "solver claims optimal but reported no values"
        assert record.total is None and record.net is None and record.gap_pct is None
        agg = report.settings[(None, None, None)]
        assert (agg.n_opt, agg.n_error) == (0, 1)

    def test_binary_instance_file_is_one_error_record(self, tmp_path, tiny2_file):
        binary = tmp_path / "binary.txt"
        binary.write_bytes(bytes(range(256)))
        entries = [ManifestEntry(path=tiny2_file), ManifestEntry(path=binary)]
        report = run_suite(entries, InstanceConfig(fleet_size="file"), LIMITS)
        assert [r.status for r in report.records] == ["optimal", "error"]
        assert "utf-8" in report.records[1].message
        assert report.has_errors

    def test_path_with_a_nul_byte_is_one_error_record(self, tmp_path, tiny2_file):
        entries = [ManifestEntry(path=tiny2_file), ManifestEntry(path=tmp_path / "ti\0ny.txt")]
        report = run_suite(entries, InstanceConfig(fleet_size="file"), LIMITS)
        assert [r.status for r in report.records] == ["optimal", "error"]
        assert report.records[1].message == "embedded null byte"
        assert report.has_errors

    def test_counts_sum_to_instances(self, tmp_path, tiny2_file):
        entries = [
            ManifestEntry(path=tiny2_file),
            ManifestEntry(path=tmp_path / "nope.txt"),
        ]
        report = run_suite(entries, InstanceConfig(fleet_size="file"), LIMITS)
        for agg in report.settings.values():
            assert (
                agg.n_opt + agg.n_time_limit + agg.n_infeasible + agg.n_error
                == agg.n_instances
            )

    def test_empty_manifest(self, tmp_path):
        manifest = tmp_path / "empty.csv"
        manifest.write_text("path,size,class,tw\n")
        report = run_suite(load_manifest(manifest), InstanceConfig(), LIMITS)
        assert report.records == []
        assert report.settings == {}
        assert not report.has_errors

    def test_parallel_workers_match_serial(self, tiny2_file):
        entries = [ManifestEntry(path=tiny2_file), ManifestEntry(path=tiny2_file)]
        cfg = InstanceConfig(fleet_size="file")
        serial = run_suite(entries, cfg, LIMITS, workers=1)
        parallel = run_suite(entries, cfg, LIMITS, workers=2)
        assert [r.net for r in serial.records] == [r.net for r in parallel.records]
        assert multiprocessing.active_children() == []

    def test_workers_below_one_run_one_child_at_a_time(self):
        names = ("tiny2", "gen10", "capped2")
        entries = [ManifestEntry(path=DATA_DIR / f"{name}.txt") for name in names]
        cfg = InstanceConfig(fleet_size="file")
        one = run_suite(entries, cfg, LIMITS, workers=1)
        none = run_suite(entries, cfg, LIMITS, workers=0)
        assert [_summary(r) for r in none.records] == [_summary(r) for r in one.records]
        assert [r.label for r in none.records] == list(names)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_validation_is_one_error_record(self, tmp_path, tiny2_file, workers):
        bad = tmp_path / "bad.txt"
        bad.write_text(tiny2_file.read_text())
        entries = [ManifestEntry(path=p) for p in (tiny2_file, bad, tiny2_file)]
        report = run_suite(
            entries, InstanceConfig(fleet_size="file"), LIMITS, OffByOneAdapter(), workers=workers
        )
        assert [r.status for r in report.records] == ["optimal", "error", "optimal"]
        assert "decoded objective" in report.records[1].message
        assert report.records[0].net == pytest.approx(13.0, abs=1e-6)
        assert report.has_errors
        assert multiprocessing.active_children() == []


    @pytest.mark.parametrize("workers", [1, 2])
    def test_undecodable_incumbent_is_one_error_record(self, fractional_on_wide5, workers):
        entries = [ManifestEntry(path=p) for p in (DATA_DIR / "tiny2.txt", WIDE5)]
        adapter = FileSolverAdapter(command=fractional_on_wide5)
        report = run_suite(
            entries, InstanceConfig(fleet_size="file"), LIMITS, adapter, workers=workers
        )
        assert [(r.label, r.status) for r in report.records] == [
            ("tiny2", "optimal"),
            ("wide5", "error"),
        ]
        assert report.records[0].net == pytest.approx(13.0, abs=1e-6)
        assert report.records[1].message.startswith("fractional arc value x_0 = ")
        assert report.has_errors
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "adapter, message",
        [
            (ExitOnGen10Adapter(), "worker process exited with code 9"),
            (KillOnGen10Adapter(), "worker process killed by SIGKILL"),
        ],
        ids=["exit", "sigkill"],
    )
    def test_dying_worker_is_one_error_record(self, workers, adapter, message):
        # gen10's child ends without sending a record: that entry alone is an
        # error record naming how it ended, and the others are as in a suite
        # without it
        cfg = InstanceConfig(fleet_size="file")
        names = ("tiny2", "gen10", "capped2")
        entries = [ManifestEntry(path=DATA_DIR / f"{name}.txt") for name in names]
        without = run_suite([entries[0], entries[2]], cfg, LIMITS, adapter, workers=workers)
        report = run_suite(entries, cfg, LIMITS, adapter, workers=workers)
        assert multiprocessing.active_children() == []

        assert [r.label for r in report.records] == list(names)
        assert _summary(report.records[0]) == _summary(without.records[0])
        assert _summary(report.records[2]) == _summary(without.records[1])
        dead = report.records[1]
        assert dead.status is SolveStatus.ERROR
        assert dead.message == message
        assert report.settings[(None, None, None)].n_error == 1

    def test_a_record_larger_than_a_pipe_holds_comes_back(self, tiny2_file):
        entries = [ManifestEntry(path=tiny2_file)] * 3
        cfg = InstanceConfig(fleet_size="file")
        report = run_suite(entries, cfg, LIMITS, WordyAdapter(), workers=2)
        assert [r.message for r in report.records] == ["x" * 2**20] * 3
        assert multiprocessing.active_children() == []

    def test_no_child_outlives_a_suite_that_raises(self, tiny2_file, monkeypatch):
        # the parent fails while its first two children still sleep: the
        # suite raises, and it has ended both
        cfg = InstanceConfig(fleet_size="file")
        entries = [ManifestEntry(path=tiny2_file)] * 3

        def broken_wait(connections):
            assert multiprocessing.active_children()
            raise KeyboardInterrupt

        monkeypatch.setattr(harness, "wait", broken_wait)
        with pytest.raises(KeyboardInterrupt):
            run_suite(entries, cfg, LIMITS, SleepyAdapter(), workers=2)
        assert multiprocessing.active_children() == []


class TestReporting:
    def _report(self, records):
        cfg = InstanceConfig()
        return BenchmarkReport(
            records=records,
            fingerprint=config_fingerprint(cfg, LIMITS, "scipy-highs", raw_release=False),
        )

    def test_record_holds_the_status_member(self):
        record = RunRecord("a", None, "no-solution-time-limit")
        assert record.status is SolveStatus.NO_SOLUTION_TIME_LIMIT
        assert str(record.status) == f"{record.status}" == "no-solution-time-limit"
        assert "%s" % record.status == "{}".format(record.status) == "no-solution-time-limit"
        with pytest.raises(ValueError):
            RunRecord("a", None, "timeout")

    def test_average_of_two(self):
        records = [
            RunRecord("a", Setting(25, "C", "tight"), "optimal", 30.0, 10.0, 0.0, 0.4, 0.1),
            RunRecord("b", Setting(25, "C", "tight"), "optimal", 40.0, 20.0, 0.0, 0.6, 0.1),
        ]
        report = self._report(records)
        agg = report.settings[(25, "C", "tight")]
        assert agg.avg_net == 15.0
        assert agg.avg_time_s == pytest.approx(0.5)

    def test_gap_blank_without_bound(self):
        records = [
            RunRecord("a", None, "feasible-time-limit", 30.0, 10.0, None, 1.0, 0.1),
        ]
        table = report_table(self._report(records))
        row = table.splitlines()[1]
        assert "10.0" in row
        assert "%" not in row

    def test_single_row_table(self):
        records = [RunRecord("a", Setting(25, "C", "tight"), "optimal", 33.0, 13.0, 0.0, 0.4, 0.1)]
        table = report_table(self._report(records))
        lines = table.strip().splitlines()
        assert lines[0].split() == ["setting", "Avg", "F'", "Avg", "gap", "Avg", "T[s]", "#opt", "#TL"]
        assert len(lines) == 2
        assert "25-C-tight" in lines[1]
        assert "13.0" in lines[1]

    def test_partial_average_starred(self):
        records = [
            RunRecord("a", Setting(50, "R", "wide"), "optimal", 30.0, 10.0, 0.0, 1.0, 0.1),
            RunRecord("b", Setting(50, "R", "wide"), "no-solution-time-limit", None, None, None, 60.0, 0.1),
        ]
        table = report_table(self._report(records))
        assert "10.0*" in table
        assert "over 1 of 2 instances" in table

    def test_deterministic_row_order(self):
        records = [
            RunRecord("a", Setting(50, "R", "wide"), "optimal", 1.0, 1.0, 0.0, 1.0, 0.1),
            RunRecord("b", Setting(25, "C", "tight"), "optimal", 1.0, 1.0, 0.0, 1.0, 0.1),
            RunRecord("c", None, "optimal", 1.0, 1.0, 0.0, 1.0, 0.1),
        ]
        table = report_table(self._report(records))
        lines = table.strip().splitlines()
        assert lines[1].startswith("25-C-tight")
        assert lines[2].startswith("50-R-wide")
        assert lines[3].startswith("any-any-any")

    def test_csv_schema_tag_first_header_field(self):
        records = [RunRecord("a", Setting(25, "C", "tight"), "optimal", 33.0, 13.0, 0.0, 0.4, 0.1)]
        text = report_csv(self._report(records))
        rows = list(csv.reader(text.splitlines()))
        assert rows[0][0] == SCHEMA_TAG
        assert rows[1][0] == "25-C-tight"
        assert rows[0].index("avg_fprime") == 5

    def test_json_report_carries_fingerprint(self, tmp_path):
        records = [
            RunRecord("a", Setting(25, "C", "tight"), "optimal", 33.0, 13.0, 0.0, 0.4, 0.1, 7)
        ]
        report = self._report(records)
        write_report(report, tmp_path)
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["schema"] == SCHEMA_TAG
        assert payload["fingerprint"]["gap_convention"] == "(incumbent - bound) / incumbent * 100"
        assert payload["fingerprint"]["service_mode"] == "ignore"
        assert payload["records"][0]["F_prime"] == 13.0
        assert payload["records"][0]["nodes"] == 7

    def test_fingerprint_states_the_tolerances_used(self, tmp_path):
        records = [RunRecord("a", None, "optimal", 33.0, 13.0, 0.0, 0.4, 0.1, 7)]
        write_report(self._report(records), tmp_path)
        fingerprint = json.loads((tmp_path / "report.json").read_text())["fingerprint"]
        assert fingerprint["integrality_tol"] == INTEGRALITY_TOL
        assert fingerprint["highs_options"] == dict(HIGHS_OPTIONS)
        # "1.12.0 (4f96ee8)" from the HiGHS that scipy bundles
        assert re.fullmatch(r"\d+\.\d+\.\d+ \(\w+\)", fingerprint["highs_version"])
        # an external solver runs at its own tolerance and gap, which cdsp
        # does not set
        external = config_fingerprint(InstanceConfig(), LIMITS, "file", raw_release=False)
        assert external["highs_options"] is None
        assert external["highs_version"] is None
        # no solver gets a thread count from cdsp
        assert "threads" not in fingerprint and "threads" not in external


GOLDEN_DIR = DATA_DIR / "report_golden"

# Every status; a starred partial average (F' over 2 of 3 in 10-C-tight);
# a None setting; a message holding a comma, a quote and a non-ASCII
# character; records with null F and null gap.
GOLDEN_RECORDS = [
    RunRecord(
        "a", Setting(10, "C", "tight"), "optimal", 30.0, 10.0, 0.0, 0.25, 0.125, 3, "Optimal"
    ),
    RunRecord(
        "b", Setting(10, "C", "tight"), "feasible-time-limit",
        40.5, 20.25, 1.5, 60.0, 0.5, 120, "Time limit reached",
    ),
    RunRecord(
        "c", Setting(10, "C", "tight"), "no-solution-time-limit",
        wall_s=60.0, build_s=0.5, message='stopped, "no incumbent"',
    ),
    RunRecord("d", Setting(20, "R", "wide"), "infeasible", message="node 2: window [28, 26]"),
    RunRecord("e", None, "error", message="line 11: non-numeric field 'é'"),
    RunRecord("f", None, "optimal", 12.0, 7.0, None, 0.01, 0.002),
]


class TestGoldenReport:
    """report.csv, report.json and the printed table, byte for byte."""

    def _report(self):
        fingerprint = {"schema": SCHEMA_TAG, "solver": "scipy-highs"}
        return BenchmarkReport(records=GOLDEN_RECORDS, fingerprint=fingerprint)

    def test_report_files(self, tmp_path):
        write_report(self._report(), tmp_path)
        for name in ("report.csv", "report.json"):
            assert (tmp_path / name).read_bytes() == (GOLDEN_DIR / name).read_bytes(), name

    def test_report_table(self):
        golden = (GOLDEN_DIR / "table.txt").read_text(encoding="utf-8")
        assert report_table(self._report()) == golden


class TestCli:
    def test_solve_subcommand(self, tiny2_file, capsys):
        from cdsp.cli import main

        code = main(["solve", str(tiny2_file), "--fleet", "file", "--time-limit", "60"])
        out = capsys.readouterr().out
        assert code == 0
        assert "optimal" in out
        assert "F' = 13" in out
        assert "nodes = " in out

    def test_solve_reads_utf8_under_a_c_locale(self, tmp_path):
        # an instance file is UTF-8 whatever the locale's encoding
        first, rest = (DATA_DIR / "tiny2.txt").read_text(encoding="utf-8").split("\n", 1)
        path = tmp_path / "tiny2.txt"
        path.write_text(f"{first} café\n{rest}", encoding="utf-8")
        proc = _cdsp_under_a_c_locale("solve", str(path), "--fleet", "file")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.startswith("tiny2: optimal\n"), proc.stdout
        assert "F  = 20.000000" in proc.stdout

    def test_solve_escapes_a_note_an_ascii_stdout_cannot_encode(self, tmp_path):
        # site 1's XCOORD is "é": the record's note quotes it
        text = (DATA_DIR / "tiny2.txt").read_text(encoding="utf-8")
        path = tmp_path / "bad.txt"
        path.write_text(text.replace("    1          0", "    1          é", 1), encoding="utf-8")
        proc = _cdsp_under_a_c_locale("solve", str(path), "--fleet", "file")
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr
        assert proc.stdout.startswith("bad: error\n"), proc.stdout
        assert "  note: line 11: non-numeric field '\\xe9'\n" in proc.stdout, proc.stdout

    def test_suite_escapes_a_setting_an_ascii_stdout_cannot_encode(self, tmp_path, tiny2_file):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([{"path": str(tiny2_file), "class": "\u00c7"}]))
        out_dir = str(tmp_path / "out")
        proc = _cdsp_under_a_c_locale("suite", str(manifest), "--fleet", "file", "--out", out_dir)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr
        assert "\nany-\\xc7-any " in proc.stdout, proc.stdout
        assert f"# highs_options: {dict(HIGHS_OPTIONS)}\n" in proc.stdout
        assert "# report written to " in proc.stdout

    def test_emit_and_solve_a_file_name_outside_the_filesystem_encoding(
        self, tmp_path, tiny2_file, capsysbinary
    ):
        from cdsp.cli import main

        # the name's byte \xe9 is no UTF-8; the stem keeps it as a surrogate
        path = tmp_path / os.fsdecode(b"caf\xe9.txt")
        path.write_bytes(tiny2_file.read_bytes())
        for fmt, head in (("lp", b"\\ cdsp model  label=caf_  n=2"), ("mps", b"NAME caf_\n")):
            out_dir = tmp_path / fmt
            flags = ["--fleet", "file", "--format", fmt]
            assert main(["emit", str(path), *flags, "--out", str(out_dir)]) == 0
            capsysbinary.readouterr()
            assert main(["emit", str(path), *flags]) == 0
            written = (out_dir / f"{path.stem}.{fmt}").read_bytes()
            assert capsysbinary.readouterr().out == written
            assert written.startswith(head)
        command = shlex.join([sys.executable, str(FAKE_SOLVER), "{model}", "{solution}"])
        assert main(["solve", str(path), "--fleet", "file", "--solver-cmd", command]) == 0
        out = capsysbinary.readouterr().out.decode()
        assert out.startswith("caf\\udce9: optimal\n"), out
        assert "  F  = 20.000000\n" in out

    def test_emit_never_imports_scipy_optimize(self, tmp_path):
        code = (
            "import sys\n"
            "from cdsp.cli import main\n"
            "code = main(['emit', sys.argv[1], '--format', 'lp', '--out', sys.argv[2]])\n"
            "print(code, 'scipy.optimize' in sys.modules)\n"
        )
        proc = _python("-c", code, str(GEN20), str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 False"
        assert (tmp_path / "gen20.lp").exists()

    def test_solve_error_exit_code(self, tmp_path, capsys):
        from cdsp.cli import main

        code = main(["solve", str(tmp_path / "missing.txt")])
        assert code == 1

    def test_solve_prints_an_undecodable_incumbent_as_an_error(self, fractional_on_wide5, capsys):
        from cdsp.cli import main

        command = shlex.join(fractional_on_wide5)
        code = main(["solve", str(WIDE5), "--fleet", "file", "--solver-cmd", command])
        out = capsys.readouterr().out
        assert code == 1
        assert out.startswith("wide5: error\n  note: fractional arc value x_0 = ")

    @pytest.mark.parametrize(
        "command",
        [["solve", "{instance}"], ["suite", "{manifest}"], ["emit", "{instance}", "--format", "lp"]],
    )
    def test_out_naming_a_file_fails_before_any_work(self, tmp_path, monkeypatch, command):
        from cdsp import cli

        def work(*args, **kwargs):
            raise AssertionError("work started")

        for name in ("load_instance", "load_manifest", "run_instance"):
            monkeypatch.setattr(cli, name, work)
        out = tmp_path / "taken"
        out.write_text("")
        paths = {"instance": DATA_DIR / "tiny2.txt", "manifest": tmp_path / "m.csv"}
        argv = [word.format(**paths) for word in command]
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--out", str(out)])
        assert exc.value.code == f"cdsp: {out}: File exists"
        assert out.read_text() == ""

    unreadable = pytest.mark.parametrize(
        "content, reason",
        [
            (None, "No such file or directory"),
            (bytes(range(128, 256)), "'utf-8' codec can't decode"),
            (b"C101\n\nCUSTOMER\n 0 0 0 0 0 10 0\n", "malformed header: no VEHICLE block"),
            (TINY2_FILE.replace("   1          200", "   1.5        200").encode(), "line 5: "),
        ],
        ids=["missing", "non-utf8", "malformed", "fractional-fleet"],
    )

    @pytest.mark.parametrize("command", [["oracle"], ["emit", "--format", "lp"]])
    @unreadable
    def test_unreadable_instance_is_one_stderr_line(self, tmp_path, command, content, reason):
        from cdsp.cli import main

        path = tmp_path / "bad.txt"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(SystemExit) as exc:
            main([command[0], str(path), "--fleet", "file", *command[1:]])
        assert str(exc.value.code).startswith(f"cdsp: {path}: {reason}")
        assert "\n" not in str(exc.value.code)

    @unreadable
    def test_solve_oracle_on_an_unreadable_instance_is_one_error_record(
        self, tmp_path, capsys, content, reason
    ):
        # the oracle runs only on an optimal or infeasible solve, so the
        # file is not read again and its failure not reported twice
        from cdsp.cli import main

        path = tmp_path / "bad.txt"
        if content is not None:
            path.write_bytes(content)
        assert main(["solve", str(path), "--fleet", "file", "--oracle"]) == 1
        out, err = capsys.readouterr()
        assert err == ""
        assert out.startswith("bad: error\n  note: ")
        assert reason in out
        assert out.endswith("\n  oracle check skipped: solver status error\n")
        assert out.count("\n") == 3

    @pytest.fixture
    def empty_window_file(self, tmp_path):
        # site 2 (4 from the depot, which closes at 30) gets [28, 29]: its
        # tightened deadline is 30 - 4 = 26
        site2 = "    2          4          0         10          0         10          0"
        assert site2 in TINY2_FILE
        path = tmp_path / "emptywin.txt"
        narrowed = "    2          4          0         10         28         29          0"
        path.write_text(TINY2_FILE.replace(site2, narrowed))
        return path

    EMPTY_WINDOW = "node 2 infeasible after preprocessing: release 28 > deadline 26"

    def test_emit_empty_window_is_one_stderr_line(self, empty_window_file):
        from cdsp.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["emit", str(empty_window_file), "--fleet", "file", "--format", "lp"])
        assert exc.value.code == f"cdsp: {empty_window_file}: {self.EMPTY_WINDOW}"

    def test_oracle_empty_window_is_infeasible(self, empty_window_file, capsys):
        from cdsp.cli import main

        code = main(["oracle", str(empty_window_file), "--fleet", "file"])
        assert code == 0
        assert capsys.readouterr().out == f"emptywin: infeasible ({self.EMPTY_WINDOW})\n"

    def test_solve_oracle_empty_window_agrees(self, empty_window_file, capsys):
        from cdsp.cli import main

        code = main(["solve", str(empty_window_file), "--fleet", "file", "--oracle"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("emptywin: infeasible\n")
        assert "oracle check: OK (infeasible)" in out

    def test_suite_subcommand(self, tmp_path, tiny2_file, capsys):
        from cdsp.cli import main

        manifest = tmp_path / "m.csv"
        manifest.write_text(f"path,size,class,tw\n{tiny2_file},25,C,tight\n")
        out_dir = tmp_path / "results"
        code = main(
            [
                "suite",
                str(manifest),
                "--fleet",
                "file",
                "--time-limit",
                "60",
                "--out",
                str(out_dir),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "25-C-tight" in out
        assert (out_dir / "report.csv").exists()

    def test_suite_lists_each_error_record(self, tmp_path, fractional_on_wide5, capsys):
        from cdsp.cli import main

        manifest = tmp_path / "m.csv"
        manifest.write_text(f"path\n{DATA_DIR / 'tiny2.txt'}\n{WIDE5}\n")
        command = " ".join(fractional_on_wide5)
        code = main(["suite", str(manifest), "--fleet", "file", "--solver-cmd", command])
        out = capsys.readouterr().out
        assert code == 1
        assert "wide5: error (fractional arc value x_0 = " in out
        assert "tiny2: error" not in out

    def test_suite_escapes_a_nul_byte_in_an_error_label(self, tmp_path, tiny2_file, capsys):
        from cdsp.cli import main

        manifest = tmp_path / "m.json"
        entries = [{"path": str(tiny2_file)}, {"path": str(tmp_path / "ti\0ny.txt")}]
        manifest.write_text(json.dumps(entries))
        code = main(["suite", str(manifest), "--fleet", "file", "--time-limit", "60"])
        out = capsys.readouterr().out
        assert code == 1
        assert "\0" not in out
        assert "\nti\\x00ny: error (embedded null byte)\n" in out
        assert "Avg F' over 1 of 2 instances" in out

    @pytest.mark.parametrize(
        "content, reason",
        [
            (None, "No such file or directory"),
            ('{"path": "tiny2.txt"}', "JSON manifest must be a list of objects"),
            ('[{"path": "tiny2.txt"}, {"size": 25}]', "entry 1: entry {'size': 25} has no path"),
            ("[", "Expecting value: line 1 column 2 (char 1)"),
        ],
        ids=["missing", "not-a-list", "no-path", "bad-json"],
    )
    def test_bad_manifest_is_one_stderr_line(self, tmp_path, content, reason):
        from cdsp.cli import main

        manifest = tmp_path / "m.json"
        if content is not None:
            manifest.write_text(content)
        with pytest.raises(SystemExit) as exc:
            main(["suite", str(manifest), "--fleet", "file"])
        assert exc.value.code == f"cdsp: {manifest}: {reason}"

    def test_csv_the_csv_module_rejects_is_one_stderr_line(self, tmp_path):
        from cdsp.cli import main

        limit = csv.field_size_limit()
        manifest = tmp_path / "m.csv"
        manifest.write_text("path\n" + "x" * (limit + 1) + "\n")
        with pytest.raises(SystemExit) as exc:
            main(["suite", str(manifest), "--fleet", "file"])
        assert exc.value.code == f"cdsp: {manifest}: line 2: field larger than field limit ({limit})"

    @pytest.mark.parametrize(
        "flag, value, expected",
        [
            ("--fleet", "abc", "an integer, 'file' or 'auto'"),
            ("--fleet", "1.5", "an integer, 'file' or 'auto'"),
            ("--rounding", "x", "'none' or an integer >= 0"),
            ("--rounding", "-1", "'none' or an integer >= 0"),
            ("--shift-cap", "nope", "a number or 'depot-deadline'"),
            ("--time-limit", "0", "a number of seconds > 0"),
            ("--time-limit", "nan", "a number of seconds > 0"),
            ("--workers", "0", "an integer >= 1"),
            ("--solver-cmd", "foo 'bar", "a command of one or more words"),
            ("--solver-cmd", "   ", "a command of one or more words"),
        ],
    )
    def test_bad_flag_value_is_a_usage_error(self, tiny2_file, capsys, flag, value, expected):
        from cdsp.cli import main

        command = "suite" if flag == "--workers" else "solve"
        with pytest.raises(SystemExit) as exc:
            main([command, str(tiny2_file), flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {flag}: expected {expected}, got {value!r}" in err
        assert "Traceback" not in err

    def test_threads_placeholder_is_a_usage_error(self, tiny2_file, capsys):
        from cdsp.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["solve", str(tiny2_file), "--solver-cmd", "x {threads}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --solver-cmd: the {threads} placeholder is not filled in" in err
        assert "Traceback" not in err

    def test_flag_words_and_numbers_reach_the_config(self):
        from cdsp.cli import _instance_config, _limits, build_parser

        parse = build_parser().parse_args
        args = parse(["solve", "x"])
        assert _instance_config(args) == InstanceConfig()
        assert _limits(args) == SolveLimits()
        args = parse(
            ["solve", "x", "--fleet", "3", "--shift-cap", "16.5", "--rounding", "2"]
            + ["--time-limit", "7.5"]
        )
        assert _instance_config(args) == InstanceConfig(fleet_size=3, shift_cap=16.5, rounding=2)
        assert _limits(args) == SolveLimits(time_limit_s=7.5)
        assert _instance_config(parse(["solve", "x", "--fleet", "file"])).fleet_size == "file"
        assert parse(["suite", "m.csv", "--workers", "2"]).workers == 2

    def test_emit_subcommand(self, tmp_path, tiny2_file, capsys):
        from cdsp.cli import main

        code = main(["emit", str(tiny2_file), "--format", "lp", "--out", str(tmp_path)])
        assert code == 0
        text = (tmp_path / "tiny2.lp").read_text()
        assert text.startswith("\\ cdsp model")
        assert "Binaries" in text

    def test_emit_stdout(self, tiny2_file, capsys):
        from cdsp.cli import main

        code = main(["emit", str(tiny2_file), "--format", "mps"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("NAME")
        assert "ENDATA" in out

    @pytest.mark.parametrize("fmt", ["lp", "mps"])
    @pytest.mark.parametrize("which", ["tiny2", "n8", "gen20"])
    def test_emit_bytes_equal_emit_model(self, tmp_path, tiny2_file, capsysbinary, fmt, which):
        from cdsp import build_instance, build_model, build_multigraph, emit_model, parse_solomon
        from cdsp.cli import main

        path, flags, cfg = tiny2_file, ["--fleet", "file"], InstanceConfig(fleet_size="file")
        if which == "gen20":
            path = GEN20  # several row blocks per section
        if which == "n8":
            inst = random_instance(np.random.default_rng(8), 8, 2)
            raw = RawInstance("gen-n8", inst.fleet_size, 200.0, inst.sites, (0.0,) * 9)
            path = tmp_path / "gen-n8.txt"
            path.write_text(write_solomon(raw))
            flags = ["--fleet", "file", "--shift-cap", repr(inst.shift_cap)]
            cfg = InstanceConfig(fleet_size="file", shift_cap=inst.shift_cap)
        inst = build_instance(parse_solomon(path.read_text()), cfg, label=path.stem)
        want = emit_model(build_model(build_multigraph(inst), inst), fmt).encode()

        assert main(["emit", str(path), "--format", fmt, *flags]) == 0
        assert capsysbinary.readouterr().out == want
        out_dir = tmp_path / "out"
        assert main(["emit", str(path), "--format", fmt, *flags, "--out", str(out_dir)]) == 0
        assert (out_dir / f"{path.stem}.{fmt}").read_bytes() == want

    def test_gen20_is_seeded_and_spans_row_blocks(self):
        # the n = 20 file that CI's console-script check emits: seed 20 of
        # gen.random_instance, written by write_solomon; its LP and MPS
        # sections take more than one row block each
        from cdsp import build_instance, build_model, build_multigraph, parse_solomon
        from cdsp.formulation import writers

        inst = random_instance(np.random.default_rng(20), 20, 5)
        raw = RawInstance("gen20", inst.fleet_size, 200.0, inst.sites, (0.0,) * 21)
        assert GEN20.read_text() == write_solomon(raw)
        cfg = InstanceConfig(fleet_size="file")
        inst = build_instance(parse_solomon(GEN20.read_text()), cfg, label="gen20")
        model = build_model(build_multigraph(inst), inst)
        for fmt in ("lp", "mps"):
            blocked, whole = [], []
            writers.write_model(model, fmt, SimpleNamespace(write=blocked.append))
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(writers, "_BLOCK_PIECES", 1 << 40)
                writers.write_model(model, fmt, SimpleNamespace(write=whole.append))
            assert len(blocked) > len(whole)

    def test_oracle_subcommand(self, tiny2_file, capsys):
        from cdsp.cli import main

        code = main(["oracle", str(tiny2_file), "--fleet", "file"])
        out = capsys.readouterr().out
        assert code == 0
        assert "F  = 20" in out
        assert '"F_prime": 13.0' in out
        # the oracle runs no MIP solve and decodes nothing: no limits, no
        # solver tolerances
        fingerprint = json.loads(out[out.index("{") :])["config"]
        assert fingerprint["solver"] == "oracle"
        for key in ("time_limit_s", "integrality_tol", "highs_options", "highs_version"):
            assert fingerprint[key] is None, key
        assert "threads" not in fingerprint

    def test_oracle_above_limit_is_one_stderr_line(self, capsys):
        from cdsp.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["oracle", str(GEN20), "--fleet", "file"])
        limit = f"the exhaustive-search limit {DEFAULT_LIMIT}"
        assert exc.value.code == f"cdsp: {GEN20}: n=20 exceeds {limit}"
        assert capsys.readouterr().out == ""

    def test_solve_oracle_cross_check(self, tiny2_file, capsys):
        from cdsp.cli import main

        code = main(
            ["solve", str(tiny2_file), "--fleet", "file", "--time-limit", "60", "--oracle"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "oracle check: OK" in out

    def test_solve_oracle_cross_check_at_n10(self, capsys):
        # gen10, the n = 10 file of CI's console-script oracle check: seed 10
        # of gen.random_instance with 2 vehicles, written by write_solomon
        from cdsp.cli import main

        inst = random_instance(np.random.default_rng(10), 10, 2)
        raw = RawInstance("gen10", inst.fleet_size, 200.0, inst.sites, (0.0,) * 11)
        assert GEN10.read_text() == write_solomon(raw)
        code = main(["solve", str(GEN10), "--fleet", "file", "--oracle"])
        assert code == 0
        assert "oracle check: OK (F = 2827.492803)" in capsys.readouterr().out

    @pytest.mark.parametrize("cap, total", [("40", 25.0), ("16", 28.0), ("15.5", 28.5)])
    def test_solve_oracle_cross_check_shift_capped(self, cap, total, capsys):
        # capped2: sites 1 and 2 are 3 and 4 from the depot with windows
        # [0, 8] and [15, 25]; serving 1, then 2 returns at 6 and 19. A cap
        # below 19 delays the departure to 19 - cap, which moves site 1's
        # return to 25 - cap and leaves site 2 waiting for its release, so
        # F = 44 - cap.
        from cdsp.cli import main

        path = DATA_DIR / "capped2.txt"
        code = main(["solve", str(path), "--fleet", "file", "--shift-cap", cap, "--oracle"])
        out = capsys.readouterr().out
        assert code == 0
        assert f"oracle check: OK (F = {total:.6f})" in out

    def test_solve_oracle_cross_check_reads_the_shared_limits(
        self, tiny2_file, capsys, monkeypatch
    ):
        # the objective tolerance and the help's size limit come from
        # harness.OBJECTIVE_MATCH_TOL and oracle.DEFAULT_LIMIT
        from cdsp import cli

        monkeypatch.setattr(cli, "OBJECTIVE_MATCH_TOL", -1.0)
        code = cli.main(
            ["solve", str(tiny2_file), "--fleet", "file", "--time-limit", "60", "--oracle"]
        )
        assert code == 1
        assert "oracle check FAILED: oracle F = 20.0" in capsys.readouterr().out
        monkeypatch.setattr(cli, "DEFAULT_LIMIT", 9)
        with pytest.raises(SystemExit):
            cli.main(["solve", "--help"])
        assert "(n <= 9)" in " ".join(capsys.readouterr().out.split())

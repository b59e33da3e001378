import csv
import dataclasses
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from cdsp import InstanceConfig, RawInstance, ScipyMilpAdapter, Setting, SolveLimits, write_solomon
from cdsp.formulation import INTEGRALITY_TOL
from cdsp.formulation.solvers import FEASIBILITY_TOL
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

from conftest import DATA_DIR, TINY2_FILE
from gen import random_instance

LIMITS = SolveLimits(time_limit_s=60.0)
GEN20 = Path(__file__).parent / "data" / "gen20.txt"
CAPPED2 = Path(__file__).parent / "data" / "capped2.txt"


@dataclasses.dataclass(frozen=True)
class OffByOneAdapter:
    """Claims an optimum one above the true one on instances labelled "bad"."""

    name: str = "off-by-one"

    def solve(self, model, limits):
        outcome = ScipyMilpAdapter().solve(model, limits)
        if model.label != "bad":
            return outcome
        return dataclasses.replace(outcome, objective=outcome.objective + 1.0)

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

    def test_deterministic_rerun(self, tiny2_file):
        cfg = InstanceConfig(fleet_size="file")
        a = run_instance(tiny2_file, cfg, LIMITS)
        b = run_instance(tiny2_file, cfg, LIMITS)
        assert a.net == b.net
        assert a.total == b.total


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

    def test_binary_instance_file_is_one_error_record(self, tmp_path, tiny2_file):
        binary = tmp_path / "binary.txt"
        binary.write_bytes(bytes(range(256)))
        entries = [ManifestEntry(path=tiny2_file), ManifestEntry(path=binary)]
        report = run_suite(entries, InstanceConfig(fleet_size="file"), LIMITS)
        assert [r.status for r in report.records] == ["optimal", "error"]
        assert "utf-8" in report.records[1].message
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
        report = run_suite(manifest, InstanceConfig(), LIMITS)
        assert report.records == []
        assert report.settings == {}
        assert not report.has_errors

    def test_parallel_workers_match_serial(self, tiny2_file):
        entries = [ManifestEntry(path=tiny2_file), ManifestEntry(path=tiny2_file)]
        cfg = InstanceConfig(fleet_size="file")
        serial = run_suite(entries, cfg, LIMITS, workers=1)
        parallel = run_suite(entries, cfg, LIMITS, workers=2)
        assert [r.net for r in serial.records] == [r.net for r in parallel.records]

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


class TestReporting:
    def _report(self, records):
        cfg = InstanceConfig()
        return BenchmarkReport(
            records=records,
            fingerprint=config_fingerprint(cfg, LIMITS, "scipy-highs", raw_release=False),
        )

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
        assert fingerprint["feasibility_tol"] == FEASIBILITY_TOL == 1e-9
        # an external solver runs at its own tolerance, which cdsp does not set
        external = config_fingerprint(InstanceConfig(), LIMITS, "file", raw_release=False)
        assert external["feasibility_tol"] is None


class TestCli:
    def test_solve_subcommand(self, tiny2_file, capsys):
        from cdsp.cli import main

        code = main(["solve", str(tiny2_file), "--fleet", "file", "--time-limit", "60"])
        out = capsys.readouterr().out
        assert code == 0
        assert "optimal" in out
        assert "F' = 13" in out
        assert "nodes = " in out

    def test_solve_error_exit_code(self, tmp_path, capsys):
        from cdsp.cli import main

        code = main(["solve", str(tmp_path / "missing.txt")])
        assert code == 1

    @pytest.mark.parametrize(
        "command", [["oracle"], ["emit", "--format", "lp"], ["solve", "--oracle"]]
    )
    @pytest.mark.parametrize(
        "content, reason",
        [
            (None, "No such file or directory"),
            (bytes(range(128, 256)), "'utf-8' codec can't decode"),
            (b"C101\n\nCUSTOMER\n 0 0 0 0 0 10 0\n", "malformed header: no VEHICLE block"),
            (TINY2_FILE.replace("   1          200", "   1.5        200").encode(), "line 5: "),
        ],
        ids=["missing", "non-utf8", "malformed", "fractional-fleet"],
    )
    def test_unreadable_instance_is_one_stderr_line(self, tmp_path, command, content, reason):
        from cdsp.cli import main

        path = tmp_path / "bad.txt"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(SystemExit) as exc:
            main([command[0], str(path), "--fleet", "file", *command[1:]])
        assert str(exc.value.code).startswith(f"cdsp: {path}: {reason}")
        assert "\n" not in str(exc.value.code)

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

    def test_solve_oracle_cross_check(self, tiny2_file, capsys):
        from cdsp.cli import main

        code = main(
            ["solve", str(tiny2_file), "--fleet", "file", "--time-limit", "60", "--oracle"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "oracle check: OK" in out

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

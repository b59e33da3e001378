"""Smoke tests of scripts/reproduce_benchmark.py on tiny instances."""

import csv
import importlib.util
import json
import shutil
from pathlib import Path

import pytest

from cdsp import cli, harness

from conftest import DATA_DIR, TINY2_FILE

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "reproduce_benchmark.py"


def load_script():
    spec = importlib.util.spec_from_file_location("reproduce_benchmark", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


@pytest.fixture
def data(tmp_path) -> Path:
    """tiny2 filed as C101: spatial class C, tight windows."""
    data = tmp_path / "data"
    data.mkdir()
    shutil.copy(DATA_DIR / "tiny2.txt", data / "C101.txt")
    return data


def test_reproduce_benchmark_runs_a_named_instance(data, tmp_path, monkeypatch):
    # n = 2 is no benchmark size, so the fleet is the file's single vehicle
    # (F' = 13)
    writes = []
    write_report = harness.write_report

    def counted_write(*args):
        writes.append(args)
        write_report(*args)

    monkeypatch.setattr(harness, "write_report", counted_write)
    script = load_script()
    out = tmp_path / "out"

    assert script.main([str(data), "--time-limit", "10", "--out", str(out)]) == 0
    with open(out / "manifest.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [(row["class"], row["tw"]) for row in rows] == [("C", "tight")]
    records = json.loads((out / "report.json").read_text())["records"]
    assert [(r["label"], r["status"]) for r in records] == [("C101", "optimal")]
    assert abs(records[0]["F_prime"] - 13.0) < 1e-6
    assert len(writes) == 1  # run_suite writes the report; the script does not again


def test_reproduce_benchmark_lists_an_error_record_as_cdsp_suite_does(data, tmp_path, capsys):
    # a depot-only file parses, so it is manifested, but builds no instance
    (data / "R201.txt").write_text(TINY2_FILE.split("    1          0")[0])
    code = load_script().main([str(data), "--time-limit", "10", "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 1
    assert "\nR201: error (instance needs at least one point of care)\n" in out
    assert "\n# schema: cdsp-report-v1\n" in out
    assert "\n# time_limit_s: 10.0\n" in out
    assert "C101: error" not in out


def test_reproduce_benchmark_checks_flags_as_cdsp_suite_does(data, tmp_path, monkeypatch, capsys):
    runs = []
    monkeypatch.setattr(harness, "run_instance", lambda *args, **kwargs: runs.append(args))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        load_script().main([str(data), "--time-limit", "0", "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: cdsp suite ")
    assert "error: argument --time-limit: expected a number of seconds > 0, got '0'" in err
    assert "Traceback" not in err
    assert runs == []
    assert not (out / "report.json").exists()


def test_reproduce_benchmark_forwards_only_the_flags_given(data, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "main", lambda argv: calls.append(argv) or 0)
    script = load_script()
    out = str(tmp_path / "out")
    manifest = str(tmp_path / "out" / "manifest.csv")
    assert script.main([str(data), "--out", out]) == 0
    assert script.main([str(data), "--out", out, "--workers", "2", "--time-limit", "9"]) == 0
    assert calls == [
        ["suite", manifest, "--out", out],
        ["suite", manifest, "--out", out, "--time-limit", "9", "--workers", "2"],
    ]


def test_reproduce_benchmark_out_naming_a_file_is_one_stderr_line(data, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    with pytest.raises(SystemExit) as exc:
        load_script().main([str(data), "--out", str(taken)])
    assert exc.value.code == f"cdsp: {taken}: File exists"
    assert taken.read_text() == ""

"""Smoke test of scripts/reproduce_benchmark.py on one tiny instance."""

import csv
import importlib.util
import json
import shutil
from pathlib import Path

from cdsp import harness

from conftest import DATA_DIR

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "reproduce_benchmark.py"


def test_reproduce_benchmark_runs_a_named_instance(tmp_path, monkeypatch):
    # tiny2 filed as C101: spatial class C, tight windows; n = 2 is no
    # benchmark size, so the fleet is the file's single vehicle (F' = 13)
    data = tmp_path / "data"
    data.mkdir()
    shutil.copy(DATA_DIR / "tiny2.txt", data / "C101.txt")
    writes = []
    write_report = harness.write_report

    def counted_write(*args):
        writes.append(args)
        write_report(*args)

    monkeypatch.setattr(harness, "write_report", counted_write)
    spec = importlib.util.spec_from_file_location("reproduce_benchmark", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    out = tmp_path / "out"

    assert script.main([str(data), "--time-limit", "10", "--out", str(out)]) == 0
    with open(out / "manifest.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [(row["class"], row["tw"]) for row in rows] == [("C", "tight")]
    records = json.loads((out / "report.json").read_text())["records"]
    assert [(r["label"], r["status"]) for r in records] == [("C101", "optimal")]
    assert abs(records[0]["F_prime"] - 13.0) < 1e-6
    assert len(writes) == 1  # run_suite writes the report; the script does not again

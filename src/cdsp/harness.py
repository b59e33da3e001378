"""Benchmark runner: suites of instances, per-setting aggregation, reports.

Each instance runs the full pipeline: parse, build, preprocess, generate
the MIP, solve through an adapter, decode, validate and evaluate. Records
aggregate per benchmark setting (size x spatial class x window class) into
the standard report columns: average release-corrected objective (F'),
average optimality gap, average runtime, counts of proven optima and of
time limits.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .formulation import (
    INTEGRALITY_TOL,
    ModelDecodeError,
    ScipyMilpAdapter,
    SolveLimits,
    SolveStatus,
    SolverAdapter,
    build_model,
    extract_solution,
    solve,
)
from .formulation.solvers import HIGHS_OPTIONS, load_highs
from .instances import Instance, InstanceConfig, Setting, build_instance, parse_solomon
from .network import InfeasibleWindowError, TimeWindows, build_multigraph
from .routes import solution_to_json, validate_solution

SCHEMA_TAG = "cdsp-report-v1"

#: A setting's keys in report.csv's header and report.json's settings.
_SETTING_KEYS = ("size", "class", "tw")

#: report.csv's columns after the setting's: (header, SettingAggregate field).
_CSV_COLUMNS = (
    ("instances", "n_instances"),
    ("avg_fprime", "avg_net"),
    ("fprime_over", "net_count"),
    ("avg_gap_pct", "avg_gap_pct"),
    ("gap_over", "gap_count"),
    ("avg_time_s", "avg_time_s"),
    ("time_over", "time_count"),
    ("opt", "n_opt"),
    ("time_limit", "n_time_limit"),
    ("no_solution", "n_no_solution"),
    ("infeasible", "n_infeasible"),
    ("error", "n_error"),
)

OBJECTIVE_MATCH_TOL = 1e-6


class IncumbentValidationError(RuntimeError):
    """A solver incumbent failed validation: model or decoder bug, not a
    recoverable solve status."""


@dataclass(frozen=True)
class ManifestEntry:
    path: Path
    setting: Setting | None = None


@dataclass(frozen=True)
class RunRecord:
    label: str
    setting: Setting | None
    status: SolveStatus  # a value string is coerced to its member
    total: float | None = None  # F
    net: float | None = None  # F'
    gap_pct: float | None = None
    wall_s: float | None = None
    build_s: float | None = None
    nodes: int | None = None  # branch-and-bound nodes, where the solver reports them
    message: str = ""

    def __post_init__(self):
        object.__setattr__(self, "status", SolveStatus(self.status))

    def setting_key(self) -> tuple:
        return self.setting.as_tuple() if self.setting else (None, None, None)


@dataclass(frozen=True)
class SettingAggregate:
    n_instances: int
    avg_net: float | None
    net_count: int
    avg_gap_pct: float | None
    gap_count: int
    avg_time_s: float | None
    time_count: int
    n_opt: int
    n_time_limit: int
    n_no_solution: int
    n_infeasible: int
    n_error: int


@dataclass
class BenchmarkReport:
    records: list[RunRecord]
    fingerprint: dict

    @property
    def settings(self) -> dict[tuple, SettingAggregate]:
        groups: dict[tuple, list[RunRecord]] = {}
        for record in self.records:
            groups.setdefault(record.setting_key(), []).append(record)
        return {key: _aggregate(records) for key, records in sorted(groups.items(), key=_setting_sort)}

    @property
    def has_errors(self) -> bool:
        return any(r.status is SolveStatus.ERROR for r in self.records)


def _setting_sort(item):
    key = item[0]
    return tuple((v is None, v) for v in key)


def _mean(values) -> tuple[float | None, int]:
    """The mean of the values that are not None, as a Python float, and how
    many there are."""
    present = [v for v in values if v is not None]
    return (float(sum(present) / len(present)) if present else None), len(present)


def _aggregate(records: list[RunRecord]) -> SettingAggregate:
    counts = Counter(r.status for r in records)
    return SettingAggregate(
        len(records),
        *_mean(r.net for r in records),
        *_mean(r.gap_pct for r in records),
        *_mean(r.wall_s for r in records),
        n_opt=counts[SolveStatus.OPTIMAL],
        n_time_limit=counts[SolveStatus.FEASIBLE_TIME_LIMIT]
        + counts[SolveStatus.NO_SOLUTION_TIME_LIMIT],
        n_no_solution=counts[SolveStatus.NO_SOLUTION_TIME_LIMIT],
        n_infeasible=counts[SolveStatus.INFEASIBLE],
        n_error=counts[SolveStatus.ERROR],
    )


def config_fingerprint(
    cfg: InstanceConfig,
    limits: SolveLimits | None,
    solver_name: str,
    raw_release: bool,
) -> dict:
    """The settings a run used. ``limits`` is None for a run that solves no
    MIP (the oracle), which has no solve limits and decodes no incumbent."""
    bundled = solver_name == ScipyMilpAdapter.name
    highs = load_highs()._Highs() if bundled else None
    return {
        "schema": SCHEMA_TAG,
        **cfg.fingerprint(),
        "fprime_release": "raw" if raw_release else "tightened",
        "gap_convention": "(incumbent - bound) / incumbent * 100",
        "integrality_tol": None if limits is None else INTEGRALITY_TOL,
        "time_limit_s": None if limits is None else limits.time_limit_s,
        "solver": solver_name,
        # the bundled HiGHS's; any other solver keeps its own (null here)
        "highs_options": dict(HIGHS_OPTIONS) if bundled else None,
        "highs_version": f"{highs.version()} ({highs.githash()})" if bundled else None,
    }


def f_prime(total: float, inst: Instance, windows: TimeWindows, raw_release: bool) -> float:
    """F', the total completion time F less the requests' releases: the
    tightened ones, or with raw_release the ones the file gives."""
    if raw_release:
        return total - float(sum(site.release for site in inst.sites[1:]))
    return total - float(np.sum(windows.release[1:]))


def load_instance(path, cfg: InstanceConfig, setting: Setting | None = None) -> Instance:
    """Read, parse and build the instance in one file, labelled by its stem.

    A file that cannot be read raises OSError; one that is not UTF-8
    (whatever the locale), or does not parse or build, or a path holding a
    NUL byte, ValueError.
    """
    path = Path(path)
    raw = parse_solomon(path.read_text(encoding="utf-8"))
    return build_instance(raw, cfg, setting=setting, label=path.stem)


def run_instance(
    path,
    cfg: InstanceConfig,
    limits: SolveLimits,
    adapter: SolverAdapter = ScipyMilpAdapter(),
    setting: Setting | None = None,
    raw_release: bool = False,
    out_dir=None,
) -> RunRecord:
    """Solve one instance file end to end and return its record.

    A file `load_instance` fails on is status "error", and an empty
    preprocessed window status "infeasible". An incumbent that does not
    decode (ModelDecodeError), fails validation or, when proven optimal,
    disagrees with the decoded objective (IncumbentValidationError) is a
    model or decoder bug, not a result: it is status "error" with the
    exception's message, so that one such instance does not sink a suite.

    wall_s is the adapter's solve as timed here, an adapter that crashes
    included; for the bundled adapter, scipy's HiGHS binding is imported
    before the clock starts.

    F' is `f_prime` under the release convention raw_release chooses; the
    record, the report and the solution file all carry that value.
    """
    path = Path(path)
    label = path.stem

    def failed(status: SolveStatus, message: str) -> RunRecord:
        return RunRecord(label=label, setting=setting, status=status, message=message)

    try:
        inst = load_instance(path, cfg, setting)
    except (OSError, ValueError) as exc:
        return failed(SolveStatus.ERROR, str(exc))

    build_start = time.perf_counter()
    try:
        graph = build_multigraph(inst)
    except InfeasibleWindowError as exc:
        return failed(SolveStatus.INFEASIBLE, str(exc))
    model = build_model(graph, inst)
    build_s = time.perf_counter() - build_start

    if isinstance(adapter, ScipyMilpAdapter):
        load_highs()  # a one-time import, not part of this solve
    solve_start = time.perf_counter()
    outcome = solve(model, limits, adapter)
    wall_s = time.perf_counter() - solve_start
    total = net = gap = None
    if outcome.has_incumbent:
        try:
            sol = extract_solution(model, outcome.values)
            verdict = validate_solution(sol, inst, graph.windows)
            if not verdict.ok:
                raise IncumbentValidationError(
                    f"{label}: incumbent failed validation: " + "; ".join(verdict.violations)
                )
            total = sol.total_completion
            if (
                outcome.status is SolveStatus.OPTIMAL
                and abs(total - outcome.objective) > OBJECTIVE_MATCH_TOL
            ):
                raise IncumbentValidationError(
                    f"{label}: decoded objective {total!r} != solver optimum {outcome.objective!r}"
                )
        except (ModelDecodeError, IncumbentValidationError) as exc:
            return failed(SolveStatus.ERROR, str(exc))
        net = f_prime(total, inst, graph.windows, raw_release)
        if outcome.bound is not None and total > 0:
            excess = total - outcome.bound
            if outcome.status is SolveStatus.OPTIMAL and abs(excess) <= OBJECTIVE_MATCH_TOL:
                # a proven optimum whose bound differs from F by round-off
                excess = 0.0
            gap = excess / total * 100.0
        if out_dir is not None:
            out = Path(out_dir)
            out.mkdir(parents=True, exist_ok=True)
            fingerprint = config_fingerprint(cfg, limits, adapter.name, raw_release)
            payload = solution_to_json(sol, net, fingerprint)
            payload["status"] = outcome.status
            (out / f"{label}.solution.json").write_text(
                json.dumps(payload, indent=2), encoding="utf-8"
            )

    return RunRecord(
        label=label,
        setting=setting,
        status=outcome.status,
        total=total,
        net=net,
        gap_pct=gap,
        wall_s=wall_s,
        build_s=build_s,
        nodes=outcome.nodes,
        message=outcome.message,
    )


def load_manifest(path) -> list[ManifestEntry]:
    """Read a CSV or JSON manifest: file path plus optional setting columns.

    Relative instance paths resolve against the manifest's directory. An
    entry that is not an object, has no path or has a non-integer size, a
    CSV line the csv module cannot parse, or a JSON manifest that is not a
    list, raises ValueError (without the path).
    """
    path = Path(path)
    base = path.parent
    entries: list[ManifestEntry] = []

    def entry(row, where: str) -> ManifestEntry:
        if not isinstance(row, dict):
            raise ValueError(f"{where}: entry {row!r} is not an object")
        if row.get("path") in (None, ""):
            raise ValueError(f"{where}: entry {row!r} has no path")
        rel = Path(str(row["path"]))
        size, klass, tw = (
            None if v in (None, "") else v
            for v in (row.get("size"), row.get("class") or row.get("klass"), row.get("tw"))
        )
        try:
            size = None if size is None else int(str(size))
        except ValueError:
            raise ValueError(f"{where}: size {size!r} is not an integer") from None
        setting = None
        if (size, klass, tw) != (None, None, None):
            setting = Setting(
                size=size,
                klass=None if klass is None else str(klass),
                tw=None if tw is None else str(tw),
            )
        return ManifestEntry(path=rel if rel.is_absolute() else base / rel, setting=setting)

    if path.suffix.lower() == ".json":
        rows = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(rows, list):
            raise ValueError("JSON manifest must be a list of objects")
        entries = [entry(row, f"entry {i}") for i, row in enumerate(rows)]
    else:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.DictReader(handle)
            try:
                for row in reader:
                    if row.get("path"):
                        entries.append(entry(row, f"line {reader.line_num}"))
            except csv.Error as exc:  # e.g. a NUL byte, before Python 3.11
                raise ValueError(f"line {reader.reader.line_num}: {exc}") from None
    return entries


def run_suite(
    entries: list[ManifestEntry],
    cfg: InstanceConfig,
    limits: SolveLimits,
    adapter: SolverAdapter = ScipyMilpAdapter(),
    workers: int = 1,
    raw_release: bool = False,
    out_dir=None,
) -> BenchmarkReport:
    """Run every manifest entry (see `load_manifest`) and aggregate per setting.

    Each entry is one `run_instance` record, so a missing instance file or
    an incumbent that does not decode or fails validation is that entry's
    error record, not a crash. Instances run in parallel across worker
    processes when workers > 1. A worker that dies breaks the pool, and
    with it every entry not yet finished; each of those runs again alone
    (`_run_alone`).
    """
    solutions_dir = Path(out_dir) / "solutions" if out_dir is not None else None
    calls = [(e.path, cfg, limits, adapter, e.setting) for e in entries]
    options = dict(raw_release=raw_release, out_dir=solutions_dir)
    if workers > 1 and len(entries) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(run_instance, *call, **options) for call in calls]
        records = []
        for future, call in zip(futures, calls):
            try:
                records.append(future.result())
            except BrokenProcessPool:
                records.append(_run_alone(call, options))
    else:
        records = [run_instance(*call, **options) for call in calls]

    fingerprint = config_fingerprint(cfg, limits, adapter.name, raw_release)
    report = BenchmarkReport(records=records, fingerprint=fingerprint)
    if out_dir is not None:
        write_report(report, out_dir)
    return report


def _run_alone(call: tuple, options: dict) -> RunRecord:
    """`run_instance(*call, **options)` in a fresh one-worker pool; if that
    worker dies too, the entry's error record."""
    with ProcessPoolExecutor(max_workers=1) as pool:
        future = pool.submit(run_instance, *call, **options)
    try:
        return future.result()
    except BrokenProcessPool:
        path, *_, setting = call
        return RunRecord(
            label=Path(path).stem,
            setting=setting,
            status=SolveStatus.ERROR,
            message="worker process ended abruptly",
        )


def _setting_label(key: tuple) -> str:
    return "-".join("any" if v is None else str(v) for v in key)


def report_csv(report: BenchmarkReport) -> str:
    """Per-setting aggregate rows; the schema tag is the first header field,
    over each setting's label."""
    buf = io.StringIO()
    writer = csv.writer(buf)  # None as an empty cell, a float as its repr
    writer.writerow([SCHEMA_TAG, *_SETTING_KEYS, *(header for header, _ in _CSV_COLUMNS)])
    for key, agg in report.settings.items():
        writer.writerow(
            [_setting_label(key), *key, *(getattr(agg, field) for _, field in _CSV_COLUMNS)]
        )
    return buf.getvalue()


def report_json(report: BenchmarkReport) -> dict:
    return {
        "schema": SCHEMA_TAG,
        "fingerprint": report.fingerprint,
        "settings": [
            {**dict(zip(_SETTING_KEYS, key)), **dataclasses.asdict(agg)}
            for key, agg in report.settings.items()
        ],
        "records": [_record_json(r) for r in report.records],
    }


def _record_json(record: RunRecord) -> dict:
    """The record's fields in order, total and net as F and F_prime, the
    setting as its list."""
    names = {"total": "F", "net": "F_prime"}
    row = {names.get(f.name, f.name): getattr(record, f.name) for f in dataclasses.fields(record)}
    row["setting"] = list(record.setting.as_tuple()) if record.setting else None
    return row


def write_report(report: BenchmarkReport, out_dir):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.csv").write_text(report_csv(report), encoding="utf-8")
    (out / "report.json").write_text(json.dumps(report_json(report), indent=2), encoding="utf-8")


def report_table(report: BenchmarkReport) -> str:
    """Human-readable per-setting table in deterministic (size, class, TW) order.

    Partial averages (fewer solved instances than the setting holds) are
    starred, with the divisor spelled out underneath.
    """
    header = ("setting", "Avg F'", "Avg gap", "Avg T[s]", "#opt", "#TL")
    rows = [header]
    partials = []
    for key, agg in report.settings.items():
        label = _setting_label(key)
        if agg.avg_net is None:
            avg_net = "-"
        else:
            star = "*" if agg.net_count < agg.n_instances else ""
            avg_net = f"{agg.avg_net:.1f}{star}"
            if star:
                partials.append(
                    f"* {label}: Avg F' over {agg.net_count} of {agg.n_instances} instances"
                )
        avg_gap = f"{agg.avg_gap_pct:.2f} %" if agg.avg_gap_pct is not None else ""
        avg_time = f"{agg.avg_time_s:.1f}" if agg.avg_time_s is not None else "-"
        rows.append((label, avg_net, avg_gap, avg_time, str(agg.n_opt), str(agg.n_time_limit)))
    widths = [max(len(row[col]) for row in rows) for col in range(len(header))]
    lines = []
    for row in rows:
        cells = [row[0].ljust(widths[0])] + [
            row[col].rjust(widths[col]) for col in range(1, len(header))
        ]
        lines.append("  ".join(cells).rstrip())
    lines.extend(partials)
    return "\n".join(lines) + "\n"

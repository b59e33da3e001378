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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .formulation import (
    INTEGRALITY_TOL,
    ScipyMilpAdapter,
    SolveLimits,
    SolveStatus,
    SolverAdapter,
    build_model,
    extract_solution,
    solve,
)
from .instances import (
    InstanceConfig,
    InstanceError,
    Setting,
    SolomonParseError,
    build_instance,
    parse_solomon,
)
from .network import InfeasibleWindowError, build_multigraph
from .routes import evaluate, solution_to_json, validate_solution

SCHEMA_TAG = "cdsp-report-v1"

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
    status: str
    total: float | None = None  # F
    net: float | None = None  # F'
    gap_pct: float | None = None
    wall_s: float | None = None
    build_s: float | None = None
    nodes: int | None = None  # branch-and-bound nodes, where the solver reports them
    message: str = ""

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
        return any(r.status == SolveStatus.ERROR.value for r in self.records)


def _setting_sort(item):
    key = item[0]
    return tuple((v is None, v) for v in key)


def _aggregate(records: list[RunRecord]) -> SettingAggregate:
    nets = [r.net for r in records if r.net is not None]
    gaps = [r.gap_pct for r in records if r.gap_pct is not None]
    times = [r.wall_s for r in records if r.wall_s is not None]
    n_tl = sum(
        r.status
        in (SolveStatus.FEASIBLE_TIME_LIMIT.value, SolveStatus.NO_SOLUTION_TIME_LIMIT.value)
        for r in records
    )
    return SettingAggregate(
        n_instances=len(records),
        avg_net=sum(nets) / len(nets) if nets else None,
        net_count=len(nets),
        avg_gap_pct=sum(gaps) / len(gaps) if gaps else None,
        gap_count=len(gaps),
        avg_time_s=sum(times) / len(times) if times else None,
        time_count=len(times),
        n_opt=sum(r.status == SolveStatus.OPTIMAL.value for r in records),
        n_time_limit=n_tl,
        n_no_solution=sum(
            r.status == SolveStatus.NO_SOLUTION_TIME_LIMIT.value for r in records
        ),
        n_infeasible=sum(r.status == SolveStatus.INFEASIBLE.value for r in records),
        n_error=sum(r.status == SolveStatus.ERROR.value for r in records),
    )


def config_fingerprint(
    cfg: InstanceConfig,
    limits: SolveLimits,
    solver_name: str,
    raw_release: bool,
) -> dict:
    return {
        "schema": SCHEMA_TAG,
        **cfg.fingerprint(),
        "fprime_release": "raw" if raw_release else "tightened",
        "gap_convention": "(incumbent - bound) / incumbent * 100",
        "integrality_tol": INTEGRALITY_TOL,
        "time_limit_s": limits.time_limit_s,
        "threads": limits.threads,
        "gap_target": limits.gap_target,
        "solver": solver_name,
    }


def run_instance(
    path,
    cfg: InstanceConfig | None = None,
    limits: SolveLimits | None = None,
    adapter: SolverAdapter | None = None,
    setting: Setting | None = None,
    raw_release: bool = False,
    out_dir=None,
) -> RunRecord:
    """Solve one instance file end to end and return its record.

    Parse/build/read errors become status "error"; an empty preprocessed
    window becomes status "infeasible". An incumbent that fails validation
    or (when proven optimal) disagrees with the decoded objective raises
    IncumbentValidationError: that is a bug, not a result.
    """
    cfg = cfg or InstanceConfig()
    limits = limits or SolveLimits()
    adapter = adapter or ScipyMilpAdapter()
    path = Path(path)
    label = path.stem

    def failed(status: str, message: str) -> RunRecord:
        return RunRecord(label=label, setting=setting, status=status, message=message)

    try:
        text = path.read_text()
    except OSError as exc:
        return failed(SolveStatus.ERROR.value, str(exc))
    try:
        raw = parse_solomon(text)
        inst = build_instance(raw, cfg, setting=setting, label=label)
    except (SolomonParseError, InstanceError) as exc:
        return failed(SolveStatus.ERROR.value, str(exc))

    build_start = time.perf_counter()
    try:
        graph = build_multigraph(inst)
    except InfeasibleWindowError as exc:
        return failed(SolveStatus.INFEASIBLE.value, str(exc))
    model = build_model(graph, inst)
    build_s = time.perf_counter() - build_start

    outcome = solve(model, limits, adapter)
    total = net = gap = None
    if outcome.has_incumbent:
        sol = extract_solution(model, outcome.values, graph)
        if raw_release:
            _, net_raw = evaluate(sol, inst, graph.windows, raw_release=True)
            sol = dataclasses.replace(sol, net_completion=net_raw)
        verdict = validate_solution(sol, inst, graph.windows, raw_release=raw_release)
        if not verdict.ok:
            raise IncumbentValidationError(
                f"{label}: incumbent failed validation: " + "; ".join(verdict.violations)
            )
        total, net = sol.total_completion, sol.net_completion
        if (
            outcome.status is SolveStatus.OPTIMAL
            and abs(total - outcome.objective) > OBJECTIVE_MATCH_TOL
        ):
            raise IncumbentValidationError(
                f"{label}: decoded objective {total!r} != solver optimum {outcome.objective!r}"
            )
        if outcome.bound is not None and total > 0:
            gap = (total - outcome.bound) / total * 100.0
        if out_dir is not None:
            out = Path(out_dir)
            out.mkdir(parents=True, exist_ok=True)
            fingerprint = config_fingerprint(cfg, limits, adapter.name, raw_release)
            payload = solution_to_json(sol, fingerprint)
            payload["status"] = outcome.status.value
            (out / f"{label}.solution.json").write_text(json.dumps(payload, indent=2))

    return RunRecord(
        label=label,
        setting=setting,
        status=outcome.status.value,
        total=total,
        net=net,
        gap_pct=gap,
        wall_s=outcome.wall_s,
        build_s=build_s,
        nodes=outcome.nodes,
        message=outcome.message,
    )


def load_manifest(path) -> list[ManifestEntry]:
    """Read a CSV or JSON manifest: file path plus optional setting columns.

    Relative instance paths resolve against the manifest's directory.
    """
    path = Path(path)
    base = path.parent
    entries: list[ManifestEntry] = []

    def entry(row: dict) -> ManifestEntry:
        rel = Path(str(row["path"]))
        size = row.get("size")
        klass = row.get("class") or row.get("klass")
        tw = row.get("tw")
        setting = None
        if size not in (None, "") or klass not in (None, "") or tw not in (None, ""):
            setting = Setting(
                size=int(size) if size not in (None, "") else None,
                klass=str(klass) if klass not in (None, "") else None,
                tw=str(tw) if tw not in (None, "") else None,
            )
        return ManifestEntry(path=rel if rel.is_absolute() else base / rel, setting=setting)

    if path.suffix.lower() == ".json":
        rows = json.loads(path.read_text())
        if not isinstance(rows, list):
            raise ValueError("JSON manifest must be a list of objects")
        entries = [entry(row) for row in rows]
    else:
        with open(path, newline="") as handle:
            for row in csv.DictReader(handle):
                if row.get("path"):
                    entries.append(entry(row))
    return entries


def run_suite(
    manifest,
    cfg: InstanceConfig | None = None,
    limits: SolveLimits | None = None,
    adapter: SolverAdapter | None = None,
    workers: int = 1,
    raw_release: bool = False,
    out_dir=None,
) -> BenchmarkReport:
    """Run every manifest entry and aggregate per setting.

    manifest: a manifest file path or a prepared list of ManifestEntry.
    Missing instance files and incumbents that fail validation yield
    per-instance error records, not a crash.
    Instances run in parallel across worker processes when workers > 1.
    """
    cfg = cfg or InstanceConfig()
    limits = limits or SolveLimits()
    adapter = adapter or ScipyMilpAdapter()
    entries = manifest if isinstance(manifest, list) else load_manifest(manifest)
    solutions_dir = Path(out_dir) / "solutions" if out_dir is not None else None

    args = [
        (e.path, cfg, limits, adapter, e.setting, raw_release, solutions_dir) for e in entries
    ]
    if workers > 1 and len(entries) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_run_entry, args))
    else:
        records = [_run_entry(a) for a in args]

    fingerprint = config_fingerprint(cfg, limits, adapter.name, raw_release)
    report = BenchmarkReport(records=records, fingerprint=fingerprint)
    if out_dir is not None:
        write_report(report, out_dir)
    return report


def _run_entry(args) -> RunRecord:
    """run_instance for one suite entry; an incumbent that fails validation
    becomes an error record, so the other entries still report."""
    path, cfg, limits, adapter, setting, raw_release, out_dir = args
    try:
        return run_instance(
            path, cfg, limits, adapter, setting=setting, raw_release=raw_release, out_dir=out_dir
        )
    except IncumbentValidationError as exc:
        status = SolveStatus.ERROR.value
        return RunRecord(label=Path(path).stem, setting=setting, status=status, message=str(exc))


def _setting_label(key: tuple) -> str:
    return "-".join("any" if v is None else str(v) for v in key)


def report_csv(report: BenchmarkReport) -> str:
    """Per-setting aggregate rows; the schema tag is the first header field."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        [
            SCHEMA_TAG,
            "size",
            "class",
            "tw",
            "instances",
            "avg_fprime",
            "fprime_over",
            "avg_gap_pct",
            "gap_over",
            "avg_time_s",
            "time_over",
            "opt",
            "time_limit",
            "no_solution",
            "infeasible",
            "error",
        ]
    )
    for key, agg in report.settings.items():
        size, klass, tw = key
        writer.writerow(
            [
                _setting_label(key),
                size if size is not None else "",
                klass if klass is not None else "",
                tw if tw is not None else "",
                agg.n_instances,
                _csv_num(agg.avg_net),
                agg.net_count,
                _csv_num(agg.avg_gap_pct),
                agg.gap_count,
                _csv_num(agg.avg_time_s),
                agg.time_count,
                agg.n_opt,
                agg.n_time_limit,
                agg.n_no_solution,
                agg.n_infeasible,
                agg.n_error,
            ]
        )
    return buf.getvalue()


def _csv_num(value) -> str:
    return "" if value is None else repr(float(value))


def report_json(report: BenchmarkReport) -> dict:
    return {
        "schema": SCHEMA_TAG,
        "fingerprint": report.fingerprint,
        "settings": [
            {"size": key[0], "class": key[1], "tw": key[2], **dataclasses.asdict(agg)}
            for key, agg in report.settings.items()
        ],
        "records": [
            {
                "label": r.label,
                "setting": list(r.setting.as_tuple()) if r.setting else None,
                "status": r.status,
                "F": r.total,
                "F_prime": r.net,
                "gap_pct": r.gap_pct,
                "wall_s": r.wall_s,
                "build_s": r.build_s,
                "nodes": r.nodes,
                "message": r.message,
            }
            for r in report.records
        ],
    }


def write_report(report: BenchmarkReport, out_dir):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.csv").write_text(report_csv(report))
    (out / "report.json").write_text(json.dumps(report_json(report), indent=2))


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

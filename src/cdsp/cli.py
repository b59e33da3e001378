"""Command-line interface: solve, suite, emit and oracle subcommands."""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import shlex
import sys
from pathlib import Path

from .formulation import FileSolverAdapter, SolveLimits, SolveStatus, build_model, write_model
from .formulation.solvers import SOLUTION_PARSERS, ScipyMilpAdapter, SolverConfigError
from .formulation.writers import MODEL_FORMATS
from .harness import (
    OBJECTIVE_MATCH_TOL,
    config_fingerprint,
    f_prime,
    load_instance,
    load_manifest,
    report_table,
    run_instance,
    run_suite,
)
from .instances import InstanceConfig
from .network import InfeasibleWindowError, build_multigraph, preprocess_time_windows
from .oracle import DEFAULT_LIMIT, OracleResult, OracleSizeError, exact_solve_tiny
from .routes import solution_to_json


def _flag_type(expected: str, parse, words=None, ok=None):
    """An argparse ``type=`` taking one of ``words`` (mapped) or a value that
    ``parse`` makes and ``ok`` accepts; else a usage error naming the flag
    (exit status 2)."""

    def convert(text: str):
        if words and text in words:
            return words[text]
        with contextlib.suppress(ValueError):
            value = parse(text)
            if ok is None or ok(value):
                return value
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")

    return convert


_FLEET = _flag_type("an integer, 'file' or 'auto'", int, {"auto": "size-class", "file": "file"})
_SHIFT_CAP = _flag_type("a number or 'depot-deadline'", float, {"depot-deadline": "depot-deadline"})
_ROUNDING = _flag_type("'none' or an integer >= 0", int, {"none": None}, lambda v: v >= 0)
_SECONDS = _flag_type("a number of seconds > 0", float, ok=lambda v: v > 0)
_COUNT = _flag_type("an integer >= 1", int, ok=lambda v: v >= 1)
_COMMAND = _flag_type(
    "a command of one or more words", lambda text: tuple(shlex.split(text)), ok=bool
)


def _solver_command(text: str) -> tuple[str, ...]:
    """--solver-cmd's words, which FileSolverAdapter must accept."""
    command = _COMMAND(text)
    try:
        FileSolverAdapter(command)
    except SolverConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return command


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdsp",
        description="Exact multi-trip specimen-collection routing toolkit",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance_flags(p):
        p.add_argument(
            "--fleet",
            type=_FLEET,
            default="auto",
            help="vehicle count: explicit integer, 'file' (Solomon header) or "
            "'auto' (size-class rule 25/50/100 -> 10/15/25, header otherwise)",
        )
        p.add_argument(
            "--shift-cap",
            type=_SHIFT_CAP,
            default="depot-deadline",
            help="per-vehicle shift cap: number or 'depot-deadline'",
        )
        p.add_argument(
            "--service-mode",
            choices=["ignore", "fold"],
            default="ignore",
            help="fold service times into outgoing arcs, or ignore them",
        )
        p.add_argument(
            "--rounding",
            type=_ROUNDING,
            default="none",
            help="distance rounding: 'none' or a number of decimals",
        )

    def add_solver_flags(p):
        p.add_argument(
            "--time-limit",
            type=_SECONDS,
            default=SolveLimits.time_limit_s,
            help="seconds per instance",
        )
        p.add_argument(
            "--solver-cmd",
            type=_solver_command,
            default=None,
            help="external solver command template with {model} {solution} "
            "{time_limit} placeholders (bundled HiGHS if omitted)",
        )
        p.add_argument("--solver-format", choices=MODEL_FORMATS, default="lp")
        p.add_argument("--solution-format", choices=list(SOLUTION_PARSERS), default="plain")
        p.add_argument("--fprime-raw-release", action="store_true")
        p.add_argument("--out", default=None, help="output directory")

    p_solve = sub.add_parser("solve", help="solve one instance file", allow_abbrev=False)
    p_solve.add_argument("instance")
    add_instance_flags(p_solve)
    add_solver_flags(p_solve)
    p_solve.add_argument(
        "--oracle",
        action="store_true",
        help=f"cross-check the optimum against the exhaustive oracle (n <= {DEFAULT_LIMIT})",
    )

    p_suite = sub.add_parser("suite", help="run a benchmark manifest", allow_abbrev=False)
    p_suite.add_argument("manifest")
    add_instance_flags(p_suite)
    add_solver_flags(p_suite)
    p_suite.add_argument(
        "--workers", type=_COUNT, default=1, help="entries solved at once, each in its own process"
    )

    p_emit = sub.add_parser(
        "emit", help="write the model file for an instance", allow_abbrev=False
    )
    p_emit.add_argument("instance")
    p_emit.add_argument("--format", choices=MODEL_FORMATS, required=True)
    p_emit.add_argument(
        "--explicit-rows",
        action="store_true",
        help="emit window/carry-start/shift-cap clauses as rows instead of bounds",
    )
    add_instance_flags(p_emit)
    p_emit.add_argument("--out", default=None, help="output directory (stdout if omitted)")

    p_oracle = sub.add_parser(
        "oracle", help="exhaustive exact solve (tiny instances)", allow_abbrev=False
    )
    p_oracle.add_argument("instance")
    add_instance_flags(p_oracle)
    p_oracle.add_argument("--limit", type=int, default=DEFAULT_LIMIT, help="max points of care")

    return parser


def _instance_config(args) -> InstanceConfig:
    return InstanceConfig(
        fleet_size=args.fleet,
        shift_cap=args.shift_cap,
        service_mode=args.service_mode,
        rounding=args.rounding,
    )


def _adapter(args):
    """The external-solver adapter for --solver-cmd, else the bundled HiGHS."""
    if args.solver_cmd is None:
        return ScipyMilpAdapter()
    return FileSolverAdapter(
        command=args.solver_cmd,
        model_format=args.solver_format,
        solution_format=args.solution_format,
    )


def _limits(args) -> SolveLimits:
    return SolveLimits(time_limit_s=args.time_limit)


def _load_instance(args):
    """The instance file as configured; a file that `load_instance` fails on
    ends the command with one ``cdsp: <path>: <reason>`` line on stderr and
    exit status 1."""
    try:
        return load_instance(args.instance, _instance_config(args))
    except (OSError, ValueError) as exc:
        raise _failure(args.instance, exc) from None


def _printable(text: str) -> str:
    """text with each non-printable character escaped as in repr (NUL: \\x00)."""
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in text)


def _failure(path, exc: Exception) -> SystemExit:
    """Exit status 1 with one ``cdsp: <path>: <reason>`` line on stderr."""
    reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
    return SystemExit(f"cdsp: {path}: {reason}")


def main(argv=None) -> int:
    with contextlib.suppress(AttributeError):  # stdout escapes what it cannot encode, as stderr
        sys.stdout.reconfigure(errors="backslashreplace")
    args = build_parser().parse_args(argv)
    if getattr(args, "out", None):
        try:
            Path(args.out).mkdir(parents=True, exist_ok=True)
        except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
            raise _failure(args.out, exc) from None

    if args.command == "solve":
        record = run_instance(
            args.instance,
            _instance_config(args),
            _limits(args),
            adapter=_adapter(args),
            raw_release=args.fprime_raw_release,
            out_dir=args.out,
        )
        print(f"{record.label}: {record.status}")
        if record.net is not None:
            print(f"  F  = {record.total:.6f}")
            print(f"  F' = {record.net:.6f}")
        if record.gap_pct is not None:
            print(f"  gap = {record.gap_pct:.4f} %")
        if record.wall_s is not None:
            print(f"  T = {record.wall_s:.2f} s (model build {record.build_s:.2f} s)")
        if record.nodes is not None:
            print(f"  nodes = {record.nodes}")
        if record.message:
            print(f"  note: {record.message}")
        checked = record.status in (SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE)
        if args.oracle and not checked:
            print(f"  oracle check skipped: solver status {record.status}")
        elif args.oracle:
            inst = _load_instance(args)
            try:
                result = exact_solve_tiny(inst)
            except OracleSizeError as exc:
                print(f"  oracle check skipped: {exc}")
                return 0
            except InfeasibleWindowError:
                # an empty tightened window: no solution at all
                result = OracleResult(solution=None, best_total=math.inf, candidates=0)
            if record.status is SolveStatus.OPTIMAL:
                if abs(result.best_total - record.total) > OBJECTIVE_MATCH_TOL:
                    print(
                        f"  oracle check FAILED: oracle F = {result.best_total!r} "
                        f"!= solver F = {record.total!r}"
                    )
                    return 1
                print(f"  oracle check: OK (F = {result.best_total:.6f})")
            elif result.solution is not None:
                print("  oracle check FAILED: oracle found a feasible solution")
                return 1
            else:
                print("  oracle check: OK (infeasible)")
        return 0 if record.status is not SolveStatus.ERROR else 1

    if args.command == "suite":
        try:
            entries = load_manifest(args.manifest)
        except (OSError, ValueError) as exc:
            raise _failure(args.manifest, exc) from None
        report = run_suite(
            entries,
            _instance_config(args),
            _limits(args),
            adapter=_adapter(args),
            workers=args.workers,
            raw_release=args.fprime_raw_release,
            out_dir=args.out,
        )
        print(report_table(report), end="")
        for record in report.records:
            if record.status is SolveStatus.ERROR:
                print(f"{_printable(record.label)}: error ({_printable(record.message)})")
        for key, value in report.fingerprint.items():
            print(f"# {key}: {value}")
        if args.out:
            print(f"# report written to {args.out}")
        return 1 if report.has_errors else 0

    if args.command == "emit":
        inst = _load_instance(args)
        try:
            graph = build_multigraph(inst)
        except InfeasibleWindowError as exc:
            raise _failure(args.instance, exc) from None
        model = build_model(graph, inst, explicit_bounds=args.explicit_rows)
        if args.out:
            target = Path(args.out) / f"{inst.label}.{args.format}"
            with open(target, "w", encoding="utf-8", newline="") as file:
                write_model(model, args.format, file)
            print(f"wrote {target}")
        else:
            write_model(model, args.format, sys.stdout)
        return 0

    if args.command == "oracle":
        inst = _load_instance(args)
        try:
            result = exact_solve_tiny(inst, limit=args.limit)
        except OracleSizeError as exc:
            raise _failure(args.instance, exc) from None
        except InfeasibleWindowError as exc:
            print(f"{inst.label}: infeasible ({exc})")
            return 0
        if result.solution is None:
            print(f"{inst.label}: infeasible ({result.candidates} candidates)")
            return 0
        sol = result.solution
        net = f_prime(sol.total_completion, inst, preprocess_time_windows(inst), raw_release=False)
        print(f"{inst.label}: optimal over {result.candidates} candidates")
        print(f"  F  = {sol.total_completion:.6f}")
        print(f"  F' = {net:.6f}")
        cfg = _instance_config(args)
        fingerprint = config_fingerprint(cfg, None, "oracle", raw_release=False)
        print(json.dumps(solution_to_json(sol, net, fingerprint), indent=2))
        return 0

    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())

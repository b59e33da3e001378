"""cdsp benchmark: one seeded workload (or all three), end to end or traced.

    python3 perfbench/run.py --workload solve-small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Generates the workload's Solomon files from the seed, times set-up in
fresh processes, runs the workload in a fresh process (journeys.py), checks
every output against the gates and the values recorded in reference.json,
and prints a table of every metric with its unit. The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}; with
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from a traced run. NOTES.md explains the workloads, the
metrics and the first baseline.
"""

from __future__ import annotations

import argparse
import bisect
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-up is timed in this many fresh processes (the workload's own included).
SETUP_PROCESSES = 5
#: A run must end within 180 s; the workload process gets the rest.
CHILD_TIMEOUT_S = 150
#: Every time in the result line is scaled to a host on which one
#: calibration chunk (journeys.HostClock) takes this long (NOTES.md, "Why
#: times are scaled"). The chunk's median on the 2-core box of the first
#: baseline drifted between 1.6 and 2.8 ms with the host's speed.
REF_CHUNK_S = 0.0018
#: An operation is scaled by the mean time, less the slowest and fastest
#: tenth, of the chunks that ran during it or within this many seconds of
#: it: the three after the operation before it, those its sampling ran, and
#: the three after it.
NEAR_S = 0.1

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ipm": "1/min",
    "journey_s.p50": "s",
    "journey_s.tail": "s",
    "handoff_s.p50": "s",
    "emit_s.p50": "s",
    "peak_rss_mb": "MB",
}
# Printed, not in the result line: the unscaled wall times (NOTES.md).
PRINTED_UNITS = {
    "wall.setup_s": "s",
    "wall.throughput_ipm": "1/min",
    "wall.journey_s.p50": "s",
    "wall.journey_s.tail": "s",
}
PER_LAYER_UNITS = {
    "instances.parse_s": "s",
    "network.graph_s": "s",
    "network.arcs": "count",
    "formulation.model.build_s": "s",
    "formulation.model.rows": "count",
    "formulation.model.cols": "count",
    "formulation.model.nnz": "count",
    "formulation.model.alloc_peak_mb": "MB",
    "formulation.solvers.arrays_s": "s",
    "formulation.solvers.highs_s": "s",
    "formulation.solvers.highs_nodes": "count",
    "formulation.solvers.optimal_ratio": "ratio",
    "formulation.solvers.stray_stdout_lines": "count",
    "formulation.writers.lp_s": "s",
    "formulation.writers.mps_s": "s",
    "formulation.writers.bytes": "bytes",
    "formulation.decode.extract_s": "s",
    "routes.validate_s": "s",
    "routes.schedule_calls": "count",
    "routes.schedule_s": "s",
    "routes.lp_fallback_ratio": "ratio",
    "oracle.solve_s": "s",
    "oracle.candidates": "count",
    "oracle.feasible_ratio": "ratio",
    "harness.run_instance_s": "s",
    "harness.run_instance_self_s": "s",
    "trace.overhead_frac": "ratio",
}
# Which layers should dominate each workload's traced self time (NOTES.md).
DOMINANT = {
    "solve-small": ("highs",),
    "emit-large": ("formulation.model", "formulation.writers"),
    "oracle-tiny": ("oracle", "routes"),
}


class BenchmarkError(RuntimeError):
    pass


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the highest percentile with at
    least ten samples beyond it. Below 100 samples that percentile is under
    p90, and at 20 or fewer at or under the median, so the maximum (p100) is
    reported instead."""
    xs = sorted(samples)
    if len(xs) < 100:
        return xs[-1], 100.0, len(xs)
    rank = len(xs) - 10
    return xs[rank - 1], 100.0 * rank / len(xs), len(xs)


def _child(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, str(HERE / "journeys.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"workload process failed:\n{proc.stderr.strip()}")
    return proc


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Raw results of one workload: the workload process's record plus the
    set-up times of the extra fresh processes."""
    references = json.loads((HERE / "reference.json").read_text())["cases"]
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as tmp:
        work = Path(tmp)
        cases = [corpus.write_case(work, *triple) for triple in corpus.pick(workload, seed)]
        warmup = corpus.write_case(work, *corpus.WARMUP)
        missing = [c.key for c in [*cases, warmup] if c.key not in references]
        if missing:
            raise BenchmarkError(f"no recorded reference for {missing}")

        def entry(case: corpus.Case) -> dict:
            return {
                "key": case.key,
                "path": str(case.path),
                "n": case.n,
                "fleet": case.fleet,
                "shift_cap": case.shift_cap,
            }

        manifest = work / "manifest.json"
        manifest.write_text(
            json.dumps(
                {
                    "workload": workload,
                    "cases": [entry(c) for c in cases],
                    "warmup": entry(warmup),
                    "references": {c.key: references[c.key] for c in [*cases, warmup]},
                }
            )
        )
        setups = []
        for _ in range(SETUP_PROCESSES - 1):
            proc = _child(["--setup-only"], timeout=60)
            setups.append(json.loads(proc.stdout.splitlines()[-1]))
        out = work / "result.json"
        spans = HERE / "out" / f"spans-{workload}.json"
        passes = max(1, round(seconds / corpus.PASS_S[workload]))
        cmd = ["--manifest", str(manifest), "--passes", str(passes), "--out", str(out)]
        cmd += ["--trace", str(int(trace))] + (["--spans", str(spans)] if trace else [])
        proc = _child(cmd, timeout=CHILD_TIMEOUT_S)
        result = json.loads(out.read_text())
    own = {"setup_s": result["setup_s"], "cal_s": result["setup_cal_s"]}
    result["setup_samples"] = [own, *setups]
    # lines the workload process left on its stdout outside the trapped calls
    result["stray_lines"] += len(proc.stdout.splitlines())
    return result


def end_to_end(result: dict) -> tuple[dict, list[str]]:
    """End-to-end metrics and the table lines that describe them."""
    journeys = result["journeys"]
    ok = [j for j in journeys if "problem" not in j]
    if not ok:
        raise BenchmarkError("every journey failed")
    # handoff and emit at the workload's most common size: a median over two
    # sizes would sit at the edge of one size's cluster
    sizes = [j["n"] for j in journeys]
    common = max(set(sizes), key=sizes.count)
    emits = [
        j
        for j in [*journeys, *result["probes"]]
        if "emit_s" in j and "problem" not in j and j["n"] == common
    ]
    setups = result["setup_samples"]

    chunks = result["chunks"]
    starts = [start for start, _ in chunks]

    def scaled(op: dict, key: str) -> float:
        if "span" not in op:  # a set-up sample, with its own calibration
            return op[key] * REF_CHUNK_S / op["cal_s"]
        start, end = op["span"]
        lo = bisect.bisect_left(starts, start - NEAR_S)
        hi = bisect.bisect_right(starts, end + NEAR_S)
        near = sorted(e - s for s, e in chunks[lo:hi])
        cut = len(near) // 10
        return op[key] * REF_CHUNK_S / statistics.fmean(near[cut : len(near) - cut])

    def timings(scale) -> dict:
        journey_s = [scale(j, "journey_s") for j in ok]
        # failed journeys count in the time spent, not in the journeys done
        spent = [scale(j, "journey_s") for j in journeys if "journey_s" in j]
        return {
            "setup_s": statistics.median(scale(s, "setup_s") for s in setups),
            "throughput_ipm": 60.0 * len(ok) / sum(spent),
            "journey_s.p50": statistics.median(journey_s),
            "journey_s.tail": tail(journey_s)[0],
        }

    tail_pct, count = tail([j["journey_s"] for j in ok])[1:]
    metrics = {
        **timings(scaled),
        "handoff_s.p50": statistics.median(scaled(j, "handoff_s") for j in emits),
        "emit_s.p50": statistics.median(scaled(j, "emit_s") for j in emits),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    metrics.update(
        {f"wall.{name}": value for name, value in timings(lambda op, key: op[key]).items()}
    )
    cal_ms = [1000 * (end - start) for start, end in chunks]
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes",
        "throughput_ipm": f"{len(ok)} of {len(journeys)} journeys passed",
        "journey_s.p50": f"{len(ok)} journeys",
        "journey_s.tail": f"p{tail_pct:.1f} of {count} journeys",
        "handoff_s.p50": f"{len(emits)} handoffs at n = {common}",
        "emit_s.p50": f"{len(emits)} emits at n = {common}",
    }
    notes.update({name: "unscaled (printed only)" for name in metrics if name.startswith("wall.")})
    units = {**END_TO_END_UNITS, **PRINTED_UNITS}
    lines = [
        f"  {name:<20} {value:>14.6f} {units[name]:<6} {notes.get(name, '')}"
        for name, value in metrics.items()
    ]
    lines.append(
        f"  times scaled to a {1000 * REF_CHUNK_S:.2f} ms calibration chunk; {len(cal_ms)} chunks"
        f" took {min(cal_ms):.2f}-{max(cal_ms):.2f} ms, median {statistics.median(cal_ms):.2f}"
    )
    return metrics, lines


def per_layer(result: dict, workload: str) -> tuple[dict, list[str]]:
    trace = result["trace"]
    metrics = trace["metrics"]
    lines = [
        f"  {name:<40} {metrics[name]:>16.6f} {unit}" for name, unit in PER_LAYER_UNITS.items()
    ]
    lines.append("  self-time share of traced wall time:")
    lines += [f"    {layer:<22} {share:7.1%}" for layer, share in trace["shares"].items()]
    share = sum(trace["shares"].get(layer, 0.0) for layer in DOMINANT[workload])
    top = next(iter(trace["shares"]))
    verdict = "as described" if share >= 0.5 and top in DOMINANT[workload] else "NOT as described"
    lines.append(f"  dominance: {' + '.join(DOMINANT[workload])} = {share:.1%} ({verdict})")
    overhead = metrics["trace.overhead_frac"]
    lines.append(f"  tracing overhead: {overhead:+.1%} of untraced journey time")
    return metrics, lines


def report(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    result = run_workload(workload, seed, seconds, trace)
    operations = [*result["journeys"], *result["probes"]]
    failed = [op for op in operations if "problem" in op]
    if trace:
        metrics, lines = per_layer(result, workload)
        units = PER_LAYER_UNITS
    else:
        metrics, lines = end_to_end(result)
        units = END_TO_END_UNITS
    print(f"workload {workload}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    print("\n".join(lines))
    print(
        f"  failed_frac {len(failed) / len(operations):.6f} "
        f"({len(failed)} of {len(operations)} operations)"
        f"  stray stdout lines {result['stray_lines']}"
    )
    for op in failed:
        print(f"  FAILED {op['key']}: {op['problem']}")
    return {
        "correct": not failed,
        "attempted": len(operations),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*corpus.RECIPES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cdsp" / "__init__.py").is_file():
        print(f"error: no cdsp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workloads = list(corpus.RECIPES) if args.workload == "all" else [args.workload]
    try:
        results = {w: report(w, args.seed, args.seconds, bool(args.trace)) for w in workloads}
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{name}": value
                for w, r in results.items()
                for name, value in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

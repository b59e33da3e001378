"""One workload in one fresh process: set up, warm up, measure, check.

Started by run.py, never imported by it, so that the set-up time and the
peak resident memory it reports belong to this workload alone. Only the
standard library is imported before the set-up clock starts.

    python3 perfbench/journeys.py --setup-only
    python3 perfbench/journeys.py --manifest M --passes P --trace 0|1 --out R [--spans F]
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import json
import os
import resource
import signal
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Per-solve cap; a solve that hits it fails its instance instead of hanging.
TIME_LIMIT_S = 30.0
#: The oracle check of `cdsp solve --oracle`.
ORACLE_TOL = 1e-6
#: Headroom over the F recorded at the defining commit. One-sided: a
#: validated F bounds the optimum from above, so a lower F is reported, not
#: failed.
F_REL_TOL = 1e-6
#: Emit journeys run after each journey of a workload whose journey does not
#: emit, for its handoff and emit times.
PROBE_REPEATS = 3


#: While an operation runs, a calibration chunk is timed this often.
SAMPLE_EVERY_S = 0.1


class HostClock:
    """Times a fixed calibration chunk, about 2 ms of the kinds of work the
    journeys do (a pure-Python loop, a numpy sort, a dict build), to follow
    the host's speed.

    The host's speed drifts by up to a third in spells of under a second to
    minutes (NOTES.md). Three chunks run after every operation, and while
    one runs under `sampling`, a SIGALRM handler runs one chunk every
    SAMPLE_EVERY_S (Python runs the handler between bytecodes, so a long
    call into compiled code delays it to the call's end). run.py scales
    each operation's time by the reference chunk time over the mean chunk
    time around and during it. `elapsed` leaves the handler's chunks out of
    the operation's time. A chunk allocates nothing the cyclic garbage
    collector tracks, so it triggers no collection.
    """

    def __init__(self):
        #: [start, end] of every chunk, in the order they ran
        self.chunks: list[list[float]] = []
        self._values = None

    def chunk(self):
        import numpy as np

        if self._values is None:
            self._values = np.random.default_rng(0).random(35_000)
        start = time.perf_counter()
        total = 0
        for i in range(17_500):
            total += i * i % 7
        np.sort(self._values)
        table = {i: i * 0.5 for i in range(5_000)}
        del table
        self.chunks.append([start, time.perf_counter()])

    def calibrate(self) -> float:
        """Median of three chunks, run from an empty young GC generation."""
        gc.collect()
        for _ in range(3):
            self.chunk()
        return sorted(end - start for start, end in self.chunks[-3:])[1]

    @contextlib.contextmanager
    def sampling(self):
        signal.signal(signal.SIGALRM, lambda signum, frame: self.chunk())
        signal.siginterrupt(signal.SIGALRM, False)  # restart interrupted system calls
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)

    def elapsed(self, start: float, end: float) -> float:
        """end - start, less the chunks that ran in between."""
        busy = 0.0
        for chunk_start, chunk_end in reversed(self.chunks):
            if chunk_end <= start:
                break
            busy += max(0.0, min(chunk_end, end) - max(chunk_start, start))
        return end - start - busy


CLOCK = HostClock()


def set_up() -> float:
    """Import the program and scipy and make a first trivial milp call."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from scipy.optimize import Bounds, milp

    import cdsp  # noqa: F401

    milp(np.ones(1), integrality=np.ones(1), bounds=Bounds(0, 1))
    return time.perf_counter() - start


def config(case: dict):
    from cdsp.instances import InstanceConfig

    return InstanceConfig(fleet_size=case["fleet"], shift_cap=case["shift_cap"])


def limits():
    from cdsp.formulation.solvers import SolveLimits

    return SolveLimits(time_limit_s=TIME_LIMIT_S)


# Journeys call each stage through the attribute of the module that defines
# it, so that the tracer's wrappers see the call.


def solve_journey(case: dict, ref: dict) -> dict:
    """`cdsp solve`: parse -> graph -> model -> HiGHS -> decode -> validate."""
    from cdsp import harness

    start = time.perf_counter()
    record = harness.run_instance(case["path"], config(case), limits())
    out = {"journey_s": CLOCK.elapsed(start, time.perf_counter()), "F": record.total}
    if record.status != "optimal":
        out["problem"] = f"status {record.status}: {record.message}"
    elif record.total > ref["F"] + F_REL_TOL * max(1.0, abs(ref["F"])):
        out["problem"] = f"F {record.total!r} above the recorded {ref['F']!r}"
    return out


def oracle_journey(case: dict, ref: dict) -> dict:
    """`cdsp solve --oracle`: the solve journey, then the exhaustive oracle."""
    from cdsp import harness, instances, oracle

    start = time.perf_counter()
    cfg = config(case)
    record = harness.run_instance(case["path"], cfg, limits())
    path = Path(case["path"])
    inst = instances.build_instance(
        instances.parse_solomon(path.read_text()), cfg, label=path.stem
    )
    result = oracle.exact_solve_tiny(inst)
    out = {"journey_s": CLOCK.elapsed(start, time.perf_counter()), "F": record.total}
    if record.status != "optimal":
        out["problem"] = f"status {record.status}: {record.message}"
    elif abs(result.best_total - record.total) > ORACLE_TOL:
        out["problem"] = f"MIP F {record.total!r} != oracle F {result.best_total!r}"
    return out


def emit_journey(case: dict, ref: dict) -> dict:
    """`cdsp emit` in both formats, plus the solver handoff (file -> arrays)."""
    from cdsp import instances, network
    from cdsp.formulation import model as model_module
    from cdsp.formulation import solvers, writers

    start = time.perf_counter()
    path = Path(case["path"])
    inst = instances.build_instance(
        instances.parse_solomon(path.read_text()), config(case), label=path.stem
    )
    graph = network.build_multigraph(inst)
    model = model_module.build_model(graph, inst)
    built = time.perf_counter()
    lp = writers.emit_model(model, "lp")
    mps = writers.emit_model(model, "mps")
    emitted = time.perf_counter()
    matrix = solvers.model_to_arrays(model)[1]
    handed = time.perf_counter()
    del model
    got = {
        "lp_sha256": hashlib.sha256(lp.encode()).hexdigest(),
        "mps_sha256": hashlib.sha256(mps.encode()).hexdigest(),
        "rows": matrix.shape[0],
        "cols": matrix.shape[1],
        "nnz": int(matrix.nnz),
    }
    out = {
        "journey_s": CLOCK.elapsed(start, handed),
        "emit_s": CLOCK.elapsed(start, emitted),
        "handoff_s": CLOCK.elapsed(start, built) + CLOCK.elapsed(emitted, handed),
        "facts": got,
    }
    wrong = [f"{k} {got[k]} != recorded {ref[k]}" for k in got if ref and got[k] != ref[k]]
    if wrong:
        out["problem"] = "; ".join(wrong)
    return out


JOURNEYS = {
    "solve-small": solve_journey,
    "emit-large": emit_journey,
    "oracle-tiny": oracle_journey,
}


class StdoutTrap:
    """Points file descriptor 1 at a scratch file while the program runs.

    HiGHS can print to the C-level stdout
    (`HighsMipSolverData::transformNewIntegerFeasibleSolution ...`); the
    benchmark's own result is the last line of run.py's stdout, so those
    lines are caught here and counted instead.
    """

    def __init__(self, directory: Path):
        self._file = tempfile.TemporaryFile(dir=directory)
        self._libc = ctypes.CDLL(None)
        self.lines = 0

    @contextlib.contextmanager
    def active(self):
        sys.stdout.flush()
        self._libc.fflush(None)
        saved = os.dup(1)
        os.dup2(self._file.fileno(), 1)
        try:
            yield
        finally:
            self._libc.fflush(None)
            os.dup2(saved, 1)
            os.close(saved)

    def drain(self) -> int:
        """Lines caught since the last drain."""
        self._file.seek(0)
        data = self._file.read()
        self._file.seek(0)
        self._file.truncate()
        count = len(data.splitlines())
        self.lines += count
        return count


def failure_types() -> tuple:
    """Per-instance failures a run records and survives."""
    from cdsp.formulation import ModelDecodeError
    from cdsp.harness import IncumbentValidationError
    from cdsp.instances import InstanceError, SolomonParseError
    from cdsp.network import InfeasibleWindowError
    from cdsp.oracle import OracleSizeError
    from cdsp.routes import InfeasibleTourError

    return (
        IncumbentValidationError,
        ModelDecodeError,
        SolomonParseError,
        InstanceError,
        InfeasibleWindowError,
        InfeasibleTourError,
        OracleSizeError,
    )


class Runner:
    def __init__(self, manifest: dict, trap: StdoutTrap):
        self.cases = manifest["cases"]
        self.refs = manifest["references"]
        self.journey = JOURNEYS[manifest["workload"]]
        self.trap = trap
        self.failures = failure_types()
        #: sample the host's speed during operations (untraced runs only)
        self.sampling = False
        CLOCK.calibrate()

    def run(self, journey, case: dict, root: str, tracer=None) -> dict:
        # Start every operation with empty young GC generations, as a fresh
        # process would, so that a collection the previous operation left
        # pending does not land in this one's timing.
        gc.collect()
        span = tracer.span(root, case["key"]) if tracer else contextlib.nullcontext()
        sampling = CLOCK.sampling() if self.sampling else contextlib.nullcontext()
        with self.trap.active(), span, sampling:
            start = time.perf_counter()
            try:
                out = journey(case, self.refs[case["key"]])
            except self.failures as exc:
                out = {"problem": f"{type(exc).__name__}: {exc}"}
            out["span"] = [start, time.perf_counter()]
        out["key"] = case["key"]
        out["n"] = case["n"]
        out["stray_lines"] = self.trap.drain()
        CLOCK.calibrate()
        return out

    def probe(self, case: dict, tracer=None) -> list[dict]:
        """Emit journeys on one instance of a workload whose journey does not
        emit, for its handoff and emit times. They run next to each journey,
        so that they sample the same stretch of the run."""
        if self.journey is emit_journey:
            return []
        with tracer.installed() if tracer else contextlib.nullcontext():
            return [
                self.run(emit_journey, case, "bench.probe", tracer) for _ in range(PROBE_REPEATS)
            ]

    def warm_up(self, case: dict):
        self.run(self.journey, case, "bench.journey")
        self.probe(case)
        self.trap.lines = 0

    def one_pass(self, tracer=None) -> tuple[list[dict], list[dict]]:
        """One journey per instance, each followed by its probes. With a
        tracer, each instance also runs traced, right after or right before
        its untraced journey (alternating), and its probes are traced."""
        journeys, probes = [], []
        for i, case in enumerate(self.cases):
            for traced in (False,) if tracer is None else (i % 2 == 1, i % 2 == 0):
                with tracer.installed() if traced else contextlib.nullcontext():
                    out = self.run(self.journey, case, "bench.journey", tracer if traced else None)
                journeys.append(dict(out, traced=traced))
            probes += self.probe(case, tracer)
        return journeys, probes


def alloc_peak_mb(case: dict) -> float:
    """tracemalloc peak of one build_model call (too slow for the timed runs)."""
    import tracemalloc

    from cdsp import instances, network
    from cdsp.formulation import model as model_module

    path = Path(case["path"])
    inst = instances.build_instance(instances.parse_solomon(path.read_text()), config(case))
    graph = network.build_multigraph(inst)
    tracemalloc.start()
    try:
        model_module.build_model(graph, inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--manifest", type=Path)
    parser.add_argument("--passes", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    setup_s = set_up()
    CLOCK.calibrate()  # first calls: page faults and lazy set-up of numpy's sort
    setup_cal_s = CLOCK.calibrate()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "cal_s": setup_cal_s}))
        return 0

    from tracing import Tracer, summary

    manifest = json.loads(args.manifest.read_text())
    runner = Runner(manifest, StdoutTrap(args.manifest.parent))
    runner.sampling = not args.trace
    runner.warm_up(manifest["warmup"])

    result: dict = {"setup_s": setup_s, "setup_cal_s": setup_cal_s}
    if args.trace:
        tracer = Tracer()
        journeys, probes = runner.one_pass(tracer)
        metrics, shares = summary(tracer.spans, tracer.calls)
        smallest = min(runner.cases, key=lambda c: c["n"])
        metrics["formulation.model.alloc_peak_mb"] = alloc_peak_mb(smallest)
        metrics["formulation.solvers.stray_stdout_lines"] = runner.trap.lines
        traced_s, untraced_s = (
            sum(j.get("journey_s", 0.0) for j in journeys if j["traced"] is side)
            for side in (True, False)
        )
        metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
        result["trace"] = {"metrics": metrics, "shares": shares}
        if args.spans:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            args.spans.write_text(json.dumps({"spans": tracer.spans, "calls": tracer.calls}))
    else:
        journeys, probes = [], []
        for _ in range(args.passes):
            more_journeys, more_probes = runner.one_pass()
            journeys += more_journeys
            probes += more_probes
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result.update(
        journeys=journeys, probes=probes, chunks=CLOCK.chunks, stray_lines=runner.trap.lines
    )
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

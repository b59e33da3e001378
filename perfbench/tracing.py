"""Span tracing from outside the program.

`Tracer.installed()` replaces module attributes of the program's public
functions with wrappers that record one span per call: name, start, end,
parent span and instance id (the calls of one hot function are grouped, see
GROUPED). Each name is wrapped where its caller looks it up at call time:
the harness imports its stages by name, the oracle imports `schedule_tour`
by name, and the bundled adapter and the LP fallback import
`milp`/`linprog` from `scipy.optimize` inside the call. The benchmark adds
one root span per journey. Spans stay in memory; `summary` turns them into
the per-layer metrics and the share table.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

# (module, attribute, span name); the span name's prefix before the last dot
# is the layer the share table charges the span's self time to.
TARGETS = (
    ("cdsp.harness", "run_instance", "harness.run_instance"),
    ("cdsp.harness", "parse_solomon", "instances.parse_solomon"),
    ("cdsp.harness", "build_instance", "instances.build_instance"),
    ("cdsp.harness", "build_multigraph", "network.build_multigraph"),
    ("cdsp.harness", "build_model", "formulation.model.build_model"),
    ("cdsp.harness", "solve", "formulation.solvers.solve"),
    ("cdsp.harness", "extract_solution", "formulation.decode.extract_solution"),
    ("cdsp.harness", "validate_solution", "routes.validate_solution"),
    ("cdsp.instances", "parse_solomon", "instances.parse_solomon"),
    ("cdsp.instances", "build_instance", "instances.build_instance"),
    ("cdsp.network", "preprocess_time_windows", "network.preprocess_time_windows"),
    ("cdsp.network", "build_multigraph", "network.build_multigraph"),
    ("cdsp.formulation.model", "build_model", "formulation.model.build_model"),
    ("cdsp.formulation.solvers", "model_to_arrays", "formulation.solvers.model_to_arrays"),
    ("cdsp.formulation.writers", "write_lp", "formulation.writers.write_lp"),
    ("cdsp.formulation.writers", "write_mps", "formulation.writers.write_mps"),
    ("cdsp.oracle", "preprocess_time_windows", "network.preprocess_time_windows"),
    ("cdsp.oracle", "schedule_tour", "routes.schedule_tour"),
    ("cdsp.oracle", "exact_solve_tiny", "oracle.exact_solve_tiny"),
    ("cdsp.routes", "schedule_tour", "routes.schedule_tour"),
    ("scipy.optimize", "milp", "highs.milp"),
    ("scipy.optimize", "linprog", "routes.linprog"),
)

ROOTS = ("bench.journey", "bench.probe")

# The oracle calls schedule_tour ~5e5 times per n = 7 instance, ~10 us each.
# One span per call would hold ~10^6 spans per pass, so its calls collapse
# into one group per parent span (calls, errors, summed duration). linprog
# runs only inside schedule_tour and is counted, not timed.
GROUPED = ("routes.schedule_tour",)
COUNTED = ("routes.linprog",)


def _counts(name: str, result) -> dict:
    """Work counts read off a call's result, kept on its span."""
    if name == "network.build_multigraph":
        return {"arcs": len(result.arcs)}
    if name == "formulation.model.build_model":
        return {
            "rows": len(result.constraints),
            "cols": result.num_columns,
            "nnz": sum(len(row.coeffs) for row in result.constraints),
        }
    if name == "highs.milp":
        return {"nodes": int(getattr(result, "mip_node_count", 0) or 0), "status": result.status}
    if name.startswith("formulation.writers."):
        return {"bytes": len(result)}
    if name == "oracle.exact_solve_tiny":
        return {"candidates": result.candidates}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.calls: dict[str, int] = {name: 0 for name in COUNTED}
        self.instance: str | None = None
        self._stack: list[int] = []
        self._groups: dict[tuple, dict] = {}

    def _open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "instance": self.instance,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        return span

    def _close(self, span: dict):
        span["end"] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, instance: str):
        self.instance = instance
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, name: str, fn):
        if name in COUNTED:
            return self._wrap_counted(name, fn)
        if name in GROUPED:
            return self._wrap_grouped(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                self._close(span)
            span.update(_counts(name, result))
            return result

        return traced

    def _wrap_counted(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap_grouped(self, name: str, fn):
        @functools.wraps(fn)
        def grouped(*args, **kwargs):
            failed = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                elapsed = time.perf_counter() - start
                parent = self._stack[-1] if self._stack else None
                group = self._groups.get((parent, name))
                if group is None:
                    group = self._groups[(parent, name)] = {
                        "id": len(self.spans),
                        "name": name,
                        "parent": parent,
                        "instance": self.instance,
                        "calls": 0,
                        "errors": 0,
                        "duration": 0.0,
                    }
                    self.spans.append(group)
                group["calls"] += 1
                group["errors"] += failed
                group["duration"] += elapsed

        return grouped

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for module_name, attr, name in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def _duration(span: dict) -> float:
    return span["duration"] if "duration" in span else span["end"] - span["start"]


def summary(spans: list[dict], calls: dict[str, int]) -> tuple[dict, dict]:
    """Per-layer metrics and the self-time share of each layer.

    Layer times are the summed durations of a layer's outermost spans (a
    span nested in another span of the same names counts once). Self time
    is a span's duration minus the durations of its direct children.
    """
    by_id = {s["id"]: s for s in spans}
    child_time = {s["id"]: 0.0 for s in spans}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += _duration(s)

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def outer_s(*names) -> float:
        total = 0.0
        for s in named(*names):
            parent = s["parent"]
            while parent is not None and by_id[parent]["name"] not in names:
                parent = by_id[parent]["parent"]
            if parent is None:
                total += _duration(s)
        return total

    def total(field, *names) -> int:
        return sum(s.get(field, 0) for s in named(*names))

    def ratio(part: int, whole: int) -> float:
        return part / whole if whole else 0.0

    milps = named("highs.milp")
    schedules = total("calls", "routes.schedule_tour")
    runs = named("harness.run_instance")
    metrics = {
        "instances.parse_s": outer_s("instances.parse_solomon", "instances.build_instance"),
        "network.graph_s": outer_s(
            "network.preprocess_time_windows", "network.build_multigraph"
        ),
        "network.arcs": total("arcs", "network.build_multigraph"),
        "formulation.model.build_s": outer_s("formulation.model.build_model"),
        "formulation.model.rows": total("rows", "formulation.model.build_model"),
        "formulation.model.cols": total("cols", "formulation.model.build_model"),
        "formulation.model.nnz": total("nnz", "formulation.model.build_model"),
        "formulation.solvers.arrays_s": outer_s("formulation.solvers.model_to_arrays"),
        "formulation.solvers.highs_s": outer_s("highs.milp"),
        "formulation.solvers.highs_nodes": total("nodes", "highs.milp"),
        "formulation.solvers.optimal_ratio": ratio(
            sum(s.get("status") == 0 for s in milps), len(milps)
        ),
        "formulation.writers.lp_s": outer_s("formulation.writers.write_lp"),
        "formulation.writers.mps_s": outer_s("formulation.writers.write_mps"),
        "formulation.writers.bytes": total(
            "bytes", "formulation.writers.write_lp", "formulation.writers.write_mps"
        ),
        "formulation.decode.extract_s": outer_s("formulation.decode.extract_solution"),
        "routes.validate_s": outer_s("routes.validate_solution"),
        "routes.schedule_calls": schedules,
        "routes.schedule_s": outer_s("routes.schedule_tour"),
        "routes.lp_fallback_ratio": ratio(calls["routes.linprog"], schedules),
        "oracle.solve_s": outer_s("oracle.exact_solve_tiny"),
        "oracle.candidates": total("candidates", "oracle.exact_solve_tiny"),
        "oracle.feasible_ratio": ratio(
            schedules - total("errors", "routes.schedule_tour"), schedules
        ),
        "harness.run_instance_s": sum(_duration(s) for s in runs),
        "harness.run_instance_self_s": sum(_duration(s) - child_time[s["id"]] for s in runs),
    }

    wall = sum(_duration(s) for s in spans if s["name"] in ROOTS)
    shares: dict[str, float] = {}
    for s in spans:
        layer = "benchmark" if s["name"] in ROOTS else s["name"].rsplit(".", 1)[0]
        shares[layer] = shares.get(layer, 0.0) + (_duration(s) - child_time[s["id"]]) / wall
    return metrics, dict(sorted(shares.items(), key=lambda kv: -kv[1]))

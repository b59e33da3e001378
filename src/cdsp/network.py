"""Routing multigraph: original arcs, replenishment arcs, window preprocessing.

The graph has the depot plus n points of care. Besides the original arcs
(depot-adjacent and inter-site), every ordered pair of distinct points of
care carries one replenishment arc whose traversal hides an intermediate
depot visit; its cost is the sum of the two depot legs. Time windows are
tightened at build time: a site cannot be visited before the depot leg in,
nor so late that the vehicle misses the depot deadline on the way back.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .instances import Instance


class ArcKind(enum.Enum):
    DEPOT = "depot"  # adjacent to the depot
    INTER = "inter"  # direct leg between two points of care
    REPLENISH = "replenish"  # hidden depot visit between two points of care


class InfeasibleWindowError(ValueError):
    """A tightened window is empty: the node cannot be served at all."""

    def __init__(self, node: int, release: float, deadline: float):
        super().__init__(
            f"node {node} infeasible after preprocessing: "
            f"release {release:.6g} > deadline {deadline:.6g}"
        )
        self.node = node


@dataclass(frozen=True)
class Arc:
    id: int
    source: int
    target: int
    kind: ArcKind
    cost: float

    def __post_init__(self):
        if self.cost < 0:
            raise ValueError(f"arc {self.id}: negative cost")
        if self.kind is ArcKind.DEPOT:
            if (self.source == 0) == (self.target == 0):
                raise ValueError(f"arc {self.id}: depot arc must touch the depot exactly once")
        else:
            if self.source == 0 or self.target == 0 or self.source == self.target:
                raise ValueError(
                    f"arc {self.id}: {self.kind.value} arc must join two distinct points of care"
                )


@dataclass(frozen=True)
class TimeWindows:
    """Per-node [release, deadline] arrays, index 0 = depot."""

    release: np.ndarray
    deadline: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.release, dtype=float)
        d = np.asarray(self.deadline, dtype=float)
        r.setflags(write=False)
        d.setflags(write=False)
        object.__setattr__(self, "release", r)
        object.__setattr__(self, "deadline", d)


@dataclass(frozen=True)
class Multigraph:
    """Immutable arc-indexed multigraph with preprocessed windows."""

    n: int  # points of care; node set is 0..n
    arcs: tuple[Arc, ...]
    windows: TimeWindows

    def __post_init__(self):
        out: list[list[int]] = [[] for _ in range(self.n + 1)]
        inc: list[list[int]] = [[] for _ in range(self.n + 1)]
        for arc in self.arcs:
            out[arc.source].append(arc.id)
            inc[arc.target].append(arc.id)
        object.__setattr__(self, "_out", tuple(tuple(a) for a in out))
        object.__setattr__(self, "_in", tuple(tuple(a) for a in inc))

    def out_arcs(self, node: int) -> tuple[int, ...]:
        return self._out[node]

    def in_arcs(self, node: int) -> tuple[int, ...]:
        return self._in[node]

    def arcs_of_kind(self, kind: ArcKind) -> tuple[Arc, ...]:
        return tuple(a for a in self.arcs if a.kind is kind)

    @property
    def movement_arcs(self) -> tuple[Arc, ...]:
        """Arcs between points of care (inter + replenishment), in id order."""
        return tuple(a for a in self.arcs if a.kind is not ArcKind.DEPOT)

    def cost_from_depot(self, j: int) -> float:
        """Cost of the depot leg 0 -> j (arc ids 0..n-1 by construction)."""
        return self.arcs[j - 1].cost

    def cost_to_depot(self, j: int) -> float:
        """Cost of the depot leg j -> 0 (arc ids n..2n-1 by construction)."""
        return self.arcs[self.n + j - 1].cost


def preprocess_time_windows(inst: Instance) -> TimeWindows:
    """Tighten windows: r_j to at least the depot leg in, d_j to at most the
    latest return-feasible time. Raises InfeasibleWindowError when a window
    empties.
    """
    n = inst.n
    release = np.zeros(n + 1)
    deadline = np.zeros(n + 1)
    deadline[0] = inst.depot_deadline
    for j in inst.points_of_care:
        site = inst.sites[j]
        release[j] = max(site.release, inst.travel[0, j])
        deadline[j] = min(site.deadline, inst.depot_deadline - inst.travel[j, 0])
        if release[j] > deadline[j]:
            raise InfeasibleWindowError(j, release[j], deadline[j])
    return TimeWindows(release=release, deadline=deadline)


def build_multigraph(inst: Instance, windows: TimeWindows | None = None) -> Multigraph:
    """Enumerate all arcs in deterministic order and attach tightened windows.

    Order: depot-adjacent, then inter, then replenishment, each block in
    lexicographic (source, target) order, so emitted model files are
    byte-stable across runs. Window preprocessing runs here unless tightened
    windows are supplied.
    """
    n = inst.n
    if windows is None:
        windows = preprocess_time_windows(inst)
    travel = inst.travel
    arcs: list[Arc] = []

    def add(source: int, target: int, kind: ArcKind, cost: float):
        arcs.append(Arc(id=len(arcs), source=source, target=target, kind=kind, cost=cost))

    for j in range(1, n + 1):
        add(0, j, ArcKind.DEPOT, float(travel[0, j]))
    for j in range(1, n + 1):
        add(j, 0, ArcKind.DEPOT, float(travel[j, 0]))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                add(i, j, ArcKind.INTER, float(travel[i, j]))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                add(i, j, ArcKind.REPLENISH, float(travel[i, 0] + travel[0, j]))

    assert len(arcs) == 2 * n * n
    return Multigraph(n=n, arcs=tuple(arcs), windows=windows)

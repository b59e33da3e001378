"""Routing multigraph: original arcs, replenishment arcs, window preprocessing.

The graph has the depot plus n points of care. Besides the original arcs
(depot-adjacent and inter-site), every ordered pair of distinct points of
care carries one replenishment arc whose traversal hides an intermediate
depot visit; its cost is the sum of the two depot legs. Time windows are
tightened at build time: a site cannot be visited before the depot leg in,
nor so late that the vehicle misses the depot deadline on the way back.

The 2n^2 arcs are one read-only numpy table (``ARC_DTYPE``): the arc id is
the row index, and the ``kind`` field holds ``ArcKind.code``. The costs copy
``Instance.travel``, where callers read the depot legs.
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

    @property
    def code(self) -> int:
        """This kind's value in the arc table's ``kind`` field."""
        return tuple(ArcKind).index(self)


ARC_DTYPE = np.dtype(
    [("source", np.int64), ("target", np.int64), ("kind", np.int8), ("cost", np.float64)]
)


class InfeasibleWindowError(ValueError):
    """A tightened window is empty: the node cannot be served at all."""

    def __init__(self, node: int, release: float, deadline: float):
        super().__init__(
            f"node {node} infeasible after preprocessing: "
            f"release {release:.6g} > deadline {deadline:.6g}"
        )
        self.node = node


@dataclass(frozen=True)
class TimeWindows:
    """Per-node [release, deadline] arrays, index 0 = depot; read-only
    copies of the arrays given."""

    release: np.ndarray
    deadline: np.ndarray

    def __post_init__(self):
        r = np.array(self.release, dtype=float)
        d = np.array(self.deadline, dtype=float)
        r.setflags(write=False)
        d.setflags(write=False)
        object.__setattr__(self, "release", r)
        object.__setattr__(self, "deadline", d)


@dataclass(frozen=True, eq=False)
class Multigraph:
    """Immutable multigraph: a read-only ``ARC_DTYPE`` table of 2n^2 arcs
    indexed by arc id, and the preprocessed windows."""

    n: int  # points of care; node set is 0..n
    arcs: np.ndarray
    windows: TimeWindows

    def incident_arcs(self) -> tuple[np.ndarray, np.ndarray]:
        """The ids of the arcs leaving and of those entering each point of
        care, as two (n, 2n - 1) arrays whose row j - 1 lists node j's arcs
        in ascending id order: a stable argsort of the sources (targets)
        without the n arcs of the depot."""
        return tuple(
            np.argsort(self.arcs[end], kind="stable")[self.n :].reshape(self.n, 2 * self.n - 1)
            for end in ("source", "target")
        )


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


def build_multigraph(inst: Instance) -> Multigraph:
    """Build the arc table in deterministic order and attach tightened windows.

    Order: depot-out, depot-in, inter, then replenishment, each block in
    lexicographic (source, target) order, so emitted model files are
    byte-stable across runs.
    """
    n = inst.n
    windows = preprocess_time_windows(inst)
    travel = inst.travel
    nodes = np.arange(1, n + 1)
    # ordered pairs of distinct points of care, in lexicographic order
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    i += 1
    j += 1
    depot = np.zeros(n, dtype=np.int64)
    arcs = np.empty(2 * n * n, dtype=ARC_DTYPE)
    arcs["source"] = np.concatenate((depot, nodes, i, i))
    arcs["target"] = np.concatenate((nodes, depot, j, j))
    arcs["kind"] = np.repeat(
        [ArcKind.DEPOT.code, ArcKind.INTER.code, ArcKind.REPLENISH.code],
        [2 * n, len(i), len(i)],
    )
    arcs["cost"] = np.concatenate(
        (travel[0, nodes], travel[nodes, 0], travel[i, j], travel[i, 0] + travel[0, j])
    )
    arcs.setflags(write=False)
    return Multigraph(n=n, arcs=arcs, windows=windows)

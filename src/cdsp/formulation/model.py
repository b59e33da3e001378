"""Two-index MIP over the replenishment-arc multigraph.

Variables: one binary per arc (x), one carry binary per ordered request
pair (y), and per point of care the visit time (z), elapsed-shift time
(tau) and completion time (C). The objective is the sum of completion
times. Constraint deactivation uses the tightest big-M constants derivable
from the preprocessed windows.

The model is stored as arrays only: one CSR constraint matrix, row and
column bound vectors, an integrality vector, the objective vector and a
family table giving each constraint family its row range. Row and column
names are built on access. The per-arc big-M formulas that the build
vectorizes are kept, one arc at a time, as the reference in
``tests/views.py``.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from ..instances import Instance
from ..network import ArcKind, Multigraph

SENSE_LE = "<="
SENSE_EQ = "="
SENSE_GE = ">="
SENSES = (SENSE_LE, SENSE_EQ, SENSE_GE)  # indexed by MipModel.row_senses() codes


class Row(NamedTuple):
    """Read-only view of one constraint row."""

    name: str
    coeffs: dict[int, float]  # column -> coefficient, no stored zeros
    sense: str
    rhs: float


class ColumnLayout:
    """Bijection of the variable families onto columns [0, 3n^2 + 3n).

    x over arc ids (2n^2 binaries), then y over ordered pairs including
    i = j (n^2 binaries), then z, tau, C blocks (n continuous each). The
    index methods accept numpy arrays as well as ints.
    """

    def __init__(self, n: int):
        self.n = n
        self.num_arcs = 2 * n * n
        self.num_binary = 3 * n * n
        self.num_continuous = 3 * n
        self.num_columns = self.num_binary + self.num_continuous

    def x(self, arc_id):
        return arc_id

    def y(self, i, j):
        return self.num_arcs + (i - 1) * self.n + (j - 1)

    def z(self, j):
        return self.num_binary + (j - 1)

    def tau(self, j):
        return self.num_binary + self.n + (j - 1)

    def completion(self, j):
        return self.num_binary + 2 * self.n + (j - 1)

    def names(self) -> list[str]:
        """Column names: x_<arcid>, y_<i>_<j>, z_<j>, tau_<j>, C_<j>."""
        nodes = range(1, self.n + 1)
        return (
            [f"x_{a}" for a in range(self.num_arcs)]
            + [f"y_{i}_{j}" for i in nodes for j in nodes]
            + [f"{family}_{j}" for family in ("z", "tau", "C") for j in nodes]
        )


@dataclass(frozen=True, eq=False)
class RowFamily:
    """Rows ``rows`` of the matrix, named ``<name>_<key>[_<key>]`` from ``keys``.

    Families built together interleave, so ``rows`` may be strided. A single
    named row (depot_balance, fleet_cap) has zero-width keys.
    """

    name: str
    rows: range
    keys: np.ndarray  # (len(rows), 0..2) integer name suffixes

    def names(self) -> np.ndarray:
        """Row names as an object array, built from one string per value of
        the trailing key and, for two keys, one per value of the leading key."""
        width = self.keys.shape[1]
        if not width:
            return np.full(len(self.rows), self.name, dtype=object)
        last = self.keys[:, -1]
        stem = f"{self.name}_" if width == 1 else ""
        tails = [f"{stem}{b}" for b in range(last.max(initial=0) + 1)]
        names = np.array(tails, dtype=object)[last]
        if width == 2:
            lead = self.keys[:, 0]
            heads = [f"{self.name}_{a}_" for a in range(lead.max(initial=0) + 1)]
            names = np.array(heads, dtype=object)[lead] + names
        return names


@dataclass(eq=False)
class MipModel:
    """The model's arrays and family table; names and the row view are
    derived on access."""

    n: int
    fleet_size: int
    layout: ColumnLayout
    matrix: sp.csr_matrix  # columns sorted within each row, no stored zeros
    row_lower: np.ndarray  # -inf on <= rows
    row_upper: np.ndarray  # +inf on >= rows
    col_lower: np.ndarray
    col_upper: np.ndarray
    integrality: np.ndarray  # 1 on binary columns, 0 on continuous ones
    c: np.ndarray  # objective costs; 1 on every completion column
    families: tuple[RowFamily, ...]  # in order of their first row
    metadata: dict = field(default_factory=dict)

    @property
    def num_rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_columns(self) -> int:
        return self.matrix.shape[1]

    def row_names(self) -> np.ndarray:
        """Constraint names in row order as an object array, built from the
        family table."""
        names = np.empty(self.num_rows, dtype=object)
        for fam in self.families:
            names[fam.rows.start : fam.rows.stop : fam.rows.step] = fam.names()
        return names

    def row_senses(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-row index into SENSES, and the finite right-hand side."""
        lower_open = np.isneginf(self.row_lower)
        codes = np.where(lower_open, 0, np.where(np.isposinf(self.row_upper), 2, 1))
        return codes, np.where(lower_open, self.row_upper, self.row_lower)

    @property
    def constraints(self) -> "RowView":
        return RowView(self)


class RowView:
    """The model's rows as Row views, built while iterating.

    Only the benchmark tracer and tests read it, the tracer to count rows
    and nonzeros; it goes once the tracer reads ``matrix.nnz`` instead.
    """

    def __init__(self, model: MipModel):
        self._model = model

    def __len__(self) -> int:
        return self._model.num_rows

    def __iter__(self) -> Iterator[Row]:
        model = self._model
        codes, rhs = model.row_senses()
        ptr = model.matrix.indptr.tolist()
        cols = model.matrix.indices.tolist()
        vals = model.matrix.data.tolist()
        for r, (name, code, b) in enumerate(
            zip(model.row_names().tolist(), codes.tolist(), rhs.tolist())
        ):
            lo, hi = ptr[r], ptr[r + 1]
            yield Row(name, dict(zip(cols[lo:hi], vals[lo:hi])), SENSES[code], b)


def _dense_rows(cols: list, vals: list):
    """Rows of equal width given column by column: sort each row by column,
    drop zero coefficients, return the CSR pieces (indices, data, counts).

    Callers list the columns close to sorted order, so the compare-swap
    passes mostly find nothing to swap.
    """
    cols = np.column_stack(cols).astype(np.int64, copy=False)
    vals = np.column_stack([np.broadcast_to(v, len(cols)) for v in vals]).astype(float, copy=False)
    width = cols.shape[1]
    for end in range(width - 1, 0, -1):
        for k in range(end):
            swap = cols[:, k] > cols[:, k + 1]
            if swap.any():
                for a in (cols, vals):
                    a[swap, k], a[swap, k + 1] = a[swap, k + 1], a[swap, k]
    keep = vals != 0.0
    return cols[keep], vals[keep], keep.sum(axis=1)


def _coo_rows(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, num_rows: int):
    """CSR pieces of rows given as (row, column, value) triplets."""
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order].astype(float)
    keep = vals != 0.0
    return cols[keep], vals[keep], np.bincount(rows[keep], minlength=num_rows)


class _RowBlocks:
    """Row blocks appended in matrix order, plus the family table."""

    def __init__(self):
        self.pieces: list[tuple] = []
        self.families: list[RowFamily] = []
        self.num_rows = 0

    def add(self, families, csr_pieces):
        """Append rows; ``families`` lists (name, keys, sense, rhs) with 2-D
        keys, and block row r belongs to families[r % len(families)]."""
        indices, data, counts = csr_pieces
        stride = len(families)
        lower = np.empty(len(counts))
        upper = np.empty(len(counts))
        for offset, (name, keys, sense, rhs) in enumerate(families):
            start = self.num_rows + offset
            self.families.append(
                RowFamily(name, range(start, self.num_rows + len(counts), stride), keys)
            )
            lower[offset::stride] = -math.inf if sense == SENSE_LE else rhs
            upper[offset::stride] = math.inf if sense == SENSE_GE else rhs
        self.pieces.append((indices, data, counts, lower, upper))
        self.num_rows += len(counts)

    def assemble(self, num_columns: int):
        indices, data, counts, lower, upper = (np.concatenate(p) for p in zip(*self.pieces))
        indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        matrix = sp.csr_matrix(
            (data, indices.astype(np.int64, copy=False), indptr),
            shape=(self.num_rows, num_columns),
        )
        return matrix, lower, upper, tuple(self.families)


def build_model(
    graph: Multigraph, inst: Instance, explicit_bounds: bool = False
) -> MipModel:
    """Generate the complete model for a built multigraph.

    By default the window, carry-start and shift-cap clauses become variable
    bounds/fixings (mathematically identical, smaller model); with
    explicit_bounds=True they are emitted as rows for one-to-one audits.
    Big-M constants are the tightest the preprocessed windows allow,
    computed for all arcs at once; the per-arc reference formulas that the
    tests compare them with live in ``tests/views.py``.
    """
    n = graph.n
    windows = graph.windows
    travel = inst.travel
    release, deadline = windows.release, windows.deadline
    lay = ColumnLayout(n)
    nodes = np.arange(1, n + 1)
    node_keys = nodes[:, None]
    no_keys = np.empty((1, 0), dtype=np.int64)  # for a single named row

    arcs = graph.arcs
    arc_id = np.fromiter((a.id for a in arcs), np.int64, len(arcs))
    assert np.array_equal(arc_id, np.arange(lay.num_arcs)), "arcs must come in id order"
    src = np.fromiter((a.source for a in arcs), np.int64, len(arcs))
    tgt = np.fromiter((a.target for a in arcs), np.int64, len(arcs))
    cost = np.fromiter((a.cost for a in arcs), float, len(arcs))
    is_depot = np.fromiter((a.kind is ArcKind.DEPOT for a in arcs), bool, len(arcs))
    is_inter = np.fromiter((a.kind is ArcKind.INTER for a in arcs), bool, len(arcs))

    col_lower = np.zeros(lay.num_columns)
    col_upper = np.ones(lay.num_columns)
    col_upper[lay.num_binary :] = math.inf
    if not explicit_bounds:
        col_lower[lay.y(nodes, nodes)] = 1.0
        col_lower[lay.z(nodes)] = release[1:]
        col_upper[lay.z(nodes)] = deadline[1:]
        col_lower[lay.tau(nodes)] = travel[0, 1:]
        col_upper[lay.tau(nodes)] = inst.shift_cap - travel[1:, 0]
    integrality = (np.arange(lay.num_columns) < lay.num_binary).astype(np.int64)
    c = np.zeros(lay.num_columns)
    c[lay.completion(nodes)] = 1.0

    rows = _RowBlocks()

    depot_in, depot_out = np.flatnonzero(tgt == 0), np.flatnonzero(src == 0)
    rows.add(
        [
            ("depot_balance", no_keys, SENSE_EQ, 0.0),
            ("fleet_cap", no_keys, SENSE_LE, inst.fleet_size),
        ],
        _coo_rows(
            np.repeat([0, 0, 1], [len(depot_out), len(depot_in), len(depot_out)]),
            lay.x(np.concatenate((depot_out, depot_in, depot_out))),
            np.repeat([1.0, -1.0, 1.0], [len(depot_out), len(depot_in), len(depot_out)]),
            2,
        ),
    )

    leaves, enters = np.flatnonzero(src > 0), np.flatnonzero(tgt > 0)
    rows.add(
        [("visit_out", node_keys, SENSE_EQ, 1.0), ("visit_in", node_keys, SENSE_EQ, 1.0)],
        _coo_rows(
            np.concatenate((2 * (src[leaves] - 1), 2 * (tgt[enters] - 1) + 1)),
            lay.x(np.concatenate((leaves, enters))),
            np.ones(len(leaves) + len(enters)),
            2 * n,
        ),
    )

    move = np.flatnonzero(~is_depot)
    s, t = src[move], tgt[move]
    m_visit = np.maximum(0.0, deadline[s] + cost[move] - release[t])
    rows.add(
        [("tprop", move[:, None], SENSE_LE, m_visit - cost[move])],
        _dense_rows([lay.x(move), lay.z(s), lay.z(t)], [m_visit, 1.0, -1.0]),
    )

    if explicit_bounds:
        rows.add(
            [
                ("window_lo", node_keys, SENSE_GE, release[1:]),
                ("window_hi", node_keys, SENSE_LE, deadline[1:]),
            ],
            _dense_rows([np.repeat(lay.z(nodes), 2)], [1.0]),
        )
        rows.add(
            [("collect", node_keys, SENSE_EQ, 1.0)], _dense_rows([lay.y(nodes, nodes)], [1.0])
        )

    inter = np.repeat(np.flatnonzero(is_inter), n)
    carried = np.tile(nodes, np.count_nonzero(is_inter))
    keep = carried != tgt[inter]
    inter, carried = inter[keep], carried[keep]
    rows.add(
        [("carry", np.column_stack((inter, carried)), SENSE_LE, 1.0)],
        _dense_rows(
            [lay.x(inter), lay.y(src[inter], carried), lay.y(tgt[inter], carried)],
            [1.0, 1.0, -1.0],
        ),
    )

    carrier, carried = np.repeat(nodes, n), np.tile(nodes, n)
    m_completion = deadline[carrier] + travel[carrier, 0]
    completion_rhs = m_completion - travel[carrier, 0]
    rows.add(
        [("compl", np.column_stack((carrier, carried)), SENSE_LE, completion_rhs)],
        _dense_rows(
            [lay.y(carrier, carried), lay.z(carrier), lay.completion(carried)],
            [m_completion, 1.0, -1.0],
        ),
    )

    if explicit_bounds:
        rows.add(
            [("shift_lo", node_keys, SENSE_GE, travel[0, 1:])],
            _dense_rows([lay.tau(nodes)], [1.0]),
        )

    m_shift = deadline[t] - travel[0, t]
    rows.add(
        [("sprop", move[:, None], SENSE_LE, m_shift)],
        _dense_rows(
            [lay.x(move), lay.z(s), lay.z(t), lay.tau(s), lay.tau(t)],
            [m_shift, -1.0, 1.0, 1.0, -1.0],
        ),
    )

    if explicit_bounds:
        rows.add(
            [("shift_cap", node_keys, SENSE_LE, inst.shift_cap - travel[1:, 0])],
            _dense_rows([lay.tau(nodes)], [1.0]),
        )

    matrix, row_lower, row_upper, families = rows.assemble(lay.num_columns)
    return MipModel(
        n=n,
        fleet_size=inst.fleet_size,
        layout=lay,
        matrix=matrix,
        row_lower=row_lower,
        row_upper=row_upper,
        col_lower=col_lower,
        col_upper=col_upper,
        integrality=integrality,
        c=c,
        families=families,
        metadata={
            "label": inst.label,
            "n": n,
            "fleet_size": inst.fleet_size,
            "explicit_bounds": explicit_bounds,
        },
    )

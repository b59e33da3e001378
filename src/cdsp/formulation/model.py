"""Two-index MIP over the replenishment-arc multigraph.

Variables: one binary per arc (x), one carry binary per ordered request
pair (y), and per point of care the visit time (z), elapsed-shift time
(tau) and completion time (C). The objective is the sum of completion
times. Constraint deactivation uses the tightest big-M constants derivable
from the preprocessed windows.

The model is stored as arrays only: one CSR constraint matrix, row and
column bound vectors, an integrality vector, the objective vector and a
family table giving each constraint family its row range. Each family (or
pair of interleaved families) is built as (row, column, value) triplets in
family order; one scipy COO to CSR conversion sorts the columns within each
row, and the zero big-M coefficients are dropped. Row and column names are
built on access; a row name is a code into a small table of family heads
and one into a table of trailing keys. The per-arc big-M formulas that the
build vectorizes are kept, one arc at a time, as the reference in
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


class RowNames(NamedTuple):
    """Row names as codes into two small tables: row r is named
    ``heads[head_code[r]] + tails[tail_code[r]]``.

    A head is a family name with its leading key and separator
    (``carry_<a>_``, ``tprop_``, ``fleet_cap``), a tail a trailing key
    (``<b>``) or "". The tables hold O(n^2) strings, not one per row.
    """

    heads: list[str]
    tails: list[str]  # tails[b + 1] == str(b); tails[0] == ""
    head_code: np.ndarray  # int32, one per row
    tail_code: np.ndarray  # int32, one per row


@dataclass(eq=False)
class MipModel:
    """The model's arrays and family table, and the graph it was built from;
    names and the row view are derived on access."""

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
    graph: Multigraph  # arc table and windows the rows were built from
    metadata: dict = field(default_factory=dict)

    @property
    def num_rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_columns(self) -> int:
        return self.matrix.shape[1]

    def row_name_codes(self) -> RowNames:
        """The row names as head and tail codes, built from the family table."""
        head_code = np.empty(self.num_rows, dtype=np.int32)
        tail_code = np.empty(self.num_rows, dtype=np.int32)
        heads: list[str] = []
        keyed = [fam.keys[:, -1] for fam in self.families if fam.keys.shape[1]]
        last = max((int(keys.max(initial=0)) for keys in keyed), default=-1)
        for fam in self.families:
            rows = slice(fam.rows.start, fam.rows.stop, fam.rows.step)
            width = fam.keys.shape[1]
            tail_code[rows] = fam.keys[:, -1] + 1 if width else 0
            if width == 2:
                lead = fam.keys[:, 0]
                first, stop = (int(lead.min()), int(lead.max()) + 1) if len(lead) else (0, 0)
                head_code[rows] = lead - (first - len(heads))
                heads += [f"{fam.name}_{a}_" for a in range(first, stop)]
            else:
                head_code[rows] = len(heads)
                heads.append(f"{fam.name}_" if width else fam.name)
        return RowNames(heads, [""] + [str(b) for b in range(last + 1)], head_code, tail_code)

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
        heads, tails, head_code, tail_code = model.row_name_codes()
        codes, rhs = model.row_senses()
        ptr = model.matrix.indptr.tolist()
        cols = model.matrix.indices.tolist()
        vals = model.matrix.data.tolist()
        for r, (head, tail, code, b) in enumerate(
            zip(head_code.tolist(), tail_code.tolist(), codes.tolist(), rhs.tolist())
        ):
            lo, hi = ptr[r], ptr[r + 1]
            coeffs = dict(zip(cols[lo:hi], vals[lo:hi]))
            yield Row(heads[head] + tails[tail], coeffs, SENSES[code], b)


def _dense_rows(cols: list, vals: list):
    """(row, column, value) triplets of rows of equal width, given column by
    column; a value list entry may be a scalar shared by every row."""
    cols = np.column_stack(cols)
    vals = np.column_stack([np.broadcast_to(v, len(cols)) for v in vals])
    return np.repeat(np.arange(len(cols)), cols.shape[1]), cols.ravel(), vals.ravel()


class _RowBlocks:
    """Row blocks appended in matrix order as (row, column, value) triplets,
    plus the family table and the row bounds."""

    def __init__(self):
        self.triplets: list[tuple] = []
        self.bounds: list[tuple] = []
        self.families: list[RowFamily] = []
        self.num_rows = 0

    def add(self, families, triplets):
        """Append rows given as triplets with rows counted from 0 in the
        block; ``families`` lists (name, keys, sense, rhs) with 2-D keys, one
        key per row, and block row r belongs to families[r % len(families)]."""
        rows, cols, vals = triplets
        num_rows = sum(len(keys) for _, keys, _, _ in families)
        stride = len(families)
        lower = np.empty(num_rows)
        upper = np.empty(num_rows)
        for offset, (name, keys, sense, rhs) in enumerate(families):
            start = self.num_rows + offset
            self.families.append(
                RowFamily(name, range(start, self.num_rows + num_rows, stride), keys)
            )
            lower[offset::stride] = -math.inf if sense == SENSE_LE else rhs
            upper[offset::stride] = math.inf if sense == SENSE_GE else rhs
        self.triplets.append((rows + self.num_rows, cols, vals))
        self.bounds.append((lower, upper))
        self.num_rows += num_rows

    def assemble(self, num_columns: int):
        """One COO to CSR conversion, in which scipy sorts the columns within
        each row; then the zero coefficients (big-Ms that vanish) are dropped.

        The row, column and value pieces are joined one array at a time and
        freed as they go: holding every piece through the conversion raised
        the n = 100 build's peak RSS from 238 to 309 MB. Converting block by
        block instead pays scipy's fixed per-call cost once per family, which
        added 0.5-1 ms to a 1-2 ms build at n = 6-12 (2-core x86-64 host).
        """
        pieces = list(zip(*self.triplets))
        self.triplets.clear()
        rows, cols, vals = (np.concatenate(pieces.pop(0)) for _ in range(3))
        matrix = sp.csr_matrix((vals, (rows, cols)), shape=(self.num_rows, num_columns))
        matrix.eliminate_zeros()
        lower, upper = (np.concatenate(b) for b in zip(*self.bounds))
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
    src, tgt, cost = arcs["source"], arcs["target"], arcs["cost"]
    is_depot = arcs["kind"] == ArcKind.DEPOT.code
    is_inter = arcs["kind"] == ArcKind.INTER.code

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
        (
            np.repeat([0, 0, 1], [len(depot_out), len(depot_in), len(depot_out)]),
            lay.x(np.concatenate((depot_out, depot_in, depot_out))),
            np.repeat([1.0, -1.0, 1.0], [len(depot_out), len(depot_in), len(depot_out)]),
        ),
    )

    leaves, enters = np.flatnonzero(src > 0), np.flatnonzero(tgt > 0)
    rows.add(
        [("visit_out", node_keys, SENSE_EQ, 1.0), ("visit_in", node_keys, SENSE_EQ, 1.0)],
        (
            np.concatenate((2 * (src[leaves] - 1), 2 * (tgt[enters] - 1) + 1)),
            lay.x(np.concatenate((leaves, enters))),
            np.ones(len(leaves) + len(enters)),
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
        graph=graph,
        metadata={
            "label": inst.label,
            "n": n,
            "fleet_size": inst.fleet_size,
            "explicit_bounds": explicit_bounds,
        },
    )

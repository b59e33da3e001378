"""Two-index MIP over the replenishment-arc multigraph.

Variables: one binary per arc (x), one carry binary per ordered request
pair (y), and per point of care the visit time (z), elapsed-shift time
(tau) and completion time (C). The objective is the sum of completion
times. Constraint deactivation uses the tightest big-M constants derivable
from the preprocessed windows.

The model is stored as arrays only: one CSR constraint matrix, row and
column bound vectors, an integrality vector, the objective vector and a
family table giving each constraint family its row range. The CSR arrays
are allocated once, sized from the families' row counts and widths, and
each family is written in place through a (rows, width) view with its
columns ascending within each row, so no sort or conversion follows. The
carry block, n(n-1)^2 of the model's rows, is written by broadcasting one
value per inter arc against a single table of carried requests, with no
per-row index arrays. A family's zero big-M coefficients are dropped right
after it is written, which moves entries only in the few families that
hold one; the carry block holds none and is not scanned. Row and column
names are built on access; a row name is a code into a small table of
family heads and one into a table of trailing keys. The per-arc big-M
formulas that the build vectorizes, and the triplet build it replaced, are
kept as references in ``tests/views.py``.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
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

    label: str  # the instance's, for the model file headers
    fleet_size: int
    shift_cap: float  # per-vehicle cap on the elapsed shift, tau's upper end
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

    @property
    def n(self) -> int:
        return self.layout.n

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


class CsrRows:
    """Constraint rows as CSR arrays that are allocated once and filled in
    place, plus the family table and the row bounds.

    Rows are added in matrix order as blocks of equal width, and `allocate`
    sizes the arrays for every entry. The blocks are then written in the
    same order through `block` or `fill`, each row's columns in ascending
    order, so no sort follows. When the next block opens, the zero values
    of the one before (big-Ms that vanish) are dropped by moving its other
    entries forward, which touches only the blocks that hold a zero; a
    block opened with ``zeros=False`` is not scanned for them.
    """

    def __init__(self, num_columns: int):
        self.num_columns = num_columns
        self.num_rows = 0
        self.size = 0
        self.families: list[RowFamily] = []
        self._bounds: list[tuple[slice, str, float | np.ndarray]] = []
        self._blocks: dict[str, tuple[int, int, int]] = {}  # name -> first row, rows, width

    def add(self, families, width: int):
        """Add a block of rows of ``width`` entries each; ``families`` lists
        (name, keys, sense, rhs) with 2-D keys, one key per row, and block
        row r belongs to families[r % len(families)]."""
        count, stride = sum(len(keys) for _, keys, _, _ in families), len(families)
        for offset, (name, keys, sense, rhs) in enumerate(families):
            rows = range(self.num_rows + offset, self.num_rows + count, stride)
            self.families.append(RowFamily(name, rows, keys))
            self._bounds.append((slice(rows.start, rows.stop, stride), sense, rhs))
        self._blocks[families[0][0]] = (self.num_rows, count, width)
        self.num_rows += count
        self.size += count * width

    def allocate(self):
        index = np.int32 if max(self.size, self.num_rows, self.num_columns) < 2**31 else np.int64
        self.indptr = np.zeros(self.num_rows + 1, dtype=index)
        self.indices = np.empty(self.size, dtype=index)
        self.data = np.empty(self.size)
        self.lower = np.empty(self.num_rows)
        self.upper = np.empty(self.num_rows)
        for rows, sense, rhs in self._bounds:
            self.lower[rows] = -math.inf if sense == SENSE_LE else rhs
            self.upper[rows] = math.inf if sense == SENSE_GE else rhs
        self._written = 0  # rows whose entries and row ends are in place
        self._open: tuple[int, int, int, bool] | None = None

    def block(self, name: str, zeros: bool = True) -> tuple[np.ndarray, np.ndarray]:
        """The (rows, width) column and value views of the block whose first
        family is ``name``, which must be the next block in matrix order;
        ``zeros=False`` promises that no value written there is 0."""
        self._close()
        row, count, width = self._blocks[name]
        assert row == self._written, f"block {name} written out of matrix order"
        self._open = row, count, width, zeros
        start = self.indptr[row]
        entries = slice(start, start + count * width)
        return self.indices[entries].reshape(count, width), self.data[entries].reshape(count, width)

    def fill(self, name: str, cols: list, vals: list):
        """Write the block whose first family is ``name`` entry by entry:
        entry k of each row is column cols[k] with value vals[k], where a
        value may be a scalar shared by every row."""
        block_cols, block_vals = self.block(name)
        for k, (col, val) in enumerate(zip(cols, vals)):
            block_cols[:, k] = col
            block_vals[:, k] = val

    def _close(self):
        """Set the row ends of the block last opened, without its zeros."""
        if self._open is None:
            return
        row, count, width, zeros = self._open
        start = int(self.indptr[row])
        entries = slice(start, start + count * width)
        kept = self.data[entries] != 0 if zeros else None
        if kept is None or kept.all():
            ends = np.arange(start + width, start + width * count + 1, width, self.indptr.dtype)
        else:
            ends = start + np.cumsum(kept.reshape(count, width).sum(axis=1))
            stop = start + np.count_nonzero(kept)
            self.indices[start:stop] = self.indices[entries][kept]
            self.data[start:stop] = self.data[entries][kept]
        self.indptr[row + 1 : row + count + 1] = ends
        self._written += count
        self._open = None

    def assemble(self):
        """The matrix, the row bounds and the family table. Every row's
        columns ascend, none repeats and no value is zero, so the matrix is
        in canonical CSR form."""
        self._close()
        assert self._written == self.num_rows, "a block was never written"
        end = self.indptr[-1]
        matrix = sp.csr_matrix(
            (self.data[:end], self.indices[:end], self.indptr),
            shape=(self.num_rows, self.num_columns),
        )
        return matrix, self.lower, self.upper, tuple(self.families)


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

    depot_out, depot_in = np.flatnonzero(src == 0), np.flatnonzero(tgt == 0)
    leaving, entering = graph.incident_arcs()
    move = np.flatnonzero(arcs["kind"] != ArcKind.DEPOT.code)
    s, t = src[move], tgt[move]
    m_visit = np.maximum(0.0, deadline[s] + cost[move] - release[t])
    m_shift = deadline[t] - travel[0, t]
    # carry rows: each inter arc s -> t, in id order, with each carried
    # request but t, in ascending order (1..n-1, shifted up past t); the
    # keys are one (inter arcs, n - 1, 2) table, and its carried half is
    # the table every carry column is broadcast against
    inter_arcs = np.flatnonzero(arcs["kind"] == ArcKind.INTER.code)
    s_inter, t_inter = src[inter_arcs], tgt[inter_arcs]
    carry_keys = np.empty((len(inter_arcs), n - 1, 2), dtype=np.int64)
    carry_keys[:, :, 0] = inter_arcs[:, None]
    carried = carry_keys[:, :, 1]
    np.add(nodes[:-1], nodes[:-1] >= t_inter[:, None], out=carried)
    carrier, served = np.repeat(nodes, n), np.tile(nodes, n)
    m_completion = deadline[carrier] + travel[carrier, 0]

    rows = CsrRows(lay.num_columns)
    rows.add([("depot_balance", no_keys, SENSE_EQ, 0.0)], len(depot_out) + len(depot_in))
    rows.add([("fleet_cap", no_keys, SENSE_LE, inst.fleet_size)], len(depot_out))
    rows.add(
        [("visit_out", node_keys, SENSE_EQ, 1.0), ("visit_in", node_keys, SENSE_EQ, 1.0)],
        leaving.shape[1],
    )
    rows.add([("tprop", move[:, None], SENSE_LE, m_visit - cost[move])], 3)
    if explicit_bounds:
        rows.add(
            [
                ("window_lo", node_keys, SENSE_GE, release[1:]),
                ("window_hi", node_keys, SENSE_LE, deadline[1:]),
            ],
            1,
        )
        rows.add([("collect", node_keys, SENSE_EQ, 1.0)], 1)
    rows.add([("carry", carry_keys.reshape(-1, 2), SENSE_LE, 1.0)], 3)
    completion_rhs = m_completion - travel[carrier, 0]
    rows.add([("compl", np.column_stack((carrier, served)), SENSE_LE, completion_rhs)], 3)
    if explicit_bounds:
        rows.add([("shift_lo", node_keys, SENSE_GE, travel[0, 1:])], 1)
    rows.add([("sprop", move[:, None], SENSE_LE, m_shift)], 5)
    if explicit_bounds:
        rows.add([("shift_cap", node_keys, SENSE_LE, inst.shift_cap - travel[1:, 0])], 1)
    rows.allocate()

    cols, vals = rows.block("depot_balance")
    cols[0] = lay.x(np.concatenate((depot_out, depot_in)))
    vals[0, : len(depot_out)] = 1.0
    vals[0, len(depot_out) :] = -1.0
    cols, vals = rows.block("fleet_cap")
    cols[0] = lay.x(depot_out)
    vals[:] = 1.0

    cols, vals = rows.block("visit_out")
    cols = cols.reshape(n, 2, leaving.shape[1])
    cols[:, 0] = lay.x(leaving)
    cols[:, 1] = lay.x(entering)
    vals[:] = 1.0

    # a row that holds both ends of an arc holds the lower-numbered end's
    # column first; sign is +1 where that end is the source, -1 where it is
    # the target, and the signs of the two ends' terms swap with it
    low, high = np.minimum(s, t), np.maximum(s, t)
    sign = np.where(s < t, 1.0, -1.0)
    rows.fill("tprop", [lay.x(move), lay.z(low), lay.z(high)], [m_visit, sign, -sign])
    if explicit_bounds:
        rows.fill("window_lo", [np.repeat(lay.z(nodes), 2)], [1.0])
        rows.fill("collect", [lay.y(nodes, nodes)], [1.0])
    # one value per arc broadcast along its n - 1 rows; y(i, 0) + j is y(i, j)
    cols, vals = rows.block("carry", zeros=False)
    cols, vals = cols.reshape(len(inter_arcs), n - 1, 3), vals.reshape(len(inter_arcs), n - 1, 3)
    cols[:, :, 0] = lay.x(inter_arcs)[:, None]
    np.add(lay.y(np.minimum(s_inter, t_inter), 0)[:, None], carried, out=cols[:, :, 1])
    np.add(lay.y(np.maximum(s_inter, t_inter), 0)[:, None], carried, out=cols[:, :, 2])
    up = np.where(s_inter < t_inter, 1.0, -1.0)[:, None]
    vals[:, :, 0] = 1.0
    vals[:, :, 1] = up
    vals[:, :, 2] = -up
    rows.fill(
        "compl",
        [lay.y(carrier, served), lay.z(carrier), lay.completion(served)],
        [m_completion, 1.0, -1.0],
    )
    if explicit_bounds:
        rows.fill("shift_lo", [lay.tau(nodes)], [1.0])
    rows.fill(
        "sprop",
        [lay.x(move), lay.z(low), lay.z(high), lay.tau(low), lay.tau(high)],
        [m_shift, -sign, sign, sign, -sign],
    )
    if explicit_bounds:
        rows.fill("shift_cap", [lay.tau(nodes)], [1.0])

    matrix, row_lower, row_upper, families = rows.assemble()
    return MipModel(
        label=inst.label,
        fleet_size=inst.fleet_size,
        shift_cap=inst.shift_cap,
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
    )

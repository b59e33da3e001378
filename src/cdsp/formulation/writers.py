"""Byte-deterministic LP and MPS serialization of built models.

Variable names follow x_<arcid>, y_<i>_<j>, z_<j>, tau_<j>, C_<j>;
constraint names carry their family tags. Emitting the same model twice
yields identical bytes.

Both writers read the model's arrays and assemble text from small token
tables: the column names, the row names, and each distinct coefficient,
right-hand side and value formatted once. A row or a nonzero picks its
tokens by index. Rows are gathered in consecutive blocks of about
_BLOCK_PIECES pieces, each block is joined, and each file is joined once
from its block strings and section headers. An LP row whose length, summed
from its tokens' lengths, passes the line width is wrapped in its block.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .model import SENSE_EQ, SENSE_GE, SENSE_LE, SENSES, MipModel

_LINE_WIDTH = 78
_BLOCK_PIECES = 1 << 16


def emit_model(model: MipModel, fmt: str) -> str:
    """Serialize to "lp" (CPLEX LP dialect) or "mps" (free MPS)."""
    fmt = fmt.lower()
    if fmt == "lp":
        return write_lp(model)
    if fmt == "mps":
        return write_mps(model)
    raise ValueError(f"unknown model format {fmt!r}")


def _num(value: float) -> str:
    if value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return "inf" if value == math.inf else repr(value)


def _wrap(line: str, keep: int) -> str:
    """Break a line at spaces into lines of at most the line width, where
    its tokens allow.

    The first ``keep`` characters, and the first token after each break,
    stay on their line; each break moves its space to the start of the
    next line.
    """
    lines = []
    start, first = 0, keep
    while len(line) - start > _LINE_WIDTH:
        cut = line.rfind(" ", first, start + _LINE_WIDTH + 1)
        if cut < 0:
            cut = line.find(" ", first)
            if cut < 0:
                break
        lines.append(line[start:cut])
        start, first = cut, cut + 1
    lines.append(line[start:])
    return "\n".join(lines)


def _distinct(values: np.ndarray) -> tuple[list[float], np.ndarray]:
    """Distinct values, 1 and -1 first, and each entry's index among them.

    Only the entries other than +-1, a small share of the model's
    coefficients and right-hand sides, are sorted.
    """
    code = np.empty(len(values), dtype=np.int64)
    plus, minus = values == 1.0, values == -1.0
    code[plus], code[minus] = 0, 1
    rest = np.flatnonzero(~(plus | minus))
    distinct, inverse = np.unique(values[rest], return_inverse=True)
    code[rest] = inverse + 2
    return [1.0, -1.0] + distinct.tolist(), code


def _text(values: np.ndarray, fmt) -> tuple[np.ndarray, np.ndarray]:
    """fmt of each distinct value, and each entry's index into that table."""
    distinct, code = _distinct(values)
    return np.array([fmt(v) for v in distinct], dtype=object), code


def _lengths(table) -> np.ndarray:
    return np.fromiter(map(len, table), dtype=np.int64, count=len(table))


def _concat_rows(out: list, ptr: np.ndarray, head=(), items=(), tail=(), finish=None):
    """Append to out, for every row r, the head pieces, then the pieces of
    its items ptr[r]:ptr[r+1] in order, then the tail pieces.

    A head or tail piece is one str for all rows, or a (table, index) pair
    with one index per row (index None: one table entry per row). An item
    piece is a (table, index) pair with one index per item. Rows are taken
    in consecutive blocks of about _BLOCK_PIECES pieces; each block's pieces
    are placed by index arithmetic, listed, passed to finish(pieces, start,
    r0, r1) if given (start: the first piece of each of rows r0:r1), and
    joined.
    """
    num_rows = len(ptr) - 1
    per_item = len(items)
    per_row = len(head) + len(tail)
    total = per_item * int(ptr[-1]) + per_row * num_rows
    cuts = [0, num_rows]
    if total > _BLOCK_PIECES:
        before = per_item * ptr + per_row * np.arange(num_rows + 1)
        cuts = np.searchsorted(before, np.arange(0, total, _BLOCK_PIECES)).tolist() + [num_rows]
    for r0, r1 in zip(cuts, cuts[1:]):
        if r0 == r1:
            continue
        p = ptr[r0 : r1 + 1]
        i0, i1 = int(p[0]), int(p[-1])
        if i0:
            p = p - i0
        counts = np.diff(p)
        row = np.arange(r1 - r0)
        pieces = np.empty(per_item * (i1 - i0) + per_row * (r1 - r0), dtype=object)
        start = per_item * p[:-1] + per_row * row
        for k, piece in enumerate(head):
            pieces[start + k] = _gather(piece, r0, r1)
        if per_item:
            first = per_item * np.arange(i1 - i0) + np.repeat(len(head) + per_row * row, counts)
            for k, (table, index) in enumerate(items):
                pieces[first + k] = table[index[i0:i1]]
        end = start + len(head) + per_item * counts
        for k, piece in enumerate(tail):
            pieces[end + k] = _gather(piece, r0, r1)
        text = pieces.tolist()
        if finish is not None:
            finish(text, start, r0, r1)
        out.append("".join(text))


def _gather(piece, r0: int, r1: int):
    if isinstance(piece, str):
        return piece
    table, index = piece
    return table[r0:r1] if index is None else table[index[r0:r1]]


def _lp_rows(out: list, ptr, indices, data, columns, head: list, tail, fixed):
    """Append one LP line per CSR row: head, signed terms, tail.

    ``columns`` is the (names, lengths) table of the columns. The head
    pieces end in the row's label and ":"; the one tail piece ends the line
    with its newline. ``fixed`` is the length of each row's head and tail
    without the newline. A line longer than the line width is wrapped.
    """
    distinct, code = _distinct(data)
    terms = [
        (" - " if v < 0 else " + ") + ("" if abs(v) == 1.0 else _num(abs(v)) + " ")
        for v in distinct
    ]
    leads = [t if v < 0 else " " + t[3:] for t, v in zip(terms, distinct)]
    code[ptr[:-1][np.diff(ptr) > 0]] += len(distinct)
    prefixes = np.array(terms + leads, dtype=object)
    names, name_len = columns
    item_len = np.cumsum(_lengths(prefixes)[code] + name_len[indices])
    line_len = fixed + np.diff(np.concatenate(([0], item_len))[ptr])
    long_rows = np.flatnonzero(line_len > _LINE_WIDTH)

    def wrap(text, start, r0, r1):
        lo, hi = np.searchsorted(long_rows, (r0, r1))
        for r in long_rows[lo:hi].tolist():
            s = int(start[r - r0])
            e = int(start[r - r0 + 1]) if r + 1 < r1 else len(text)
            line = "".join(text[s:e])[:-1]
            text[s:e] = [_wrap(line, line.index(": ") + 1) + "\n"] + [""] * (e - s - 1)

    _concat_rows(
        out,
        ptr,
        head,
        [(prefixes, code), (names, indices)],
        [tail],
        wrap if len(long_rows) else None,
    )


def write_lp(model: MipModel) -> str:
    names = model.layout.names()
    columns = (np.array(names, dtype=object), _lengths(names))
    label = model.metadata.get("label", "")
    out = [f"\\ cdsp model  label={label}  n={model.n}  K={model.fleet_size}\nMinimize\n"]
    costed = np.flatnonzero(model.c)
    _lp_rows(out, np.array([0, len(costed)]), costed, model.c[costed], columns, [" obj:"], "\n", 5)
    out.append("Subject To\n")
    matrix = model.matrix
    row_names = model.row_names()
    codes, rhs = model.row_senses()
    distinct, rhs_code = _distinct(rhs)
    rhs_text = [_num(v) for v in distinct]
    ends = np.array([f" {s} {t}\n" for s in SENSES for t in rhs_text], dtype=object)
    end_code = codes * len(rhs_text) + rhs_code
    _lp_rows(
        out,
        matrix.indptr,
        matrix.indices,
        matrix.data,
        columns,
        [" ", (row_names, None), ":"],
        (ends, end_code),
        1 + _lengths(row_names) + _lengths(ends)[end_code],
    )

    out.append("Bounds\n")
    for name, integer, lo, up in zip(
        names, model.integrality.tolist(), model.col_lower.tolist(), model.col_upper.tolist()
    ):
        if integer:
            if lo == up:
                out.append(f" {name} = {_num(lo)}\n")
            continue
        if lo == 0.0 and up == math.inf:
            continue
        if lo == up:
            out.append(f" {name} = {_num(lo)}\n")
        elif up == math.inf:
            out.append(f" {name} >= {_num(lo)}\n")
        else:
            out.append(f" {_num(lo)} <= {name} <= {_num(up)}\n")
    out.append("Binaries\n")
    binaries = [name for name, b in zip(names, model.integrality.tolist()) if b]
    out.append(_wrap(" ".join(binaries), 0) + "\n")
    out.append("End\n")
    return "".join(out)


def write_mps(model: MipModel) -> str:
    names = model.layout.names()
    row_names = model.row_names()
    one_line_per_row = np.zeros(model.num_rows + 1, dtype=np.int64)  # rows without items
    label = str(model.metadata.get("label", "")) or "model"
    safe = re.sub(r"[^A-Za-z0-9_.-]", "_", label)
    codes, rhs = model.row_senses()
    out = [f"NAME {safe}\nROWS\n N obj\n"]
    tag = {SENSE_LE: " L ", SENSE_EQ: " E ", SENSE_GE: " G "}
    tags = np.array([tag[s] for s in SENSES], dtype=object)
    _concat_rows(out, one_line_per_row, [(tags, codes), (row_names, None), "\n"])

    out.append("COLUMNS\n")
    csc = model.matrix.tocsc()
    csc.sort_indices()
    heads = []
    in_integer = False
    for name, integer, cost, cells in zip(
        names, model.integrality.tolist(), model.c.tolist(), np.diff(csc.indptr).tolist()
    ):
        head = ""
        if integer and not in_integer:
            head = "    MARKER    'MARKER'    'INTORG'\n"
        elif not integer and in_integer:
            head = "    MARKER    'MARKER'    'INTEND'\n"
        in_integer = bool(integer)
        if cost != 0.0 or not cells:  # an otherwise-empty column is declared with obj 0
            head += f"    {name}  obj  {_num(cost)}\n"
        heads.append(head)
    column_of = np.repeat(np.arange(model.num_columns), np.diff(csc.indptr))
    cells = [
        (np.array([f"    {name}  " for name in names], dtype=object), column_of),
        (row_names, csc.indices),
        _text(csc.data, lambda v: f"  {_num(v)}\n"),
    ]
    _concat_rows(out, csc.indptr, [(np.array(heads, dtype=object), None)], cells)
    if in_integer:
        out.append("    MARKER    'MARKER'    'INTEND'\n")

    out.append("RHS\n")
    rhs_text = _text(rhs, lambda v: f"  {_num(v)}\n")
    _concat_rows(out, one_line_per_row, ["    RHS  ", (row_names, None), rhs_text])

    out.append("BOUNDS\n")
    for name, integer, lo, up in zip(
        names, model.integrality.tolist(), model.col_lower.tolist(), model.col_upper.tolist()
    ):
        if integer:
            if lo == up:
                out.append(f" FX BND {name}  {_num(lo)}\n")
            else:
                out.append(f" BV BND {name}\n")
            continue
        out.append(f" LO BND {name}  {_num(lo)}\n")
        if up != math.inf:
            out.append(f" UP BND {name}  {_num(up)}\n")
    out.append("ENDATA\n")
    return "".join(out)

"""Byte-deterministic LP and MPS serialization of built models.

Variable names follow x_<arcid>, y_<i>_<j>, z_<j>, tau_<j>, C_<j>;
constraint names carry their family tags. Emitting the same model twice
yields identical bytes.

Each format has one writer: a generator of the file's text in file order,
section headers and blocks of rows. `write_lp` and `write_mps` join that
stream into one str. `str.join` drains the generator before it allocates
the result, so the writer's arrays are freed by then. `write_model` writes
the stream to an open text file block by block, so the whole text is never
held at once. The arrays a section builds are freed when it ends; the MPS
row names, which three sections share, are dropped after the last of them.

The text is assembled from small token tables: the column names, the row
names, and each distinct coefficient, right-hand side and value formatted
once. A row or a nonzero picks its tokens by index. Rows are gathered in
consecutive blocks of about _BLOCK_PIECES pieces, and each block is joined
into one string. LP line lengths are summed from the token lengths, block
by block; that also gives each line's place in its block. A line longer
than the line width is broken inside the joined block, at the spaces
`_wrap` would pick, so no line is joined on its own.
"""

from __future__ import annotations

import math
import re
from typing import Iterator, TextIO

import numpy as np

from .model import SENSE_EQ, SENSE_GE, SENSE_LE, SENSES, MipModel

MODEL_FORMATS = ("lp", "mps")

_LINE_WIDTH = 78
_BLOCK_PIECES = 1 << 16


def emit_model(model: MipModel, fmt: str) -> str:
    """Serialize to "lp" (CPLEX LP dialect) or "mps" (free MPS)."""
    return write_lp(model) if _format(fmt) == "lp" else write_mps(model)


def write_model(model: MipModel, fmt: str, file: TextIO) -> None:
    """Write the text `emit_model` returns to an open text file, one row
    block at a time. Open the file with ``newline=""`` to keep its bytes
    equal to `emit_model`'s text on every platform."""
    stream = _lp_stream if _format(fmt) == "lp" else _mps_stream
    for block in stream(model):
        file.write(block)


def write_lp(model: MipModel) -> str:
    return "".join(_lp_stream(model))


def write_mps(model: MipModel) -> str:
    return "".join(_mps_stream(model))


def _format(fmt: str) -> str:
    fmt = fmt.lower()
    if fmt not in MODEL_FORMATS:
        raise ValueError(f"unknown model format {fmt!r}")
    return fmt


def _num(value: float) -> str:
    if value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return "inf" if value == math.inf else repr(value)


def _wrap(line: str, keep: int) -> str:
    """Break a line at spaces into lines of at most the line width, where
    its tokens allow (see `_breaks`)."""
    return _split_at(line, _breaks(line, 0, keep, len(line)))


def _breaks(text: str, start: int, keep: int, end: int) -> list[int]:
    """The places of the spaces at which the line text[start:end] breaks.

    Lines are at most the line width long where the tokens allow. The
    first ``keep`` characters of the line, and the first token after each
    break, stay on their line; each break moves its space to the start of
    the next line.
    """
    cuts = []
    first = start + keep
    while end - start > _LINE_WIDTH:
        cut = text.rfind(" ", first, start + _LINE_WIDTH + 1)
        if cut < 0:
            cut = text.find(" ", first, end)
            if cut < 0:
                break
        cuts.append(cut)
        start, first = cut, cut + 1
    return cuts


def _split_at(text: str, cuts: list[int]) -> str:
    """text with a newline put before each of the places ``cuts``."""
    bounds = [0, *cuts, len(text)]
    return "\n".join([text[a:b] for a, b in zip(bounds, bounds[1:])])


def _distinct(values: np.ndarray) -> tuple[list[float], np.ndarray]:
    """Distinct values, 1 and -1 first, and each entry's index among them.

    Only the entries other than +-1, a small share of the model's
    coefficients and right-hand sides, are sorted.
    """
    code = np.empty(len(values), dtype=np.int32)
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
    return np.fromiter(map(len, table), dtype=np.int32, count=len(table))


def _concat_rows(ptr: np.ndarray, head=(), items=(), tail=(), finish=None) -> Iterator[str]:
    """Yield, for every row r, the head pieces, then the pieces of its items
    ptr[r]:ptr[r+1] in order, then the tail pieces.

    A head or tail piece is one str for all rows, or a (table, index) pair
    with one index per row (index None: one table entry per row). An item
    piece is a (table, index) pair with one index per item (index None: the
    item's row's entry). Rows are taken in consecutive blocks of about
    _BLOCK_PIECES pieces; each block's pieces are placed by index
    arithmetic and joined. The block of rows r0:r1 is yielded as
    finish(block, r0, r1) if finish is given, else as it is.
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
                if index is None:
                    pieces[first + k] = np.repeat(table[r0:r1], counts)
                else:
                    pieces[first + k] = table[index[i0:i1]]
        end = start + len(head) + per_item * counts
        for k, piece in enumerate(tail):
            pieces[end + k] = _gather(piece, r0, r1)
        block = "".join(pieces.tolist())
        del pieces
        yield block if finish is None else finish(block, r0, r1)


def _gather(piece, r0: int, r1: int):
    if isinstance(piece, str):
        return piece
    table, index = piece
    return table[r0:r1] if index is None else table[index[r0:r1]]


def _lp_rows(ptr, indices, data, columns, labels, senses=None, rhs=None) -> Iterator[str]:
    """Yield one LP line per CSR row: " <label>:", signed terms, then
    " <sense> <rhs>" (if senses are given) and the newline.

    ``columns`` is the (names, lengths) table of the columns, ``labels``
    one name per row. Line lengths are summed from the token lengths; a
    line longer than the line width is broken in its joined block, the
    " <label>:" kept whole.
    """
    distinct, code = _distinct(data)
    terms = [
        (" - " if v < 0 else " + ") + ("" if abs(v) == 1.0 else _num(abs(v)) + " ")
        for v in distinct
    ]
    leads = [t if v < 0 else " " + t[3:] for t, v in zip(terms, distinct)]
    code[ptr[:-1][np.diff(ptr) > 0]] += len(distinct)
    prefixes = np.array(terms + leads, dtype=object)
    prefix_len = _lengths(prefixes)
    if senses is None:
        ends, end_code = np.array(["\n"], dtype=object), np.zeros(len(ptr) - 1, dtype=int)
    else:
        distinct_rhs, rhs_code = _distinct(rhs)
        rhs_text = [_num(v) for v in distinct_rhs]
        ends = np.array([f" {s} {t}\n" for s in SENSES for t in rhs_text], dtype=object)
        end_code = senses * len(rhs_text) + rhs_code
    end_len = _lengths(ends) - 1  # without the newline
    names, name_len = columns

    def wrap(block, r0, r1):
        p = ptr[r0 : r1 + 1]
        i0, i1 = int(p[0]), int(p[-1])
        item_len = np.take(prefix_len, code[i0:i1]) + np.take(name_len, indices[i0:i1])
        at = np.concatenate(([0], np.cumsum(item_len)))
        keep = 2 + _lengths(labels[r0:r1])
        line_len = keep + np.diff(at[p - i0]) + np.take(end_len, end_code[r0:r1])
        rows = np.flatnonzero(line_len > _LINE_WIDTH)
        if not len(rows):
            return block
        line_at = np.cumsum(line_len + 1) - (line_len + 1)
        cuts = []
        for start, kept, end in zip(
            line_at[rows].tolist(), keep[rows].tolist(), (line_at + line_len)[rows].tolist()
        ):
            cuts += _breaks(block, start, kept, end)
        return _split_at(block, cuts)

    yield from _concat_rows(
        ptr,
        [" ", (labels, None), ":"],
        [(prefixes, code), (names, indices)],
        [(ends, end_code)],
        wrap,
    )


def _lp_stream(model: MipModel) -> Iterator[str]:
    label = model.metadata.get("label", "")
    yield f"\\ cdsp model  label={label}  n={model.n}  K={model.fleet_size}\nMinimize\n"
    names = model.layout.names()
    columns = (np.array(names, dtype=object), _lengths(names))
    costed = np.flatnonzero(model.c)
    one_row = np.array([0, len(costed)])
    yield from _lp_rows(one_row, costed, model.c[costed], columns, np.array(["obj"], dtype=object))
    yield "Subject To\n"
    matrix = model.matrix
    yield from _lp_rows(
        matrix.indptr, matrix.indices, matrix.data, columns, model.row_names(), *model.row_senses()
    )
    del columns
    lines = ["Bounds\n"]
    for name, integer, lo, up in zip(
        names, model.integrality.tolist(), model.col_lower.tolist(), model.col_upper.tolist()
    ):
        if integer:
            if lo == up:
                lines.append(f" {name} = {_num(lo)}\n")
            continue
        if lo == 0.0 and up == math.inf:
            continue
        if lo == up:
            lines.append(f" {name} = {_num(lo)}\n")
        elif up == math.inf:
            lines.append(f" {name} >= {_num(lo)}\n")
        else:
            lines.append(f" {_num(lo)} <= {name} <= {_num(up)}\n")
    yield "".join(lines)
    binaries = [name for name, b in zip(names, model.integrality.tolist()) if b]
    yield "Binaries\n" + _wrap(" ".join(binaries), 0) + "\nEnd\n"


def _mps_stream(model: MipModel) -> Iterator[str]:
    label = str(model.metadata.get("label", "")) or "model"
    safe = re.sub(r"[^A-Za-z0-9_.-]", "_", label)
    yield f"NAME {safe}\nROWS\n N obj\n"
    names = model.layout.names()
    row_names = model.row_names()
    codes, rhs = model.row_senses()
    one_line_per_row = np.zeros(model.num_rows + 1, dtype=np.int64)  # rows without items
    tag = {SENSE_LE: " L ", SENSE_EQ: " E ", SENSE_GE: " G "}
    tags = np.array([tag[s] for s in SENSES], dtype=object)
    yield from _concat_rows(one_line_per_row, [(tags, codes), (row_names, None), "\n"])
    del codes
    yield "COLUMNS\n"
    yield from _mps_columns(model, names, row_names)
    yield "RHS\n"
    rhs_text = _text(rhs, lambda v: f"  {_num(v)}\n")
    yield from _concat_rows(one_line_per_row, ["    RHS  ", (row_names, None), rhs_text])
    del row_names, rhs, rhs_text, one_line_per_row
    lines = ["BOUNDS\n"]
    for name, integer, lo, up in zip(
        names, model.integrality.tolist(), model.col_lower.tolist(), model.col_upper.tolist()
    ):
        if integer:
            if lo == up:
                lines.append(f" FX BND {name}  {_num(lo)}\n")
            else:
                lines.append(f" BV BND {name}\n")
            continue
        lines.append(f" LO BND {name}  {_num(lo)}\n")
        if up != math.inf:
            lines.append(f" UP BND {name}  {_num(up)}\n")
    lines.append("ENDATA\n")
    yield "".join(lines)


def _mps_columns(model: MipModel, names: list[str], row_names: np.ndarray) -> Iterator[str]:
    """The COLUMNS section: each column's nonzeros in row order, with the
    integer columns between MARKER lines."""
    csc = model.matrix.tocsc()
    csc.sort_indices()
    ptr, rows = csc.indptr, csc.indices
    values = _text(csc.data, lambda v: f"  {_num(v)}\n")
    del csc  # the values are coded
    heads = []
    in_integer = False
    for name, integer, cost, cells in zip(
        names, model.integrality.tolist(), model.c.tolist(), np.diff(ptr).tolist()
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
    cells = [
        (np.array([f"    {name}  " for name in names], dtype=object), None),
        (row_names, rows),
        values,
    ]
    yield from _concat_rows(ptr, [(np.array(heads, dtype=object), None)], cells)
    if in_integer:
        yield "    MARKER    'MARKER'    'INTEND'\n"

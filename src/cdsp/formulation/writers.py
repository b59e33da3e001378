"""Byte-deterministic LP and MPS serialization of built models.

Variable names follow x_<arcid>, y_<i>_<j>, z_<j>, tau_<j>, C_<j>;
constraint names carry their family tags. Emitting the same model twice
yields identical bytes.

Each format has one writer: a generator of the file's text in file order,
section headers and blocks of rows. `write_lp` and `write_mps` grow one str
from that stream, a block at a time. CPython resizes a str that has a
single reference in place (a large one by `mremap`), so they hold the text
and one block, not every block and a joined copy of them: `str.join`
would hold two texts at its peak. Past 32 Mi characters they then hand the
heap pages the writer freed back to the OS (glibc's `malloc_trim`, where
there is one). `write_model` writes the stream to an open text file block
by block, so the whole text is never held at once. The arrays a section
builds are freed when it ends; the MPS row-name codes, which three sections
share, are dropped after the last of them.

The text is assembled from small token tables: the column names, the row
name heads and tails (`MipModel.row_name_codes`: two int32 codes per row
into O(n^2) strings), and each distinct coefficient, right-hand side and
value formatted once. Constant text is folded into its neighbour where that
saves a piece per row (" " + head, tail + ":", an MPS sense tag + head,
tail + newline). Each section concatenates its tables into one object
table. Rows are gathered in consecutive blocks of about _BLOCK_PIECES
pieces: a block's table ids are placed in an integer array by index
arithmetic, taken from the table at once and joined into one string. LP
line lengths are summed from the lengths of the taken pieces; that also
gives each line's place in its block. A line longer than the line width is
broken inside the joined block, at the spaces `_wrap` would pick, so no
line is joined on its own.
"""

from __future__ import annotations

import ctypes
import itertools
import math
import re
from typing import Iterator, TextIO

import numpy as np

from .model import SENSE_EQ, SENSE_GE, SENSE_LE, SENSES, MipModel

MODEL_FORMATS = ("lp", "mps")

_LINE_WIDTH = 78
_BLOCK_PIECES = 1 << 16
#: Length of text past which `write_lp`/`write_mps` call glibc's
#: malloc_trim. The text grows on the malloc heap until it passes the mmap
#: threshold, and the writer's tables, codes and blocks come and go there
#: beside it. glibc gives the freed memory back only when it ends up above
#: its trim threshold (up to 64 MiB) and nothing is left above it; a small
#: chunk kept in malloc's per-size cache is enough to hold it. At n = 100
#: (49 and 133 MiB of text), the peak RSS of a process that builds the
#: model, writes both texts and encodes them was 415-417 MB with the trim
#: on all four of `perfbench`'s n = 100 cases, and 416-450 MB without it
#: (450 MB on two). Under this length the writer grows the heap by little.
_TRIM_CHARS = 1 << 25


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
    return _joined(_lp_stream(model))


def write_mps(model: MipModel) -> str:
    return _joined(_mps_stream(model))


def _joined(stream: Iterator[str]) -> str:
    """The stream's text as one str, grown block by block; past _TRIM_CHARS,
    the heap pages the writer's blocks and arrays held are then handed back
    to the OS.

    ``text += block`` resizes ``text`` in place only while ``text`` is the
    str's one reference: bind no other name to it before the loop ends.
    """
    text = ""
    for block in stream:
        text += block
    if len(text) >= _TRIM_CHARS and _malloc_trim is not None:
        _malloc_trim(0)
    return text


def _find_malloc_trim():
    try:
        return ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):  # not glibc
        return None


_malloc_trim = _find_malloc_trim()


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


def _text(values: np.ndarray, fmt) -> tuple[list[str], np.ndarray]:
    """fmt of each distinct value, and each entry's index into that list."""
    distinct, code = _distinct(values)
    return [fmt(v) for v in distinct], code


def _lengths(table) -> np.ndarray:
    return np.fromiter(map(len, table), dtype=np.intp, count=len(table))


def _table(*parts) -> tuple[np.ndarray, list[int]]:
    """One object array of the str sequences ``parts``, and each one's offset
    in it."""
    offsets = list(itertools.accumulate(map(len, parts), initial=0))
    return np.array(list(itertools.chain(*parts)), dtype=object), offsets[:-1]


def _piece_ids(piece, lo: int, hi: int, rows: np.ndarray) -> np.ndarray:
    """The table ids of a piece for the rows or items lo:hi, which belong to
    the rows ``rows``."""
    offset, codes, *via = piece
    if codes is None:
        return rows + offset
    if via:
        return codes[via[0][lo:hi]] + offset
    return codes[lo:hi] + offset


def _concat_rows(table, ptr, head=(), items=(), tail=(), wrap=False) -> Iterator[str]:
    """Yield the text of every row r: its head pieces, then the pieces of its
    items ptr[r]:ptr[r+1] in order, then its tail pieces.

    A piece stands for one entry of ``table`` per row (or per item):
    (offset, codes) for the id offset + codes[k] of row (item) k, or
    (offset, None) for offset + the row itself, or, for an item,
    (offset, codes, via) for offset + codes[via[k]]. Every row has a head or
    tail piece.

    Rows are taken in consecutive blocks of about _BLOCK_PIECES pieces. A
    block's ids are placed by index arithmetic, gathered from the table by
    one take and joined. With wrap, a line longer than the line width is
    broken at the spaces `_breaks` picks, its head pieces kept whole; line
    lengths are summed from the lengths of the taken entries.
    """
    num_rows = len(ptr) - 1
    h, q = len(head), len(items)
    w = h + len(tail)
    before = np.arange(num_rows + 1, dtype=np.int64) * w  # each row's first piece
    if q:
        before += np.multiply(ptr, q, dtype=np.int64)
    if wrap:
        lengths = _lengths(table)
    r0 = 0
    while r0 < num_rows:
        r1 = int(np.searchsorted(before, before[r0] + _BLOCK_PIECES, "right")) - 1
        r1 = max(r0 + 1, r1)
        at = before[r0 : r1 + 1] - before[r0]  # each row's first piece in the block
        ids = np.empty(int(at[-1]), dtype=np.intp)
        rows = np.arange(r0, r1)
        for k, piece in enumerate(head):
            ids[at[:-1] + k] = _piece_ids(piece, r0, r1, rows)
        if q:
            i0, i1 = int(ptr[r0]), int(ptr[r1])
            item_row = np.repeat(rows, np.diff(ptr[r0 : r1 + 1]))
            item_at = (item_row - r0) * w + np.arange(i1 - i0) * q + h
            for k, piece in enumerate(items):
                ids[item_at + k] = _piece_ids(piece, i0, i1, item_row)
        for k, piece in enumerate(tail, -len(tail)):
            ids[at[1:] + k] = _piece_ids(piece, r0, r1, rows)
        block = "".join(table.take(ids).tolist())
        if wrap:
            chars = np.concatenate(([0], np.cumsum(lengths.take(ids))))  # where piece k starts
            starts, ends = chars[at[:-1]], chars[at[1:]] - 1  # without the newline
            keep = chars[at[:-1] + h] - starts
            long = np.flatnonzero(ends - starts > _LINE_WIDTH)
            breaks = []
            for start, kept, end in zip(*(a[long].tolist() for a in (starts, keep, ends))):
                breaks += _breaks(block, start, kept, end)
            if breaks:
                block = _split_at(block, breaks)
        yield block
        r0 = r1


def _lp_rows(ptr, indices, data, names, labels, senses=None, rhs=None) -> Iterator[str]:
    """Yield one LP line per CSR row: " <label>:", signed terms, then
    " <sense> <rhs>" (if senses are given) and the newline.

    ``names`` are the column names, ``labels`` the rows' names as
    (heads, tails, head_code, tail_code) (see `MipModel.row_name_codes`).
    A line longer than the line width is broken, the " <label>:" kept whole.
    """
    heads, tails, head_code, tail_code = labels
    distinct, code = _distinct(data)
    terms = [
        (" - " if v < 0 else " + ") + ("" if abs(v) == 1.0 else _num(abs(v)) + " ")
        for v in distinct
    ]
    leads = [t if v < 0 else " " + t[3:] for t, v in zip(terms, distinct)]
    code[ptr[:-1][np.diff(ptr) > 0]] += len(distinct)
    if senses is None:
        ends, end_code = ["\n"], np.zeros(len(ptr) - 1, dtype=np.int32)
    else:
        distinct_rhs, rhs_code = _distinct(rhs)
        rhs_text = [_num(v) for v in distinct_rhs]
        ends = [f" {s} {t}\n" for s in SENSES for t in rhs_text]
        end_code = senses * len(rhs_text) + rhs_code
    table, (head_at, tail_at, term_at, name_at, end_at) = _table(
        [" " + head for head in heads], [tail + ":" for tail in tails], terms + leads, names, ends
    )
    yield from _concat_rows(
        table,
        ptr,
        [(head_at, head_code), (tail_at, tail_code)],
        [(term_at, code), (name_at, indices)],
        [(end_at, end_code)],
        wrap=True,
    )


def _label(model: MipModel) -> str:
    """The label both writers give: each character outside [A-Za-z0-9_.-] as "_"."""
    return re.sub(r"[^A-Za-z0-9_.-]", "_", model.inst.label)


def _lp_stream(model: MipModel) -> Iterator[str]:
    inst = model.inst
    yield f"\\ cdsp model  label={_label(model)}  n={model.n}  K={inst.fleet_size}\nMinimize\n"
    names = model.layout.names()
    costed = np.flatnonzero(model.c)
    objective = (["obj"], [""], np.zeros(1, dtype=np.int32), np.zeros(1, dtype=np.int32))
    ptr, own = np.array([0, len(costed)]), np.arange(len(costed))  # over the costed names only
    yield from _lp_rows(ptr, own, model.c[costed], [names[k] for k in costed.tolist()], objective)
    yield "Subject To\n"
    matrix = model.matrix
    yield from _lp_rows(
        matrix.indptr, matrix.indices, matrix.data, names, model.row_name_codes(), *model.row_senses()
    )
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
    yield f"NAME {_label(model) or 'model'}\nROWS\n N obj\n"
    names = model.layout.names()
    heads, tails, head_code, tail_code = model.row_name_codes()
    senses, rhs = model.row_senses()
    rhs_text, rhs_code = _text(rhs, lambda v: f"  {_num(v)}\n")
    del rhs
    no_items = np.broadcast_to(0, model.num_rows + 1)
    tag = {SENSE_LE: " L ", SENSE_EQ: " E ", SENSE_GE: " G "}
    table, (head_at, tail_at) = _table(
        [tag[s] + head for s in SENSES for head in heads], [tail + "\n" for tail in tails]
    )
    yield from _concat_rows(
        table, no_items, [(head_at, senses * len(heads) + head_code), (tail_at, tail_code)]
    )
    del table, senses
    yield "COLUMNS\n"
    yield from _mps_columns(model, names, heads, tails, head_code, tail_code)
    yield "RHS\n"
    table, (head_at, tail_at, rhs_at) = _table(["    RHS  " + head for head in heads], tails, rhs_text)
    yield from _concat_rows(
        table, no_items, [(head_at, head_code), (tail_at, tail_code), (rhs_at, rhs_code)]
    )
    del table, head_code, tail_code, rhs_code
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


def _mps_columns(model: MipModel, names, heads, tails, head_code, tail_code) -> Iterator[str]:
    """The COLUMNS section: each column's nonzeros in row order, with the
    integer columns between MARKER lines."""
    csc = model.matrix.tocsc()
    csc.sort_indices()
    ptr, rows = csc.indptr, csc.indices
    values, value_code = _text(csc.data, lambda v: f"  {_num(v)}\n")
    del csc  # the values are coded
    starts = []
    in_integer = False
    for name, integer, cost, cells in zip(
        names, model.integrality.tolist(), model.c.tolist(), np.diff(ptr).tolist()
    ):
        start = ""
        if integer and not in_integer:
            start = "    MARKER    'MARKER'    'INTORG'\n"
        elif not integer and in_integer:
            start = "    MARKER    'MARKER'    'INTEND'\n"
        in_integer = bool(integer)
        if cost != 0.0 or not cells:  # an otherwise-empty column is declared with obj 0
            start += f"    {name}  obj  {_num(cost)}\n"
        starts.append(start)
    table, (start_at, name_at, head_at, tail_at, value_at) = _table(
        starts, [f"    {name}  " for name in names], heads, tails, values
    )
    del starts, values
    cells = [
        (name_at, None),
        (head_at, head_code, rows),
        (tail_at, tail_code, rows),
        (value_at, value_code),
    ]
    yield from _concat_rows(table, ptr, [(start_at, None)], cells)
    if in_integer:
        yield "    MARKER    'MARKER'    'INTEND'\n"

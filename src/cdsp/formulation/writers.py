"""Byte-deterministic LP and MPS serialization of built models.

Variable names follow x_<arcid>, y_<i>_<j>, z_<j>, tau_<j>, C_<j>;
constraint names carry their family tags. Emitting the same model twice
yields identical bytes. Both writers stream from the model's arrays and
format each distinct coefficient and right-hand side once.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .model import SENSE_EQ, SENSE_GE, SENSE_LE, SENSES, MipModel

_LINE_WIDTH = 78


def emit_model(model: MipModel, fmt: str) -> str:
    """Serialize to "lp" (CPLEX LP dialect) or "mps" (free MPS)."""
    fmt = fmt.lower()
    if fmt == "lp":
        return write_lp(model)
    if fmt == "mps":
        return write_mps(model)
    raise ValueError(f"unknown model format {fmt!r}")


def _num(value: float) -> str:
    if value == math.inf:
        return "inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _wrap(prefix: str, tokens: list[str]) -> list[str]:
    lines = []
    current = prefix
    for token in tokens:
        if current and len(current) + 1 + len(token) > _LINE_WIDTH:
            lines.append(current)
            current = " " + token
        else:
            current = token if not current else current + " " + token
    lines.append(current)
    return lines


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


def _text(values: np.ndarray, fmt) -> np.ndarray:
    """fmt(value) for every entry, calling fmt once per distinct value."""
    distinct, code = _distinct(values)
    return np.array([fmt(v) for v in distinct], dtype=object)[code]


def _concat_rows(ptr: np.ndarray, head: list, items: list = (), tail: list = ()) -> str:
    """Concatenate, for every row r, the head pieces, then the pieces of its
    items ptr[r]:ptr[r+1] in order, then the tail pieces.

    A head or tail piece is one str for all rows or one per row; an item
    piece is one str per item. The pieces are placed by index arithmetic
    and joined once.
    """
    counts = np.diff(ptr)
    per_item = len(items)
    per_row = len(head) + len(tail)
    pieces = np.empty(per_item * int(ptr[-1]) + per_row * len(counts), dtype=object)
    start = per_item * ptr[:-1] + per_row * np.arange(len(counts))
    for k, piece in enumerate(head):
        pieces[start + k] = piece
    if per_item:
        shift = np.repeat(start + len(head) - per_item * ptr[:-1], counts)
        first = per_item * np.arange(ptr[-1]) + shift
        for k, piece in enumerate(items):
            pieces[first + k] = piece
    end = start + len(head) + per_item * counts
    for k, piece in enumerate(tail):
        pieces[end + k] = piece
    return "".join(pieces.tolist())


def _lp_lines(ptr, indices, data, names: np.ndarray, head: list, tail: list) -> list[str]:
    """One LP line per CSR row: head, signed terms, tail; wrapped where
    longer than the line width."""
    distinct, code = _distinct(data)
    terms = [
        (" - " if v < 0 else " + ") + ("" if abs(v) == 1.0 else _num(abs(v)) + " ")
        for v in distinct
    ]
    leads = [t if v < 0 else " " + t[3:] for t, v in zip(terms, distinct)]
    code[ptr[:-1][np.diff(ptr) > 0]] += len(distinct)
    prefixes = np.array(terms + leads, dtype=object)[code]
    text = _concat_rows(ptr, head, [prefixes, names[indices]], [*tail, "\n"])
    lines = text.split("\n")[:-1]
    for r in [r for r, line in enumerate(lines) if len(line) > _LINE_WIDTH]:
        label, body = lines[r].split(": ", 1)
        lines[r] = "\n".join(_wrap(label + ":", body.split(" ")))
    return lines


def write_lp(model: MipModel) -> str:
    names = np.array(model.layout.names(), dtype=object)
    out: list[str] = []
    label = model.metadata.get("label", "")
    out.append(f"\\ cdsp model  label={label}  n={model.n}  K={model.fleet_size}")
    out.append("Minimize")
    costed = np.flatnonzero(model.c)
    out.extend(
        _lp_lines(np.array([0, len(costed)]), costed, model.c[costed], names, [" obj:"], [])
    )
    out.append("Subject To")
    matrix = model.matrix
    codes, rhs = model.row_senses()
    out.extend(
        _lp_lines(
            matrix.indptr,
            matrix.indices,
            matrix.data,
            names,
            [" ", np.array(model.row_names(), dtype=object), ":"],
            [np.array([f" {s} " for s in SENSES], dtype=object)[codes], _text(rhs, _num)],
        )
    )

    out.append("Bounds")
    names = names.tolist()
    for name, integer, lo, up in zip(
        names, model.integrality.tolist(), model.col_lower.tolist(), model.col_upper.tolist()
    ):
        if integer:
            if lo == up:
                out.append(f" {name} = {_num(lo)}")
            continue
        if lo == 0.0 and up == math.inf:
            continue
        if lo == up:
            out.append(f" {name} = {_num(lo)}")
        elif up == math.inf:
            out.append(f" {name} >= {_num(lo)}")
        else:
            out.append(f" {_num(lo)} <= {name} <= {_num(up)}")
    out.append("Binaries")
    out.extend(_wrap("", [name for name, b in zip(names, model.integrality.tolist()) if b]))
    out.append("End")
    return "\n".join(out) + "\n"


def write_mps(model: MipModel) -> str:
    names = model.layout.names()
    row_names = np.array(model.row_names(), dtype=object)
    one_line_per_row = np.zeros(model.num_rows + 1, dtype=np.int64)  # rows without items
    label = str(model.metadata.get("label", "")) or "model"
    safe = re.sub(r"[^A-Za-z0-9_.-]", "_", label)
    codes, rhs = model.row_senses()
    out: list[str] = [f"NAME {safe}\nROWS\n N obj\n"]
    tag = {SENSE_LE: " L ", SENSE_EQ: " E ", SENSE_GE: " G "}
    tags = np.array([tag[s] for s in SENSES], dtype=object)[codes]
    out.append(_concat_rows(one_line_per_row, [tags, row_names, "\n"]))

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
        np.array([f"    {name}  " for name in names], dtype=object)[column_of],
        row_names[csc.indices],
        _text(csc.data, lambda v: f"  {_num(v)}\n"),
    ]
    out.append(_concat_rows(csc.indptr, [np.array(heads, dtype=object)], cells))
    if in_integer:
        out.append("    MARKER    'MARKER'    'INTEND'\n")

    out.append("RHS\n")
    rhs_text = _text(rhs, _num)
    out.append(_concat_rows(one_line_per_row, ["    RHS  ", row_names, "  ", rhs_text, "\n"]))

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

import io
import math
import tracemalloc

import numpy as np
import pytest

from cdsp import build_model, build_multigraph, emit_model
from cdsp.formulation import write_lp, write_mps, writers

import views
from gen import random_instance
from readers import read_lp, read_mps


def _parsed_matches_model(parsed, model):
    names = {v.column: v.name for v in views.variables(model)}
    # objective: exactly the completion columns with coefficient 1
    want_obj = {names[col]: val for col, val in views.objective(model).items()}
    assert parsed.objective == want_obj
    # constraints: identical counts, coefficients, senses, right-hand sides
    assert len(parsed.constraints) == len(model.constraints)
    for row in model.constraints:
        coeffs, sense, rhs = parsed.constraints[row.name]
        assert sense == ("=" if row.sense == "=" else row.sense)
        assert rhs == pytest.approx(row.rhs, abs=0)
        assert coeffs == {names[col]: val for col, val in row.coeffs.items()}
    # variables: every column present with identical bounds and integrality
    parsed_names = set(parsed.variable_names())
    for var in views.variables(model):
        assert var.name in parsed_names
        lo, up = parsed.bound(var.name)
        assert lo == var.lower
        assert up == var.upper or (up == math.inf and var.upper == math.inf)
        assert (var.name in parsed.integers) == (var.kind == views.BINARY)


@pytest.fixture
def tiny2_model(tiny2):
    return build_model(build_multigraph(tiny2), tiny2)


class TestLp:
    def test_declared_counts_n2(self, tiny2_model):
        text = write_lp(tiny2_model)
        parsed = read_lp(text)
        assert len(parsed.integers) == 12  # 3n^2
        continuous = [n for n in parsed.variable_names() if n not in parsed.integers]
        assert len(continuous) == 6  # 3n

    def test_objective_line_is_completions_only(self, tiny2_model):
        parsed = read_lp(write_lp(tiny2_model))
        assert parsed.objective == {"C_1": 1.0, "C_2": 1.0}

    def test_byte_deterministic(self, tiny2_model):
        assert write_lp(tiny2_model) == write_lp(tiny2_model)
        assert emit_model(tiny2_model, "lp") == write_lp(tiny2_model)

    def test_roundtrip_tiny2(self, tiny2_model):
        _parsed_matches_model(read_lp(write_lp(tiny2_model)), tiny2_model)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            inst = random_instance(rng, int(rng.integers(1, 7)), int(rng.integers(1, 4)))
            model = build_model(build_multigraph(inst), inst)
            _parsed_matches_model(read_lp(write_lp(model)), model)

    def test_roundtrip_explicit_rows(self, tiny2):
        model = build_model(build_multigraph(tiny2), tiny2, explicit_bounds=True)
        _parsed_matches_model(read_lp(write_lp(model)), model)

    def test_long_rows_wrap_and_reparse(self):
        rng = np.random.default_rng(23)
        inst = random_instance(rng, 12, 3)  # depot balance row has 48 terms
        model = build_model(build_multigraph(inst), inst)
        text = write_lp(model)
        assert all(len(line) <= 80 for line in text.splitlines())
        _parsed_matches_model(read_lp(text), model)


class TestMps:
    def test_byte_deterministic(self, tiny2_model):
        assert write_mps(tiny2_model) == write_mps(tiny2_model)
        assert emit_model(tiny2_model, "mps") == write_mps(tiny2_model)

    def test_roundtrip_tiny2(self, tiny2_model):
        _parsed_matches_model(read_mps(write_mps(tiny2_model)), tiny2_model)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(29)
        for _ in range(5):
            inst = random_instance(rng, int(rng.integers(1, 7)), int(rng.integers(1, 4)))
            model = build_model(build_multigraph(inst), inst)
            _parsed_matches_model(read_mps(write_mps(model)), model)

    def test_single_request_declares_unreferenced_tau(self):
        # n=1 has no movement arcs, so tau_1 appears in no row; the writer
        # must still declare the column
        rng = np.random.default_rng(31)
        inst = random_instance(rng, 1, 1)
        model = build_model(build_multigraph(inst), inst)
        parsed = read_mps(write_mps(model))
        assert "tau_1" in parsed.variable_names()
        _parsed_matches_model(parsed, model)

    def test_lp_and_mps_agree(self, tiny2_model):
        from_lp = read_lp(write_lp(tiny2_model))
        from_mps = read_mps(write_mps(tiny2_model))
        assert from_lp.objective == from_mps.objective
        assert from_lp.constraints == from_mps.constraints
        assert from_lp.integers == from_mps.integers
        for name in from_lp.variable_names():
            assert from_lp.bound(name) == from_mps.bound(name)


def test_unknown_format_rejected(tiny2_model):
    with pytest.raises(ValueError, match="unknown model format"):
        emit_model(tiny2_model, "gms")


@pytest.mark.parametrize("n", [1, 3, 8, 12])
@pytest.mark.parametrize("explicit", [False, True])
def test_row_blocks_do_not_change_bytes(monkeypatch, n, explicit):
    # blocks of a few pieces put empty rows, long LP rows and the MPS
    # MARKER lines at block edges
    inst = random_instance(np.random.default_rng(n), n, max(1, n // 4))
    model = build_model(build_multigraph(inst), inst, explicit_bounds=explicit)
    lp, mps = write_lp(model), write_mps(model)
    monkeypatch.setattr(writers, "_BLOCK_PIECES", 7)
    assert write_lp(model) == lp
    assert write_mps(model) == mps


def _words(rng, count):
    """count random table entries of one to three space-led words."""
    return [
        "".join(" " + "abcxyz"[: int(k)] * int(m) for k, m in rng.integers(1, 7, (int(j), 2)))
        for j in rng.integers(1, 4, count)
    ]


def _random_gather(rng):
    """A random table, ragged ptr and head, item and tail pieces for
    `_concat_rows`, using every piece form."""
    num_rows = int(rng.integers(0, 30))
    counts = rng.integers(0, 40, num_rows) * (rng.random(num_rows) < 0.6)
    ptr = np.concatenate(([0], np.cumsum(counts)))
    num_items = int(ptr[-1])
    segments = [_words(rng, int(rng.integers(1, 20))) for _ in range(3)]
    segments.append(_words(rng, max(num_rows, 1)))
    offsets = np.cumsum([0] + [len(segment) for segment in segments]).tolist()
    table = np.array(sum(segments, []), dtype=object)

    def codes(segment, count, dtype=np.int64):
        return rng.integers(0, len(segments[segment]), count).astype(dtype)

    row_forms = [(offsets[0], codes(0, num_rows)), (offsets[3], None)]
    item_forms = [
        (offsets[1], codes(1, num_items, np.int32)),
        (offsets[3], None),
        (offsets[2], codes(2, 25, np.int32), rng.integers(0, 25, num_items)),
    ]
    head = [row_forms[k] for k in rng.integers(0, 2, int(rng.integers(0, 3)))]
    items = [item_forms[k] for k in rng.permutation(3)[: int(rng.integers(0, 4))]]
    tail = [row_forms[k] for k in rng.integers(0, 2, int(rng.integers(not head, 3)))]
    return table, ptr, head, items, tail


def _reference_rows(table, ptr, head, items, tail):
    """Each row's text, one row and one piece at a time."""

    def text(piece, k, row):
        offset, codes, *via = piece
        if codes is None:
            return table[offset + row]
        return table[offset + int(codes[int(via[0][k]) if via else k])]

    return [
        "".join(text(piece, r, r) for piece in head)
        + "".join(text(piece, i, r) for i in range(ptr[r], ptr[r + 1]) for piece in items)
        + "".join(text(piece, r, r) for piece in tail)
        for r in range(len(ptr) - 1)
    ]


@pytest.mark.parametrize("pieces", [1, 3, 7, 1 << 16])
def test_concat_rows_matches_a_per_row_join(monkeypatch, pieces):
    # a block holds the rows whose pieces fit in _BLOCK_PIECES, or one
    # longer row
    monkeypatch.setattr(writers, "_BLOCK_PIECES", pieces)
    rng = np.random.default_rng(pieces)
    for _ in range(60):
        table, ptr, head, items, tail = _random_gather(rng)
        want, size = [], pieces
        for r, line in enumerate(_reference_rows(table, ptr, head, items, tail)):
            count = len(head) + len(tail) + len(items) * int(ptr[r + 1] - ptr[r])
            if size + count > pieces:
                want.append("")
                size = 0
            want[-1] += line
            size += count
        blocks = list(writers._concat_rows(table, ptr, head, items, tail))
        assert blocks == want


def _token_wrap(prefix, tokens, width):
    """The LP wrapping rule token by token: a token joins the current line
    if the line stays within width characters, else it starts a new line
    with one space."""
    lines, current = [], prefix
    for token in tokens:
        if current and len(current) + 1 + len(token) > width:
            lines.append(current)
            current = " " + token
        else:
            current = token if not current else current + " " + token
    lines.append(current)
    return "\n".join(lines)


def test_wrap_follows_token_rule():
    # each line alone, labelled and not, and then runs of them in one block:
    # a block is broken as its lines are one by one
    rng = np.random.default_rng(41)
    width = writers._LINE_WIDTH
    lines, want = [], []
    for _ in range(1000):
        longest = 90 if rng.random() < 0.2 else 12
        tokens = ["t" * int(k) for k in rng.integers(1, longest, int(rng.integers(1, 40)))]
        prefix = " " + "r" * int(rng.integers(1, longest)) + ":"
        for line, wrapped in [
            (prefix + " " + " ".join(tokens) + "\n", _token_wrap(prefix, tokens, width) + "\n"),
            (" ".join(tokens) + "\n", _token_wrap("", tokens, width) + "\n"),
        ]:
            assert writers._wrapped(line) == wrapped
            lines.append(line)
            want.append(wrapped)
    a = 0
    while a < len(lines):
        b = a + int(rng.integers(1, 7))
        assert writers._wrapped("".join(lines[a:b])) == "".join(want[a:b])
        a = b


def _lp_row_lines(text):
    """The LP objective and constraint rows, each as the list of its lines."""
    body = text.split("Minimize\n", 1)[1].split("Bounds\n", 1)[0]
    rows = []
    for line in body.splitlines():
        if line == "Subject To":
            continue
        if line.split(" ", 2)[1].endswith(":"):
            rows.append([line])
        else:
            rows[-1].append(line)
    return rows


@pytest.mark.parametrize("explicit", [False, True])
def test_lp_rows_wrap_like_wrap(monkeypatch, explicit):
    # narrow widths force several breaks per row, breaks between a sign and
    # its coefficient, and tokens longer than a line; over all widths, some
    # line ends fall exactly on the width
    inst = random_instance(np.random.default_rng(47), 8, 2)
    model = build_model(build_multigraph(inst), inst, explicit_bounds=explicit)
    for width in range(6, 81):
        monkeypatch.setattr(writers, "_LINE_WIDTH", width)
        rows = _lp_row_lines(write_lp(model))
        assert len(rows) == model.num_rows + 1
        for lines in rows:
            line = "".join(lines)
            label = line[: line.index(":") + 1]
            assert "\n".join(lines) == _token_wrap(label, line[len(label) :].split(), width)


class _Sink:
    """A text file that remembers its largest single write."""

    def __init__(self, file):
        self.file, self.largest = file, 0

    def write(self, text):
        self.largest = max(self.largest, len(text))
        return self.file.write(text)


def test_write_model_never_holds_the_text(tmp_path):
    # write_mps grows its text in place, block by block: at its peak it
    # holds the text, one block and the writer's own arrays (the CSC index,
    # the value codes and two int32 row-name codes per row, with O(n^2)
    # strings in their tables), under 1.5 texts here; joining the blocks
    # would hold them all and the joined copy, two texts. A stream holds
    # one block besides the writer's arrays: under 0.8 texts.
    inst = random_instance(np.random.default_rng(50), 50, 12)
    model = build_model(build_multigraph(inst), inst)
    path = tmp_path / "model.mps"
    tracemalloc.start()
    try:
        size = len(write_mps(model))
        _, joined = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        with open(path, "w", encoding="utf-8", newline="") as file:
            sink = _Sink(file)
            writers.write_model(model, "mps", sink)
        _, streamed = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.stat().st_size == size
    assert sink.largest < size / 10
    assert joined < 1.5 * size, (joined, size)
    assert streamed < joined - size / 2, (streamed, joined, size)
    assert streamed < 0.8 * size, (streamed, size)


def test_write_model_rejects_unknown_format_before_writing(tiny2_model):
    sink = io.StringIO()
    with pytest.raises(ValueError, match="unknown model format 'gms'"):
        writers.write_model(tiny2_model, "gms", sink)
    assert sink.getvalue() == ""


@pytest.mark.parametrize("limit, calls", [(None, 0), (0, 2)], ids=["short", "long"])
def test_long_joined_text_hands_heap_back(tiny2_model, monkeypatch, limit, calls):
    # past _TRIM_CHARS the joined writers call malloc_trim once each, and
    # the text does not change
    texts = write_lp(tiny2_model), write_mps(tiny2_model)
    trims = []
    monkeypatch.setattr(writers, "_malloc_trim", trims.append)
    if limit is not None:
        monkeypatch.setattr(writers, "_TRIM_CHARS", limit)
    assert (write_lp(tiny2_model), write_mps(tiny2_model)) == texts
    assert trims == [0] * calls

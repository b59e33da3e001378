"""Byte identity of the emitted files and of the solver handoff.

The digests for n = 3, 8 and 20 were recorded from the per-row (dict-based)
model that the array-native build replaced, and those for n = 30, whose
files span several of the writers' row blocks, from the array-native build
before the writers were blocked; both with numpy 2.4 on x86-64 Linux. A change to
the model's layout, coefficients or bounds, or to the writers' formatting,
shows up as a digest mismatch. They rely on the generator's floats being
bit-stable. The default model and the explicit-rows variant
(`cdsp emit --explicit-rows`) are both pinned.
"""

import hashlib
import io

import numpy as np
import pytest
import scipy.sparse as sp

from cdsp import build_model, build_multigraph, emit_model
from cdsp.formulation import SENSE_EQ, SENSE_GE, SENSE_LE, model_to_arrays, writers

import views
from gen import random_instance

# (n, explicit_bounds) -> (LP sha256, MPS sha256, solver-arrays sha256)
DIGESTS = {
    (3, False): (
        "50d932ad3b0e0ce06579f96b28864704026bc7944f33dc4ad2dfca0c76736095",
        "9bd114549e8151dea5a6faa7aacdf2dd9f803a12263f3cf370334802850e0b82",
        "fc1365ee5d6cfb0dbdb412c9998023fd33973edea2e3a979392a19dd55d043e1",
    ),
    (3, True): (
        "0792b8d73d0dc0ccdf37f7345ce4e18e88f2dbefb8ddb2a71bb6a263b0438cd4",
        "aa006b1d9b02879fab3cb853428a9587e4ecce28b05040e4a5345c521cb7489c",
        "7c515b3b4689eb188c29d69e7518cc51c3d8e96ca87cfdef66e1fa1ed7c8566c",
    ),
    (8, False): (
        "595e8e80947040b4cf27016ee34bd1c310f8e9e68b91b3a520e854a1e044505f",
        "56ab14f73c2125018777768be5472c2855dcb8c4b0377e227a0eb0ee183167a8",
        "2922392966e06d1a2f30b609faa0596f33d82dbf729396e0f94518bbee611012",
    ),
    (8, True): (
        "599957d0abd37f74674c9af0689186d0eec5e0709fcf380c183336e6ac9f1894",
        "704a624351be4b5a751ce1fb2cc9360785c980aa047a1b066e41849c12cc7ecb",
        "20e160dc0428a1bbf0912493e6e25e49933308423ad7a26ff28f3fe358c1a070",
    ),
    (20, False): (
        "f8ed89ef65f4ff9d6159d2c6341ac06794173f386780541cc5e76b9085c07f41",
        "b4a5d12f7194887af35cd0767891bf14188372327b1deac17ff7383d3350fa27",
        "dbd27a0872fe68c6595f8b5bdd3ed229ffccab0ebf14cdad80a9595366b4871c",
    ),
    (20, True): (
        "88be8430675ce5938aae89b9787ce8d55f6719ede5e9b9c207222109d03f4b38",
        "34560d3a1c390257db7e46d466c8821eb312aa46fc88e4bddee6a1403647c2a2",
        "ee39039bfab441692812edece05c1d8d65d91ce72cc9e7c4cbd874863a98b27a",
    ),
    (30, False): (
        "b6871a61c1b13c2edf42f1d945430c04a88e932b6e7f0caa8158dfd9d1bdd5b5",
        "ed7325a39716a89bb7e395bce11ddd394b89ccf63e7ae078c9d2fc34d1027e52",
        "dc7bacf87a29d29befc96e831d00656587559d9fc82599f4142738ef40330bbb",
    ),
    (30, True): (
        "1afc1db1f27b93183fc6593365a55e659c0a64c8ce9dce89a674d93697c30e43",
        "25f490297fcc6764060c9137a0f23d1f5685f392649087e5447112594bb45859",
        "91f0d83e910f0995fc930e7469b0fd9d5f7807a0ced03eb966adc33abf587826",
    ),
}


def _model(n: int, explicit_bounds: bool):
    inst = random_instance(np.random.default_rng(n), n, max(1, n // 4))
    return build_model(build_multigraph(inst), inst, explicit_bounds=explicit_bounds)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _arrays_sha(model) -> str:
    c, matrix, row_lb, row_ub, lb, ub, integrality = model_to_arrays(model)
    matrix = sp.csr_matrix(matrix)
    parts = [
        np.asarray(c, dtype=np.float64),
        np.asarray(matrix.data, dtype=np.float64),
        np.asarray(matrix.indices, dtype=np.int64),
        np.asarray(matrix.indptr, dtype=np.int64),
        np.asarray(matrix.shape, dtype=np.int64),
        np.asarray(row_lb, dtype=np.float64),
        np.asarray(row_ub, dtype=np.float64),
        np.asarray(lb, dtype=np.float64),
        np.asarray(ub, dtype=np.float64),
        np.asarray(integrality, dtype=np.int64),
    ]
    digest = hashlib.sha256()
    for part in parts:
        digest.update(np.ascontiguousarray(part).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("n,explicit", sorted(DIGESTS))
def test_recorded_digests(n, explicit):
    model = _model(n, explicit)
    lp, mps, arrays = DIGESTS[(n, explicit)]
    assert _sha(emit_model(model, "lp")) == lp
    assert _sha(emit_model(model, "mps")) == mps
    assert _arrays_sha(model) == arrays


@pytest.mark.parametrize("n,explicit", sorted(DIGESTS))
def test_write_model_matches_emit_model(monkeypatch, tmp_path, n, explicit):
    # a StringIO and a file get exactly emit_model's text, also when every
    # row block holds only a few pieces (on the smaller models, for time)
    model = _model(n, explicit)
    for fmt in ("lp", "mps"):
        want = emit_model(model, fmt)
        for pieces in (writers._BLOCK_PIECES, 7) if n <= 8 else (writers._BLOCK_PIECES,):
            monkeypatch.setattr(writers, "_BLOCK_PIECES", pieces)
            sink = io.StringIO()
            writers.write_model(model, fmt, sink)
            assert sink.getvalue() == want
            path = tmp_path / f"model.{fmt}"
            with open(path, "w", encoding="utf-8", newline="") as file:
                writers.write_model(model, fmt, file)
            assert path.read_bytes() == want.encode()


@pytest.mark.parametrize("explicit", [False, True])
def test_row_and_column_views_agree_with_arrays(explicit):
    model = _model(8, explicit)
    c, matrix, row_lb, row_ub, lb, ub, integrality = model_to_arrays(model)

    rows, cols, vals = [], [], []
    lo, hi = [], []
    for r, row in enumerate(model.constraints):
        for col, val in row.coeffs.items():
            rows.append(r)
            cols.append(col)
            vals.append(val)
        lo.append(row.rhs if row.sense in (SENSE_EQ, SENSE_GE) else -np.inf)
        hi.append(row.rhs if row.sense in (SENSE_EQ, SENSE_LE) else np.inf)
    rebuilt = sp.csr_matrix((vals, (rows, cols)), shape=matrix.shape)
    assert (rebuilt != sp.csr_matrix(matrix)).nnz == 0
    assert np.array_equal(lo, row_lb) and np.array_equal(hi, row_ub)

    columns = views.variables(model)
    assert [v.column for v in columns] == list(range(model.num_columns))
    assert np.array_equal([v.lower for v in columns], lb)
    assert np.array_equal([v.upper for v in columns], ub)
    assert np.array_equal([v.kind == views.BINARY for v in columns], integrality == 1)
    want_c = np.zeros(model.num_columns)
    for col, val in views.objective(model).items():
        want_c[col] = val
    assert np.array_equal(want_c, c)

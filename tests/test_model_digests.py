"""Byte identity of the emitted files and of the solver handoff.

The digests for n = 3, 8 and 20 were recorded from the per-row (dict-based)
model that the array-native build replaced, and those for n = 30, whose
files span several of the writers' row blocks, from the array-native build
before the writers were blocked; both with numpy 2.4 on x86-64 Linux. A change to
the model's layout, coefficients or bounds, or to the writers' formatting,
shows up as a digest mismatch. They rely on the generator's floats being
bit-stable. The default model and the explicit-rows variant
(`cdsp emit --explicit-rows`) are both pinned.

The solver-view digests pin the arrays the bundled solve hands HiGHS,
`model_to_arrays(solver_view(model)[0])`, for the same instances with the
shift cap at the depot deadline (the shift rows are left out) and at three
quarters of it (the cap binds and they stay). They were recorded from the
view built by scipy's COO to CSR conversion and `sp.vstack`, with scipy 1.17
and numpy 2.4 on x86-64 Linux. The view's family table (each family's name,
row range and keys, the time-bound families included) is pinned alongside,
recorded from the view that declared the time-bound families' names and
ranges itself rather than taking them from `time_bound_rows`.

The model digests pin `build_model`'s own arrays at n = 50 and 100, sizes
the file digests leave out for time: the CSR `indptr`/`indices`/`data`, the
row bounds, and each family's name, row range and keys, every array with
its dtype. They were recorded from the build whose carry rows were written
through per-row index arrays, with numpy 2.4 on x86-64 Linux.
"""

import dataclasses
import hashlib
import io

import numpy as np
import pytest
import scipy.sparse as sp

from cdsp import build_model, build_multigraph, emit_model
from cdsp.formulation import SENSE_EQ, SENSE_GE, SENSE_LE, model_to_arrays, writers
from cdsp.formulation.solvers import slack_shift_start, solver_view

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

# (n, explicit_bounds, shift cap over depot deadline) -> solver-view arrays sha256
SOLVER_VIEW_DIGESTS = {
    (3, False, 0.75): "3e36217bd9978dc4d111a6cd5744f171fe980385b885eb10a096533f8125a369",
    (3, False, 1.0): "7edda3064da5cd131582d56f3770bc615c2a9645dd3ceec24744a9a5d6197949",
    (3, True, 0.75): "90abca5a77047a72985ea7a8ae94b8dfb89f10de3c612860eb8cefff93d05218",
    (3, True, 1.0): "18859c5a2cfadd1192fa01bb9ad4bc4f459cebc0fad8fb1e44cd8883f6b7ad45",
    (8, False, 0.75): "1ff8e838937480d55b3cb83df5fd28887932e57ab4604bb5d0811c7bb7716acb",
    (8, False, 1.0): "99873ebb44d6fcc12631019cc5632ac480dc5ef8c40a55a426db1ac18b43567a",
    (8, True, 0.75): "b70541897a1433761cf384a6605689f7bd3fa4948563dfcccdc92f1798354136",
    (8, True, 1.0): "a333be3415c00f927ef6bb2681fd55924cb8ca7c89766af85d2c7c3ab182961e",
    (20, False, 0.75): "463b688367ecb0244bd2fada4b533d4e9b4308b2e12d0abf1fea16757fb3bcdc",
    (20, False, 1.0): "6e9aa7df2ac10b4f171395ed53748bd47e7f00b7561884b7ca012f2e803ff424",
    (20, True, 0.75): "8dfe00d901686bcf8e27fe8e093d1a2f0ff227069e22a89d505b016a0a9777a3",
    (20, True, 1.0): "4034bbd3237db4297f847594050b2305244c6a4532cff5687cafe9daccff6684",
    (30, False, 0.75): "2fae297af50a0099b654fb08ccdc05fb4bd69ecf7c276536374c9c32435f120c",
    (30, False, 1.0): "a457e7da1d32b472b2e940360594192ead18ddc3cf92418d95e2233abff3e2eb",
    (30, True, 0.75): "3ec35914b39e0be40e4eb0139e98f3e03f6017a1c5f8ffe29ec2971115bde8f5",
    (30, True, 1.0): "bd3d1bce332fb82e05bdf49056f408c8724eb833435aabdd8a0662c8f38a5c1c",
}

# (n, explicit_bounds, shift cap over depot deadline) -> solver-view family table sha256
SOLVER_VIEW_FAMILY_DIGESTS = {
    (3, False, 0.75): "7681624b68efa5a9086dc32b9c3e45419d7b3c0c989d5f96ac348d5d5bc5781b",
    (3, False, 1.0): "ca1505bed3e57c13567344c168f2f9a00bea45c012a47b1179e0e4ff7872d5e3",
    (3, True, 0.75): "c8b51abdcc76220891519f2f402558b9ca2e665bb2e02b61dc27f7857d371ed2",
    (3, True, 1.0): "1c0a418d6ab2db4225d4a3ca72812cbdbaeabad894ca5939b4c20a895191bde7",
    (8, False, 0.75): "185c903fbd7905497021339ecc4f1163b4db4a9a31398ce4d8ef42431a5e6cce",
    (8, False, 1.0): "b80c0f36a6d5317730569d465a6a023c66da044af5fbf3bd9c4601d31040e721",
    (8, True, 0.75): "728571f7a9a79331bcaf4e7ef2f37cece958b40bc86748a721fb5aab760e7d0f",
    (8, True, 1.0): "4dfa35f7123a575af25193f8e341f99239f264a99886548f914e656717332cb1",
    (20, False, 0.75): "9349d03f6c7fe75cc8cc7d50577de84f84cb3575ebc7714ebf084e80cbf9f019",
    (20, False, 1.0): "8a91df2390e0582b43e6c6eb8c6dc2343dfbacfdc4c41832386c8d0868aa5b22",
    (20, True, 0.75): "de9ead13096dcd0ed389d2982a4e1c7d3652c2edfda9c38040a7bba369a4e1b8",
    (20, True, 1.0): "3c4fe84507b222e1a4007b779a535ec14420285315a891c322408fbf84eace6f",
    (30, False, 0.75): "fd546fae167fcd0563a242ef83ead090764e9a964d2ed881459e49c0f92644d2",
    (30, False, 1.0): "f0b809f9aaf4327c7477d77dda552a98c436fc9bc5d9148b2a4813c85a929598",
    (30, True, 0.75): "da912417d6009c10f984e54d6fe31413542930fae894f00f8c60f6eb9ef1f20e",
    (30, True, 1.0): "5169d63a3e363f413d8a8792e1c3b33f5b3e4221d0f3efe3a4751e4142466d83",
}

# (n, explicit_bounds) -> build_model arrays and family table sha256
MODEL_DIGESTS = {
    (50, False): "db91524b412e8c992125e18f9408251e26aed5858c395cc7d928204070377cb7",
    (50, True): "879968d9d47d0341a8215792201b6b8647f90dbbb31da84090377e1c28050a71",
    (100, False): "6bab3888d170c31cf6d87c11d229692e6729c69604b8c6259f0f67706cdb7892",
    (100, True): "d4cbc2e4e95649538fbb470568269d0fb4d9982d7c9eccd7fe5b544ad3ec7c82",
}


def _model(n: int, explicit_bounds: bool, cap: float | None = None):
    inst = random_instance(np.random.default_rng(n), n, max(1, n // 4))
    if cap is not None:
        inst = dataclasses.replace(inst, shift_cap=cap * inst.depot_deadline)
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


def _model_sha(model) -> str:
    digest = hashlib.sha256()
    matrix = model.matrix
    shape = np.asarray(matrix.shape, dtype=np.int64)
    for part in (matrix.indptr, matrix.indices, matrix.data, shape, model.row_lower, model.row_upper):
        digest.update(part.dtype.str.encode())
        digest.update(np.ascontiguousarray(part).tobytes())
    return _families_sha(model, digest)


def _families_sha(model, digest=None) -> str:
    """SHA-256 of each family's name, row range and keys (with dtype and
    shape), continuing ``digest`` if given."""
    digest = digest or hashlib.sha256()
    for fam in model.families:
        rows, keys = fam.rows, fam.keys
        digest.update(
            f"{fam.name} {rows.start} {rows.stop} {rows.step} {keys.dtype.str} {keys.shape}".encode()
        )
        digest.update(np.ascontiguousarray(keys).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("n,explicit", sorted(MODEL_DIGESTS))
def test_large_model_digests(n, explicit):
    assert _model_sha(_model(n, explicit)) == MODEL_DIGESTS[(n, explicit)]


@pytest.mark.parametrize("n,explicit", sorted(DIGESTS))
def test_recorded_digests(n, explicit):
    model = _model(n, explicit)
    lp, mps, arrays = DIGESTS[(n, explicit)]
    assert _sha(emit_model(model, "lp")) == lp
    assert _sha(emit_model(model, "mps")) == mps
    assert _arrays_sha(model) == arrays


@pytest.mark.parametrize("n,explicit,cap", sorted(SOLVER_VIEW_DIGESTS))
def test_solver_view_digests(n, explicit, cap):
    model = _model(n, explicit, cap)
    assert (slack_shift_start(model) is None) == (cap < 1.0)  # the shift rows bind
    view = solver_view(model)[0]
    assert _arrays_sha(view) == SOLVER_VIEW_DIGESTS[(n, explicit, cap)]
    assert _families_sha(view) == SOLVER_VIEW_FAMILY_DIGESTS[(n, explicit, cap)]


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

"""Byte identity of the solution files.

Each digest is the SHA-256 of `json.dumps(solution_to_json(sol, F', {}),
indent=2)`, F' over the tightened releases, the text `cdsp solve --out` and
`cdsp suite --out` write less the config fingerprint, for the oracle's
solution and for the bundled solve's decoded one. They were recorded with the solution held as `Trip` objects in
each `Tour` and a separate `Timing` record, with scipy 1.17 and numpy 2.4 on
x86-64 Linux. A change to how a solution is stored, scheduled, decoded or
written shows up as a digest mismatch. The decoder times the routes it reads
from the arcs with `schedule_tour`, as the oracle does, so the bundled
solve's digests rely only on HiGHS returning the same routes, not on its
float bits; each equals the oracle's.
"""

import functools
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from cdsp import (
    InstanceConfig,
    SolveLimits,
    build_instance,
    build_model,
    build_multigraph,
    exact_solve_tiny,
    extract_solution,
    f_prime,
    parse_solomon,
    solution_to_json,
    solve,
    validate_solution,
)

DATA_DIR = Path(__file__).parent / "data"

# (instance, shift cap) -> (oracle sha256, bundled solve sha256)
DIGESTS = {
    ("tiny2", "depot-deadline"): (
        "fd4c6ca3778630e31fc2f1c63123263714eea2bcfabf8781a5f06e7bc5bfa96c",
        "fd4c6ca3778630e31fc2f1c63123263714eea2bcfabf8781a5f06e7bc5bfa96c",
    ),
    ("capped2", "depot-deadline"): (
        "4d14aca02f17b49dd1152d8947b08de2324cb4c0fa47209bb43d4010cc0595dd",
        "4d14aca02f17b49dd1152d8947b08de2324cb4c0fa47209bb43d4010cc0595dd",
    ),
    ("capped2", 16.0): (
        "af2bc85fb63ea2a55a6540b04b8ca0b99f0906cc3ac7757578f596ff4526976c",
        "af2bc85fb63ea2a55a6540b04b8ca0b99f0906cc3ac7757578f596ff4526976c",
    ),
    ("wide5", "depot-deadline"): (
        "147e6948899239f628772f40c6ba76e0d45563b8ecfc99c08dfee6f2eab02783",
        "147e6948899239f628772f40c6ba76e0d45563b8ecfc99c08dfee6f2eab02783",
    ),
}


def _digest(sol, inst, windows) -> str:
    net = f_prime(sol.total_completion, inst, windows, raw_release=False)
    text = json.dumps(solution_to_json(sol, net, {}), indent=2)
    return hashlib.sha256(text.encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def _solved(name, shift_cap):
    """The instance, its graph, its model and the bundled solve's values."""
    inst = build_instance(
        parse_solomon((DATA_DIR / f"{name}.txt").read_text()),
        InstanceConfig(fleet_size="file", shift_cap=shift_cap),
        label=name,
    )
    graph = build_multigraph(inst)
    model = build_model(graph, inst)
    outcome = solve(model, SolveLimits(time_limit_s=60.0))
    return inst, graph, model, outcome.values


@pytest.mark.parametrize("name, shift_cap", list(DIGESTS))
def test_solution_digests(name, shift_cap):
    inst, graph, model, values = _solved(name, shift_cap)
    oracle = exact_solve_tiny(inst).solution
    decoded = extract_solution(model, values)
    assert validate_solution(decoded, inst, graph.windows).ok
    digests = _digest(oracle, inst, graph.windows), _digest(decoded, inst, graph.windows)
    assert digests == DIGESTS[name, shift_cap]


@pytest.mark.parametrize("name, shift_cap", list(DIGESTS))
def test_decoded_solution_ignores_the_continuous_columns(name, shift_cap):
    inst, graph, model, values = _solved(name, shift_cap)
    continuous = slice(model.layout.num_binary, None)  # z, tau and C
    noise = np.random.default_rng(7).uniform(-1e3, 1e3, model.layout.num_continuous)
    for filler in (0.0, noise):
        vec = values.copy()
        vec[continuous] = filler
        decoded = extract_solution(model, vec)
        assert _digest(decoded, inst, graph.windows) == DIGESTS[name, shift_cap][0]

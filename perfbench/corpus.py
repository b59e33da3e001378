"""Seeded benchmark inputs: a generator, a Solomon writer and the workload recipes.

The generator follows the feasible-by-construction scheme of the test
generator (windows, shift cap and depot deadline drawn around the realized
schedule of a hidden reference routing), but it is a separate copy, so that
edits to the tests cannot shift the benchmark inputs. It needs only numpy.

Rows are written with their own writer, one space between full-precision
fields: ``cdsp.instances.write_solomon`` pads fields to 11 characters and
glues a longer field onto its neighbour (see NOTES.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Slot:
    """`count` distinct instances of size n with fleet k, drawn from the
    generator seeds 0 .. variants-1."""

    n: int
    k: int
    count: int
    variants: int


# Each recipe names what its workload stresses; NOTES.md has the measured
# per-layer shares. Composition is fixed per workload, the seed picks the
# variants and their order: per-instance solve times differ by up to 30x,
# so solve-small and oracle-tiny draw every variant of their recipe and the
# seed only orders them, which keeps the mix of work the same in every run.
# Their variants are the first generator seeds, taken as they come. They are
# many, so that the median journey sits among many journeys of similar
# length instead of on one journey; emit-large needs no such spread, because
# its journey time depends on n alone. No recipe splits its journeys evenly
# between two sizes: a median would then fall between two clusters.
RECIPES: dict[str, tuple[Slot, ...]] = {
    # cdsp solve; HiGHS takes most of the time
    "solve-small": (Slot(10, 3, 12, 12), Slot(12, 3, 2, 2)),
    # cdsp emit (LP + MPS) and the solver handoff, no solve; model + writers.
    # The n = 100 journey is the tail; the median comes from the n = 50 ones.
    "emit-large": (Slot(100, 25, 1, 4), Slot(50, 12, 9, 12)),
    # cdsp solve --oracle; exhaustive oracle plus routes scheduling
    "oracle-tiny": (Slot(7, 2, 1, 1), Slot(7, 3, 1, 1), Slot(6, 2, 6, 6), Slot(6, 3, 6, 6)),
}

#: Seconds one pass (journeys, probes and calibrations) took at the defining
#: commit on a 2-core x86 box. A run makes round(--seconds / PASS_S)
#: passes, at least one, so that its sample count and mix of instances do not
#: depend on how fast the machine happens to be during the run.
PASS_S = {"solve-small": 13.0, "emit-large": 32.0, "oracle-tiny": 20.0}

#: Tiny instance every workload runs once, untimed, before measuring.
WARMUP = (6, 2, 0)


@dataclass(frozen=True)
class Case:
    """One generated input: the Solomon file plus the construction rules the
    file cannot carry (fleet size and shift cap)."""

    key: str
    path: Path
    n: int
    fleet: int
    shift_cap: float


def case_key(n: int, k: int, gen_seed: int) -> str:
    return f"n{n}-k{k}-g{gen_seed}"


def pick(workload: str, seed: int) -> list[tuple[int, int, int]]:
    """The (n, k, generator seed) triples of one pass, in visiting order.

    Larger instances come first, in seeded order within one size: a journey
    after a larger one finds the heap already grown, so a seeded position
    of the largest instance would move the timings of the others.
    """
    rng = np.random.default_rng([seed, 0xCD5B])
    chosen = []
    for slot in RECIPES[workload]:
        gens = rng.choice(slot.variants, size=slot.count, replace=False)
        chosen += [(slot.n, slot.k, int(g)) for g in gens]
    shuffled = [chosen[i] for i in rng.permutation(len(chosen))]
    return sorted(shuffled, key=lambda triple: -triple[0])


def all_triples(workload: str) -> list[tuple[int, int, int]]:
    """Every instance any seed can pick, for recording reference values."""
    return [
        (slot.n, slot.k, g) for slot in RECIPES[workload] for g in range(slot.variants)
    ]


def write_case(directory: Path, n: int, k: int, gen_seed: int) -> Case:
    xy, release, deadline, shift_cap, depot_deadline = generate(
        np.random.default_rng(gen_seed), n, k
    )
    key = case_key(n, k, gen_seed)
    path = directory / f"{key}.txt"
    path.write_text(solomon_text(key, k, xy, release, deadline, depot_deadline))
    return Case(key=key, path=path, n=n, fleet=k, shift_cap=shift_cap)


def solomon_text(name, fleet, xy, release, deadline, depot_deadline) -> str:
    rows = [
        name,
        "",
        "VEHICLE",
        "NUMBER CAPACITY",
        f"{fleet} 1000",
        "",
        "CUSTOMER",
        "CUST_NO. XCOORD. YCOORD. DEMAND READY_TIME DUE_DATE SERVICE_TIME",
        "",
    ]
    for j in range(len(xy)):
        due = depot_deadline if j == 0 else deadline[j]
        fields = (j, float(xy[j, 0]), float(xy[j, 1]), 0, float(release[j]), float(due), 0)
        rows.append(" ".join(repr(v) for v in fields))
    return "\n".join(rows) + "\n"


def _split_on(group: list[int], cuts) -> list[list[int]]:
    trips = [[group[0]]]
    for node, cut in zip(group[1:], cuts):
        if cut:
            trips.append([node])
        else:
            trips[-1].append(node)
    return trips


def generate(
    rng: np.random.Generator,
    n: int,
    fleet_size: int,
    scale: float = 100.0,
    release_back: float = 30.0,
    release_fwd: float = 15.0,
    deadline_slack: tuple[float, float] = (2.0, 40.0),
    horizon_slack: tuple[float, float] = (0.5, 25.0),
):
    """Coordinates, release and deadline arrays (index 0 = depot), shift cap
    and depot deadline of a feasible random instance."""
    while True:
        xy = rng.uniform(0.0, scale, size=(n + 1, 2))
        travel = np.hypot(*(xy[:, None, :] - xy[None, :, :]).transpose(2, 0, 1))
        if travel[~np.eye(n + 1, dtype=bool)].min() > 1e-3:
            break

    perm = list(rng.permutation(np.arange(1, n + 1)))
    groups = [list(map(int, g)) for g in np.array_split(perm, fleet_size) if len(g)]
    tours = [_split_on(g, rng.integers(0, 2, size=len(g) - 1)) for g in groups]

    def forward(trips, release):
        clock, at = 0.0, 0
        visits: dict[int, float] = {}
        cum_wait, min_cum_wait = 0.0, math.inf
        for trip in trips:
            for node in trip:
                arrive = clock + float(travel[at, node])
                z = max(arrive, release.get(node, 0.0))
                cum_wait += z - arrive
                min_cum_wait = min(min_cum_wait, cum_wait)
                visits[node] = z
                clock, at = z, node
            clock += float(travel[at, 0])
            at = 0
        return visits, clock, min_cum_wait

    release: dict[int, float] = {}
    for trips in tours:
        visits, _, _ = forward(trips, {})
        for node, z in visits.items():
            release[node] = max(0.0, z + float(rng.uniform(-release_back, release_fwd)))

    deadline: dict[int, float] = {}
    finals, min_shifts = [], []
    for trips in tours:
        visits, final, min_cum_wait = forward(trips, release)
        for node, z in visits.items():
            deadline[node] = z + float(rng.uniform(*deadline_slack))
        finals.append(final)
        min_shifts.append(final - min_cum_wait)

    depot_deadline = max(finals) + float(rng.uniform(*horizon_slack))
    shift_cap = max(min_shifts) + float(rng.uniform(*horizon_slack))
    rel = np.array([0.0] + [release[j] for j in range(1, n + 1)])
    dl = np.array([depot_deadline] + [deadline[j] for j in range(1, n + 1)])
    return xy, rel, dl, shift_cap, depot_deadline

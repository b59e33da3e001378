"""Seeded random-instance generator for tests.

Instances are feasible by construction: windows, the shift cap and the
depot deadline are drawn around the realized schedule of a hidden reference
routing, so the reference stays feasible after window preprocessing.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from cdsp import Instance, Site


def split_bits(group: list[int], bits: int) -> list[list[int]]:
    return split_on(group, [(bits >> i) & 1 for i in range(len(group) - 1)])


def split_on(group: list[int], cuts) -> list[list[int]]:
    trips = [[group[0]]]
    for node, cut in zip(group[1:], cuts):
        if cut:
            trips.append([node])
        else:
            trips[-1].append(node)
    return trips


def random_instance(
    rng: np.random.Generator,
    n: int,
    fleet_size: int,
    scale: float = 100.0,
    release_back: float = 30.0,
    release_fwd: float = 15.0,
    deadline_slack: tuple[float, float] = (2.0, 40.0),
    horizon_slack: tuple[float, float] = (0.5, 25.0),
) -> Instance:
    while True:
        xy = rng.uniform(0.0, scale, size=(n + 1, 2))
        travel = np.hypot(*(xy[:, None, :] - xy[None, :, :]).transpose(2, 0, 1))
        if n == 0 or travel[~np.eye(n + 1, dtype=bool)].min() > 1e-3:
            break

    perm = list(rng.permutation(np.arange(1, n + 1)))
    groups = [list(map(int, g)) for g in np.array_split(perm, fleet_size) if len(g)]
    tours = [split_on(g, rng.integers(0, 2, size=len(g) - 1)) for g in groups]

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

    sites = [Site(0, float(xy[0, 0]), float(xy[0, 1]), 0.0, depot_deadline)]
    for j in range(1, n + 1):
        sites.append(Site(j, float(xy[j, 0]), float(xy[j, 1]), release[j], deadline[j]))
    return Instance(
        sites=tuple(sites),
        travel=travel,
        fleet_size=fleet_size,
        shift_cap=shift_cap,
        depot_deadline=depot_deadline,
        label=f"rand-n{n}",
    )


def varied_instance(rng: np.random.Generator, n: int) -> Instance:
    """A `random_instance` of n requests and 1-3 vehicles, drawn across the
    settings the model must hold under: a third with wide windows (deadline
    slack in the hundreds), and half with the shift cap scaled by U(0.6, 1),
    which can make the instance infeasible."""
    fleet = int(rng.integers(1, 4))
    slack = (100.0, 400.0) if rng.random() < 1 / 3 else (2.0, 40.0)
    inst = random_instance(rng, n, fleet, deadline_slack=slack)
    if rng.random() < 0.5:
        inst = dataclasses.replace(inst, shift_cap=inst.shift_cap * float(rng.uniform(0.6, 1.0)))
    return inst

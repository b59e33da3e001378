import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdsp import (
    ArcKind,
    InfeasibleWindowError,
    Instance,
    Site,
    build_multigraph,
    preprocess_time_windows,
)
from cdsp.instances import triangle_violations
from cdsp.network import Multigraph

from conftest import make_tiny2
from gen import random_instance


def arcs_of_kind(graph: Multigraph, kind: ArcKind) -> list:
    return [a for a in graph.arcs if a.kind is kind]


def arcs_to_csv(graph: Multigraph) -> str:
    """The arc list as CSV, for comparing graphs."""
    lines = ["id,kind,source,target,cost"]
    lines += [f"{a.id},{a.kind.value},{a.source},{a.target},{a.cost!r}" for a in graph.arcs]
    return "\n".join(lines) + "\n"


def line_instance(releases, deadlines, depot_deadline, legs, fleet_size=1, shift_cap=None):
    """Sites on a line at cumulative distances `legs` from the depot."""
    xs = [0.0] + list(np.cumsum(legs))
    sites = [Site(0, 0.0, 0.0, 0.0, depot_deadline)]
    for j, (r, d) in enumerate(zip(releases, deadlines), start=1):
        sites.append(Site(j, xs[j], 0.0, r, d))
    xy = np.array([(s.x, s.y) for s in sites])
    travel = np.abs(xy[:, 0][:, None] - xy[:, 0][None, :])
    return Instance(
        sites=tuple(sites),
        travel=travel,
        fleet_size=fleet_size,
        shift_cap=shift_cap if shift_cap is not None else depot_deadline,
        depot_deadline=depot_deadline,
        label="line",
    )


class TestPreprocess:
    def test_release_raised_to_depot_leg(self):
        inst = line_instance([0.0], [10.0], depot_deadline=30.0, legs=[3.0])
        w = preprocess_time_windows(inst)
        assert (w.release[1], w.deadline[1]) == (3.0, 10.0)

    def test_deadline_cut_by_return_leg(self):
        inst = line_instance([0.0], [10.0], depot_deadline=12.0, legs=[3.0])
        w = preprocess_time_windows(inst)
        assert (w.release[1], w.deadline[1]) == (3.0, 9.0)

    def test_empty_window_reported_with_node(self):
        inst = line_instance([0.0, 0.0], [50.0, 2.0], depot_deadline=60.0, legs=[1.0, 2.0])
        with pytest.raises(InfeasibleWindowError) as err:
            preprocess_time_windows(inst)
        assert err.value.node == 2

    def test_idempotent_and_never_widens(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            inst = random_instance(rng, int(rng.integers(1, 9)), int(rng.integers(1, 4)))
            w1 = preprocess_time_windows(inst)
            for j in inst.points_of_care:
                assert w1.release[j] >= inst.sites[j].release
                assert w1.deadline[j] <= inst.sites[j].deadline
            # second application over the tightened windows changes nothing
            r2 = np.maximum(w1.release, inst.travel[0, :])
            d2 = np.minimum(w1.deadline, inst.depot_deadline - inst.travel[:, 0])
            r2[0], d2[0] = 0.0, inst.depot_deadline
            assert np.array_equal(r2, w1.release)
            assert np.array_equal(d2, w1.deadline)


class TestMultigraph:
    def test_arc_counts_n2(self, tiny2):
        g = build_multigraph(tiny2)
        assert len(g.arcs) == 8
        assert len(arcs_of_kind(g, ArcKind.DEPOT)) == 4
        assert len(arcs_of_kind(g, ArcKind.INTER)) == 2
        assert len(arcs_of_kind(g, ArcKind.REPLENISH)) == 2

    def test_replenishment_cost_tiny2(self, tiny2):
        g = build_multigraph(tiny2)
        arc = next(
            a for a in g.arcs if a.kind is ArcKind.REPLENISH and a.source == 1 and a.target == 2
        )
        assert arc.cost == 7.0  # 3 back to the depot + 4 out to site 2

    def test_arc_count_n25(self):
        rng = np.random.default_rng(1)
        inst = random_instance(rng, 25, 10)
        assert len(build_multigraph(inst).arcs) == 2 * 25 * 25

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 100))
    def test_arc_count_formulas(self, seed, n):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, n, int(rng.integers(1, 4)))
        g = build_multigraph(inst)
        assert len(g.arcs) == 2 * n * n
        assert len(arcs_of_kind(g, ArcKind.DEPOT)) == 2 * n
        assert len(arcs_of_kind(g, ArcKind.INTER)) == n * (n - 1)
        assert len(arcs_of_kind(g, ArcKind.REPLENISH)) == n * (n - 1)

    def test_exactly_one_arc_per_kind_and_pair(self):
        rng = np.random.default_rng(2)
        inst = random_instance(rng, 6, 2)
        g = build_multigraph(inst)
        for kind in (ArcKind.INTER, ArcKind.REPLENISH):
            pairs = [(a.source, a.target) for a in arcs_of_kind(g, kind)]
            assert sorted(pairs) == sorted(
                (i, j) for i in range(1, 7) for j in range(1, 7) if i != j
            )

    def test_degree_sets_partition_arcs(self):
        rng = np.random.default_rng(3)
        inst = random_instance(rng, 5, 2)
        g = build_multigraph(inst)
        out_all = [a for node in range(6) for a in g.out_arcs(node)]
        in_all = [a for node in range(6) for a in g.in_arcs(node)]
        assert sorted(out_all) == list(range(len(g.arcs)))
        assert sorted(in_all) == list(range(len(g.arcs)))

    def test_replenishment_never_cheaper_than_inter(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            inst = random_instance(rng, int(rng.integers(2, 9)), 2)
            g = build_multigraph(inst)
            inter = {(a.source, a.target): a.cost for a in arcs_of_kind(g, ArcKind.INTER)}
            for arc in arcs_of_kind(g, ArcKind.REPLENISH):
                assert arc.cost >= inter[(arc.source, arc.target)] - 1e-9

    def test_deterministic_arc_order(self, tiny2):
        g1, g2 = build_multigraph(tiny2), build_multigraph(tiny2)
        assert [(a.id, a.source, a.target, a.kind, a.cost) for a in g1.arcs] == [
            (a.id, a.source, a.target, a.kind, a.cost) for a in g2.arcs
        ]
        assert arcs_to_csv(g1) == arcs_to_csv(g2)

    def test_depot_leg_helpers(self, tiny2):
        g = build_multigraph(tiny2)
        assert g.cost_from_depot(2) == 4.0
        assert g.cost_to_depot(1) == 3.0

    def test_csv_dump_shape(self, tiny2):
        lines = arcs_to_csv(build_multigraph(tiny2)).strip().splitlines()
        assert lines[0] == "id,kind,source,target,cost"
        assert len(lines) == 9


class TestCheckTriangle:
    def test_euclidean_instance_clean(self, tiny2):
        assert triangle_violations(tiny2.travel) == []

    def test_tiny2_clean(self):
        assert triangle_violations(make_tiny2().travel) == []

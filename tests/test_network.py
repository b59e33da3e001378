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
from cdsp.network import ARC_DTYPE, Multigraph, TimeWindows

from conftest import make_tiny2
from gen import random_instance
from views import arc_list, reference_arcs


def arcs_of_kind(graph: Multigraph, kind: ArcKind) -> list:
    return [a for a in arc_list(graph) if a.kind is kind]


def arcs_to_csv(graph: Multigraph) -> str:
    """The arc list as CSV, for comparing graphs."""
    lines = ["id,kind,source,target,cost"]
    lines += [f"{a.id},{a.kind.value},{a.source},{a.target},{a.cost!r}" for a in arc_list(graph)]
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
            a
            for a in arc_list(g)
            if a.kind is ArcKind.REPLENISH and a.source == 1 and a.target == 2
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
        n = 5
        inst = random_instance(rng, n, 2)
        g = build_multigraph(inst)
        # every site: n - 1 inter + n - 1 replenish + 1 depot arc each way;
        # the depot: one arc to and from every site
        expected = np.array([n] + [2 * (n - 1) + 1] * n)
        for field in ("source", "target"):
            degree = np.bincount(g.arcs[field], minlength=n + 1)
            assert np.array_equal(degree, expected), field

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
        assert [(a.id, a.source, a.target, a.kind, a.cost) for a in arc_list(g1)] == [
            (a.id, a.source, a.target, a.kind, a.cost) for a in arc_list(g2)
        ]
        assert arcs_to_csv(g1) == arcs_to_csv(g2)

    def test_depot_arcs_copy_travel(self, tiny2):
        # the depot legs have one owner, the instance's travel times: arc ids
        # 0..n-1 leave the depot and n..2n-1 enter it, with those costs
        g = build_multigraph(tiny2)
        n, cost = g.n, g.arcs["cost"]
        assert cost[2 - 1] == tiny2.travel[0, 2] == 4.0
        assert cost[n + 1 - 1] == tiny2.travel[1, 0] == 3.0
        np.testing.assert_array_equal(cost[:n], tiny2.travel[0, 1:])
        np.testing.assert_array_equal(cost[n : 2 * n], tiny2.travel[1:, 0])

    def test_csv_dump_shape(self, tiny2):
        lines = arcs_to_csv(build_multigraph(tiny2)).strip().splitlines()
        assert lines[0] == "id,kind,source,target,cost"
        assert len(lines) == 9

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 25], ids="own-windows-{}".format)
    def test_table_equals_reference_arcs(self, n):
        inst = random_instance(np.random.default_rng(100 + n), n, 2)
        g = build_multigraph(inst)
        assert g.arcs.dtype == ARC_DTYPE
        assert len(g.arcs) == 2 * n * n
        assert arc_list(g) == reference_arcs(inst)
        # bit-identical costs, not only equal ones
        ref_costs = np.array([a.cost for a in reference_arcs(inst)])
        assert g.arcs["cost"].tobytes() == ref_costs.tobytes()

    def test_table_and_windows_are_read_only(self, tiny2):
        g = build_multigraph(tiny2)
        for array in (g.arcs, g.arcs["cost"], g.windows.release, g.windows.deadline):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]
        # the windows hold copies: the caller's arrays stay theirs
        release = np.zeros(3)
        w = TimeWindows(release=release, deadline=np.ones(3))
        release[1] = 5.0
        assert release.flags.writeable and w.release[1] == 0.0


class TestCheckTriangle:
    def test_euclidean_instance_clean(self, tiny2):
        assert triangle_violations(tiny2.travel) == []

    def test_tiny2_clean(self):
        assert triangle_violations(make_tiny2().travel) == []

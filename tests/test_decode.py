import functools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdsp import (
    ArcKind,
    InfeasibleTourError,
    ModelDecodeError,
    SolveLimits,
    assemble_solution,
    build_model,
    build_multigraph,
    extract_solution,
    solve,
    validate_solution,
)
from cdsp.oracle import exact_solve_tiny

from conftest import make_tiny2
from gen import random_instance
from views import arc_list, solution_column_values, trips_by_vehicle

DEPOT, INTER, REPLENISH = ArcKind.DEPOT, ArcKind.INTER, ArcKind.REPLENISH


@pytest.fixture
def tiny2_built(tiny2):
    g = build_multigraph(tiny2)
    return tiny2, g, build_model(g, tiny2)


class TestExtract:
    def test_tiny2_optimum_decodes_to_split_trips(self, tiny2_built):
        inst, g, model = tiny2_built
        outcome = solve(model, SolveLimits(time_limit_s=60))
        sol = extract_solution(model, outcome.values)
        assert trips_by_vehicle(sol) == (((1,), (2,)),)
        assert sol.visit == pytest.approx({1: 3.0, 2: 10.0})
        assert sol.completion == pytest.approx({1: 6.0, 2: 14.0})
        assert sol.total_completion == pytest.approx(20.0, abs=1e-9)
        assert validate_solution(sol, inst, g.windows).ok

    def test_all_zero_vector_is_decode_error(self, tiny2_built):
        _, g, model = tiny2_built
        with pytest.raises(ModelDecodeError, match="out-degree 0"):
            extract_solution(model, np.zeros(model.num_columns))

    def test_single_request_single_trip(self):
        from cdsp import Instance, Site

        inst = Instance(
            sites=(Site(0, 0.0, 0.0, 0.0, 30.0), Site(1, 3.0, 0.0, 0.0, 10.0)),
            travel=np.array([[0.0, 3.0], [3.0, 0.0]]),
            fleet_size=1,
            shift_cap=30.0,
            depot_deadline=30.0,
            label="one",
        )
        g = build_multigraph(inst)
        model = build_model(g, inst)
        outcome = solve(model, SolveLimits(time_limit_s=60))
        sol = extract_solution(model, outcome.values)
        assert trips_by_vehicle(sol) == (((1,),),)
        assert len(sol.tours) == 1

    def test_fractional_binary_rejected(self, tiny2_built):
        _, g, model = tiny2_built
        outcome = solve(model, SolveLimits(time_limit_s=60))
        values = outcome.values.copy()
        values[0] = 0.4
        with pytest.raises(ModelDecodeError, match="fractional"):
            extract_solution(model, values)

    def test_degree_violation_rejected(self, tiny2_built):
        _, g, model = tiny2_built
        outcome = solve(model, SolveLimits(time_limit_s=60))
        values = outcome.values.copy()
        # add a second outgoing arc from node 1
        extra = next(
            a.id
            for a in arc_list(g)
            if a.source == 1 and values[model.layout.x(a.id)] < 0.5
        )
        values[model.layout.x(extra)] = 1.0
        with pytest.raises(ModelDecodeError):
            extract_solution(model, values)

    def test_two_vehicles_decode(self):
        inst = make_tiny2(fleet_size=2)
        g = build_multigraph(inst)
        model = build_model(g, inst)
        outcome = solve(model, SolveLimits(time_limit_s=60))
        sol = extract_solution(model, outcome.values)
        assert sol.total_completion == pytest.approx(14.0, abs=1e-6)  # 6 + 8
        assert len(sol.tours) == 2
        assert validate_solution(sol, inst, g.windows).ok


def routing_vector(model, graph, arcs):
    """Column values with the given (kind, source, target) arcs traversed and
    every y_jj set, everything else 0."""
    ids = {(a.kind, a.source, a.target): a.id for a in arc_list(graph)}
    vec = np.zeros(model.num_columns)
    vec[[model.layout.x(ids[arc]) for arc in arcs]] = 1.0
    for j in range(1, model.n + 1):
        vec[model.layout.y(j, j)] = 1.0
    return vec


# tiny2's optimum: 0 -> 1, replenish 1 -> 2, 2 -> 0 (arc ids 0, 7, 3)
TINY2_ROUTE = [(DEPOT, 0, 1), (REPLENISH, 1, 2), (DEPOT, 2, 0)]


class TestDecodeErrors:
    """Each message names the arc or node the first failing check meets, in
    arc id or node order."""

    def test_route_decodes(self, tiny2_built):
        _, g, model = tiny2_built
        sol = extract_solution(model, routing_vector(model, g, TINY2_ROUTE))
        assert trips_by_vehicle(sol) == (((1,), (2,)),)

    def test_lowest_fractional_arc_is_named(self, tiny2_built):
        _, g, model = tiny2_built
        vec = routing_vector(model, g, TINY2_ROUTE)
        vec[5], vec[3] = 0.6, 0.4
        with pytest.raises(ModelDecodeError) as err:
            extract_solution(model, vec)
        assert str(err.value) == "fractional arc value x_3 = 0.4"

    def test_integral_value_outside_binary(self, tiny2_built):
        _, g, model = tiny2_built
        vec = routing_vector(model, g, TINY2_ROUTE)
        vec[5], vec[6] = 2.0, 0.5
        with pytest.raises(ModelDecodeError) as err:
            extract_solution(model, vec)
        assert str(err.value) == "arc value x_5 = 2.0 outside {0,1}"

    def test_lowest_fractional_carry_is_named(self, tiny2_built):
        _, g, model = tiny2_built
        vec = routing_vector(model, g, TINY2_ROUTE)
        vec[model.layout.y(2, 1)] = vec[model.layout.y(1, 2)] = 0.3
        with pytest.raises(ModelDecodeError) as err:
            extract_solution(model, vec)
        assert str(err.value) == "fractional carry value y_1_2 = 0.3"

    def test_second_out_arc(self, tiny2_built):
        _, g, model = tiny2_built
        vec = routing_vector(model, g, TINY2_ROUTE + [(INTER, 1, 2)])
        with pytest.raises(ModelDecodeError) as err:
            extract_solution(model, vec)
        assert str(err.value) == "node 1 has out-degree > 1"

    def test_first_repeated_source_in_id_order_is_named(self):
        inst = random_instance(np.random.default_rng(3), 3, 2)
        g = build_multigraph(inst)
        model = build_model(g, inst)
        # node 3's second out-arc (replenish 3 -> 1) comes after node 2's
        # (inter 2 -> 1) in id order
        route = [(DEPOT, 0, 1), (DEPOT, 1, 0), (INTER, 2, 3), (INTER, 3, 2)]
        vec = routing_vector(model, g, route + [(REPLENISH, 3, 1), (INTER, 2, 1)])
        with pytest.raises(ModelDecodeError) as err:
            extract_solution(model, vec)
        assert str(err.value) == "node 2 has out-degree > 1"

    def test_in_degree_two(self, tiny2_built):
        _, g, model = tiny2_built
        vec = routing_vector(model, g, TINY2_ROUTE + [(DEPOT, 0, 2)])
        with pytest.raises(ModelDecodeError) as err:
            extract_solution(model, vec)
        assert str(err.value) == "node 2 has out-degree 1, in-degree 2 (must be 1/1)"

    def test_more_vehicles_than_the_fleet(self, tiny2_built):
        _, g, model = tiny2_built
        route = [(DEPOT, 0, 1), (DEPOT, 0, 2), (DEPOT, 1, 0), (DEPOT, 2, 0)]
        with pytest.raises(ModelDecodeError) as err:
            extract_solution(model, routing_vector(model, g, route))
        assert str(err.value) == "2 vehicles leave the depot, fleet size 1"

    def test_unreachable_cycle(self):
        inst = random_instance(np.random.default_rng(3), 3, 2)
        g = build_multigraph(inst)
        model = build_model(g, inst)
        route = [(DEPOT, 0, 1), (DEPOT, 1, 0), (INTER, 2, 3), (REPLENISH, 3, 2)]
        with pytest.raises(ModelDecodeError) as err:
            extract_solution(model, routing_vector(model, g, route))
        assert str(err.value) == "2 traversed arcs unreachable from the depot"

    def test_nan_arc_value_is_a_decode_error(self, tiny2_built):
        _, g, model = tiny2_built
        vec = routing_vector(model, g, TINY2_ROUTE)
        vec[0] = np.nan
        with pytest.raises(ModelDecodeError, match="outside"):
            extract_solution(model, vec)


# every message a 0/1 arc vector with integral carries can meet
STRUCTURE_MESSAGES = re.compile(
    r"node \d+ has out-degree > 1"
    r"|node \d+ has out-degree \d+, in-degree \d+ \(must be 1/1\)"
    r"|\d+ vehicles leave the depot, fleet size \d+"
    r"|\d+ traversed arcs unreachable from the depot"
    r"|tour infeasible at (node \d+|shift): .+"
)


@functools.lru_cache(maxsize=None)
def _fleet_of_two(n):
    inst = random_instance(np.random.default_rng(n), n, 2)
    g = build_multigraph(inst)
    return g, build_model(g, inst)


@st.composite
def near_routings(draw):
    """A routing of all n nodes, as trips cut by replenishment or by a return
    to the depot, with up to three arc values then flipped, and random
    carry and visit-time values."""
    n = draw(st.integers(2, 5))
    g, model = _fleet_of_two(n)
    order = draw(st.permutations(range(1, n + 1)))
    cut_kinds = st.sampled_from((INTER, REPLENISH, DEPOT))
    cuts = draw(st.lists(cut_kinds, min_size=n - 1, max_size=n - 1))
    route = [(DEPOT, 0, order[0]), (DEPOT, order[-1], 0)]
    tours = [[[order[0]]]]
    for u, v, cut in zip(order, order[1:], cuts):
        if cut is DEPOT:
            route += [(DEPOT, u, 0), (DEPOT, 0, v)]
            tours.append([[v]])
        else:
            route.append((cut, u, v))
            if cut is REPLENISH:
                tours[-1].append([v])
            else:
                tours[-1][-1].append(v)
    vec = routing_vector(model, g, route)
    flips = draw(st.lists(st.integers(0, model.layout.num_arcs - 1), max_size=3))
    for a in flips:
        vec[a] = 1.0 - vec[a]
    lay = model.layout
    vec[lay.y(1, 1) : lay.y(n, n) + 1] = draw(
        st.lists(st.integers(0, 1), min_size=n * n, max_size=n * n)
    )
    vec[lay.z(1) : lay.z(n) + 1] = draw(st.lists(st.integers(0, 500), min_size=n, max_size=n))
    return g, model, vec, None if flips else tours


@settings(max_examples=300, deadline=None)
@given(near_routings())
def test_binary_vectors_decode_or_name_a_structural_fault(case):
    """Without flips, the decoded solution is the drawn routing as
    `assemble_solution` times it, whatever the visit times say: the same
    solution, or the same scheduler message when it has no timing."""
    g, model, vec, tours = case
    fits = tours is not None and len(tours) <= model.inst.fleet_size
    if fits:
        # the decoder lists tours in depot arc order, by first node
        tours = sorted(tours, key=lambda tour: tour[0][0])
        try:
            want = assemble_solution(tours, model.inst, g.windows)
        except InfeasibleTourError as err:
            want = err
    try:
        sol = extract_solution(model, vec)
    except ModelDecodeError as err:
        assert STRUCTURE_MESSAGES.fullmatch(str(err)), str(err)
        assert not fits or (isinstance(want, InfeasibleTourError) and str(err) == str(want))
        return
    visited = [node for tour in sol.tours for trip in tour.trips for node in trip]
    assert sorted(visited) == list(range(1, model.n + 1))
    assert len(sol.tours) <= model.inst.fleet_size
    assert not fits or sol == want


class TestEmbedDecodeConsistency:
    def test_embedding_oracle_solution_decodes_back(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            inst = random_instance(rng, int(rng.integers(2, 6)), int(rng.integers(1, 3)))
            g = build_multigraph(inst)
            model = build_model(g, inst)
            best = exact_solve_tiny(inst).solution
            vec = solution_column_values(best, model, g)
            sol = extract_solution(model, vec)
            assert trips_by_vehicle(sol) == trips_by_vehicle(best)
            assert sol.total_completion == pytest.approx(best.total_completion, abs=1e-9)

import numpy as np
import pytest

from cdsp import (
    ModelDecodeError,
    SolveLimits,
    build_model,
    build_multigraph,
    extract_solution,
    preprocess_time_windows,
    solve,
    validate_solution,
)
from cdsp.oracle import exact_solve_tiny

from conftest import make_tiny2
from gen import random_instance
from views import solution_column_values


@pytest.fixture
def tiny2_built(tiny2):
    g = build_multigraph(tiny2)
    return tiny2, g, build_model(g, tiny2)


class TestExtract:
    def test_tiny2_optimum_decodes_to_split_trips(self, tiny2_built):
        inst, g, model = tiny2_built
        outcome = solve(model, SolveLimits(time_limit_s=60))
        sol = extract_solution(model, outcome.values, g)
        assert sol.trips_by_vehicle == (((1,), (2,)),)
        assert sol.timing.visit == pytest.approx({1: 3.0, 2: 10.0})
        assert sol.timing.completion == pytest.approx({1: 6.0, 2: 14.0})
        assert sol.total_completion == pytest.approx(20.0, abs=1e-9)
        assert validate_solution(sol, inst, g.windows).ok

    def test_all_zero_vector_is_decode_error(self, tiny2_built):
        _, g, model = tiny2_built
        with pytest.raises(ModelDecodeError, match="out-degree 0|never"):
            extract_solution(model, np.zeros(model.num_columns), g)

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
        sol = extract_solution(model, outcome.values, g)
        assert sol.trips_by_vehicle == (((1,),),)
        assert len(sol.tours) == 1

    def test_fractional_binary_rejected(self, tiny2_built):
        _, g, model = tiny2_built
        outcome = solve(model, SolveLimits(time_limit_s=60))
        values = outcome.values.copy()
        values[0] = 0.4
        with pytest.raises(ModelDecodeError, match="fractional"):
            extract_solution(model, values, g)

    def test_degree_violation_rejected(self, tiny2_built):
        _, g, model = tiny2_built
        outcome = solve(model, SolveLimits(time_limit_s=60))
        values = outcome.values.copy()
        # add a second outgoing arc from node 1
        extra = next(
            a.id
            for a in g.arcs
            if a.source == 1 and values[model.layout.x(a.id)] < 0.5
        )
        values[model.layout.x(extra)] = 1.0
        with pytest.raises(ModelDecodeError):
            extract_solution(model, values, g)

    def test_two_vehicles_decode(self):
        inst = make_tiny2(fleet_size=2)
        g = build_multigraph(inst)
        model = build_model(g, inst)
        outcome = solve(model, SolveLimits(time_limit_s=60))
        sol = extract_solution(model, outcome.values, g)
        assert sol.total_completion == pytest.approx(14.0, abs=1e-6)  # 6 + 8
        assert len(sol.tours) == 2
        assert validate_solution(sol, inst, g.windows).ok


class TestEmbedDecodeConsistency:
    def test_embedding_oracle_solution_decodes_back(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            inst = random_instance(rng, int(rng.integers(2, 6)), int(rng.integers(1, 3)))
            w = preprocess_time_windows(inst)
            g = build_multigraph(inst, w)
            model = build_model(g, inst)
            best = exact_solve_tiny(inst, w).solution
            vec = solution_column_values(best, model, g)
            sol = extract_solution(model, vec, g)
            assert sol.trips_by_vehicle == best.trips_by_vehicle
            assert sol.total_completion == pytest.approx(best.total_completion, abs=1e-9)

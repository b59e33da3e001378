import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cdsp import ArcKind, build_model, build_multigraph
from cdsp.formulation import SENSE_EQ, SENSE_LE
from cdsp.formulation.solvers import solver_view, time_bound_rows
from cdsp.network import TimeWindows
from cdsp.oracle import exact_solve_tiny

import views
from gen import random_instance, varied_instance
from views import (
    Arc,
    arc_list,
    big_m_completion,
    big_m_shift,
    big_m_visit,
    solution_column_values,
)


def _windows(release, deadline):
    return TimeWindows(release=np.array(release), deadline=np.array(deadline))


class TestBigM:
    def test_visit_direct(self):
        arc = Arc(0, 1, 2, ArcKind.INTER, 5.0)
        w = _windows([0, 0, 4], [30, 10, 30])
        assert big_m_visit(arc, w) == 11.0

    def test_visit_clamped_at_zero(self):
        arc = Arc(0, 1, 2, ArcKind.INTER, 1.0)
        w = _windows([0, 0, 20], [30, 3, 30])
        assert big_m_visit(arc, w) == 0.0

    def test_visit_tiny2_replenishment(self, tiny2):
        g = build_multigraph(tiny2)
        arc = next(a for a in arc_list(g) if a.kind is ArcKind.REPLENISH and a.source == 1)
        assert big_m_visit(arc, g.windows) == 13.0

    def test_visit_rejects_depot_arc(self, tiny2):
        g = build_multigraph(tiny2)
        with pytest.raises(ValueError, match="points of care"):
            big_m_visit(arc_list(g)[0], g.windows)

    def test_completion_direct(self):
        w = _windows([0, 0], [30, 10])
        travel = np.array([[0.0, 3.0], [3.0, 0.0]])
        assert big_m_completion(1, w, travel) == 13.0

    def test_completion_zero_case(self):
        w = _windows([0, 0], [30, 0])
        travel = np.zeros((2, 2))
        assert big_m_completion(1, w, travel) == 0.0

    def test_completion_tiny2(self, tiny2):
        g = build_multigraph(tiny2)
        assert big_m_completion(2, g.windows, tiny2.travel) == 14.0

    def test_shift_direct(self):
        arc = Arc(0, 2, 1, ArcKind.INTER, 1.0)
        w = _windows([0, 3, 0], [30, 10, 30])
        travel = np.array([[0.0, 3.0, 1.0], [3.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        assert big_m_shift(arc, w, travel) == 7.0

    def test_shift_boundary_zero(self):
        arc = Arc(0, 2, 1, ArcKind.INTER, 1.0)
        w = _windows([0, 3, 0], [30, 3, 30])
        travel = np.array([[0.0, 3.0, 1.0], [3.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        assert big_m_shift(arc, w, travel) == 0.0

    def test_shift_tiny2(self, tiny2):
        g = build_multigraph(tiny2)
        arc = next(a for a in arc_list(g) if a.kind is ArcKind.INTER and a.target == 2)
        assert big_m_shift(arc, g.windows, tiny2.travel) == 6.0

    def test_shift_rejects_depot_arc(self, tiny2):
        g = build_multigraph(tiny2)
        with pytest.raises(ValueError, match="points of care"):
            big_m_shift(arc_list(g)[0], g.windows, tiny2.travel)


class TestBuildModel:
    def test_tiny2_carry_rows(self, tiny2):
        model = build_model(build_multigraph(tiny2), tiny2)
        assert len(views.rows_by_family(model, "carry")) == 2

    def test_variable_counts_n25(self):
        rng = np.random.default_rng(3)
        inst = random_instance(rng, 25, 10)
        model = build_model(build_multigraph(inst), inst)
        assert views.count_binary(model) == 1875
        assert views.count_continuous(model) == 75

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_row_count_formulas(self, n):
        rng = np.random.default_rng(n)
        inst = random_instance(rng, n, 2)
        model = build_model(build_multigraph(inst), inst)
        assert views.count_binary(model) == 3 * n * n
        assert views.count_continuous(model) == 3 * n
        assert len(views.rows_by_family(model, "tprop")) == 2 * n * (n - 1)
        assert len(views.rows_by_family(model, "carry")) == n * (n - 1) ** 2
        assert len(views.rows_by_family(model, "compl")) == n * n
        assert len(views.rows_by_family(model, "sprop")) == 2 * n * (n - 1)
        assert len(views.rows_by_family(model, "visit_out")) == n
        assert len(views.rows_by_family(model, "visit_in")) == n
        assert len(views.rows_by_family(model, "depot_balance")) == 0  # exact-name row
        assert sum(1 for c in model.constraints if c.name == "depot_balance") == 1
        assert sum(1 for c in model.constraints if c.name == "fleet_cap") == 1

    def test_objective_touches_exactly_completion_columns(self, tiny2):
        model = build_model(build_multigraph(tiny2), tiny2)
        lay = model.layout
        assert views.objective(model) == {lay.completion(1): 1.0, lay.completion(2): 1.0}

    def test_bounds_embed_windows_and_shift(self, tiny2):
        model = build_model(build_multigraph(tiny2), tiny2)
        by_name = {v.name: v for v in views.variables(model)}
        assert (by_name["z_1"].lower, by_name["z_1"].upper) == (3.0, 10.0)
        assert (by_name["z_2"].lower, by_name["z_2"].upper) == (4.0, 10.0)
        assert (by_name["tau_1"].lower, by_name["tau_1"].upper) == (3.0, 27.0)
        assert (by_name["y_1_1"].lower, by_name["y_1_1"].upper) == (1.0, 1.0)
        assert (by_name["y_1_2"].lower, by_name["y_1_2"].upper) == (0.0, 1.0)
        assert by_name["C_1"].upper == math.inf

    def test_explicit_rows_mode(self, tiny2):
        model = build_model(build_multigraph(tiny2), tiny2, explicit_bounds=True)
        n = 2
        assert len(views.rows_by_family(model, "window_lo")) == n
        assert len(views.rows_by_family(model, "window_hi")) == n
        assert len(views.rows_by_family(model, "collect")) == n
        assert len(views.rows_by_family(model, "shift_lo")) == n
        assert len(views.rows_by_family(model, "shift_cap")) == n
        by_name = {v.name: v for v in views.variables(model)}
        assert (by_name["z_1"].lower, by_name["z_1"].upper) == (0.0, math.inf)
        assert (by_name["y_1_1"].lower, by_name["y_1_1"].upper) == (0.0, 1.0)
        collect = next(c for c in model.constraints if c.name == "collect_1")
        assert collect.sense == SENSE_EQ and collect.rhs == 1.0

    def test_explicit_rows_solve_to_same_optimum(self, tiny2):
        from cdsp import SolveLimits, solve

        g = build_multigraph(tiny2)
        default = solve(build_model(g, tiny2), SolveLimits(time_limit_s=60))
        explicit = solve(
            build_model(g, tiny2, explicit_bounds=True), SolveLimits(time_limit_s=60)
        )
        assert default.objective == pytest.approx(explicit.objective, abs=1e-9)
        assert explicit.objective == pytest.approx(20.0, abs=1e-6)

    def test_no_zero_coefficients_stored(self):
        rng = np.random.default_rng(8)
        inst = random_instance(rng, 5, 2)
        model = build_model(build_multigraph(inst), inst)
        for row in model.constraints:
            assert all(v != 0.0 for v in row.coeffs.values())

    def test_unique_names_and_column_bijection(self):
        rng = np.random.default_rng(9)
        inst = random_instance(rng, 4, 2)
        model = build_model(build_multigraph(inst), inst)
        names = [c.name for c in model.constraints]
        assert len(set(names)) == len(names)
        assert [v.column for v in views.variables(model)] == list(range(model.num_columns))

    @pytest.mark.parametrize("n", [1, 2, 8])
    @pytest.mark.parametrize("explicit", [False, True])
    def test_row_names_follow_family_keys(self, n, explicit):
        # reference: one f-string per row from the family table
        inst = random_instance(np.random.default_rng(n), n, max(1, n // 4))
        model = build_model(build_multigraph(inst), inst, explicit_bounds=explicit)
        want = [None] * model.num_rows
        for fam in model.families:
            for r, key in zip(fam.rows, fam.keys.tolist()):
                if len(key) == 2:
                    want[r] = f"{fam.name}_{key[0]}_{key[1]}"
                elif len(key) == 1:
                    want[r] = f"{fam.name}_{key[0]}"
                else:
                    want[r] = fam.name
        names = views.row_names(model)
        assert len(names) == model.num_rows
        assert all(type(name) is str for name in names)
        assert list(names) == want
        assert [row.name for row in model.constraints] == want
        tprop = next(fam for fam in model.families if fam.name == "tprop")
        tprop_names = [row.name for row in views.rows_by_family(model, "tprop")]
        assert tprop_names == [want[r] for r in tprop.rows]

        # CSR invariants: columns strictly increase within each row, no
        # stored zeros, and the family ranges tile the rows once each
        matrix = model.matrix
        assert matrix.format == "csr" and matrix.shape == (model.num_rows, model.num_columns)
        row_of = np.repeat(np.arange(model.num_rows), np.diff(matrix.indptr))
        assert (np.diff(row_of * model.num_columns + matrix.indices) > 0).all()
        assert (matrix.data != 0).all()
        covered = np.zeros(model.num_rows, dtype=int)
        for fam in model.families:
            assert len(fam.keys) == len(fam.rows)
            covered[fam.rows.start : fam.rows.stop : fam.rows.step] += 1
        assert (covered == 1).all()

    @pytest.mark.parametrize("n", [1, 30])
    @pytest.mark.parametrize("explicit", [False, True])
    def test_row_name_tables_stay_small(self, n, explicit):
        # two int32 codes per row into O(n^2) strings, not one string per
        # row; n = 1 has families with no rows and with zero-width keys
        inst = random_instance(np.random.default_rng(n), n, max(1, n // 4))
        model = build_model(build_multigraph(inst), inst, explicit_bounds=explicit)
        heads, tails, head_code, tail_code = model.row_name_codes()
        assert len(heads) + len(tails) <= 4 * n * n + 20
        for codes, table in ((head_code, heads), (tail_code, tails)):
            assert codes.dtype == np.int32
            assert codes.shape == (model.num_rows,)
            assert 0 <= codes.min() and codes.max() < len(table)
        assert all(type(name) is str for name in heads + tails)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_big_m_coefficients_are_tightest(self, seed):
        # recomputing every big-M from windows reproduces the stored
        # coefficients exactly
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, int(rng.integers(2, 7)), 2)
        g = build_multigraph(inst)
        model = build_model(g, inst)
        lay = model.layout
        arc_by_id = {a.id: a for a in arc_list(g)}
        for row in views.rows_by_family(model, "tprop"):
            arc = arc_by_id[int(row.name.split("_")[1])]
            m = big_m_visit(arc, g.windows)
            assert row.coeffs.get(lay.x(arc.id), 0.0) == m
            assert row.rhs == m - arc.cost
        for row in views.rows_by_family(model, "sprop"):
            arc = arc_by_id[int(row.name.split("_")[1])]
            m = big_m_shift(arc, g.windows, inst.travel)
            assert row.coeffs.get(lay.x(arc.id), 0.0) == m
            assert row.rhs == m
        for row in views.rows_by_family(model, "compl"):
            _, i, j = row.name.split("_")
            m = big_m_completion(int(i), g.windows, inst.travel)
            assert row.coeffs.get(lay.y(int(i), int(j)), 0.0) == m


def assert_canonical_csr(matrix):
    """Columns strictly ascending within each row (sorted, no duplicates),
    in range, and no stored zeros."""
    ptr, cols = matrix.indptr, matrix.indices
    assert ptr[0] == 0 and ptr[-1] == len(cols) == len(matrix.data)
    assert np.all(np.diff(ptr) >= 0)
    ascending = np.diff(cols) > 0
    starts = ptr[1:-1]
    ascending[starts[(starts > 0) & (starts < len(cols))] - 1] = True  # a new row may drop
    assert ascending.all(), np.flatnonzero(~ascending)
    assert len(cols) == 0 or (cols.min() >= 0 and cols.max() < matrix.shape[1])
    assert np.all(matrix.data != 0)


class TestDirectPlacement:
    """`build_model` writes each row's entries straight into the CSR arrays;
    the triplet build it replaced (`views.reference_rows`) must give the same
    arrays, value for value and dtype for dtype."""

    @staticmethod
    def check(inst, explicit):
        g = build_multigraph(inst)
        model = build_model(g, inst, explicit_bounds=explicit)
        matrix, lower, upper, families = views.reference_rows(g, inst, explicit)
        assert model.matrix.shape == matrix.shape
        for got, want in (
            (model.matrix.indptr, matrix.indptr),
            (model.matrix.indices, matrix.indices),
            (model.matrix.data, matrix.data),
            (model.row_lower, lower),
            (model.row_upper, upper),
        ):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        assert [(f.name, f.rows) for f in model.families] == [(f.name, f.rows) for f in families]
        for got, want in zip(model.families, families):
            assert got.keys.dtype == want.keys.dtype
            np.testing.assert_array_equal(got.keys, want.keys)
        assert_canonical_csr(model.matrix)
        assert_canonical_csr(solver_view(model)[0].matrix)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 9), st.booleans(), st.integers(0, 2**32 - 1))
    def test_build_matches_the_triplet_build(self, n, explicit, seed):
        # n = 0 is no instance: Instance needs a point of care
        self.check(varied_instance(np.random.default_rng(seed), n), explicit)

    @pytest.mark.parametrize("explicit", [False, True])
    def test_n50_build_matches_the_triplet_build(self, explicit):
        self.check(random_instance(np.random.default_rng(50), 50, 10), explicit)


class TestModelAdmitsOracleSolutions:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_oracle_solution_satisfies_every_constraint(self, seed):
        rng = np.random.default_rng(seed)
        inst = varied_instance(rng, int(rng.integers(1, 6)))
        g = build_multigraph(inst)
        model = build_model(g, inst, explicit_bounds=bool(rng.random() < 0.25))
        result = exact_solve_tiny(inst)
        assume(result.solution is not None)  # a scaled shift cap may leave no routing
        vec = solution_column_values(result.solution, model, g)
        tol = 1e-7
        for var in views.variables(model):
            assert var.lower - tol <= vec[var.column] <= var.upper + tol, var.name
        for row in model.constraints:
            lhs = sum(coef * vec[col] for col, coef in row.coeffs.items())
            if row.sense == SENSE_LE:
                assert lhs <= row.rhs + tol, row.name
            elif row.sense == SENSE_EQ:
                assert lhs == pytest.approx(row.rhs, abs=tol), row.name
            else:
                assert lhs >= row.rhs - tol, row.name
        # the rows the bundled solve adds must admit every routing too
        slack = time_bound_rows(model)[0] @ vec
        assert slack.shape == (3 * inst.n,)
        assert np.all(slack >= -tol), np.flatnonzero(slack < -tol)
        objective = sum(vec[col] * coef for col, coef in views.objective(model).items())
        assert objective == pytest.approx(result.best_total, abs=1e-6)

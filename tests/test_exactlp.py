"""Exact LP core: solutions and Farkas certificates must verify by direct arithmetic.

Soundness oracle: a returned solution is re-checked with check_solution, a
returned certificate with check_farkas; by Farkas' lemma the two cannot both
exist, so a verified answer is a proof of the verdict.  Completeness is
checked by planting known-feasible systems (b = A @ x0 with x0 >= 0).
Pivot-for-pivot oracle: the integer-preserving kernel must return exactly
the `Feasibility` of the plain ``Fraction`` simplex in `tests/oracles.py`,
which uses the same Bland pricing and lexicographic ratio test.  A column
source that prices by the largest reduced cost must end with verified
verdicts on degenerate systems.  Rows with ``b_i = 0`` are pruned by the
section source, whose restriction forbids the columns through them; its
verdicts must equal the plain solver's on the listed columns, and its lifted
duals must verify against every column, the forbidden ones included.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextuality.exactlp import (
    CertificateError,
    Feasibility,
    SparseColumns,
    TooLargeError,
    check_farkas,
    check_solution,
    columns_from_rows,
    require_certificate,
    solve_box_eq,
    solve_eq_nonneg,
)
from contextuality.scenario import make_model, make_scenario
from contextuality.sheaf import (
    build_incidence_matrix,
    solve_global_section,
)
from oracles import (
    enumerate_global_assignments,
    enumerate_vertices,
    exact_rank,
    reference_incidence_rows,
    reference_solve_eq_nonneg,
)

F = Fraction


def frac_matrix(rows):
    return [[F(v) for v in row] for row in rows]


def frac_columns(rows):
    return columns_from_rows(frac_matrix(rows))


class TestSolveEqNonneg:
    def test_planted_solution_is_found_and_exact(self):
        a = frac_columns([[1, 1, 0], [0, 1, 2]])
        b = [F(1), F(2)]
        res = solve_eq_nonneg(a, b)
        assert res.feasible
        assert check_solution(a, b, res.x)

    def test_infeasible_returns_verified_farkas(self):
        # x1 + x2 = 1 and x1 + x2 = 2 cannot both hold
        a = frac_columns([[1, 1], [1, 1]])
        b = [F(1), F(2)]
        res = solve_eq_nonneg(a, b)
        assert not res.feasible
        assert check_farkas(a, b, res.farkas)

    def test_negative_rhs_handled_by_row_orientation(self):
        a = frac_columns([[-1, 0], [0, 1]])
        b = [F(-3), F(2)]
        res = solve_eq_nonneg(a, b)
        assert res.feasible
        assert check_solution(a, b, res.x)

    def test_zero_columns_zero_rhs(self):
        a = frac_columns([[0, 0], [0, 0]])
        res = solve_eq_nonneg(a, [F(0), F(0)])
        assert res.feasible
        assert res.x == (F(0), F(0))

    def test_no_rows_is_trivially_feasible(self):
        assert solve_eq_nonneg(columns_from_rows([]), []).feasible

    def test_nonneg_constraint_forces_infeasibility(self):
        # x1 - x2 = -1 with a second row pinning x2 = 0
        a = frac_columns([[1, -1], [0, 1]])
        b = [F(-1), F(0)]
        res = solve_eq_nonneg(a, b)
        assert not res.feasible
        assert check_farkas(a, b, res.farkas)

    def test_rational_entries(self):
        a = frac_columns([[F(1, 3), F(2, 3)]])
        b = [F(5, 7)]
        res = solve_eq_nonneg(a, b)
        assert res.feasible
        assert check_solution(a, b, res.x)


BOX_CONTEXTS = (("A0", "B0"), ("A0", "B1"), ("A1", "B0"), ("A1", "B1"))


def box_model(singles, zs):
    """Two-setting box: P(m = 0) per measurement and P(0, 0) per context."""
    sc = make_scenario([(m, (0, 1)) for m in ("A0", "A1", "B0", "B1")],
                       [list(ctx) for ctx in BOX_CONTEXTS])
    tables = {}
    for (ma, mb), z in zip(BOX_CONTEXTS, zs):
        a, b = singles[ma], singles[mb]
        tables[(ma, mb)] = {(0, 0): z, (0, 1): a - z, (1, 0): b - z,
                            (1, 1): 1 - a - b + z}
    return make_model(sc, tables)


def halves_box(*zs):
    return box_model(dict.fromkeys(("A0", "A1", "B0", "B1"), F(1, 2)), zs)


def pruned_system(model):
    """(full section matrix, its rhs, the matrix on the nonzero rows, their rhs)."""
    matrix = build_incidence_matrix(model.scenario)
    v = [model.tables[ctx][sec] for ctx, sec in matrix.rows]
    live = [i for i, vi in enumerate(v) if vi]
    return matrix, v, matrix.restrict(live), [v[i] for i in live]


def dense_primal(model, pairs):
    """Section support pairs as a dense primal over the listed assignments."""
    weight = dict(pairs)
    return tuple(weight.get(t, F(0)) for t in enumerate_global_assignments(model.scenario))


class TestPrunedSolver:
    """Zero rows pruned by the section source, which forbids the columns through them."""

    def test_zero_rhs_rows_kill_their_columns(self):
        # only the sections (0, 1) and (1, 0) carry weight
        sc = make_scenario([("A", (0, 1)), ("B", (0, 1))], [["A", "B"]])
        half = F(1, 2)
        model = make_model(sc, {("A", "B"): {(0, 0): F(0), (0, 1): half,
                                             (1, 0): half, (1, 1): F(0)}})
        _, _, pruned, b = pruned_system(model)
        res = solve_eq_nonneg(pruned, b)
        assert res.feasible
        assert res.x == (((0, 1), half), ((1, 0), half))
        assert check_solution(pruned, b, res.x)
        assert not check_solution(pruned, b, res.x + (((0, 0), F(0)),))

    def test_all_columns_dead_but_mass_required(self):
        # every assignment of the PR box passes through a zero section
        model = halves_box(F(1, 2), F(1, 2), F(1, 2), F(0))
        matrix, v, pruned, b = pruned_system(model)
        assert pruned.maximum([F(1)] * pruned.m)[0] < 0
        res = solve_eq_nonneg(pruned, b)
        assert not res.feasible
        assert check_farkas(pruned, b, res.farkas)
        section = solve_global_section(model)
        assert not section.feasible
        assert check_farkas(matrix, v, section.dual)

    def test_negative_rhs_immediately_infeasible(self):
        sc = make_scenario([("A", (0, 1))], [["A"]])
        model = make_model(sc, {("A",): {(0,): F(0), (1,): F(1)}})
        _, _, pruned, _ = pruned_system(model)
        b = [F(-1)]
        res = solve_eq_nonneg(pruned, b)
        # The row's section is all last outcomes, so its artificial costs
        # |c| + 1 = 2 and the Farkas vector c_B B^-1 is 2 times the flip.
        assert pruned.costs == (2,)
        assert res == Feasibility(False, farkas=(F(-2),))
        assert check_farkas(pruned, b, res.farkas)

    def test_lifted_certificate_covers_dead_columns(self):
        # the live rows' dual scores dead assignments above 0 before lifting
        model = halves_box(F(1, 2), F(1, 2), F(1, 2), F(1, 8))
        matrix, v, pruned, b = pruned_system(model)
        res = solve_eq_nonneg(pruned, b)
        assert not res.feasible
        live = iter(res.farkas)
        unlifted = [next(live) if vi else F(0) for vi in v]
        assert matrix.maximum(unlifted)[0] > 0
        assert not check_farkas(matrix, v, unlifted)
        section = solve_global_section(model)
        assert check_farkas(matrix, v, section.dual)
        assert any(y < 0 for y, vi in zip(section.dual, v) if not vi)
        listed = columns_from_rows(frac_matrix(reference_incidence_rows(model.scenario)))
        assert check_farkas(listed, v, section.dual)


small_fracs = st.integers(min_value=-4, max_value=4).map(lambda n: F(n, 2))
nonneg_fracs = st.integers(min_value=0, max_value=6).map(lambda n: F(n, 3))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=5),
    st.data(),
)
def test_any_verdict_verifies(m, n, data):
    a = [[data.draw(small_fracs) for _ in range(n)] for _ in range(m)]
    b = [data.draw(small_fracs) for _ in range(m)]
    cols = columns_from_rows(a)
    res = solve_eq_nonneg(cols, b)
    if res.feasible:
        assert check_solution(cols, b, res.x)
    else:
        assert check_farkas(cols, b, res.farkas)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=5),
    st.data(),
)
def test_planted_feasible_systems_are_recognised(m, n, data):
    a = [[data.draw(small_fracs) for _ in range(n)] for _ in range(m)]
    x0 = [data.draw(nonneg_fracs) for _ in range(n)]
    b = [sum(a[i][j] * x0[j] for j in range(n)) for i in range(m)]
    cols = columns_from_rows(a)
    res = solve_eq_nonneg(cols, b)
    assert res.feasible
    assert check_solution(cols, b, res.x)


quarters = st.sampled_from([F(k, 4) for k in range(5)])


@settings(max_examples=80, deadline=None)
@given(st.fixed_dictionaries({m: quarters for m in ("A0", "A1", "B0", "B1")}), st.data())
def test_pruned_solver_agrees_with_plain_solver(singles, data):
    """Section verdicts on boxes with zero entries against the unpruned listed columns."""
    zs = []
    for ma, mb in BOX_CONTEXTS:
        a, b = singles[ma], singles[mb]
        zs.append(data.draw(st.sampled_from(
            [F(k, 8) for k in range(9) if max(0, a + b - 1) <= F(k, 8) <= min(a, b)])))
    model = box_model(singles, zs)
    section = solve_global_section(model)
    v = [model.tables[ctx][sec] for ctx, sec in section.matrix.rows]
    listed = columns_from_rows(frac_matrix(reference_incidence_rows(model.scenario)))
    plain = solve_eq_nonneg(listed, v)
    assert section.feasible == plain.feasible
    if section.feasible:
        assert check_solution(listed, v, dense_primal(model, section.primal))
    else:
        assert check_farkas(listed, v, section.dual)


def solve_both(a, b):
    """(kernel, reference) results; an ArithmeticError counts as a result."""
    out = []
    for solve, matrix in ((solve_eq_nonneg, columns_from_rows(a)),
                          (reference_solve_eq_nonneg, a)):
        try:
            out.append(solve(matrix, b))
        except ArithmeticError as exc:
            out.append(type(exc))
    return out


mixed_dens = st.sampled_from([1, 2, 3, 7, 10**6])
mixed_fracs = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(min_value=-9, max_value=9), mixed_dens))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=1, max_value=6),
    st.data(),
)
def test_kernel_equals_reference_simplex(m, n, data):
    """Same x or same Farkas vector, not just the same verdict."""
    a = [[data.draw(mixed_fracs) for _ in range(n)] for _ in range(m)]
    for i in data.draw(st.sets(st.integers(0, max(m - 1, 0)), max_size=2)):
        if i < m:
            a[i] = [F(0)] * n  # zero row
    for j in data.draw(st.sets(st.integers(0, n - 1), max_size=2)):
        for row in a:
            row[j] = F(0)  # zero column
    for j, k in data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                             st.integers(0, n - 1)), max_size=2)):
        for row in a:
            row[k] = row[j]  # duplicate column: ties in the ratio test
    if data.draw(st.booleans()):
        x0 = [data.draw(st.builds(F, st.integers(0, 3), mixed_dens)) for _ in range(n)]
        b = [sum(row[j] * x0[j] for j in range(n)) for row in a]
    else:
        b = [data.draw(mixed_fracs) for _ in range(m)]
    kernel, reference = solve_both(a, b)
    assert kernel == reference


def cycle_incidence(n):
    """0/1 rows (context k, outcomes a, b) against all 2^n global assignments."""
    assignments = list(itertools.product((0, 1), repeat=n))
    return [[int(t[k] == x and t[(k + 1) % n] == y) for t in assignments]
            for k in range(n) for x in (0, 1) for y in (0, 1)]


@settings(max_examples=40, deadline=None)
@given(st.fractions(min_value=0, max_value=1, max_denominator=60))
def test_kernel_equals_reference_on_anticorrelated_five_cycle(v):
    """Visibility v: P(a != b) = (1 + v) / 2 on every edge of the pentagon."""
    a = cycle_incidence(5)
    b = [(1 + v) / 4 if x != y else (1 - v) / 4
         for _ in range(5) for x in (0, 1) for y in (0, 1)]
    kernel, reference = solve_both(a, b)
    assert kernel == reference
    # Odd n-cycle bound: noncontextual iff n * v <= n - 2.
    assert kernel.feasible == (5 * v <= 3)


def test_kernel_equals_reference_with_no_rows():
    assert solve_eq_nonneg(columns_from_rows([]), []) \
        == reference_solve_eq_nonneg([], []) == Feasibility(True, x=())


def test_no_rows_keeps_the_column_count():
    assert solve_eq_nonneg(SparseColumns(0, (((), ()),) * 3), []) \
        == Feasibility(True, x=(F(0), F(0), F(0)))


class LargestColumns(SparseColumns):
    """Listed columns priced by the largest scaled y^T a_j, ties to the smallest j."""

    def price(self, y):
        best, key = 0, None
        for j in range(self.n):
            idx, ints, _ = self.column(j)
            score = sum(y[i] * v for i, v in zip(idx, ints))
            if score > best:
                best, key = score, j
        return key


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=7),
    st.data(),
)
def test_largest_pricing_ends_with_verified_verdicts(m, n, data):
    """The lexicographic ratio test ends any pricing; degenerate ties included."""
    a = [[data.draw(st.sampled_from([F(0), F(0), F(1), F(2), F(-1), F(1, 2)]))
          for _ in range(n)] for _ in range(m)]
    for j, k in data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                             st.integers(0, n - 1)), max_size=3)):
        for row in a:
            row[k] = row[j]
    b = [data.draw(st.sampled_from([F(0), F(0), F(1), F(2), F(-1)])) for _ in range(m)]
    cols = LargestColumns(m, columns_from_rows(a).cols)
    res = solve_eq_nonneg(cols, b)
    assert res.feasible == reference_solve_eq_nonneg(a, b).feasible
    assert require_certificate(cols, b, res) is res


class TestColumnSource:
    def test_primal_comes_in_the_source_form(self):
        class Pairs(SparseColumns):
            """Listed columns whose primal is its (index, value) support."""

            def primal(self, pairs):
                return tuple(sorted(pairs))

            def support(self, x):
                return list(x)

        a = Pairs(2, columns_from_rows(frac_matrix([[1, 0, 1], [0, 1, 1]])).cols)
        b = [F(1), F(1)]
        res = solve_eq_nonneg(a, b)
        assert res.feasible and all(w > 0 for _, w in res.x)
        assert require_certificate(a, b, res) is res
        assert not check_solution(a, b, res.x[:-1] + ((0, F(1)),))

    def test_dual_fault_names_the_column_priced_above_zero(self):
        a = frac_columns([[1, 1], [0, 1]])
        with pytest.raises(CertificateError, match="scores column 1 above 0"):
            require_certificate(a, [F(-1), F(1)], Feasibility(False, farkas=(F(-1), F(2))))


class TestColumnForm:
    def test_columns_from_rows_keeps_nonzeros_by_column(self):
        a = columns_from_rows([[F(1), F(0), F(-2)], [F(0), F(0), F(3, 4)]])
        assert (a.m, a.n) == (2, 3)
        assert a.cols == (((0,), (F(1),)), ((), ()), ((0, 1), (F(-2), F(3, 4))))

    def test_short_rhs_fails_solution_check(self):
        # zip used to drop the unmatched row b_1 = 5
        assert not check_solution(frac_columns([[1]]), [F(1), F(5)], [F(1)])

    def test_long_rhs_fails_solution_check(self):
        assert not check_solution(frac_columns([[1], [1]]), [F(1)], [F(1)])

    def test_wrong_length_primal_fails_solution_check(self):
        a = frac_columns([[1, 1]])
        assert check_solution(a, [F(1)], [F(1), F(0)])
        assert not check_solution(a, [F(1)], [F(1)])
        assert not check_solution(a, [F(1)], [F(1), F(0), F(0)])

    def test_long_farkas_vector_fails_instead_of_raising(self):
        a = frac_columns([[1, 1]])
        assert check_farkas(a, [F(-1)], [F(-1)])
        assert not check_farkas(a, [F(-1)], [F(-1), F(1)])
        assert not check_farkas(a, [F(-1)], [])

    def test_wrong_length_rhs_fails_farkas_check(self):
        a = frac_columns([[1, 1]])
        assert not check_farkas(a, [F(-1), F(0)], [F(-1)])

    @pytest.mark.parametrize("b", [[F(1)], [F(1), F(0), F(2)]], ids=["short", "long"])
    def test_solver_refuses_a_rhs_of_the_wrong_length(self, b):
        with pytest.raises(ValueError, match=f"right-hand side has {len(b)} entries for 2 rows"):
            solve_eq_nonneg(frac_columns([[1, 0], [0, 1]]), b)

    def test_shape_mismatch_raises_certificate_error(self):
        a = frac_columns([[1]])
        with pytest.raises(CertificateError, match="primal"):
            require_certificate(a, [F(1), F(5)], Feasibility(True, x=(F(1),)))
        with pytest.raises(CertificateError, match="dual"):
            require_certificate(a, [F(-1)],
                                Feasibility(False, farkas=(F(-1), F(1))))


class TestRequireCertificate:
    def test_valid_results_pass_through(self):
        a = frac_columns([[1, 1], [1, 1]])
        for b in ([F(1), F(1)], [F(1), F(2)]):
            res = solve_eq_nonneg(a, b)
            assert require_certificate(a, b, res) is res

    def test_wrong_primal_raises(self):
        a = frac_columns([[1, 1]])
        with pytest.raises(CertificateError, match="primal"):
            require_certificate(a, [F(1)], Feasibility(True, x=(F(1), F(1))))

    def test_wrong_farkas_raises(self):
        a = frac_columns([[1, 1]])
        with pytest.raises(CertificateError, match="dual"):
            require_certificate(a, [F(1)], Feasibility(False, farkas=(F(1),)))

    def test_is_an_assertion_error(self):
        # the CLI maps AssertionError to exit code 3
        assert issubclass(CertificateError, AssertionError)


class TestVertexEnumeration:
    """The vertex-enumeration oracle of `tests/oracles.py`."""

    def test_unit_simplex(self):
        a = frac_matrix([[1, 1, 1]])
        verts = enumerate_vertices(a, [F(1)])
        assert sorted(verts) == sorted(
            [(F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))]
        )

    def test_product_of_two_segments(self):
        a = frac_matrix([[1, 1, 0, 0], [0, 0, 1, 1]])
        verts = enumerate_vertices(a, [F(1), F(1)])
        assert len(verts) == 4
        for v in verts:
            assert v[0] + v[1] == 1 and v[2] + v[3] == 1
            assert set(v) <= {F(0), F(1)}

    def test_empty_polytope(self):
        a = frac_matrix([[1, 1], [1, 1]])
        assert enumerate_vertices(a, [F(1), F(2)]) == []

    def test_single_point(self):
        a = frac_matrix([[1, 0], [0, 1]])
        verts = enumerate_vertices(a, [F(2), F(3)])
        assert verts == [(F(2), F(3))]

    def test_vertex_cap_raises(self):
        a = frac_matrix([[1] * 3])
        with pytest.raises(TooLargeError):
            enumerate_vertices(a, [F(1)], max_vertices=1)

    def test_rank_helper(self):
        assert exact_rank(frac_matrix([[1, 2], [2, 4]])) == 1
        assert exact_rank(frac_matrix([[1, 0], [0, 1]])) == 2


class TestBoxSolve:
    def test_box_feasible(self):
        a = frac_matrix([[1, 1]])
        x = solve_box_eq(a, [F(1)], [F(0), F(0)], [F(1), F(1)])
        assert x is not None
        assert x[0] + x[1] == 1
        assert all(F(0) <= v <= F(1) for v in x)

    def test_box_infeasible(self):
        a = frac_matrix([[1, 1]])
        assert solve_box_eq(a, [F(3)], [F(0), F(0)], [F(1), F(1)]) is None

    def test_pinned_variables(self):
        a = frac_matrix([[1, 1, 1]])
        x = solve_box_eq(
            a, [F(1)],
            [F(0), F(1, 2), F(0)],
            [F(0), F(1, 2), F(1)],
        )
        assert x == [F(0), F(1, 2), F(1, 2)]

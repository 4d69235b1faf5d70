from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from plopen.linalg import (
    DimensionError,
    _elimination_adjugate,
    Matrix,
    det,
    det_sign,
    format_rational,
    integer_adjugate,
    integer_determinant,
    inverse,
    null_space,
    parse_rational,
    rank,
    solve_square,
    vec_dot,
)

from oracles import det_by_permutation_expansion, fraction_parse_rational, solve_gauss


rationals = st.builds(
    Fraction, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=9)
)


def square_matrices(max_n=4):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.lists(
            st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n
        ).map(Matrix.from_rows)
    )


class TestDetSign:
    def test_identity(self):
        assert det_sign(Matrix.identity(2)) == 1

    def test_transposition_swaps_orientation(self):
        assert det_sign(Matrix.from_rows([[0, 1], [1, 0]])) == -1

    def test_dependent_rows(self):
        assert det_sign(Matrix.from_rows([[1, 1], [2, 2]])) == 0

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            det_sign(Matrix.from_rows([[1, 2, 3], [4, 5, 6]]))

    @given(square_matrices())
    @settings(max_examples=60, deadline=None)
    def test_matches_permutation_expansion(self, m):
        expected = det_by_permutation_expansion(m.entries)
        assert det(m) == expected
        assert det_sign(m) == (expected > 0) - (expected < 0)

    @given(square_matrices())
    @settings(max_examples=40, deadline=None)
    def test_transpose_invariance(self, m):
        s = det_sign(m)
        st_ = det_sign(Matrix(tuple(zip(*m.entries))))
        assert s * st_ == (1 if s != 0 else 0)

    @given(square_matrices(max_n=3), st.data())
    @settings(max_examples=40, deadline=None)
    def test_row_swap_flips_positive_scale_preserves(self, m, data):
        if m.rows < 2:
            return
        i = data.draw(st.integers(min_value=0, max_value=m.rows - 2))
        rows = list(m.entries)
        rows[i], rows[i + 1] = rows[i + 1], rows[i]
        assert det_sign(Matrix(tuple(rows))) == -det_sign(m)
        scale = data.draw(st.integers(min_value=1, max_value=5))
        rows = list(m.entries)
        rows[i] = tuple(Fraction(scale) * x for x in rows[i])
        assert det_sign(Matrix(tuple(rows))) == det_sign(m)


class TestSolveSquare:
    def test_identity_case(self):
        assert solve_square(Matrix.identity(2), (Fraction(3), Fraction(5))) == (
            Fraction(3),
            Fraction(5),
        )

    def test_diagonal_scaling(self):
        a = Matrix.from_rows([[2, 0], [0, 2]])
        assert solve_square(a, (Fraction(1), Fraction(1))) == (
            Fraction(1, 2),
            Fraction(1, 2),
        )

    def test_rank_deficient_is_singular(self):
        a = Matrix.from_rows([[1, 1], [2, 2]])
        assert solve_square(a, (Fraction(1), Fraction(1))) is None

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            solve_square(Matrix.identity(2), (Fraction(1),))

    @given(square_matrices(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_exactness(self, a, data):
        x = tuple(
            data.draw(rationals) for _ in range(a.rows)
        )
        rhs = a.mul_vec(x)
        solution = solve_square(a, rhs)
        if det_sign(a) == 0:
            assert solution is None or a.mul_vec(solution) == rhs
        else:
            assert solution == x


class TestRank:
    def test_identity(self):
        assert rank(Matrix.identity(3)) == 3

    def test_zero(self):
        assert rank(Matrix.from_rows([[0, 0], [0, 0]])) == 0

    def test_proportional_rows(self):
        assert rank(Matrix.from_rows([[1, 2], [2, 4]])) == 1

    @given(square_matrices())
    @settings(max_examples=60, deadline=None)
    def test_full_rank_iff_nonzero_det(self, m):
        assert (rank(m) == m.rows) == (det_sign(m) != 0)


integer_matrices = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


@st.composite
def cofactor_sized_matrices(draw):
    """Sides 1-4 with small or 20-40 digit entries; about half of those of
    side 2 or more made singular by a repeated, proportional or zero row."""
    n = draw(st.integers(1, 4))
    big = st.integers(10**19, 10**40 - 1) | st.integers(-(10**40) + 1, -(10**19))
    entries = st.integers(-6, 6) | big
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        j = (i + draw(st.integers(1, n - 1))) % n
        factor = draw(st.integers(-3, 3) | big)
        rows[j] = [factor * x for x in rows[i]]
    return rows


class TestIntegerAdjugate:
    @given(integer_matrices)
    @settings(max_examples=80, deadline=None)
    def test_cofactors_by_permutation_expansion(self, rows):
        n = len(rows)
        expected_det = det_by_permutation_expansion(rows)
        assert integer_determinant([list(row) for row in rows]) == expected_det
        for adjugate, d in (integer_adjugate(rows), _elimination_adjugate(rows)):
            assert d == expected_det
            if d == 0:
                assert adjugate is None
                continue
            for i in range(n):
                for j in range(n):
                    minor = [r[:i] + r[i + 1 :] for k, r in enumerate(rows) if k != j]
                    assert adjugate[i][j] == (-1) ** (i + j) * det_by_permutation_expansion(minor)
                    assert type(adjugate[i][j]) is int

    @given(cofactor_sized_matrices())
    @settings(max_examples=150, deadline=None)
    def test_cofactor_formulas_equal_the_elimination(self, rows):
        adjugate, d = integer_adjugate(rows)
        assert (adjugate, d) == _elimination_adjugate(rows)
        copy = [list(row) for row in rows]
        assert integer_determinant(copy) == d and copy == rows
        assert type(d) is int
        assert adjugate is None if d == 0 else all(type(x) is int for row in adjugate for x in row)

    def test_row_swap_pivot(self):
        # a zero leading entry forces a swap; adj(A)·A = det(A)·I still holds
        rows = [[0, 2, 1], [3, 0, 1], [1, 1, 0]]
        adjugate, d = integer_adjugate(rows)
        product = [
            [sum(adjugate[i][k] * rows[k][j] for k in range(3)) for j in range(3)] for i in range(3)
        ]
        assert d == 5 and product == [[d * int(i == j) for j in range(3)] for i in range(3)]


class TestNullSpaceInverse:
    @given(square_matrices())
    @settings(max_examples=40, deadline=None)
    def test_inverse_or_null_vector(self, m):
        inv = inverse(m)
        if det_sign(m) != 0:
            product = tuple(tuple(vec_dot(row, col) for col in zip(*m.entries)) for row in inv.entries)
            assert product == Matrix.identity(m.rows).entries
        else:
            assert inv is None
            basis = null_space(m)
            assert basis
            for v in basis:
                assert all(x == 0 for x in m.mul_vec(v))

    def test_null_space_orthogonal_to_rows(self):
        m = Matrix.from_rows([[1, 2, 3]])
        basis = null_space(m)
        assert len(basis) == 2
        for v in basis:
            assert vec_dot(m.row(0), v) == 0


@st.composite
def rectangular_matrices(draw):
    """1-5 x 1-5 rational matrices; about half the rows are combinations of
    the rows above them, and zero entries are common."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entries = rationals | st.just(Fraction(0))
    out: list[list[Fraction]] = []
    for _ in range(rows):
        if out and draw(st.booleans()):
            coeffs = [draw(entries) for _ in out]
            out.append([sum(c * row[j] for c, row in zip(coeffs, out)) for j in range(cols)])
        else:
            out.append(draw(st.lists(entries, min_size=cols, max_size=cols)))
    return Matrix.from_rows(out)


class TestElimination:
    @given(rectangular_matrices(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_rank_null_space_det_and_solve(self, m, data):
        basis = null_space(m)
        assert rank(m) + len(basis) == m.cols
        # the free columns are those that do not raise the rank of the columns before them
        prefix = [rank(Matrix(tuple(row[:c] for row in m.entries))) for c in range(m.cols + 1)]
        free = [c for c in range(m.cols) if prefix[c + 1] == prefix[c]]
        assert len(free) == len(basis)
        for k, v in enumerate(basis):
            assert all(vec_dot(row, v) == 0 for row in m.entries)
            assert [v[c] for c in free] == [Fraction(int(k == i)) for i in range(len(free))]
        if m.is_square:
            assert det(m) == det_by_permutation_expansion(m.entries)
            rhs = tuple(data.draw(rationals) for _ in range(m.rows))
            assert solve_square(m, rhs) == solve_gauss(m.entries, rhs)


class TestRationalStrings:
    @pytest.mark.parametrize(
        "text,value",
        [("3", Fraction(3)), ("-3", Fraction(-3)), ("3/4", Fraction(3, 4)), ("-6/8", Fraction(-3, 4))],
    )
    def test_parse(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("bad", ["3/-4", "1.5", "a", "3/0", "+3", "1/08"])
    def test_parse_rejects_non_canonical(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    @given(rationals)
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q

    @given(
        st.one_of(
            st.sampled_from(["1/0", "+1", "1.5", "1/-2", "1_0", "-0/7", " 3/4\n", "-", "/2", ""]),
            st.text(alphabet="0123456789-+/._ e\t\u0663\u0669\uff11\uff10", max_size=12),
            st.builds(
                "{}{}/{}{}".format,
                st.sampled_from(["", " ", "-", "+", "--"]),
                st.integers(0, 10**30),
                st.integers(-5, 10**30),
                st.sampled_from(["", " ", "\n", "x"]),
            ),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_one_match_parses_as_fraction_did(self, text):
        def outcome(parse):
            try:
                value = parse(text)
            except ValueError as exc:
                return "rejected", str(exc)
            return type(value), value

        assert outcome(parse_rational) == outcome(fraction_parse_rational)

    def test_denominator_one_is_omitted(self):
        assert format_rational(Fraction(8, 4)) == "2"
        assert format_rational(Fraction(-3, 4)) == "-3/4"

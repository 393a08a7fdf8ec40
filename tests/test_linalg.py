"""Unit tests for the exact rational linear algebra layer."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hompoly.linalg import (
    _echelon,
    canonical_inequality,
    independent_rows,
    integer_direction,
    mat,
    mat_det,
    mat_inverse,
    mat_rank,
    mat_vec,
    nullspace_basis,
    rref,
    solve_affine_hull,
    solve_square,
    vec,
    vec_dot,
    vec_sub,
)

def mat_mul(a, b):
    """Exact matrix product, an oracle for the tests (the program needs none)."""
    cols = tuple(zip(*b, strict=True))
    return tuple(tuple(vec_dot(row, col) for col in cols) for row in a)


small_fractions = st.fractions(
    min_value=-5, max_value=5, max_denominator=7
)


def test_rank_of_dependent_rows():
    m = mat([1, 2, 3], [2, 4, 6], [0, 1, 0])
    assert mat_rank(m) == 2


def test_rank_full_and_zero():
    assert mat_rank(mat([1, 0], [0, 1])) == 2
    assert mat_rank(mat([0, 0], [0, 0])) == 0
    assert mat_rank(()) == 0


def test_rank_rectangular():
    assert mat_rank(mat([1, 2], [3, 4], [5, 6])) == 2
    assert mat_rank(mat([1, 2, 3, 4])) == 1


def test_det_small_cases():
    assert mat_det(mat([2])) == 2
    assert mat_det(mat([1, 2], [3, 4])) == -2
    assert mat_det(mat([0, 1], [1, 0])) == -1
    assert mat_det(()) == 1


def test_det_rational_entries():
    m = mat(["1/2", "1/3"], ["1/4", "1/5"])
    assert mat_det(m) == Fraction(1, 2) * Fraction(1, 5) - Fraction(1, 3) * Fraction(1, 4)


def test_det_singular():
    assert mat_det(mat([1, 2, 3], [4, 5, 6], [7, 8, 9])) == 0


@given(
    st.lists(
        st.lists(small_fractions, min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    )
)
@settings(max_examples=60, deadline=None)
def test_det_matches_cofactor_expansion(rows):
    m = mat(*rows)
    a, b, c = m[0]
    d, e, f = m[1]
    g, h, i = m[2]
    expected = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    assert mat_det(m) == expected


def test_affine_hull_of_segment():
    base, basis = solve_affine_hull((vec(0, 0, 0), vec(1, 1, 1)))
    assert base == vec(0, 0, 0)
    assert basis == (vec(1, 1, 1),)


def test_affine_hull_skips_dependent_points():
    pts = (vec(1, 0), vec(2, 0), vec(3, 0), vec(1, 1))
    base, basis = solve_affine_hull(pts)
    assert base == vec(1, 0)
    assert basis == (vec(1, 0), vec(0, 1))


def test_affine_hull_single_point():
    base, basis = solve_affine_hull((vec(5, 7),))
    assert base == vec(5, 7)
    assert basis == ()


def test_affine_hull_rank_matches_mat_rank():
    pts = (vec(0, 0, 0), vec(1, 2, 3), vec(2, 4, 6), vec(0, 0, 1))
    _, basis = solve_affine_hull(pts)
    assert len(basis) == 2
    assert mat_rank(mat(*basis)) == 2


def test_nullspace_of_full_rank_is_empty():
    assert nullspace_basis(mat([1, 0], [0, 1])) == ()


def test_nullspace_known_kernel():
    m = mat([1, 2, 3])
    basis = nullspace_basis(m)
    assert len(basis) == 2
    for v in basis:
        assert mat_vec(m, v) == (0,)
    # free columns in ascending order, free coordinate set to 1
    assert basis[0][1] == 1 and basis[1][2] == 1


def test_nullspace_zero_matrix():
    basis = nullspace_basis(mat([0, 0, 0]))
    assert basis == (vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1))


@given(
    st.lists(
        st.lists(small_fractions, min_size=4, max_size=4),
        min_size=2,
        max_size=3,
    )
)
@settings(max_examples=60, deadline=None)
def test_nullspace_dimension_and_membership(rows):
    m = mat(*rows)
    basis = nullspace_basis(m)
    assert len(basis) == 4 - mat_rank(m)
    zero = (Fraction(0),) * len(rows)
    for v in basis:
        assert mat_vec(m, v) == zero
    if basis:
        assert mat_rank(mat(*basis)) == len(basis)


def test_solve_square_roundtrip():
    m = mat([2, 1], [1, 3])
    x = solve_square(m, vec(5, 10))
    assert mat_vec(m, x) == vec(5, 10)


def test_mat_inverse_roundtrip():
    m = mat([1, 2, 0], [0, 1, 4], ["1/2", 0, 1])
    inv = mat_inverse(m)
    assert mat_mul(m, inv) == mat([1, 0, 0], [0, 1, 0], [0, 0, 1])


def test_integer_direction_scales_and_reduces():
    assert integer_direction(vec("1/2", "1/3")) == (3, 2)
    assert integer_direction(vec(-4, -6)) == (-2, -3)
    assert integer_direction(vec(0, 5, 0)) == (0, 1, 0)


def test_canonical_inequality_keeps_direction():
    normal, offset = canonical_inequality(vec("2/3", "4/3"), Fraction(2))
    assert normal == vec(1, 2)
    assert offset == 3
    # a point satisfying the original must satisfy the canonical form
    assert Fraction(2, 3) * 1 + Fraction(4, 3) * 1 <= 2
    assert 1 * 1 + 2 * 1 <= 3


# -- sympy as an independent oracle ----------------------------------------


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


# half the entries zero, so leading zeros and pivots out of row order are common
sparse_fractions = st.one_of(st.just(Fraction(0)), small_fractions)


@st.composite
def rational_matrices(draw, square=False, min_rows=0):
    """Small rational matrices, tall, wide, square or empty, whose rows
    are drawn fresh or as zero rows, duplicates or multiples of earlier
    rows, so rank deficiency is common."""
    n_rows = draw(st.integers(min_value=min_rows, max_value=5))
    n_cols = n_rows if square else draw(st.integers(min_value=0, max_value=5))
    rows: list[tuple[Fraction, ...]] = []
    for _ in range(n_rows):
        kind = draw(st.sampled_from(("fresh", "fresh", "zero", "duplicate", "multiple")))
        if kind == "zero":
            rows.append((Fraction(0),) * n_cols)
        elif kind != "fresh" and rows:
            earlier = draw(st.sampled_from(rows))
            factor = draw(small_fractions) if kind == "multiple" else 1
            rows.append(tuple(factor * e for e in earlier))
        else:
            rows.append(tuple(draw(st.lists(sparse_fractions, min_size=n_cols, max_size=n_cols))))
    return tuple(rows)


def _to_sympy(sympy, m):
    cols = len(m[0]) if m else 0
    flat = [sympy.Rational(e.numerator, e.denominator) for row in m for e in row]
    return sympy.Matrix(len(m), cols, flat)


def _from_sympy(entries):
    return tuple(Fraction(int(e.p), int(e.q)) for e in entries)


@given(rational_matrices())
@settings(max_examples=100, deadline=None)
def test_rank_matches_sympy(sympy, m):
    assert mat_rank(m) == _to_sympy(sympy, m).rank()


@given(rational_matrices())
@settings(max_examples=100, deadline=None)
def test_echelon_rows_are_primitive_integer_echelon_rows(sympy, m):
    kept, reduced = _echelon(m)
    assert len(kept) == len(reduced) == _to_sympy(sympy, m).rank()
    pivots = [pc for pc, _ in reduced]
    assert pivots == sorted(set(pivots))
    for pc, x in reduced:
        assert all(type(e) is int for e in x)
        assert gcd(*x) == 1
        assert x[pc] != 0 and not any(x[:pc])
    # the reduced rows span the same space as the input
    if reduced:
        both = tuple(tuple(Fraction(e) for e in x) for _, x in reduced) + m
        assert _to_sympy(sympy, both).rank() == len(reduced)


@given(rational_matrices())
@settings(max_examples=100, deadline=None)
def test_independent_rows_keep_exactly_the_rank_raising_rows(sympy, m):
    expected = [
        i
        for i in range(len(m))
        if _to_sympy(sympy, m[: i + 1]).rank() > _to_sympy(sympy, m[:i]).rank()
    ]
    assert independent_rows(m) == expected


@given(rational_matrices())
@settings(max_examples=100, deadline=None)
def test_rref_matches_sympy(sympy, m):
    expected, expected_pivots = _to_sympy(sympy, m).rref()
    rows, pivots = rref(m)
    assert pivots == list(expected_pivots)
    assert rows == [_from_sympy(expected.row(i)) for i in range(len(pivots))]


@given(rational_matrices())
@settings(max_examples=100, deadline=None)
def test_nullspace_matches_sympy(sympy, m):
    s = _to_sympy(sympy, m)
    basis = nullspace_basis(m)
    assert basis == tuple(_from_sympy(v) for v in s.nullspace())
    # one vector per free column, ascending, free coordinate 1 and the
    # other free coordinates 0
    _, pivots = s.rref()
    free = [c for c in range(s.cols) if c not in pivots]
    assert len(basis) == len(free)
    for v, f in zip(basis, free):
        assert [v[c] for c in free] == [int(c == f) for c in free]


@given(rational_matrices(square=True), st.data())
@settings(max_examples=100, deadline=None)
def test_inverse_and_solve_match_sympy(sympy, m, data):
    s = _to_sympy(sympy, m)
    rhs = tuple(data.draw(st.lists(small_fractions, min_size=len(m), max_size=len(m))))
    if s.rank() < len(m):
        with pytest.raises(ValueError, match="singular"):
            mat_inverse(m)
        with pytest.raises(ValueError, match="singular"):
            solve_square(m, rhs)
        return
    inverse = s.inv()
    assert mat_inverse(m) == tuple(_from_sympy(inverse.row(i)) for i in range(len(m)))
    expected = inverse * _to_sympy(sympy, tuple((b,) for b in rhs)) if m else ()
    assert solve_square(m, rhs) == (_from_sympy(expected) if m else ())


@given(rational_matrices(min_rows=1))
@settings(max_examples=100, deadline=None)
def test_affine_hull_keeps_exactly_the_rank_raising_differences(sympy, points):
    base, basis = solve_affine_hull(points)
    assert base == points[0]
    kept: list[tuple[Fraction, ...]] = []
    for p in points[1:]:
        d = vec_sub(p, base)
        before = _to_sympy(sympy, tuple(kept)).rank()
        if _to_sympy(sympy, tuple(kept) + (d,)).rank() > before:
            kept.append(d)
    assert basis == tuple(kept)

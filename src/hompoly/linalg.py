"""Exact linear algebra over the rationals.

Everything downstream (vertex enumeration, face lattices, map
classification) depends on exact rank and kernel computations, so this
module works with ``fractions.Fraction`` throughout.  Vectors are plain
tuples and matrices are tuples of row tuples: immutable, hashable, and
cheap to compare, which is what the geometric layers need for use as
dict keys and set members.

Every rank, kernel, affine hull, inverse and solve goes through one
fraction-free elimination, :func:`_echelon`, in the integer-preserving
spirit of Bareiss: each row is scaled to integers, reduced against the
rows kept so far by cross-multiplication, and divided by the gcd of its
entries, so no ``Fraction`` is built until :func:`rref` normalizes its
pivots.  :func:`integer_rref` stops one step short of that and gives
the reduced rows as primitive integers, a canonical integer key for a
row space.  :func:`mat_det` is the one exception; it runs Bareiss itself.
The vertex enumeration engine (:mod:`hompoly.dd`) runs on its own
scalar arithmetic and takes only :func:`integer_direction` from here.

The elimination chooses greedily in input order: a row is kept exactly
when it is independent of the rows kept before it.  Every derived
object is therefore fixed by the input alone (the kept rows are the
lexicographically first basis, and the reduced row echelon form, the
inverse and the solutions are unique), never by a pivoting choice, which
the table and CLI layers rely on for byte-identical output.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Scalar = Fraction
Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]


def vec(*entries: int | str | Fraction) -> Vector:
    """Build a vector of Fractions from ints, Fractions or strings like ``"2/3"``."""
    return tuple(Fraction(e) for e in entries)


def mat(*rows) -> Matrix:
    """Build a matrix from row iterables, coercing entries as :func:`vec` does."""
    return tuple(tuple(Fraction(e) for e in row) for row in rows)


def vec_add(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vec_sub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vec_dot(a: Vector, b: Vector) -> Fraction:
    return sum((x * y for x, y in zip(a, b, strict=True)), Fraction(0))


def mat_vec(m: Matrix, x: Vector) -> Vector:
    return tuple(vec_dot(row, x) for row in m)


def identity_matrix(n: int) -> Matrix:
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n))
        for i in range(n)
    )


def zero_vector(n: int) -> Vector:
    return (Fraction(0),) * n


def _integer_row(row: Sequence[Fraction | int]) -> tuple[list[int], int]:
    """The row times the lcm of its denominators, and that lcm."""
    mult = lcm(*(e.denominator for e in row))
    return [e.numerator * (mult // e.denominator) for e in row], mult


def _primitive(x: list[int]) -> list[int]:
    """``x`` divided by the gcd of its entries (zero stays zero)."""
    g = gcd(*x)
    return [e // g for e in x] if g > 1 else x


def _cancel(x: list[int], y: list[int], col: int) -> list[int]:
    """``b*x - a*y`` for ``a = x[col]``, ``b = y[col]``, made primitive."""
    a, b = x[col], y[col]
    return _primitive([b * xi - a * yi for xi, yi in zip(x, y)])


def _echelon(
    rows: Iterable[Sequence[Fraction | int]],
) -> tuple[list[int], list[tuple[int, list[int]]]]:
    """Fraction-free row echelon form, choosing rows greedily in input order.

    Each row is scaled to integers and reduced against the rows kept so
    far; it is kept when anything nonzero remains.  Elimination ends
    once every column has a pivot, since later rows can only reduce to
    zero.  Returns the input indices of the kept rows, ascending, and
    the kept rows reduced to primitive integer vectors as
    ``(pivot column, row)`` pairs sorted by pivot.  A reduced row is
    zero left of its pivot and in the pivot columns of the rows kept
    before it.
    """
    kept: list[int] = []
    reduced: list[tuple[int, list[int]]] = []
    for index, row in enumerate(rows):
        x, _ = _integer_row(row)
        for pc, y in reduced:
            if x[pc]:
                x = _cancel(x, y, pc)
        pc = next((c for c, e in enumerate(x) if e), None)
        if pc is None:
            continue
        kept.append(index)
        insort(reduced, (pc, _primitive(x)))
        if len(kept) == len(x):
            break
    return kept, reduced


def independent_rows(rows: Iterable[Sequence[Fraction | int]]) -> list[int]:
    """Input indices of the lexicographically first basis of the row space.

    Row ``i`` is listed exactly when it is independent of rows ``0..i-1``.
    """
    return _echelon(rows)[0]


def integer_rref(
    m: Iterable[Sequence[Fraction | int]],
) -> tuple[list[tuple[int, ...]], list[int]]:
    """Reduced row echelon rows as primitive integers, and their pivot columns.

    Integer back-substitution on :func:`_echelon`'s rows, bottom up, keeps
    each row primitive and zero in every pivot column but its own; each
    row is then signed so that its pivot entry is positive.  Row i is the
    one primitive integer multiple of reduced row echelon row i with a
    positive pivot, so the rows are a canonical integer basis of the row
    space: equal for matrices with the same row space, and as many as the
    rank.
    """
    reduced = _echelon(m)[1]
    pivots = [pc for pc, _ in reduced]
    rows = [x for _, x in reduced]
    for i in reversed(range(len(rows))):
        for pc, y in zip(pivots[i + 1 :], rows[i + 1 :]):
            if rows[i][pc]:
                rows[i] = _cancel(rows[i], y, pc)
    return [
        tuple(x) if x[pc] > 0 else tuple(-e for e in x)
        for pc, x in zip(pivots, rows)
    ], pivots


def rref(m: Iterable[Sequence[Fraction | int]]) -> tuple[list[Vector], list[int]]:
    """Nonzero rows of the reduced row echelon form, and their pivot columns.

    Each row of :func:`integer_rref` divided by its pivot entry.
    """
    rows, pivots = integer_rref(m)
    return [
        tuple(Fraction(e, x[pc]) for e in x) for pc, x in zip(pivots, rows)
    ], pivots


def mat_rank(m: Matrix) -> int:
    """Rank: the number of rows the elimination keeps."""
    return len(independent_rows(m))


def _integer_rows(m: Matrix) -> tuple[list[list[int]], int]:
    """Scale each row to integers; return rows and the product of scales."""
    rows: list[list[int]] = []
    scale = 1
    for row in m:
        ints, mult = _integer_row(row)
        scale *= mult
        rows.append(ints)
    return rows, scale


def mat_det(m: Matrix) -> Fraction:
    """Determinant via Bareiss elimination on an integer-scaled copy.

    Bareiss keeps every intermediate an integer with exact divisions,
    which avoids the denominator blow-up plain fraction elimination
    suffers on the large incidence systems produced upstream.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError(f"determinant requires a square matrix, got {len(m)} rows")
    if n == 0:
        return Fraction(1)
    work, scale = _integer_rows(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if work[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if work[r][k] != 0), None)
            if pivot is None:
                return Fraction(0)
            work[k], work[pivot] = work[pivot], work[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                work[i][j] = (work[i][j] * work[k][k] - work[i][k] * work[k][j]) // prev
            work[i][k] = 0
        prev = work[k][k]
    return Fraction(sign * work[n - 1][n - 1], scale)


def solve_affine_hull(points: tuple[Vector, ...]) -> tuple[Vector, tuple[Vector, ...]]:
    """Basepoint and a basis of direction vectors for the affine hull.

    The basepoint is the first input point and the basis is the greedy
    selection, in input order, of difference vectors that raise the rank,
    kept as they are (unreduced).
    """
    if not points:
        raise ValueError("affine hull of an empty point set is undefined")
    base = points[0]
    diffs = [vec_sub(p, base) for p in points[1:]]
    return base, tuple(diffs[k] for k in independent_rows(diffs))


def nullspace_basis(m: Matrix) -> tuple[Vector, ...]:
    """Basis of the right kernel, one vector per free column.

    Vectors are emitted in ascending free-column order with the free
    coordinate set to 1, so the basis is canonical for a given input.
    An empty tuple means the matrix has full column rank.
    """
    cols = len(m[0]) if m else 0
    rows, pivots = rref(m)
    basis = []
    for f in range(cols):
        if f in pivots:
            continue
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for row, pc in zip(rows, pivots):
            v[pc] = -row[f]
        basis.append(tuple(v))
    return tuple(basis)


def _solve_columns(m: Matrix, right: Matrix) -> list[Vector]:
    """Rows of ``m^-1 @ right`` for square ``m``, from one reduction of ``[m | right]``."""
    n = len(m)
    rows, pivots = rref([row + extra for row, extra in zip(m, right, strict=True)])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in rows]


def solve_square(m: Matrix, rhs: Vector) -> Vector:
    """Unique solution of ``m @ x == rhs`` for invertible square ``m``."""
    return tuple(row[0] for row in _solve_columns(m, tuple((b,) for b in rhs)))


def mat_inverse(m: Matrix) -> Matrix:
    """Inverse of a square invertible matrix: ``[m | I]`` reduced to ``[I | m^-1]``."""
    return tuple(_solve_columns(m, identity_matrix(len(m))))


def integer_direction(v: Vector) -> tuple[int, ...]:
    """Primitive integer vector that is a positive multiple of ``v``.

    The zero vector is rejected: callers use this to canonicalize ray
    directions and facet normals, where zero is always a logic error.
    """
    if all(e == 0 for e in v):
        raise ValueError("zero vector has no direction")
    return tuple(_primitive(_integer_row(v)[0]))


def canonical_inequality(normal: Vector, offset: Fraction) -> tuple[Vector, Fraction]:
    """Scale an inequality ``normal . x <= offset`` to a primitive integer normal.

    The scaling factor is positive, so the inequality direction is kept.
    The offset scales along and may remain a non-integer rational.
    """
    if all(e == 0 for e in normal):
        raise ValueError("inequality has a zero normal")
    ints, mult = _integer_row(normal)
    g = gcd(*ints)
    factor = Fraction(mult, g)
    return tuple(Fraction(e // g) for e in ints), offset * factor

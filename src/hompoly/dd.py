"""Vertex enumeration for rational H-polytopes.

The engine is the double description method run on the homogenization
cone: an inequality system ``a_i . x <= b_i`` in dimension d becomes the
cone ``{(x0, x) : x0 >= 0, b_i x0 - a_i . x >= 0}`` in dimension d + 1.
As in cdd (Fukuda & Prodon, "Double description method revisited",
1996), the row ``x0 >= 0`` makes the cone pointed whenever the normals
span.  Its extreme rays with x0 > 0 are then exactly the vertices of
the polytope, and those with x0 = 0 are its recession directions.
Working on the cone keeps every intermediate object a ray, so the
insertion step is a single positive combination.

When the normals do not span, every inequality is constant along a
common kernel direction w, so the solution set is either empty or a
union of lines parallel to w.  Dropping one coordinate where w is
nonzero keeps exactly that question, in one dimension fewer.

All arithmetic is on integers: input rows are scaled to primitive
integer form and every ray is kept as a primitive integer vector.
Entries are bounded by minors of the input (Cramer), which Python
integers absorb without ceremony.

Activity of rays against already-processed rows is tracked in bitmasks
(bit i set means row i is tight), so the adjacency pre-filter is a
popcount and the exact adjacency test is a subset check.  The mask of a
freshly combined ray is the intersection of its parents' masks plus
the new row: the ray is a positive combination of two rays that are
nonnegative on every processed row, so it is tight on such a row
exactly when both parents are.  The masks are therefore exact, as the
later incidence consumers (face lattices, simplicity tests) require.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul

from .errors import InfeasibleError, UnboundedError
from .linalg import (
    Vector,
    independent_rows,
    integer_direction,
    mat_inverse,
    nullspace_basis,
)

IntRow = tuple[int, ...]


class ConeDegenerateError(Exception):
    """The rows do not span: the cone has a lineality space."""


def _reduce(entries: list[int]) -> IntRow:
    g = gcd(*entries)
    if g == 0:
        raise ValueError("zero ray produced; input rows are inconsistent")
    return tuple(e // g for e in entries)


def _dot(a: IntRow, b: IntRow) -> int:
    return sum(map(mul, a, b))


def _greedy_row_basis(rows: list[IntRow], dim: int) -> list[int]:
    """Indices of the first ``dim`` linearly independent rows, in input order."""
    picked = independent_rows(rows)
    if len(picked) < dim:
        raise ConeDegenerateError("inequality rows do not span")
    return picked


def _initial_generators(rows: list[IntRow], picked: list[int]) -> list[IntRow]:
    """Extreme rays of the simplicial cone cut out by the picked rows.

    If M stacks the picked rows, the generators are the columns of
    M^{-1}: generator j is tight on every picked row but j and strictly
    positive on row j, which is exactly a simplicial ray configuration.
    """
    inv = mat_inverse(tuple(rows[i] for i in picked))
    return [integer_direction(col) for col in zip(*inv)]


def extreme_rays(rows: list[IntRow]) -> list[tuple[IntRow, int]]:
    """Extreme rays of ``{x : r . x >= 0 for every row r}`` with activity masks.

    The cone must be pointed (rows span), otherwise
    :class:`ConeDegenerateError` is raised; :func:`enumerate_vertices`
    appends the row ``x0 >= 0``, so its cone is pointed exactly when the
    normals span.  Each result is a primitive integer ray together with
    a bitmask of the input rows it is tight on.  Rays are returned in an
    implementation order; callers sort.
    """
    dim = len(rows[0])
    picked = _greedy_row_basis(rows, dim)
    picked_set = set(picked)

    rays: list[tuple[IntRow, int]] = []
    for g in _initial_generators(rows, picked):
        mask = 0
        for i in picked:
            if _dot(rows[i], g) == 0:
                mask |= 1 << i
        rays.append((g, mask))

    need = dim - 2
    for k, row in enumerate(rows):
        if k in picked_set:
            continue
        vals = [_dot(row, g) for g, _ in rays]
        pos = [i for i, v in enumerate(vals) if v > 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        if not neg:
            rays = [
                (g, m | (1 << k)) if vals[i] == 0 else (g, m)
                for i, (g, m) in enumerate(rays)
            ]
            continue
        if not pos and len(neg) == len(rays):
            # every ray strictly violates the row: the cone collapses to {0}
            return []

        new_rays: list[tuple[IntRow, int]] = []
        for ip in pos:
            gp, mp = rays[ip]
            vp = vals[ip]
            for iq in neg:
                gq, mq = rays[iq]
                common = mp & mq
                if common.bit_count() < need:
                    continue
                adjacent = True
                for ir, (_, mr) in enumerate(rays):
                    if ir != ip and ir != iq and (mr & common) == common:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                combo = _reduce([vp * b - vals[iq] * a for a, b in zip(gp, gq)])
                new_rays.append((combo, common | (1 << k)))

        kept = [
            (g, m | (1 << k)) if vals[i] == 0 else (g, m)
            for i, (g, m) in enumerate(rays)
            if vals[i] >= 0
        ]
        rays = kept + new_rays
    return rays


def _homogenize(normals: list[Vector], offsets: list[Fraction]) -> list[IntRow]:
    """Rows ``(b, -a)`` of the homogenization cone, primitive integer."""
    rows: list[IntRow] = []
    for a, b in zip(normals, offsets):
        entries = (b, *(-e for e in a))
        if not any(entries):
            raise ValueError("inequality with zero normal and zero offset")
        rows.append(integer_direction(entries))
    return rows


def enumerate_vertices(
    normals: list[Vector], offsets: list[Fraction]
) -> list[tuple[Vector, int]]:
    """Vertices of ``{x : normals[i] . x <= offsets[i]}`` with activity masks.

    Raises :class:`UnboundedError` if a feasible recession direction
    exists and :class:`InfeasibleError` if the system has no solution.
    A lower-dimensional but nonempty solution set comes back as its
    vertex set; the caller decides whether that is acceptable.  Results
    are in the engine's order; mask bit i refers to input inequality i.

    The extreme rays of the homogenization cone with the row ``x0 >= 0``
    appended decide everything when the normals span.  Otherwise a
    kernel vector w of the normals is a recession direction of any
    solution, and the system with a coordinate where w is nonzero
    dropped (solutions slide along w to that coordinate's zero) says
    whether there is one.
    """
    if not normals:
        raise ValueError("no inequality rows given")
    d = len(normals[0])
    rows = _homogenize(normals, offsets)
    try:
        rays = extreme_rays(rows + [(1,) + (0,) * d])
    except ConeDegenerateError:
        w = nullspace_basis(tuple(normals))[0]
        c = next(i for i, e in enumerate(w) if e != 0)
        # an InfeasibleError of the reduced system propagates as ours
        try:
            enumerate_vertices([n[:c] + n[c + 1:] for n in normals], offsets)
        except UnboundedError:
            pass
        raise UnboundedError(tuple(Fraction(e) for e in integer_direction(w)))

    vertices = [
        (tuple(Fraction(e, g[0]) for e in g[1:]), mask) for g, mask in rays if g[0]
    ]
    if not vertices:
        raise InfeasibleError("inequality system is infeasible")
    for g, _ in rays:
        if g[0] == 0:
            raise UnboundedError(tuple(Fraction(e) for e in g[1:]))
    return vertices

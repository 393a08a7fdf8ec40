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

Vertex enumeration runs on integers: input rows are scaled to
primitive integer form and every ray is kept as a primitive integer
vector, from the initial simplicial generators (a fraction-free solve,
with no inverse matrix in ``Fraction``) onwards.  Entries are bounded
by minors of the input (Cramer), which Python integers absorb without
ceremony.  :func:`extreme_rays` takes its scalar arithmetic from its
caller, so the polygon survey runs the same engine over a real number
field (:mod:`hompoly.numfield`).

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
from itertools import islice
from math import gcd
from operator import mul

from .errors import InfeasibleError, UnboundedError
from .linalg import (
    Vector,
    independent_rows,
    integer_direction,
    nullspace_basis,
    solve_directions,
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


class IntegerArithmetic:
    """Integer scalars: rows and rays are primitive integer vectors."""

    degree = 1
    value = staticmethod(_dot)

    @staticmethod
    def signs(values: list[int]) -> list[int]:
        # an integer is its own sign
        return values

    @staticmethod
    def combine(vp: int, gp: IntRow, vq: int, gq: IntRow) -> IntRow:
        return _reduce([vp * b - vq * a for a, b in zip(gp, gq)])


INTEGERS = IntegerArithmetic()


def _initial_generators(rows: list, arithmetic) -> tuple[list[int], list[tuple]]:
    """The greedily picked basis rows and the rays of their simplicial cone.

    Over a field of degree D each row is given as its block of D rational
    rows, so the basis and the generators come from ``linalg`` on those.
    A row is independent of the rows before it exactly when its whole
    block is kept.  If M stacks the picked blocks, the generators solve
    M g = e for the first unit column e of each block: such a g has
    value 1 on its own row and 0 on every other picked row, which is
    exactly a simplicial ray configuration.  The solve is fraction-free
    and returns each g as a primitive integer vector, so M^{-1} is never
    formed.
    """
    d = arithmetic.degree
    flat = rows if d == 1 else [r for block in rows for r in block]
    kept = set(independent_rows(flat))
    picked = [i for i in range(len(rows)) if all(i * d + k in kept for k in range(d))]
    if len(picked) * d < len(flat[0]):
        raise ConeDegenerateError("inequality rows do not span")
    n = len(picked) * d
    units = [[int(k == j) for k in range(n)] for j in range(0, n, d)]
    basis = [r for i in picked for r in flat[i * d:(i + 1) * d]]
    return picked, solve_directions(basis, units)


def extreme_rays(rows: list, arithmetic) -> list[tuple[tuple, int]]:
    """Extreme rays of ``{x : r . x >= 0 for every row r}`` with activity masks.

    The cone must be pointed (rows span), otherwise
    :class:`ConeDegenerateError` is raised; :func:`enumerate_vertices`
    appends the row ``x0 >= 0``, so its cone is pointed exactly when the
    normals span.  Each result is a ray together with a bitmask of the
    input rows it is tight on.  Rays are returned in an implementation
    order; callers sort.

    The scalars come from ``arithmetic``: :data:`INTEGERS` here, a
    :class:`hompoly.numfield.Field` for the polygon survey.  It gives
    ``degree`` D, ``value(row, ray)``, ``signs(values)`` and
    ``combine(vp, gp, vq, gq)``, the normalized ray ``vp gq - vq gp``.
    Rays are flat integer vectors of D coordinates per entry; for D > 1
    a row is its block, the D rational rows of its value on such a ray.
    """
    value, signs, combine = arithmetic.value, arithmetic.signs, arithmetic.combine
    picked, generators = _initial_generators(rows, arithmetic)
    picked_set = set(picked)

    rays: list[tuple[tuple, int]] = []
    for g in generators:
        mask = 0
        for i, v in zip(picked, signs([value(rows[i], g) for i in picked])):
            if v == 0:
                mask |= 1 << i
        rays.append((g, mask))

    need = len(picked) - 2
    for k, row in enumerate(rows):
        if k in picked_set:
            continue
        vals = [value(row, g) for g, _ in rays]
        sgn = signs(vals)
        pos = [i for i, v in enumerate(sgn) if v > 0]
        neg = [i for i, v in enumerate(sgn) if v < 0]
        masks = [m for _, m in rays]
        negatives = [(iq, masks[iq]) for iq in neg]
        new_rays: list[tuple[tuple, int]] = []
        for ip in pos:
            mp = masks[ip]
            candidates = [
                (iq, common)
                for iq, mq in negatives
                if (common := mp & mq).bit_count() >= need
            ]
            for iq, common in candidates:
                # adjacent: p and q are the only rays whose mask contains common
                containing = (mr for mr in masks if mr & common == common)
                if len(list(islice(containing, 3))) == 2:
                    ray = combine(vals[ip], rays[ip][0], vals[iq], rays[iq][0])
                    new_rays.append((ray, common | (1 << k)))

        kept = [
            (g, m | (1 << k)) if sgn[i] == 0 else (g, m)
            for i, (g, m) in enumerate(rays)
            if sgn[i] >= 0
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
        rays = extreme_rays(rows + [(1,) + (0,) * d], INTEGERS)
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

"""Vertex enumeration for rational H-polytopes.

The engine is the double description method run on the homogenization
cone: an inequality system ``a_i . x <= b_i`` in dimension d becomes the
pointed cone ``{(x0, x) : b_i x0 - a_i . x >= 0}`` in dimension d + 1,
whose extreme rays with positive first coordinate are exactly the
vertices of the polytope.  Working on the cone keeps every intermediate
object a ray, so the insertion step is a single positive combination and
no special-casing for vertices versus directions is needed.

All arithmetic is on integers: input rows are scaled to primitive
integer form and every ray is kept as a primitive integer vector.
Entries are bounded by minors of the input (Cramer), which Python
integers absorb without ceremony.

Activity of rays against already-processed rows is tracked in bitmasks
(bit i set means row i is tight), so the adjacency pre-filter is a
popcount and the exact adjacency test is a subset check.  Masks of
freshly combined rays are recomputed from scratch against all processed
rows rather than intersected from the parents: on degenerate inputs a
new ray can be tight on rows neither parent is tight on, and the later
incidence consumers (face lattices, simplicity tests) need the honest
answer.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

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
    """The homogenized rows do not span: the cone has a lineality space.

    ``witness`` is a nonzero integer vector orthogonal to every row.
    """

    def __init__(self, witness: tuple[int, ...]):
        super().__init__("inequality rows do not span the homogenized space")
        self.witness = witness


def _reduce(entries: list[int]) -> IntRow:
    g = gcd(*entries)
    if g == 0:
        raise ValueError("zero ray produced; input rows are inconsistent")
    return tuple(e // g for e in entries)


def _dot(a: IntRow, b: IntRow) -> int:
    return sum(x * y for x, y in zip(a, b))


def _greedy_row_basis(rows: list[IntRow], dim: int) -> list[int]:
    """Indices of the first ``dim`` linearly independent rows, in input order."""
    picked = independent_rows(rows)
    if len(picked) < dim:
        raise ConeDegenerateError(_lineality_witness(rows))
    return picked


def _lineality_witness(rows: list[IntRow]) -> tuple[int, ...]:
    """Primitive integer vector orthogonal to every row of a rank-deficient set."""
    return integer_direction(nullspace_basis(tuple(rows))[0])


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
    :class:`ConeDegenerateError` is raised.  Each result is a primitive
    integer ray together with a bitmask of the input rows it is tight on.
    Rays are returned in an implementation order; callers sort.
    """
    if not rows:
        raise ValueError("no inequality rows given")
    dim = len(rows[0])
    picked = _greedy_row_basis(rows, dim)
    picked_set = set(picked)
    processed: list[int] = list(picked)

    rays: list[tuple[IntRow, int]] = []
    for g in _initial_generators(rows, picked):
        mask = 0
        for i in processed:
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
            processed.append(k)
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
                mask = 1 << k
                for i in processed:
                    if _dot(rows[i], combo) == 0:
                        mask |= 1 << i
                new_rays.append((combo, mask))

        kept = [
            (g, m | (1 << k)) if vals[i] == 0 else (g, m)
            for i, (g, m) in enumerate(rays)
            if vals[i] >= 0
        ]
        rays = kept + new_rays
        processed.append(k)
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


def _system_feasible(normals: list[Vector], offsets: list[Fraction]) -> bool:
    """Exact feasibility of ``normals[i] . x <= offsets[i]``.

    When the normals do not span, every inequality is constant along any
    common kernel direction, so that coordinate can be eliminated
    outright and the question recurses in one dimension fewer.  Once the
    normals span, the homogenization cone is consulted directly.
    """
    d = len(normals[0]) if normals else 0
    if d == 0 or not normals:
        return all(b >= 0 for b in offsets)
    kernel = nullspace_basis(tuple(normals))
    if kernel:
        w = kernel[0]
        c = next(i for i, e in enumerate(w) if e != 0)
        reduced = [n[:c] + n[c + 1:] for n in normals]
        return _system_feasible(reduced, offsets)
    rows = _homogenize(normals, offsets)
    try:
        rays = extreme_rays(rows)
    except ConeDegenerateError:
        # spanning normals force the witness to have a nonzero first
        # coordinate, and then the point making every row tight is feasible
        return True
    return any(g[0] > 0 for g, _ in rays)


def enumerate_vertices(
    normals: list[Vector], offsets: list[Fraction]
) -> list[tuple[Vector, int]]:
    """Vertices of ``{x : normals[i] . x <= offsets[i]}`` with activity masks.

    Raises :class:`UnboundedError` if a feasible recession direction
    exists and :class:`InfeasibleError` if the system has no solution.
    A lower-dimensional but nonempty solution set comes back as its
    vertex set; the caller decides whether that is acceptable.  Results
    are in the engine's order; mask bit i refers to input inequality i.
    """
    rows = _homogenize(normals, offsets)
    try:
        rays = extreme_rays(rows)
    except ConeDegenerateError as exc:
        w = exc.witness
        if w[0] == 0:
            # a direction on which every inequality is tight: anything
            # feasible extends to full lines, so the set is unbounded
            # unless it is empty
            if not _system_feasible(normals, offsets):
                raise InfeasibleError() from exc
            raise UnboundedError(tuple(Fraction(e) for e in w[1:])) from exc
        # every inequality passes through the point w[1:]/w0, so the
        # feasible set is that point plus the recession cone of the
        # normals; a nontrivial recession cone means unboundedness
        point = tuple(Fraction(e, w[0]) for e in w[1:])
        # homogenized rows are (b, -a), so r[1:] is already -a and the
        # recession cone {d : a . d <= 0} reads {d : r[1:] . d >= 0}
        rec_rows = [r[1:] for r in rows]
        try:
            rec = extreme_rays(rec_rows)
        except ConeDegenerateError as rec_exc:
            raise UnboundedError(
                tuple(Fraction(e) for e in rec_exc.witness)
            ) from exc
        if rec:
            g = rec[0][0]
            raise UnboundedError(tuple(Fraction(e) for e in g)) from exc
        full = (1 << len(rows)) - 1
        return [(point, full)]

    if not rays:
        raise InfeasibleError("inequality system is infeasible")

    vertices: list[tuple[Vector, int]] = []
    has_positive = False
    horizon: IntRow | None = None
    for g, mask in rays:
        if g[0] > 0:
            has_positive = True
            vertices.append((tuple(Fraction(e, g[0]) for e in g[1:]), mask))
        elif g[0] == 0:
            horizon = g
    if horizon is not None and has_positive:
        raise UnboundedError(tuple(Fraction(e) for e in horizon[1:]))
    if not has_positive:
        raise InfeasibleError("inequality system is infeasible")
    if any(g[0] < 0 for g, _ in rays):
        # opposite-sign rays combine to a feasible recession direction
        gp = next(g for g, _ in rays if g[0] > 0)
        gn = next(g for g, _ in rays if g[0] < 0)
        direction = [gp[0] * b - gn[0] * a for a, b in zip(gp, gn)]
        raise UnboundedError(tuple(Fraction(e) for e in direction[1:]))
    return vertices

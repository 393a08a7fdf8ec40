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

Activity is tracked in bitmasks both ways: a ray's mask has bit i set
when the ray is tight on processed row i, and each processed row keeps
the bitset of the rays tight on it, updated only as rays appear
(Fukuda & Prodon's incidence sets).  The insertion step reads its
candidate pairs and their adjacency off those row bitsets, with no
test of every (positive, negative) pair; :func:`extreme_rays` gives the
details.  The mask of a freshly combined ray is the intersection of its
parents' masks plus the new row: the ray is a positive combination of
two rays that are nonnegative on every processed row, so it is tight
on such a row exactly when both parents are.  The masks are therefore
exact, as the later incidence consumers (face lattices, simplicity
tests) require.
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


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


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

    Each ray ever made takes the next slot, and the slot number is its
    bit in two kinds of bitsets: ``current`` holds the live slots, and
    ``tight[i]`` the slots tight on processed row i.  Slots are never
    reused or compacted, so the live slots in ascending order are the
    rays in insertion order: survivors keep their order and new rays
    come last.  The bitsets change only where rays appear.  A new ray
    sets its bit in ``tight[i]`` for each row i of its mask, and
    processing row k sets ``tight[k]`` to its zero rays and its new
    rays.  A dropped ray's bits stay behind; ANDing with ``current``
    masks them.

    A positive ray p and a negative ray q can be adjacent only when
    they share ``need`` = (cone dimension - 2) tight rows, so p may miss
    at most s - need of q's s rows.  Bit-sliced counters find those
    positives: ``ok[j]`` holds the positives that miss at most j of
    q's rows read so far, and each row costs one AND and one OR per
    counter.  The pair is adjacent exactly when p and q are the only
    live rays tight on every common row, which is the AND of those
    rows' ``tight`` starting from ``current``; it stops as soon as only
    the pair's two bits are left.  New rays are combined in (p, q) slot
    order.
    """
    value, signs, combine = arithmetic.value, arithmetic.signs, arithmetic.combine
    picked, generators = _initial_generators(rows, arithmetic)
    picked_set = set(picked)

    rays: list = list(generators)
    masks: list[int] = []
    tight = [0] * len(rows)
    for slot, g in enumerate(generators):
        mask = 0
        for i, v in zip(picked, signs([value(rows[i], g) for i in picked])):
            if v == 0:
                mask |= 1 << i
                tight[i] |= 1 << slot
        masks.append(mask)
    live = list(range(len(rays)))
    current = (1 << len(rays)) - 1

    need = len(picked) - 2
    for k, row in enumerate(rows):
        if k in picked_set:
            continue
        vals = [value(row, rays[s]) for s in live]
        sgn = signs(vals)
        positive = zero = 0
        negatives = []
        for s, sg in zip(live, sgn):
            if sg > 0:
                positive |= 1 << s
            elif sg == 0:
                zero |= 1 << s
                masks[s] |= 1 << k
            else:
                negatives.append(s)

        pairs = []
        for q in negatives:
            mq = masks[q]
            q_rows = _bits(mq)
            slack = len(q_rows) - need
            if slack < 0:
                continue
            candidates = positive
            if slack < len(q_rows):
                ok = [positive] * (slack + 1)
                for i in q_rows:
                    t = tight[i]
                    for j in range(slack, 0, -1):
                        ok[j] = (ok[j] & t) | ok[j - 1]
                    ok[0] &= t
                    if not ok[slack]:
                        break
                candidates = ok[slack]
            while candidates:
                low = candidates & -candidates
                candidates ^= low
                p = low.bit_length() - 1
                mp = masks[p]
                pair = low | 1 << q
                rest = current
                for i in q_rows:
                    if mp >> i & 1:
                        rest &= tight[i]
                        if rest == pair:
                            break
                if rest == pair:
                    pairs.append((p, q, mp & mq))

        pairs.sort()
        first = len(rays)
        value_at = dict(zip(live, vals)) if pairs else None
        for p, q, common in pairs:
            bit = 1 << len(rays)
            rays.append(combine(value_at[p], rays[p], value_at[q], rays[q]))
            masks.append(common | 1 << k)
            for i in _bits(common):
                tight[i] |= bit
        for q in negatives:
            rays[q] = None
        fresh = (1 << len(rays)) - (1 << first)
        tight[k] = zero | fresh
        current = positive | zero | fresh
        live = [s for s, sg in zip(live, sgn) if sg >= 0]
        live += range(first, len(rays))
    return [(rays[s], masks[s]) for s in live]


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

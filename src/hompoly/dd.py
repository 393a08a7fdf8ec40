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
union of lines parallel to w.  The engine then runs on the cone modulo
its lineality space, the (0, w): its rays say whether the system is
feasible, and w is then a recession direction.

Vertex enumeration runs on integers: input rows are scaled to
primitive integer form and every ray is kept as a primitive integer
vector, from the simplicial start onwards.  The start comes from the
engine's own arithmetic, by lineality elimination: each independent
row turns one coordinate line into its ray and moves the other lines
into its kernel, with no second elimination kernel.  Entries are
bounded by minors of the input (Cramer), which Python integers absorb
without ceremony.  :func:`extreme_rays` takes its scalar arithmetic
from its caller, so the polygon survey runs the same engine over a real
number field (:mod:`hompoly.numfield`).

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
from .linalg import Vector, integer_direction

IntRow = tuple[int, ...]


class ConeDegenerateError(Exception):
    """The rows do not span: the cone has a lineality space.

    Every row is 0 on the nonzero vector ``line``; ``rays`` are the
    extreme rays, with masks, of the cone modulo the lineality space.
    """

    def __init__(self, line: tuple, rays: list[tuple[tuple, int]]):
        super().__init__("inequality rows do not span")
        self.line, self.rays = line, rays


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

    @staticmethod
    def normalize(row: IntRow, ray: IntRow) -> IntRow:
        # a primitive integer ray positive on the row is its own normal form
        return ray


INTEGERS = IntegerArithmetic()


def _simplicial_start(rows: list, arithmetic) -> tuple[list[int], list[tuple], list[tuple]]:
    """The greedily picked basis rows, their simplicial rays, and the lines left.

    The start is one line per coordinate (per block of D over a field of
    degree D).  A row that is nonzero on a remaining line is picked: the
    first such line, turned positive on it, becomes its ray, and
    ``combine`` moves every other line and ray into its kernel, keeping
    each ray positive on its own row.  So the picked rows are the first
    basis in row order, each ray is 0 on every picked row but its own,
    and the lines left span the lineality space.  ``normalize`` then
    gives each ray the one form whose value on its own row is a positive
    rational, which the rows alone fix when they span.
    """
    value, signs, combine = arithmetic.value, arithmetic.signs, arithmetic.combine
    d = arithmetic.degree
    width = len(rows[0]) if d == 1 else len(rows[0][0])
    lines = [tuple(int(i == j) for i in range(width)) for j in range(0, width, d)]
    picked: list[int] = []
    rays: list[tuple] = []
    for k, row in enumerate(rows):
        vals = [value(row, g) for g in lines]
        sgn = signs(vals)
        j = next((j for j, s in enumerate(sgn) if s), None)
        if j is None:
            continue
        ray = lines[j] if sgn[j] > 0 else tuple(-e for e in lines[j])
        v = value(row, ray)
        others = rays + lines[:j] + lines[j + 1:]
        vals = [value(row, g) for g in rays] + vals[:j] + vals[j + 1:]
        moved = [
            combine(v, ray, vg, g) if s else g for vg, s, g in zip(vals, signs(vals), others)
        ]
        rays, lines = moved[:len(rays)] + [ray], moved[len(rays):]
        picked.append(k)
        if not lines:
            break
    return picked, [arithmetic.normalize(rows[i], g) for i, g in zip(picked, rays)], lines


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

    Each result is a ray together with a bitmask of the input rows it
    is tight on.  Rays are returned in an implementation order; callers
    sort.  When the rows do not span, the cone is not pointed: the same
    steps find its extreme rays modulo its lineality space, which every
    row is 0 on, and :class:`ConeDegenerateError` carries them with a
    line of that space.  :func:`enumerate_vertices` appends the row
    ``x0 >= 0``, so its cone is pointed exactly when the normals span.

    The scalars come from ``arithmetic``: :data:`INTEGERS` here, a
    :class:`hompoly.numfield.Field` for the polygon survey.  It gives
    ``degree`` D, ``value(row, ray)``, ``signs(values)`` (possibly
    ``values`` itself, as for :data:`INTEGERS`: mutate neither list
    while reading the other), ``combine(vp, gp, vq, gq)``, the
    normalized ray ``vp gq - vq gp``, and ``normalize(row, ray)``, a
    start ray's normal form.  Rays are flat integer vectors of D
    coordinates per entry; for D > 1 a row is its block, the D rational
    rows of its value on such a ray.

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
    picked, rays, lines = _simplicial_start(rows, arithmetic)
    picked_set = set(picked)
    # each start ray is tight on every picked row but its own
    full = (1 << len(rays)) - 1
    basis = sum(1 << i for i in picked)
    masks = [basis ^ 1 << i for i in picked]
    tight = [0] * len(rows)
    for slot, i in enumerate(picked):
        tight[i] = full ^ 1 << slot
    live = list(range(len(rays)))
    current = full

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
    found = [(rays[s], masks[s]) for s in live]
    if lines:
        raise ConeDegenerateError(lines[0], found)
    return found


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
) -> list[tuple[IntRow, int]]:
    """Vertices of ``{x : normals[i] . x <= offsets[i]}`` with activity masks.

    Each vertex v comes as the primitive integer ray (x0, x0 v) of the
    homogenization cone, x0 > 0, which is how the engine finds it: its
    coordinates are ``Fraction(e, ray[0])`` for the entries e after x0.
    Raises :class:`UnboundedError` if a feasible recession direction
    exists and :class:`InfeasibleError` if the system has no solution.
    A lower-dimensional but nonempty solution set comes back as its
    vertex set; the caller decides whether that is acceptable.  Results
    are in the engine's order; mask bit i refers to input inequality i.

    The extreme rays of the homogenization cone with the row ``x0 >= 0``
    appended decide everything.  When the normals do not span, they are
    the rays modulo the cone's lineality space, whose lines (0, w) have
    every normal 0 on w: the system is feasible exactly when one of the
    rays has x0 > 0, and then w is a recession direction.
    """
    if not normals:
        raise ValueError("no inequality rows given")
    d = len(normals[0])
    rows = _homogenize(normals, offsets)
    try:
        rays = extreme_rays(rows + [(1,) + (0,) * d], INTEGERS)
        directions = [g for g, _ in rays if g[0] == 0]
    except ConeDegenerateError as err:
        # every row is 0 on the line, so a nonempty solution set holds lines along it
        rays, directions = err.rays, [err.line]

    vertices = [(g, mask) for g, mask in rays if g[0]]
    if not vertices:
        raise InfeasibleError("inequality system is infeasible")
    if directions:
        raise UnboundedError(tuple(Fraction(e) for e in directions[0][1:]))
    return vertices

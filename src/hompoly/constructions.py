"""Stock polytopes and combinators.

Builders that know their own combinatorics (cube, cross-polytope,
product, dual) hand the kernel both representations plus incidence, so
nothing is enumerated twice.  Builders whose facet structure is the
interesting part (join, tensor, rounded regular polygons) provide
vertices only and let the kernel complete them on demand.

Regular n-gons are the one place exactness meets rounding: coordinates
are rounded half away from zero to a fixed number of decimals, exactly,
from :func:`hompoly.numfield.cos_bounds`.  Rounding that way is
odd-symmetric, so antipodal vertex pairs stay exactly antipodal and
even-gons keep exactly parallel opposite edges, which the counting
layers depend on.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from fractions import Fraction
from functools import reduce

from .errors import GeometryError
from .linalg import Vector, vec_sub, zero_vector
from .numfield import cos_bounds
from .polytope import Inequality, Polytope, barycenter


def simplex(n: int) -> Polytope:
    """Standard n-simplex: the origin and the n coordinate unit points."""
    if n < 0:
        raise ValueError("simplex dimension must be nonnegative")
    points = [zero_vector(n)]
    for i in range(n):
        e = [Fraction(0)] * n
        e[i] = Fraction(1)
        points.append(tuple(e))
    return Polytope.from_vertices(points)


def cube(n: int) -> Polytope:
    """The cube [-1, 1]^n: the n-fold product of the segment [-1, 1].

    Vertices come in ``itertools.product((-1, 1), repeat=n)`` order, and
    facet 2i is x_i <= 1, facet 2i + 1 is -x_i <= 1.
    """
    if n < 1:
        raise ValueError("cube dimension must be positive")
    segment = Polytope(
        1,
        vertices=((Fraction(-1),), (Fraction(1),)),
        inequalities=(
            Inequality((Fraction(1),), Fraction(1)),
            Inequality((Fraction(-1),), Fraction(1)),
        ),
        facet_masks=(0b10, 0b01),
    )
    return reduce(product, [segment] * n)


def cross_polytope(n: int) -> Polytope:
    """Convex hull of the positive and negative coordinate unit vectors.

    Vertex 2i is e_i and vertex 2i + 1 is -e_i; facet s is s . x <= 1,
    for s in ``itertools.product((1, -1), repeat=n)`` order.  Facet s
    holds e_i when s_i = 1 and -e_i otherwise, so its mask is read off
    the signs, with no arithmetic on coordinates.
    """
    if n < 1:
        raise ValueError("cross-polytope dimension must be positive")
    vertices = []
    for i in range(n):
        for sign in (1, -1):
            e = [Fraction(0)] * n
            e[i] = Fraction(sign)
            vertices.append(tuple(e))
    signs = list(itertools.product((1, -1), repeat=n))
    return Polytope(
        n,
        vertices=tuple(vertices),
        inequalities=tuple(Inequality(tuple(map(Fraction, s)), Fraction(1)) for s in signs),
        facet_masks=tuple(
            sum(1 << (2 * i + (si < 0)) for i, si in enumerate(s)) for s in signs
        ),
    )


def _round_cos(a: int, b: int, digits: int) -> Fraction:
    """cos(2π a / b) rounded half away from zero to ``digits`` decimals.

    Rounding is monotone, so both ends of a :func:`cos_bounds` interval
    rounding alike decide it; by Niven's theorem no cosine is a tie (a
    rational one is 0, ±1/2 or ±1), so doubling q gets there.
    """
    scale, q = 10**digits, 10 * digits // 3 + 16  # 2^q > 2^15 · 10^digits
    while True:
        lo, hi = (
            (1 if t >= 0 else -1) * ((2 * scale * abs(t) + (1 << q)) >> (q + 1))
            for t in cos_bounds(a, b, q)
        )
        if lo == hi:
            return Fraction(lo, scale)
        q *= 2


def regular_ngon(n: int, digits: int = 6) -> Polytope:
    """Regular n-gon on the unit circle, coordinates rounded to ``digits``.

    Vertices are listed counterclockwise starting at angle zero.  Strict
    convex position of the rounded points is verified exactly, turn by
    turn as they are generated; failure (which needs n far larger than
    the digit budget) raises with a pointer to raise ``digits``.  The
    turn at vertex 0 goes first: rounding flattens the polygon soonest
    where x is near 1, so such an n fails within its first few turns.
    """
    if n < 3:
        raise ValueError("a polygon needs at least 3 vertices")
    if digits < 1:
        raise ValueError("digits must be positive")

    def vertex(k: int) -> Vector:
        # sin(2πk/n) = cos(2π(4k - n) / 4n)
        return (_round_cos(k, n, digits), _round_cos(4 * k - n, 4 * n, digits))

    def turn(a: Vector, b: Vector, c: Vector) -> None:
        u = vec_sub(b, a)
        w = vec_sub(c, b)
        if u[0] * w[1] - u[1] * w[0] <= 0:
            raise GeometryError(
                f"rounded {n}-gon is not strictly convex at {digits} digits; "
                "increase digits"
            )

    last = vertex(n - 1)
    points = [vertex(0), vertex(1)]
    turn(last, *points)
    for k in range(2, n):
        points.append(last if k == n - 1 else vertex(k))
        turn(*points[-3:])
    turn(points[-2], last, points[0])
    return Polytope.from_vertices(points)


def join(p: Polytope, q: Polytope) -> Polytope:
    """Join of two polytopes placed in skew affine subspaces.

    P sits at height 0, Q at height 1 of a fresh coordinate, with
    disjoint coordinate blocks, so every segment from P to Q is as free
    as possible; the vertex set of the join is the union of the embedded
    vertex sets.
    """
    dp, dq = p.ambient_dim, q.ambient_dim
    points = [v + (Fraction(0),) + zero_vector(dq) for v in p.vertices]
    points += [zero_vector(dp) + (Fraction(1),) + w for w in q.vertices]
    return Polytope.from_vertices(points)


def product(p: Polytope, q: Polytope) -> Polytope:
    """Cartesian product; vertices are the pair grid, facets lift from factors."""
    dp, dq = p.ambient_dim, q.ambient_dim
    vertices = tuple(
        v + w for v in p.vertices for w in q.vertices
    )
    if p.dim < dp or q.dim < dq:
        return Polytope.from_vertices(vertices)
    nq = len(q.vertices)
    inequalities = []
    masks = []
    for j, iq in enumerate(p.inequalities):
        inequalities.append(Inequality(iq.normal + zero_vector(dq), iq.offset))
        mask = 0
        pmask = p.facet_masks[j]
        for vi in range(len(p.vertices)):
            if pmask >> vi & 1:
                mask |= ((1 << nq) - 1) << (vi * nq)
        masks.append(mask)
    for j, iq in enumerate(q.inequalities):
        inequalities.append(Inequality(zero_vector(dp) + iq.normal, iq.offset))
        mask = 0
        qmask = q.facet_masks[j]
        for vi in range(len(p.vertices)):
            mask |= qmask << (vi * nq)
        masks.append(mask)
    return Polytope(
        dp + dq,
        vertices=vertices,
        inequalities=tuple(inequalities),
        facet_masks=tuple(masks),
    )


def tensor(p: Polytope, q: Polytope) -> Polytope:
    """Convex hull of ``(v (x) w, v, w)`` over vertex pairs.

    The outer product block is row-major in v's coordinates.  Every
    listed point is a vertex (a functional supported on the linear
    coordinates isolates each pair), so the vertex set is exact; facets
    are computed on demand and can be expensive, which is the point of
    studying this construction.
    """
    dp, dq = p.ambient_dim, q.ambient_dim
    points = []
    for v in p.vertices:
        for w in q.vertices:
            outer = tuple(v[i] * w[j] for i in range(dp) for j in range(dq))
            points.append(outer + v + w)
    return Polytope.from_vertices(points)


def dual(p: Polytope) -> Polytope:
    """Polar dual, requiring the origin strictly inside.

    Facets of P become vertices of the dual and vice versa; the
    incidence matrix is carried over transposed, so no enumeration runs.
    """
    bad = [iq for iq in p.inequalities if iq.offset <= 0]
    if bad:
        raise GeometryError(
            "polar dual needs the origin strictly interior; translate the "
            "polytope (for instance by its vertex barycenter) first"
        )
    vertices = tuple(
        tuple(e / iq.offset for e in iq.normal) for iq in p.inequalities
    )
    inequalities = tuple(
        Inequality(v, Fraction(1)) for v in p.vertices
    )
    # dual facet j corresponds to primal vertex j, and its incident dual
    # vertices are the primal facets through that vertex, so the dual
    # facet masks are exactly the primal vertex masks
    return Polytope(
        p.ambient_dim,
        vertices=vertices,
        inequalities=inequalities,
        facet_masks=p.vertex_masks,
    )


def bipyramid(p: Polytope) -> Polytope:
    """Bipyramid over P: two apexes over and under the vertex barycenter."""
    c = barycenter(p.vertices)
    if p.dim == 0:
        # the base point is the midpoint of the resulting segment
        return Polytope.from_vertices([c + (Fraction(1),), c + (Fraction(-1),)])
    points = [v + (Fraction(0),) for v in p.vertices]
    points.append(c + (Fraction(1),))
    points.append(c + (Fraction(-1),))
    return Polytope.from_vertices(points)


# The stock kinds by name, each built from a size and a digit count that
# only regular_ngon reads; `construct --help` lists them in this order.
STOCK: dict[str, Callable[[int, int], Polytope]] = {
    "simplex": lambda n, digits: simplex(n),
    "cube": lambda n, digits: cube(n),
    "crosspolytope": lambda n, digits: cross_polytope(n),
    "regular_ngon": lambda n, digits: regular_ngon(n, digits),
}

# Largest vertex or facet description, in coordinates (rows x dimension),
# that :func:`standard` builds.  On a 2-vCPU Xeon box, `construct` at the
# limit takes 0.14 s for cube 12 and 0.16 s for crosspolytope 12 (2^12
# facets); cube 26 ran into a 2 GB memory cap after 55 s.
COORDINATE_LIMIT = 2**16

# Largest sides x 2 x digits^2 of a regular_ngon that :func:`standard` builds.
# A coordinate costs ~30 us up to 24 digits, then grows like digits^2.6 (4.5 ms
# at 1000); at the limit, the box above takes 2.6 s for 32768 sides at 32 digits.
DIGIT_LIMIT = 2**26


def check_size(kind: str, n: int, digits: int) -> None:
    """Refuse a stock polytope whose larger description is too big.

    That is its vertices, the 2^n facets of a cross-polytope or a polygon's
    digits.  The count 2^n is compared through its exponent, never formed.
    """
    if n < 1 or kind not in STOCK:
        return  # the builders refuse or accept these themselves
    if kind in ("cube", "crosspolytope"):
        rows, dim = f"2^{n}", n
        too_big = n > 16 or n << n > COORDINATE_LIMIT
    else:
        count, dim = (n + 1, n) if kind == "simplex" else (n, 2)
        rows, too_big = str(count), count * dim > COORDINATE_LIMIT
    if too_big:
        what = "facets" if kind == "crosspolytope" else "vertices"
        raise ValueError(
            f"{kind} {n} has {rows} {what} of {dim} coordinates each, above the"
            f" limit of {COORDINATE_LIMIT} coordinates; refusing"
        )
    if kind == "regular_ngon" and 2 * n * digits**2 > DIGIT_LIMIT:
        raise ValueError(
            f"regular_ngon {n} at {digits} digits has sides x 2 x digits^2 ="
            f" {2 * n * digits**2}, above the limit of {DIGIT_LIMIT}; refusing"
        )


def standard(kind: str, n: int, digits: int = 6) -> Polytope:
    """Dispatch to a stock construction by name, one of :data:`STOCK`.

    ``n`` is the dimension (or vertex count for the polygon); ``digits``
    only applies to ``regular_ngon``.  A request whose vertex or facet
    description would hold more than :data:`COORDINATE_LIMIT`
    coordinates, or a polygon above :data:`DIGIT_LIMIT`, is refused
    before anything is built.
    """
    check_size(kind, n, digits)
    if kind not in STOCK:
        raise ValueError(f"unknown construction kind {kind!r}")
    return STOCK[kind](n, digits)

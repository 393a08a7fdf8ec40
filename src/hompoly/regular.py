"""Regular-polygon survey: closed-form counts, exact counts, count tables.

A table row counts the vertices of Hom(P_m, P_n), the polytope of
affine maps sending the regular m-gon into the regular n-gon, by rank of
their linear part.  Vertex counts and ranks are affine invariants, so
the row is computed on affine models of the polygons over the real
cyclotomic field K_m·K_n (:mod:`hompoly.numfield`), where every count
and rank comes from exact zero and sign tests.  Closed-form count
formulas cover the rank-0 and rank-1 populations for all sizes and the
rank-2 population when either polygon is a triangle or a square;
:func:`hompoly.checks.check_table_row` checks a row against those
formulas and against the divisibility constraints that hold for
regular polygons.

:func:`cluster_vertices` merges near-duplicate points by
epsilon-proximity.  The survey no longer needs it, since it counts the
true polygons rather than rounded stand-ins; it is kept while
``perfbench`` still traces it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from . import dd
from .hom import hom_row, split_point
from .linalg import Scalar, Vector
from .numfield import Field, survey_degree, survey_field


@dataclass(frozen=True)
class ClusterPartition:
    """Partition of vertex indices by epsilon-proximity."""

    epsilon: Fraction
    clusters: tuple[tuple[int, ...], ...]
    pairwise_ok: bool


@dataclass(frozen=True)
class CountRow:
    """One row of the vertex-count table, with per-cell provenance.

    ``provenance`` aligns with (rank0, rank1, rank2, total); each entry
    is ``closed_form`` where a proven formula gives the cell,
    ``enumerated`` where only the exact enumeration does, or ``unknown``
    for a cell :func:`closed_form_counts` cannot fill, which holds None.
    """

    m: int
    n: int
    rank0: int | None
    rank1: int | None
    rank2: int | None
    total: int | None
    provenance: tuple[str, str, str, str]


@dataclass(frozen=True)
class DivisibilityReport:
    """Outcome of the arithmetic sanity constraints on a total count."""

    ok: bool
    reasons: tuple[str, ...]


@dataclass(frozen=True)
class TableDiagnostics:
    """What ``perfbench`` reads of one table row's computation.

    Nothing is merged, so ``partition`` puts every vertex in a cluster of
    its own and ``raw_vertex_count`` is the total.
    """

    raw_vertex_count: int
    partition: ClusterPartition


def closed_form_counts(m: int, n: int) -> CountRow:
    """Counts from the proven formulas, with rank 2 filled where known.

    rank 0 is always the target size; rank 1 is m n (n-1) for odd m
    and half that for even m; rank 2 has closed forms when either
    polygon has 3 or 4 sides.  Cells without a formula come back None
    with provenance ``unknown``.
    """
    if m < 3 or n < 3:
        raise ValueError("polygon sizes start at 3")
    rank0 = n
    rank1 = m * n * (n - 1) if m % 2 else m * n * (n - 1) // 2
    rank2: int | None
    if m == 3:
        rank2 = n * (n - 1) * (n - 2)
    elif n == 3:
        if m % 2:
            rank2 = m * (m + 1) * (m - 1) // 4
        else:
            rank2 = m * (m - 2) * (m - 4) // 4
    elif n == 4:
        rank2 = 4 * m * m - 4 * m if m % 2 else m * m - 2 * m
    elif m == 4:
        rank2 = n**3 - 9 * n if n % 2 else n**3 - 5 * n**2 + 6 * n
    else:
        rank2 = None
    total = rank0 + rank1 + rank2 if rank2 is not None else None
    known = "closed_form"
    tag2 = known if rank2 is not None else "unknown"
    return CountRow(
        m=m,
        n=n,
        rank0=rank0,
        rank1=rank1,
        rank2=rank2,
        total=total,
        provenance=(known, known, tag2, tag2),
    )


# Projection weights of the clustering sweep, cycled over the coordinates;
# spread apart so that points sharing their leading coordinates still
# get distinct keys.
_SWEEP_WEIGHTS = (1, 3, 7, 13, 19, 29)


def _squared_distance(a: Vector, b: Vector) -> Fraction:
    return sum(((x - y) ** 2 for x, y in zip(a, b)), Fraction(0))


def cluster_vertices(
    points: tuple[Vector, ...], epsilon: Scalar
) -> ClusterPartition:
    """Group points into connected components of the epsilon graph.

    Comparisons are exact: squared Euclidean distance against epsilon
    squared, strict.  ``pairwise_ok`` reports whether every component is
    also pairwise below epsilon (a chain of close points can span more
    than epsilon end to end without breaking the component).

    Candidate pairs come from a sweep over the exact projection
    ``k(p) = w . p`` with fixed integer weights ``w``: points are sorted
    by ``k`` and each is compared only with its successors until
    ``k(q) - k(p) >= B |epsilon|``, where ``B = isqrt(w . w) + 1``
    exceeds ``|w|``.  The sweep drops no close pair: by Cauchy-Schwarz
    ``|k(q) - k(p)| <= |w| |q - p|``, so every skipped pair is at least
    epsilon apart.  The weights cover only the coordinates every point
    has, the ones the distance always sums over.
    """
    eps = Fraction(epsilon)
    eps2 = eps * eps
    pts = tuple(tuple(Fraction(e) for e in p) for p in points)
    count = len(pts)
    dim = min((len(p) for p in pts), default=0)
    weights = tuple(
        _SWEEP_WEIGHTS[i % len(_SWEEP_WEIGHTS)] for i in range(dim)
    )
    reach = (isqrt(sum(w * w for w in weights)) + 1) * abs(eps)
    keys = [sum((w * x for w, x in zip(weights, p)), Fraction(0)) for p in pts]
    order = sorted(range(count), key=keys.__getitem__)
    neighbors: list[list[int]] = [[] for _ in range(count)]
    for a, i in enumerate(order):
        for b in range(a + 1, count):
            j = order[b]
            if keys[j] - keys[i] >= reach:
                break
            if _squared_distance(pts[i], pts[j]) < eps2:
                neighbors[i].append(j)
                neighbors[j].append(i)
    seen = [False] * count
    components: list[tuple[int, ...]] = []
    for start in range(count):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        members = []
        while stack:
            i = stack.pop()
            members.append(i)
            for j in neighbors[i]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
        components.append(tuple(sorted(members)))
    components.sort()
    pairwise_ok = all(
        _squared_distance(pts[i], pts[j]) < eps2
        for comp in components
        for ii, i in enumerate(comp)
        for j in comp[ii + 1 :]
    )
    return ClusterPartition(
        epsilon=eps, clusters=tuple(components), pairwise_ok=pairwise_ok
    )


def divisibility_check(total: int, m: int, n: int) -> DivisibilityReport:
    """Arithmetic constraints every true count satisfies.

    The target size divides the count, the source size divides the
    count minus the rank-0 block, and the count has the parity of the
    target size.
    """
    if m < 3 or n < 3:
        raise ValueError("polygon sizes start at 3")
    reasons = []
    if total % n != 0:
        reasons.append(
            f"count {total} is not divisible by the target size {n}"
        )
    if (total - n) % m != 0:
        reasons.append(
            f"count minus rank-0 block {total - n} is not divisible by"
            f" the source size {m}"
        )
    if (total - n) % 2 != 0:
        reasons.append(
            f"count {total} and target size {n} have different parity"
        )
    return DivisibilityReport(ok=not reasons, reasons=tuple(reasons))


# Largest polygon and field degree a survey row accepts, so an oversized
# table fails at once instead of running for minutes.  Every published
# row (sides up to 8, degree up to 6) passes.  Measured in one process on
# a 2-core Intel Xeon under Python 3.11.7, October 2026, two runs each:
# the slowest accepted rows are (9,10) at 5.6-6.6 s and (10,9) at 5.1-5.2 s;
# the cone of (12,12) takes 3.8 s.  A field product costs D^2
# multiplications, so the degree D stays at the published maximum; the
# pairs this refuses within the side limit are (7,9) and (9,7), of degree
# 9 (3.8 s for the rays of (7,9), from survey_cone and dd.extreme_rays).
_SURVEY_SIDE_LIMIT = 10
_SURVEY_DEGREE_LIMIT = 6


def check_survey_size(m: int, n: int) -> None:
    """Refuse a pair whose polygons or field exceed the survey's limits."""
    if m < 3 or n < 3:
        raise ValueError("polygon sizes start at 3")
    side = max(m, n)
    if side > _SURVEY_SIDE_LIMIT:
        raise ValueError(
            f"survey pair ({m},{n}): a {side}-gon is above the limit of"
            f" {_SURVEY_SIDE_LIMIT} sides; refusing"
        )
    degree = survey_degree(m, n)
    if degree > _SURVEY_DEGREE_LIMIT:
        raise ValueError(
            f"survey pair ({m},{n}): field degree {degree} is above the"
            f" limit of {_SURVEY_DEGREE_LIMIT}; refusing"
        )


def survey_cone(
    m: int, n: int
) -> tuple[Field, list, Field | dd.IntegerArithmetic]:
    """The field K_m·K_n, and the rows and scalars of Hom(P_m, P_n)'s cone.

    Vertex k of the model n-gon is (C_k(β), S_k(β)) with β = 2cos 2π/n
    (:meth:`Field.chebyshev <hompoly.numfield.Field.chebyshev>`): the
    regular n-gon under diag(2, 1/sin 2π/n).  The hom rows
    ``b x0 - a.(L v + t) >= 0``, one per source vertex v and target edge
    ``a.x <= b`` in ``build_hom``'s order, are b then
    :func:`~hompoly.hom.hom_row` of v and -a.  With ``x0 >= 0`` they cut
    out a pointed cone whose extreme rays are the vertex maps (x0 > 0,
    since the hom-polytope is bounded).  The rows and scalars are what
    :func:`dd.extreme_rays` takes: when the field is Q the models are
    integral and the engine runs on integers, otherwise on the field's
    blocks.  The rows keep ``build_hom``'s order; :func:`table_row` hands
    the integer rows to the engine sorted.
    """
    field, alpha, beta = survey_field(m, n)
    source = field.chebyshev(alpha, m)
    target = field.chebyshev(beta, n)
    mul, sub = field.mul, field.sub
    zero = (0,) * field.degree
    rows = []
    for v in source:
        for k in range(n):
            p, q = target[k], target[(k + 1) % n]
            a = (sub(q[1], p[1]), sub(p[0], q[0]))  # outward normal of edge p -> q
            b = field.add(mul(a[0], p[0]), mul(a[1], p[1]))
            rows.append((b, *hom_row(v, [sub(zero, e) for e in a], mul)))
    rows.append((field.one,) + (zero,) * 6)
    blocks = [field.block(row) for row in rows]
    if field.degree == 1:
        return field, [blk[0] for blk in blocks], dd.INTEGERS
    return field, blocks, field


def table_row(m: int, n: int) -> tuple[CountRow, TableDiagnostics]:
    """Count the vertices of Hom(P_m, P_n) exactly, by rank.

    The vertex maps are the extreme rays of :func:`survey_cone`.  A map
    has rank 0 when L = 0, rank 2 when det L != 0, and rank 1 otherwise.

    When the field is Q, the engine takes the integer rows sorted, which
    is the lexicographic order of (b, -a) that ``Polytope``'s H->V pass
    uses: on (6,6) the rays take 472 combine steps against 824 in
    :func:`survey_cone`'s order.  The ray set is the cone's, so the counts
    do not change; the masks number the sorted rows, and nothing here
    reads them.  Blocks over a larger field keep their order: sorted, or
    ordered by real value, they did no better overall.
    """
    check_survey_size(m, n)
    field, rows, arithmetic = survey_cone(m, n)
    if arithmetic is dd.INTEGERS:
        rows = sorted(rows)
    rays = dd.extreme_rays(rows, arithmetic)

    det2, d = field.det2, field.degree
    # a ray is x0, then the map's six entries of D coordinates each;
    # read once which of the six hold L, not per ray
    (c11, c12), (c21, c22) = split_point(range(1, 7), 2, 2)[0]
    counts = {0: 0, 1: 0, 2: 0}
    for ray, _ in rays:
        l11, l12, l21, l22 = (ray[c * d:(c + 1) * d] for c in (c11, c12, c21, c22))
        if any(det2(l11, l12, l21, l22)):
            rank = 2
        elif any(l11 + l12 + l21 + l22):
            rank = 1
        else:
            rank = 0
        counts[rank] += 1
    total = len(rays)

    # a cell the closed forms cannot fill is filled by the enumeration
    closed = closed_form_counts(m, n).provenance
    tags = ("enumerated" if tag == "unknown" else tag for tag in closed)
    row = CountRow(
        m=m,
        n=n,
        rank0=counts[0],
        rank1=counts[1],
        rank2=counts[2],
        total=total,
        provenance=tuple(tags),
    )
    diagnostics = TableDiagnostics(
        raw_vertex_count=total,
        partition=ClusterPartition(
            epsilon=Fraction(0),
            clusters=tuple((i,) for i in range(total)),
            pairwise_ok=True,
        ),
    )
    return row, diagnostics

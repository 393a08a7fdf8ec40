"""Regular-polygon survey: closed-form counts, clustering, count tables.

The pipeline builds two regular polygons at a chosen decimal precision,
enumerates the vertices of their hom-polytope exactly, and merges
near-duplicate vertices by epsilon-clustering.  Closed-form count
formulas cover the rank-0 and rank-1 populations for all sizes and the
rank-2 population when either polygon is a triangle or a square; the
clustered counts are checked against those formulas and against the
divisibility constraints that hold for exact regular polygons.

Two conventions are deliberate and recorded here because the survey
protocol leaves them open: distances are Euclidean on the natural
hom coordinates (compared exactly, squared, against epsilon squared),
and a cluster is a connected component of the proximity graph rather
than a maximal clique, with a pairwise post-check reported separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .classify import map_rank
from .constructions import regular_ngon
from .errors import GeometryError
from .hom import AffineMap, build_hom
from .linalg import Scalar, Vector

DISTANCE_CONVENTION = "euclidean"
CLUSTER_CONVENTION = "connected-components"


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
    is ``closed_form``, ``enumerated``, ``clustered`` or ``unknown``.
    Cells without a value (no closed form known) hold None.
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


class PartitionMismatchError(GeometryError):
    """Raised when different epsilon values partition the vertices differently."""

    def __init__(self, partitions: tuple[ClusterPartition, ...]):
        self.partitions = partitions
        described = "; ".join(
            f"eps {p.epsilon}: {len(p.clusters)} clusters" for p in partitions
        )
        super().__init__(
            f"epsilon values disagree on the vertex partition ({described})"
        )


@dataclass(frozen=True)
class TableDiagnostics:
    """Everything observed while computing one table row."""

    m: int
    n: int
    raw_vertex_count: int
    partition: ClusterPartition
    mixed_rank_clusters: tuple[int, ...]
    mixed_label_clusters: tuple[int, ...]
    divisibility: DivisibilityReport
    closed_form_mismatches: tuple[tuple[str, int, int], ...]


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


DEFAULT_EPSILONS = (Fraction(1, 1000), Fraction(1, 10000))


def table_row(
    m: int,
    n: int,
    digits: int = 6,
    eps_list: tuple[Scalar, ...] = DEFAULT_EPSILONS,
) -> tuple[CountRow, TableDiagnostics]:
    """Compute one survey row by exact enumeration plus clustering.

    Builds both polygons at the given precision, enumerates the
    hom-polytope's vertices exactly, clusters them with every epsilon in
    ``eps_list`` (the partitions must agree, otherwise
    :class:`PartitionMismatchError` carries all of them), takes each
    cluster's rank from its lexicographically least member, and runs the
    divisibility and closed-form cross-checks.  Rank disagreements or
    differing active-label sets inside a cluster are reported in the
    diagnostics, never resolved silently.
    """
    if not eps_list:
        raise ValueError("at least one epsilon is required")
    p = regular_ngon(m, digits)
    q = regular_ngon(n, digits)
    h = build_hom(p, q)
    points = h.polytope.vertices
    partitions = tuple(cluster_vertices(points, eps) for eps in eps_list)
    first = partitions[0]
    if any(part.clusters != first.clusters for part in partitions[1:]):
        raise PartitionMismatchError(partitions)

    dp, dq = p.ambient_dim, q.ambient_dim
    ranks_per_cluster: list[tuple[int, ...]] = []
    for cluster in first.clusters:
        ranks = tuple(
            map_rank(AffineMap.from_point(points[i], dp, dq))
            for i in cluster
        )
        ranks_per_cluster.append(ranks)
    mixed_rank = tuple(
        ci
        for ci, ranks in enumerate(ranks_per_cluster)
        if len(set(ranks)) > 1
    )
    masks = h.polytope.vertex_masks
    mixed_label = tuple(
        ci
        for ci, cluster in enumerate(first.clusters)
        if len({masks[i] for i in cluster}) > 1
    )

    counts = {0: 0, 1: 0, 2: 0}
    for cluster, ranks in zip(first.clusters, ranks_per_cluster):
        least_pos = min(
            range(len(cluster)), key=lambda k: points[cluster[k]]
        )
        counts[ranks[least_pos]] = counts.get(ranks[least_pos], 0) + 1
    total = len(first.clusters)

    closed = closed_form_counts(m, n)
    mismatches = []
    for cell, closed_value, found in (
        ("rank0", closed.rank0, counts[0]),
        ("rank1", closed.rank1, counts[1]),
        ("rank2", closed.rank2, counts[2]),
        ("total", closed.total, total),
    ):
        if closed_value is not None and closed_value != found:
            mismatches.append((cell, closed_value, found))

    all_singletons = all(len(c) == 1 for c in first.clusters)
    fallback = "enumerated" if all_singletons else "clustered"
    tags = [
        "closed_form" if closed_value is not None else fallback
        for closed_value in (closed.rank0, closed.rank1, closed.rank2, closed.total)
    ]
    row = CountRow(
        m=m,
        n=n,
        rank0=counts[0],
        rank1=counts[1],
        rank2=counts[2],
        total=total,
        provenance=(tags[0], tags[1], tags[2], tags[3]),
    )
    diagnostics = TableDiagnostics(
        m=m,
        n=n,
        raw_vertex_count=len(points),
        partition=first,
        mixed_rank_clusters=mixed_rank,
        mixed_label_clusters=mixed_label,
        divisibility=divisibility_check(total, m, n),
        closed_form_mismatches=tuple(mismatches),
    )
    return row, diagnostics

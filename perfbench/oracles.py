"""Reference answers that do not come from the code under test.

Everything here is either a published number copied from the paper's
survey table or a short computation written independently of
``hompoly``: f-vectors of products by convolution, and the admissibility
census of seven-edge subgraphs of K(4,5) by degrees and connected
components.  Nothing in this module imports ``hompoly``.
"""

from __future__ import annotations

from itertools import combinations

# Published survey rows (rank 0, rank 1, rank 2, total) for m, n in 3..6.
PUBLISHED_ROWS: dict[tuple[int, int], tuple[int, int, int, int]] = {
    (3, 3): (3, 18, 6, 27),
    (3, 4): (4, 36, 24, 64),
    (3, 5): (5, 60, 60, 125),
    (3, 6): (6, 90, 120, 216),
    (4, 3): (3, 12, 0, 15),
    (4, 4): (4, 24, 8, 36),
    (4, 5): (5, 40, 80, 125),
    (4, 6): (6, 60, 72, 138),
    (5, 3): (3, 30, 30, 63),
    (5, 4): (4, 60, 80, 144),
    (5, 5): (5, 100, 60, 165),
    (5, 6): (6, 150, 540, 696),
    (6, 3): (3, 18, 12, 33),
    (6, 4): (4, 36, 24, 64),
    (6, 5): (5, 60, 240, 305),
    (6, 6): (6, 90, 84, 180),
}

# Integer affine models of the regular 3-, 4- and 6-gon.  Vertex counts of
# Hom(P, Q) are affine invariants, so these reproduce the published rows
# exactly, without rounding.
POLYGON_MODELS: dict[int, tuple[tuple[int, int], ...]] = {
    3: ((2, 0), (-1, 1), (-1, -1)),
    4: ((2, 0), (0, 1), (-2, 0), (0, -1)),
    6: ((2, 0), (1, 1), (-1, 1), (-2, 0), (-1, -1), (1, -1)),
}

# f-vectors (vertices first, the polytope itself last) of the factors
# whose products appear in the structural identities.
SQUARE = (4, 4, 1)
OCTAHEDRON = (6, 12, 8, 1)
CROSS_4 = (8, 24, 32, 16, 1)


def convolve(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """f-vector of a product: faces are products of nonempty faces."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def power(f: tuple[int, ...], k: int) -> tuple[int, ...]:
    """f-vector of the k-fold product of a polytope with itself."""
    out = f
    for _ in range(k - 1):
        out = convolve(out, f)
    return out


# -- admissibility census ---------------------------------------------------

CENSUS_A = 4
CENSUS_B = 5


def census_reason(edges: tuple[tuple[int, int], ...]) -> str:
    """First failing admissibility rule of a bipartite edge set.

    Rules in order: an A-node of degree three or more (1), a B-node of
    degree three or more (2), a 4-cycle (3), a 6-cycle (4).  Once every
    degree is at most two, each connected component is a path or a
    cycle, and a component is a cycle exactly when it has as many edges
    as nodes; its length is then its edge count.
    """
    a_degree: dict[int, int] = {}
    b_degree: dict[int, int] = {}
    for a, b in edges:
        a_degree[a] = a_degree.get(a, 0) + 1
        b_degree[b] = b_degree.get(b, 0) + 1
    if max(a_degree.values()) > 2:
        return "rejected(rule 1)"
    if max(b_degree.values()) > 2:
        return "rejected(rule 2)"
    parent: dict[tuple[str, int], tuple[str, int]] = {}

    def find(x: tuple[str, int]) -> tuple[str, int]:
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(("A", a))] = find(("B", b))
    nodes: dict[tuple[str, int], int] = {}
    edge_count: dict[tuple[str, int], int] = {}
    for x in list(parent):
        root = find(x)
        nodes[root] = nodes.get(root, 0) + 1
    for a, _ in edges:
        root = find(("A", a))
        edge_count[root] = edge_count.get(root, 0) + 1
    cycle_lengths = {
        edge_count[root] for root in nodes if edge_count[root] == nodes[root]
    }
    if 4 in cycle_lengths:
        return "rejected(rule 3)"
    if 6 in cycle_lengths:
        return "rejected(rule 4)"
    return "accepted"


def census_subgraphs(
    a_labels: tuple[int, ...], b_labels: tuple[int, ...]
) -> list[tuple[tuple[int, int], ...]]:
    """All seven-edge subgraphs of K(4,5), with nodes renamed by the labels.

    The subgraphs come in the same order for every labelling, so the
    i-th entry always has the same shape.
    """
    edges = [(a_labels[a], b_labels[b]) for a in range(CENSUS_A) for b in range(CENSUS_B)]
    return list(combinations(edges, 7))


# Totals the oracle gives over all 77,520 subgraphs; kept as a check on the
# oracle itself.
CENSUS_TOTALS = {
    "accepted": 7200,
    "rejected(rule 1)": 57520,
    "rejected(rule 2)": 11240,
    "rejected(rule 3)": 1080,
    "rejected(rule 4)": 480,
}

"""Coincidence graphs of a planar hom count and their determinants.

A candidate coincidence pattern among seven facet equations is a
bipartite graph on facet indices (part A) and vertex indices (part B)
with exactly seven edges.  Patterns survive four rejection rules (no
node of degree three or more on either side, no 4-cycle, no 6-cycle)
precisely when the graph is a vertex-disjoint union of paths; there are
exactly 31 such graphs up to isomorphism keeping the parts apart.

The degree rules count one part at a time and stop at the first node
of degree three, which is where most candidate patterns end.  The cycle
rules are read off the connected components, not searched for; the
components come from one union-find pass over the edges, each root
carrying its A-node, B-node and edge counts.  Once the degree rules
pass, every node has degree at most two, so each component is a path
or a cycle, a cycle exactly when it has as many edges as nodes, and any
cycle is a whole component.  That decides rules 3 and 4 exactly; seven
edges leave no room for a longer cycle.

For each surviving graph the seven equations assemble into a 7 by 7
generic matrix whose determinant must not vanish identically.  Edge
(a, b) puts source vertex (s_b, t_b) on target facet u_a x + v_a y = 1
by ``hom.hom_row`` in hom coordinates, then -1.  A single
exact nonzero evaluation at a rational point certifies that, so the
certificate is an assignment (small primes in a documented order) plus
the determinant value there.  A symbolic determinant over the sparse
polynomial ring is provided as an independent cross-check route.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .hom import hom_row
from .linalg import mat_det

Monomial = tuple[int, ...]
Poly = dict[Monomial, int]

Edge = tuple[int, int]


@dataclass(frozen=True)
class CoincidenceGraph:
    """Seven bipartite edges; nodes exist exactly where edges touch them."""

    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        if len(self.edges) != 7:
            raise ValueError("a coincidence graph has exactly seven edges")
        if len(set(self.edges)) != 7:
            raise ValueError("edge pairs must be pairwise distinct")

    @property
    def a_nodes(self) -> tuple[int, ...]:
        return tuple(sorted({a for a, _ in self.edges}))

    @property
    def b_nodes(self) -> tuple[int, ...]:
        return tuple(sorted({b for _, b in self.edges}))


# -- enumeration --------------------------------------------------------

# a path component is typed by its edge count and, when that count is
# even, by the part holding both endpoints; odd paths are symmetric.
# Listed in encoding order: longer first, then odd, A, B.
PathType = tuple[int, str | None]
_PATH_TYPES: tuple[PathType, ...] = tuple(
    (edges, flavor)
    for edges in range(7, 0, -1)
    for flavor in ((None,) if edges % 2 else ("A", "B"))
)


def _typed_multisets(total: int, first: int = 0) -> list[tuple[PathType, ...]]:
    """All multisets of typed paths with the given total edge count.

    Each multiset lists its types in :data:`_PATH_TYPES` order, drawn
    from position ``first`` on, and the multisets come out in the
    lexicographic order of those lists, which is encoding order.
    """
    if total == 0:
        return [()]
    return [
        (path,) + rest
        for i, path in enumerate(_PATH_TYPES[first:], first)
        if path[0] <= total
        for rest in _typed_multisets(total - path[0], i)
    ]


def _materialize(multiset: tuple[PathType, ...]) -> CoincidenceGraph:
    edges: list[Edge] = []
    next_a = 0
    next_b = 0
    for length, flavor in multiset:
        start_in_a = flavor != "B"
        walk: list[tuple[str, int]] = []
        side = start_in_a
        for _ in range(length + 1):
            if side:
                walk.append(("A", next_a))
                next_a += 1
            else:
                walk.append(("B", next_b))
                next_b += 1
            side = not side
        for (part1, n1), (part2, n2) in zip(walk, walk[1:]):
            if part1 == "A":
                edges.append((n1, n2))
            else:
                edges.append((n2, n1))
    return CoincidenceGraph(tuple(edges))


def path_multiset(g: CoincidenceGraph) -> tuple[PathType, ...]:
    """Decompose an accepted graph into its typed path components.

    Raises ValueError when the graph is not a disjoint union of paths;
    use :func:`reject_reason` first.
    """
    if reject_reason(g) != "accepted":
        raise ValueError("graph is not a disjoint union of paths")
    # an even path has one node more in the part holding both endpoints
    types = [
        (edges, None if edges % 2 else ("A" if a_count > b_count else "B"))
        for a_count, b_count, edges in _components(g)
    ]
    return tuple(sorted(types, key=_PATH_TYPES.index))


def canonical_encoding(g: CoincidenceGraph) -> str:
    """Stable text form of an accepted graph: its path multiset."""
    parts = []
    for length, flavor in path_multiset(g):
        parts.append(f"{length}{flavor}" if flavor else str(length))
    return "+".join(parts)


def enumerate_graphs() -> list[CoincidenceGraph]:
    """All accepted graphs up to part-preserving isomorphism.

    Generated directly as typed path multisets, so the count (31) is an
    output of the combinatorics, not an input.
    """
    return [_materialize(ms) for ms in _typed_multisets(7)]


# -- rejection rules ----------------------------------------------------


def _components(g: CoincidenceGraph) -> list[tuple[int, int, int]]:
    """A-node, B-node and edge counts of each connected component.

    One union-find pass over the edges.  Sets are named by edge index and
    each node points at the first edge that touched it.  Each edge starts
    a set that absorbs the sets at its ends, so every root carries its
    component's ``(a_count, b_count, edges)``; an edge whose ends already
    share a root adds one edge and no node.
    """
    parent = list(range(len(g.edges)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    a_edge: dict[int, int] = {}
    b_edge: dict[int, int] = {}
    counts: dict[int, tuple[int, int, int]] = {}
    for i, (a, b) in enumerate(g.edges):
        roots = set()
        a_count = b_count = edges = 1
        if a in a_edge:
            roots.add(find(a_edge[a]))
            a_count = 0
        else:
            a_edge[a] = i
        if b in b_edge:
            roots.add(find(b_edge[b]))
            b_count = 0
        else:
            b_edge[b] = i
        for root in roots:
            na, nb, ne = counts.pop(root)
            a_count, b_count, edges = a_count + na, b_count + nb, edges + ne
            parent[root] = i
        counts[i] = (a_count, b_count, edges)
    return list(counts.values())


def reject_reason(g: CoincidenceGraph) -> str:
    """Classify a seven-edge graph: ``accepted`` or ``rejected(rule k)``.

    Rules in order: an A-node of degree three or more (1), a B-node of
    degree three or more (2), a 4-cycle (3), a 6-cycle (4).  Graphs
    passing all four are exactly the disjoint unions of paths.

    The degree rules count one part at a time and stop at the first node
    of degree three.  Rules 3 and 4 fire on a component with as many
    edges as nodes and four or six edges: with every degree at most two,
    those components are exactly the cycles.
    """
    a_degree: dict[int, int] = {}
    for a, _ in g.edges:
        degree = a_degree.get(a, 0) + 1
        if degree == 3:
            return "rejected(rule 1)"
        a_degree[a] = degree
    b_degree: dict[int, int] = {}
    for _, b in g.edges:
        degree = b_degree.get(b, 0) + 1
        if degree == 3:
            return "rejected(rule 2)"
        b_degree[b] = degree
    cycle_lengths = {
        edges
        for a_count, b_count, edges in _components(g)
        if edges == a_count + b_count
    }
    if 4 in cycle_lengths:
        return "rejected(rule 3)"
    if 6 in cycle_lengths:
        return "rejected(rule 4)"
    return "accepted"


# -- generic matrix -----------------------------------------------------


@dataclass(frozen=True)
class GenericMatrix:
    """The 7x7 matrix of one graph over its shared variables.

    ``variables`` fixes the evaluation order: s and t for each B-node in
    sorted order, then u and v for each A-node.  ``entries`` holds
    sparse polynomials keyed by sorted variable-index monomials.  Row k
    is edge k's, in hom coordinates L11, L12, L21, L22, t1, t2, then -1,
    so (f, 1) is a kernel vector wherever all seven pairs are tight at f.
    """

    variables: tuple[str, ...]
    entries: tuple[tuple[tuple[tuple[Monomial, int], ...], ...], ...]

    def entry(self, row: int, col: int) -> Poly:
        return dict(self.entries[row][col])


def build_generic_matrix(g: CoincidenceGraph) -> GenericMatrix:
    """Assemble the matrix; rows share variables exactly per coincidences."""
    if reject_reason(g) != "accepted":
        raise ValueError("matrix is only defined for accepted graphs")
    names = [f"{c}{b}" for b in g.b_nodes for c in "st"]
    names += [f"{c}{a}" for a in g.a_nodes for c in "uv"]
    var = {name: {(i,): 1} for i, name in enumerate(names)}
    rows = []
    for a, b in g.edges:
        vertex, normal = (var[f"s{b}"], var[f"t{b}"]), (var[f"u{a}"], var[f"v{a}"])
        row = (*hom_row(vertex, normal, poly_mul), {(): -1})
        rows.append(tuple(tuple(sorted(p.items())) for p in row))
    return GenericMatrix(variables=tuple(names), entries=tuple(rows))


# -- polynomial helpers -------------------------------------------------


def poly_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for mono, coeff in b.items():
        new = out.get(mono, 0) + coeff
        if new:
            out[mono] = new
        else:
            out.pop(mono, None)
    return out


def poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for mono_a, ca in a.items():
        for mono_b, cb in b.items():
            mono = tuple(sorted(mono_a + mono_b))
            new = out.get(mono, 0) + ca * cb
            if new:
                out[mono] = new
            else:
                out.pop(mono, None)
    return out


def poly_scale(a: Poly, factor: int) -> Poly:
    if factor == 0:
        return {}
    return {mono: coeff * factor for mono, coeff in a.items()}


def poly_eval(a: Poly, values: tuple[Fraction, ...]) -> Fraction:
    total = Fraction(0)
    for mono, coeff in a.items():
        term = Fraction(coeff)
        for var in mono:
            term *= values[var]
        total += term
    return total


# -- certification ------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """A rational point where one graph's determinant is provably nonzero."""

    encoding: str
    variables: tuple[str, ...]
    point: tuple[Fraction, ...]
    det_value: Fraction
    attempts: int


MAX_CERTIFICATE_ATTEMPTS = 32

# seven edges touch at most seven nodes per part, two variables each
_MAX_VARIABLES = 28


def _first_primes(count: int) -> list[int]:
    found: list[int] = []
    candidate = 2
    while len(found) < count:
        if all(candidate % p for p in found):
            found.append(candidate)
        candidate += 1
    return found


_CERTIFICATE_PRIMES = _first_primes(_MAX_VARIABLES + MAX_CERTIFICATE_ATTEMPTS)


def evaluate_matrix(
    matrix: GenericMatrix, point: tuple[int | Fraction, ...]
) -> tuple[tuple[int | Fraction, ...], ...]:
    """The matrix evaluated at ``point``, summed from the stored terms.

    Arithmetic is the point's own: the integer points certificates use
    give an integer matrix, which ``mat_det`` takes as it is.
    """
    return tuple(
        tuple(
            sum(coeff * prod(point[v] for v in mono) for mono, coeff in entry)
            for entry in row
        )
        for row in matrix.entries
    )


def certify_nonvanishing(g: CoincidenceGraph) -> Certificate:
    """Certify that the graph's generic determinant is not identically zero.

    The v-th variable (in the matrix's fixed order) is assigned the
    (v + attempt)-th prime, starting from 2; each attempt shifts the
    window by one.  A nonzero exact determinant at any such point is a
    proof.  Exhausting the attempts would mean the determinant vanishes
    on all those points, which no accepted graph does; it raises.
    """
    matrix = build_generic_matrix(g)
    nvars = len(matrix.variables)
    for attempt in range(MAX_CERTIFICATE_ATTEMPTS):
        primes = tuple(_CERTIFICATE_PRIMES[attempt : attempt + nvars])
        value = mat_det(evaluate_matrix(matrix, primes))
        if value != 0:
            return Certificate(
                encoding=canonical_encoding(g),
                variables=matrix.variables,
                point=tuple(map(Fraction, primes)),
                det_value=value,
                attempts=attempt,
            )
    raise RuntimeError(
        "no nonzero evaluation found; the determinant appears to vanish"
        " identically"
    )


def symbolic_determinant(matrix: GenericMatrix) -> Poly:
    """Exact determinant in the polynomial ring, by column-subset recursion.

    Independent of the numeric route: expands over permutations with a
    dynamic program on used-column masks rather than eliminating.
    """
    size = len(matrix.entries)
    current: dict[int, Poly] = {0: {(): 1}}
    for row in range(size):
        nxt: dict[int, Poly] = {}
        for mask, acc in current.items():
            position = 0
            for col in range(size):
                bit = 1 << col
                if mask & bit:
                    continue
                entry = matrix.entry(row, col)
                if entry:
                    signed = entry if position % 2 == 0 else poly_scale(entry, -1)
                    term = poly_mul(acc, signed)
                    key = mask | bit
                    nxt[key] = poly_add(nxt.get(key, {}), term)
                position += 1
        current = nxt
    return current.get((1 << size) - 1, {})

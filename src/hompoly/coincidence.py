"""Coincidence graphs of a planar hom count and their determinants.

A candidate coincidence pattern among seven facet equations is a
bipartite graph on facet indices (part A) and vertex indices (part B)
with exactly seven edges.  Patterns survive four rejection rules (no
node of degree three or more on either side, no 4-cycle, no 6-cycle)
precisely when the graph is a vertex-disjoint union of paths; there are
exactly 31 such graphs up to isomorphism keeping the parts apart.

The degree rules sort each part's seven labels, one per edge, and look
for a window ``s[i] == s[i + 2]`` (see :func:`reject_reason`); the A
window is where most candidate patterns end.  The cycle
rules need no component search.  Once every degree is at most two, each
component is a path or an even cycle of length four or more, and two
cycles would need eight edges, so seven edges hold at most one cycle.
Each A-node of degree two has a pair of B-neighbours, and four such
nodes would need eight edges, so there are at most three.  A cycle's
A-nodes have degree two, their pairs are its B-nodes: a 4-cycle is two
A-nodes with the same pair, and a 6-cycle is three A-nodes whose pairs
are distinct and cover exactly three B-nodes.  That decides rules 3
and 4 exactly.

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


@dataclass(frozen=True, slots=True)
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
    next_a = next_b = 0
    for length, flavor in multiset:
        # walk from a fresh node of the start's part; each step takes a
        # fresh node of the other part, so the parts alternate
        a, b, step_a = next_a, next_b, flavor != "B"
        edges.append((a, b))
        for _ in range(length - 1):
            if step_a:
                a += 1
            else:
                b += 1
            step_a = not step_a
            edges.append((a, b))
        next_a, next_b = a + 1, b + 1
    return CoincidenceGraph(tuple(edges))


def path_multiset(g: CoincidenceGraph) -> tuple[PathType, ...]:
    """Decompose an accepted graph into its typed path components.

    An accepted graph is a disjoint union of paths, so each component is
    walked once, from one of its two ends (the nodes of degree one) to
    the other.  An even path ends in one part at both ends, the start's.
    Raises ValueError when the graph is not a disjoint union of paths;
    use :func:`reject_reason` first.
    """
    if reject_reason(g) != "accepted":
        raise ValueError("graph is not a disjoint union of paths")
    neighbours: dict[tuple[str, int], list[tuple[str, int]]] = {}
    for a, b in g.edges:
        neighbours.setdefault(("A", a), []).append(("B", b))
        neighbours.setdefault(("B", b), []).append(("A", a))
    walked = set()
    types = []
    for start, around in neighbours.items():
        if len(around) == 2 or start in walked:
            continue
        previous, node, edges = start, around[0], 1
        while len(neighbours[node]) == 2:
            first, second = neighbours[node]
            previous, node = node, second if first == previous else first
            edges += 1
        walked.add(node)
        types.append((edges, None if edges % 2 else start[0]))
    return tuple(sorted(types, key=_PATH_TYPES.index))


def canonical_encoding(g: CoincidenceGraph) -> str:
    """Stable text form of an accepted graph: its path multiset."""
    return "+".join(f"{length}{flavor or ''}" for length, flavor in path_multiset(g))


def enumerate_graphs() -> list[CoincidenceGraph]:
    """All accepted graphs up to part-preserving isomorphism.

    Generated directly as typed path multisets, so the count (31) is an
    output of the combinatorics, not an input.
    """
    return [_materialize(ms) for ms in _typed_multisets(7)]


# -- rejection rules ----------------------------------------------------


def reject_reason(g: CoincidenceGraph) -> str:
    """Classify a seven-edge graph: ``accepted`` or ``rejected(rule k)``.

    Rules in order: an A-node of degree three or more (1), a B-node of
    degree three or more (2), a 4-cycle (3), a 6-cycle (4).  Graphs
    passing all four are exactly the disjoint unions of paths.

    The degree rules sort the seven A-labels, then the seven B-labels, of
    the edges.  Copies of a label are contiguous in the sorted labels ``s``,
    so a label occurs three or more times exactly when ``s[i] == s[i + 2]``
    for some i in 0..4: a run of three copies covers such a window, and
    ``s[i] == s[i + 2]`` forces the ``s[i + 1]`` between them to be equal.
    Rule 3 fires when two A-nodes of degree two share their pair of
    B-neighbours, rule 4 when three distinct pairs cover exactly three
    B-nodes; the module docstring shows why that is exact.
    """
    (a0, b0), (a1, b1), (a2, b2), (a3, b3), (a4, b4), (a5, b5), (a6, b6) = g.edges
    s = sorted((a0, a1, a2, a3, a4, a5, a6))
    if s[0] == s[2] or s[1] == s[3] or s[2] == s[4] or s[3] == s[5] or s[4] == s[6]:
        return "rejected(rule 1)"
    s = sorted((b0, b1, b2, b3, b4, b5, b6))
    if s[0] == s[2] or s[1] == s[3] or s[2] == s[4] or s[3] == s[5] or s[4] == s[6]:
        return "rejected(rule 2)"
    # each pair is sorted, so two A-nodes on the same B-nodes give equal pairs
    first: dict[int, int] = {}
    pairs: list[tuple[int, int]] = []
    for a, b in g.edges:
        if a in first:
            other = first[a]
            pairs.append((other, b) if other < b else (b, other))
        else:
            first[a] = b
    if len(set(pairs)) < len(pairs):
        return "rejected(rule 3)"
    if len(pairs) == 3 and len({*pairs[0], *pairs[1], *pairs[2]}) == 3:
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
    """A rational point where one graph's determinant is provably nonzero.

    ``attempts`` counts the points tried, this one included, so a point
    found on the first try has ``attempts == 1``.
    """

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
                attempts=attempt + 1,
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
                    if position % 2:
                        entry = {mono: -coeff for mono, coeff in entry.items()}
                    term = poly_mul(acc, entry)
                    key = mask | bit
                    nxt[key] = poly_add(nxt.get(key, {}), term)
                position += 1
        current = nxt
    return current.get((1 << size) - 1, {})

"""Coincidence graphs: enumeration, rejection rules, determinants."""

from fractions import Fraction
from itertools import combinations, permutations
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hompoly.coincidence import (
    Certificate,
    CoincidenceGraph,
    build_generic_matrix,
    canonical_encoding,
    certify_nonvanishing,
    enumerate_graphs,
    evaluate_matrix,
    path_multiset,
    poly_eval,
    reject_reason,
    symbolic_determinant,
)
from hompoly.hom import build_hom, enumerate_vertex_maps, hom_row
from hompoly.linalg import mat_det, mat_rank, mat_vec, vec
from hompoly.polytope import Polytope

# independent oracle: multisets of typed paths summing to seven edges;
# odd lengths have one type, even lengths two (endpoints on either side)
EXPECTED_ENCODINGS = {
    "7",
    "6A+1",
    "6B+1",
    "5+2A",
    "5+2B",
    "5+1+1",
    "4A+3",
    "4B+3",
    "4A+2A+1",
    "4A+2B+1",
    "4B+2A+1",
    "4B+2B+1",
    "4A+1+1+1",
    "4B+1+1+1",
    "3+3+1",
    "3+2A+2A",
    "3+2A+2B",
    "3+2B+2B",
    "3+2A+1+1",
    "3+2B+1+1",
    "3+1+1+1+1",
    "2A+2A+2A+1",
    "2A+2A+2B+1",
    "2A+2B+2B+1",
    "2B+2B+2B+1",
    "2A+2A+1+1+1",
    "2A+2B+1+1+1",
    "2B+2B+1+1+1",
    "2A+1+1+1+1+1",
    "2B+1+1+1+1+1",
    "1+1+1+1+1+1+1",
}

SEVEN_DISJOINT = CoincidenceGraph(
    tuple((k, k) for k in range(7))
)


def graph(*edges):
    return CoincidenceGraph(tuple(edges))


# -- enumeration --------------------------------------------------------


def test_enumeration_finds_31_graphs():
    graphs = enumerate_graphs()
    assert len(graphs) == 31
    encodings = {canonical_encoding(g) for g in graphs}
    assert encodings == EXPECTED_ENCODINGS


def test_enumerated_graphs_are_all_accepted():
    for g in enumerate_graphs():
        assert reject_reason(g) == "accepted"


def test_disjoint_edges_graph_is_included():
    encodings = [canonical_encoding(g) for g in enumerate_graphs()]
    assert "1+1+1+1+1+1+1" in encodings


def test_shared_vertex_and_shared_facet_graph_is_included():
    # two edges meeting in a B-node, two meeting in an A-node, three free
    g = graph((0, 0), (1, 0), (2, 1), (2, 2), (3, 3), (4, 4), (5, 5))
    assert reject_reason(g) == "accepted"
    assert canonical_encoding(g) == "2A+2B+1+1+1"
    assert canonical_encoding(g) in {
        canonical_encoding(other) for other in enumerate_graphs()
    }


def test_even_path_flavor_names_the_part_of_its_endpoints():
    # two facets through one vertex: both endpoints of the path are A-nodes
    shared_b = graph((0, 0), (1, 0), (2, 1), (3, 2), (4, 3), (5, 4), (6, 5))
    assert canonical_encoding(shared_b) == "2A+1+1+1+1+1"
    # one facet through two vertices: both endpoints are B-nodes
    shared_a = graph((0, 0), (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6))
    assert canonical_encoding(shared_a) == "2B+1+1+1+1+1"


def test_graph_validation():
    with pytest.raises(ValueError):
        CoincidenceGraph(((0, 0), (1, 1)))
    with pytest.raises(ValueError):
        CoincidenceGraph(tuple((0, 0) for _ in range(7)))


# -- rejection rules ----------------------------------------------------


def test_a_node_of_degree_three_hits_rule_1():
    g = graph((0, 0), (0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 6))
    assert reject_reason(g) == "rejected(rule 1)"


def test_b_node_of_degree_three_hits_rule_2():
    g = graph((0, 0), (1, 0), (2, 0), (3, 1), (4, 2), (5, 3), (6, 4))
    assert reject_reason(g) == "rejected(rule 2)"


def test_four_cycle_hits_rule_3():
    g = graph((0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (3, 3), (4, 4))
    assert reject_reason(g) == "rejected(rule 3)"


def test_six_cycle_hits_rule_4():
    g = graph((0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2), (3, 3))
    assert reject_reason(g) == "rejected(rule 4)"


def test_three_pairs_chained_over_four_b_nodes_are_a_path():
    # the near miss of the 6-cycle: pairs {0,1}, {1,2}, {2,3} make a
    # 6-edge path, and one edge beside it leaves the graph accepted
    g = graph((0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3), (3, 4))
    assert reject_reason(g) == "accepted"
    assert canonical_encoding(g) == "6B+1"
    # closing the chain with {2,0} instead covers three B-nodes
    g = graph((0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 0), (3, 4))
    assert reject_reason(g) == "rejected(rule 4)"


def test_rules_apply_in_order():
    # degree violation and a 4-cycle at once: the degree rule wins
    g = graph((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 3), (3, 4))
    assert reject_reason(g) == "rejected(rule 1)"


def test_b_rule_finishing_first_still_yields_rule_1():
    # B-node 0 reaches degree three at the third edge, A-node 0 only at
    # the sixth: the A part is still checked first
    g = graph((1, 0), (2, 0), (3, 0), (0, 1), (0, 2), (0, 3), (4, 4))
    assert reject_reason(g) == "rejected(rule 1)"


def test_disjoint_edges_accepted():
    assert reject_reason(SEVEN_DISJOINT) == "accepted"


def test_four_cycle_beside_a_path_hits_rule_3():
    g = graph((0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (3, 2), (3, 3))
    assert reject_reason(g) == "rejected(rule 3)"


def test_path_multiset_rejects_cycles():
    g = graph((0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (3, 3), (4, 4))
    with pytest.raises(ValueError):
        path_multiset(g)


def test_path_multiset_rejects_six_cycles():
    g = graph((0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2), (3, 3))
    with pytest.raises(ValueError):
        path_multiset(g)


def reference_paths(g):
    """The typed components of a path forest, found by search.

    A component is typed by its edge count and, when that count is even,
    by the part with more nodes, which holds both ends.  Listed longer
    first, then odd, A, B.
    """
    neighbours = {}
    for a, b in g.edges:
        neighbours.setdefault(("A", a), set()).add(("B", b))
        neighbours.setdefault(("B", b), set()).add(("A", a))
    unseen = set(neighbours)
    types = []
    while unseen:
        stack = [unseen.pop()]
        component = set(stack)
        while stack:
            for node in neighbours[stack.pop()] - component:
                component.add(node)
                stack.append(node)
        unseen -= component
        edges = sum(("A", a) in component for a, _ in g.edges)
        a_count = sum(part == "A" for part, _ in component)
        larger = "A" if 2 * a_count > len(component) else "B"
        types.append((edges, None if edges % 2 else larger))
    return tuple(sorted(types, key=lambda t: (-t[0], t[1] or "")))


def test_path_multiset_matches_a_component_search_on_the_k45_census():
    encodings = {canonical_encoding(g) for g in enumerate_graphs()}
    accepted = 0
    for edges in combinations([(a, b) for a in range(4) for b in range(5)], 7):
        g = CoincidenceGraph(edges)
        if reject_reason(g) != "accepted":
            continue
        accepted += 1
        assert path_multiset(g) == reference_paths(g), edges
        assert canonical_encoding(g) in encodings, edges
    assert accepted == 7200


def reference_has_cycle(g, half):
    """Whether the graph contains a cycle of length 2*half, exhaustively."""
    edge_set = set(g.edges)
    for a_sel in combinations(g.a_nodes, half):
        for b_sel in combinations(g.b_nodes, half):
            for a_perm in permutations(a_sel[1:]):
                cycle_a = (a_sel[0],) + a_perm
                for b_perm in permutations(b_sel):
                    if all(
                        (cycle_a[k], b_perm[k]) in edge_set
                        and (cycle_a[(k + 1) % half], b_perm[k]) in edge_set
                        for k in range(half)
                    ):
                        return True
    return False


def reference_reject_reason(g):
    """The four rules with the cycles found by trying every arrangement."""
    for side in (0, 1):
        nodes = [edge[side] for edge in g.edges]
        if any(nodes.count(node) > 2 for node in nodes):
            return f"rejected(rule {side + 1})"
    if reference_has_cycle(g, 2):
        return "rejected(rule 3)"
    if reference_has_cycle(g, 3):
        return "rejected(rule 4)"
    return "accepted"


@st.composite
def seven_edge_graphs(draw):
    """Seven distinct edges on up to seven nodes per side.

    Half the draws take any seven pairs.  The other half join paths and
    4- and 6-cycles on fresh nodes, so no degree exceeds two and the
    cycle rules decide; node labels and edge order are then shuffled.
    """
    nodes = range(7)
    if draw(st.booleans()):
        pairs = [(a, b) for a in nodes for b in nodes]
        return CoincidenceGraph(tuple(draw(st.permutations(pairs))[:7]))
    edges = []
    fresh = [0, 0]  # next unused node in part A and in part B
    remaining = 7
    while remaining:
        length = draw(st.integers(1, remaining))
        closed = length in (4, 6) and draw(st.booleans())
        side = draw(st.integers(0, 1))
        walk = []
        for _ in range(length if closed else length + 1):
            walk.append((side, fresh[side]))
            fresh[side] += 1
            side = 1 - side
        if closed:
            walk.append(walk[0])
        for (side, n1), (_, n2) in zip(walk, walk[1:]):
            edges.append((n1, n2) if side == 0 else (n2, n1))
        remaining -= length
    a_labels = draw(st.permutations(nodes))
    b_labels = draw(st.permutations(nodes))
    edges = [(a_labels[a], b_labels[b]) for a, b in edges]
    return CoincidenceGraph(tuple(draw(st.permutations(edges))))


@given(seven_edge_graphs())
@settings(max_examples=300, deadline=None)
def test_reject_reason_matches_exhaustive_reference(g):
    reason = reject_reason(g)
    assert reason == reference_reject_reason(g)
    if reason == "accepted":
        assert canonical_encoding(g) in EXPECTED_ENCODINGS


@given(seven_edge_graphs(), st.permutations(range(7)))
@settings(max_examples=200, deadline=None)
def test_verdicts_ignore_labels_and_edge_order(g, order):
    # large A labels, negative B labels, edges in another order
    relabeled = [(10**9 + 7 * a, -b - 1) for a, b in g.edges]
    h = CoincidenceGraph(tuple(relabeled[k] for k in order))
    reason = reject_reason(g)
    assert reject_reason(h) == reason
    if reason == "accepted":
        assert canonical_encoding(h) == canonical_encoding(g)


# -- generic matrix -----------------------------------------------------


def test_disjoint_edges_matrix_has_28_variables():
    matrix = build_generic_matrix(SEVEN_DISJOINT)
    assert len(matrix.variables) == 28


def test_shared_a_node_drops_two_variables():
    g = graph((0, 0), (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6))
    matrix = build_generic_matrix(g)
    assert len(matrix.variables) == 26


def test_matrix_rows_follow_edge_coincidences():
    g = graph((0, 0), (1, 0), (2, 1), (2, 2), (3, 3), (4, 4), (5, 5))
    matrix = build_generic_matrix(g)

    def row_vars(row, prefixes):
        ids = set()
        for col in range(7):
            for mono, _ in matrix.entries[row][col]:
                for var in mono:
                    if matrix.variables[var][0] in prefixes:
                        ids.add(var)
        return ids

    for k in range(7):
        for l in range(k + 1, 7):
            share_b = g.edges[k][1] == g.edges[l][1]
            share_a = g.edges[k][0] == g.edges[l][0]
            assert (row_vars(k, "st") & row_vars(l, "st") != set()) == share_b
            assert (row_vars(k, "uv") & row_vars(l, "uv") != set()) == share_a


def test_matrix_constant_column():
    matrix = build_generic_matrix(SEVEN_DISJOINT)
    for row in range(7):
        assert matrix.entry(row, 6) == {(): -1}


def test_matrix_requires_accepted_graph():
    g = graph((0, 0), (0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 6))
    with pytest.raises(ValueError):
        build_generic_matrix(g)


# -- the census against a computed hom ---------------------------------

# integer polygons with the origin inside, so each target facet a.x <= b
# reads (a / b).x <= 1, the form the generic matrix's u, v take
HEXAGON = ((2, 0), (1, 1), (-1, 1), (-2, 0), (-1, -1), (1, -1))
DIAMOND = ((2, 0), (0, 1), (-2, 0), (0, -1))


@pytest.fixture(scope="module")
def hexagon_into_diamond():
    """The polygons and each rank-2 vertex map with its tight (facet, vertex) pairs."""
    p = Polytope.from_vertices([vec(*x) for x in HEXAGON])
    q = Polytope.from_vertices([vec(*x) for x in DIAMOND])
    maps = [
        (f, {(label.facet_index, label.vertex_index) for label in tight})
        for f, tight in enumerate_vertex_maps(build_hom(p, q))
        if mat_rank(f.linear) == 2
    ]
    return p, q, maps


def evaluated_at_the_polygons(g, p, q):
    """``g``'s generic matrix at s_b, t_b = vertex b and u_a, v_a = facet a's a / b."""
    def value(name):
        index = int(name[1:])
        if name[0] in "st":
            return p.vertices[index]["st".index(name[0])]
        facet = q.inequalities[index]
        return facet.normal["uv".index(name[0])] / facet.offset

    matrix = build_generic_matrix(g)
    return evaluate_matrix(matrix, tuple(value(name) for name in matrix.variables))


def test_tight_pairs_at_a_vertex_map_have_the_map_in_their_kernel(hexagon_into_diamond):
    p, q, maps = hexagon_into_diamond
    assert len(maps) == 24
    assert all(len(tight) == 8 for _, tight in maps)
    checked = 0
    for f, tight in maps:
        for edges in combinations(sorted(tight), 7):
            g = CoincidenceGraph(edges)
            if reject_reason(g) == "accepted":
                kernel = mat_vec(evaluated_at_the_polygons(g, p, q), (*f.to_point(), 1))
                assert kernel == (0,) * 7
                checked += 1
    assert checked == 192


def test_six_independent_tight_pairs_and_a_loose_one_are_nonsingular(
    hexagon_into_diamond,
):
    # a kernel vector (x, l) has x = 0 when l = 0 and x = f otherwise,
    # which would make the loose pair tight
    p, q, maps = hexagon_into_diamond
    pairs = {(k, v) for k in range(q.n_facets) for v in range(p.n_vertices)}
    checked = 0
    for _, tight in maps:
        for six in combinations(sorted(tight), 6):
            rows = [hom_row(p.vertices[v], q.inequalities[k].normal, mul) for k, v in six]
            if mat_rank(rows) < 6:
                continue
            for loose in sorted(pairs - tight):
                g = CoincidenceGraph(six + (loose,))
                if reject_reason(g) == "accepted":
                    assert mat_det(evaluated_at_the_polygons(g, p, q)) != 0
                    checked += 1
    assert checked == 2304


# -- certification ------------------------------------------------------


def test_disjoint_edges_certified_on_first_attempt():
    certificate = certify_nonvanishing(SEVEN_DISJOINT)
    assert certificate.attempts == 1
    assert certificate.det_value != 0


def test_degenerate_assignment_vanishes_but_certification_recovers():
    # assigning every variable the same value makes all seven rows equal,
    # so the determinant is zero there; the prime assignment avoids this
    matrix = build_generic_matrix(SEVEN_DISJOINT)
    flat = tuple(Fraction(2) for _ in matrix.variables)
    assert mat_det(evaluate_matrix(matrix, flat)) == 0
    assert certify_nonvanishing(SEVEN_DISJOINT).det_value != 0


def test_all_31_graphs_certify_and_cross_check():
    for g in enumerate_graphs():
        certificate = certify_nonvanishing(g)
        assert isinstance(certificate, Certificate)
        assert certificate.det_value != 0
        matrix = build_generic_matrix(g)
        det_poly = symbolic_determinant(matrix)
        assert det_poly, "determinant must not be the zero polynomial"
        symbolic_value = poly_eval(det_poly, certificate.point)
        assert symbolic_value == certificate.det_value
        numeric = mat_det(evaluate_matrix(matrix, certificate.point))
        assert numeric == certificate.det_value

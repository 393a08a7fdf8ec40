"""Acceptance suite: one test per acceptance criterion, in order.

Each criterion gets one test named after its number, so a verbose run
reads as a pass/fail line per criterion.  Oracles here are independent
of the library paths they check: extreme points come from a phase-1
simplex over exact rationals, graph acceptance from a degree and
component census, determinant certificates from the symbolic expansion
route, and table cells from frozen published counts.

Criterion 6 is asserted with the published misprint corrected: the
published f-vector (36, 144, 224, 204, 88, 16, 1) cannot belong to any
6-polytope, since its Euler alternating sum over the proper faces is
-16, not 0.  The corrected value has 240 two-faces; the companion test
cross-checks it against a product decomposition that never touches the
map-space builder.

Stretch checks (the polygon table rows with a side of 7 or 8) run only
with HOMPOLY_STRETCH=1; they are marked `stretch`.
"""

import itertools
import os
import random
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

import pytest

from hompoly.classify import (
    classify_all,
    image_polytope,
    is_deflation,
    is_face_collapse,
    map_rank,
    rank1_polygon_count,
    surj_inj_factorize,
    surjective_onto,
)
from hompoly.coincidence import (
    CoincidenceGraph,
    build_generic_matrix,
    canonical_encoding,
    certify_nonvanishing,
    enumerate_graphs,
    evaluate_matrix,
    poly_eval,
    reject_reason,
    symbolic_determinant,
)
from hompoly.constructions import cross_polytope, cube, regular_ngon, simplex
from hompoly.hom import (
    AffineMap,
    build_hom,
    enumerate_vertex_maps,
    hom_identity_check,
    is_vertex_map,
)
from hompoly.linalg import mat_det, mat_vec, vec_add
from hompoly.polytope import Polytope, chart_project, is_simple_vertex
from hompoly.regular import closed_form_counts, divisibility_check, table_row
from test_linalg import mat_mul

_skip_unless_opted_in = pytest.mark.skipif(
    os.environ.get("HOMPOLY_STRETCH") != "1",
    reason="stretch rows are opt-in: set HOMPOLY_STRETCH=1",
)


def stretch(func):
    return pytest.mark.stretch(_skip_unless_opted_in(func))

# Published vertex counts for Hom(P_m, P_n): (m, n) -> (rank0, rank1,
# rank2, total).  The 3..6 block is the gating target; the rest is the
# stretch block.
TABLE_ROWS = {
    (3, 3): (3, 18, 6, 27),
    (3, 4): (4, 36, 24, 64),
    (3, 5): (5, 60, 60, 125),
    (3, 6): (6, 90, 120, 216),
    (3, 7): (7, 126, 210, 343),
    (3, 8): (8, 168, 336, 512),
    (4, 3): (3, 12, 0, 15),
    (4, 4): (4, 24, 8, 36),
    (4, 5): (5, 40, 80, 125),
    (4, 6): (6, 60, 72, 138),
    (4, 7): (7, 84, 280, 371),
    (4, 8): (8, 112, 240, 360),
    (5, 3): (3, 30, 30, 63),
    (5, 4): (4, 60, 80, 144),
    (5, 5): (5, 100, 60, 165),
    (5, 6): (6, 150, 540, 696),
    (5, 7): (7, 210, 770, 987),
    (5, 8): (8, 280, 1120, 1408),
    (6, 3): (3, 18, 12, 33),
    (6, 4): (4, 36, 24, 64),
    (6, 5): (5, 60, 240, 305),
    (6, 6): (6, 90, 84, 180),
    (6, 7): (7, 126, 1008, 1141),
    (6, 8): (8, 168, 864, 1040),
    (7, 3): (3, 42, 84, 129),
    (7, 4): (4, 84, 168, 256),
    (7, 5): (5, 140, 770, 915),
    (7, 6): (6, 210, 1092, 1308),
    (7, 7): (7, 294, 700, 1001),
    (7, 8): (8, 392, 2912, 3312),
    (8, 3): (3, 24, 48, 75),
    (8, 4): (4, 48, 48, 100),
    (8, 5): (5, 80, 400, 485),
    (8, 6): (6, 120, 288, 414),
    (8, 7): (7, 168, 1904, 2079),
    (8, 8): (8, 224, 912, 1144),
}

REQUIRED_PAIRS = [(m, n) for m in range(3, 7) for n in range(3, 7)]
STRETCH_PAIRS = sorted(set(TABLE_ROWS) - set(REQUIRED_PAIRS))


# -- shared generators and oracles ----------------------------------------


def random_polytope(rng: random.Random, dim: int) -> Polytope:
    """A full-dimensional polytope with at most 8 small rational vertices."""
    while True:
        count = rng.randint(dim + 1, 8)
        points = [
            tuple(
                Fraction(rng.randint(-8, 8), rng.randint(1, 4))
                for _ in range(dim)
            )
            for _ in range(count)
        ]
        p = Polytope.from_points(points)
        if p.dim == dim:
            return p


def random_pairs(count: int) -> list[tuple[Polytope, Polytope]]:
    rng = random.Random(20260817)
    pairs = []
    for _ in range(count):
        dp, dq = rng.randint(1, 3), rng.randint(1, 3)
        pairs.append((random_polytope(rng, dp), random_polytope(rng, dq)))
    return pairs


def compose(outer: AffineMap, inner: AffineMap) -> AffineMap:
    linear = mat_mul(outer.linear, inner.linear)
    translation = vec_add(mat_vec(outer.linear, inner.translation), outer.translation)
    return AffineMap(linear, translation)


def convex_combination_exists(
    points: list[tuple[Fraction, ...]], target: tuple[Fraction, ...]
) -> bool:
    """Exact phase-1 simplex: is target a convex combination of points?

    Feasibility of sum(l_j p_j) = target, sum(l_j) = 1, l >= 0 is decided
    by minimizing the sum of one artificial variable per equation with
    Bland's rule, so the run terminates and the zero/nonzero optimum is
    exact.  Kept deliberately separate from the library's double
    description code: this is the round-trip oracle.
    """
    dim = len(target)
    n = len(points)
    rows = []
    for k in range(dim):
        rows.append([p[k] for p in points] + [target[k]])
    rows.append([Fraction(1)] * n + [Fraction(1)])
    m = len(rows)
    for row in rows:
        if row[-1] < 0:
            for idx in range(len(row)):
                row[idx] = -row[idx]
    # tableau columns: n structural, m artificial, then the right side
    tableau = []
    for i, row in enumerate(rows):
        art = [Fraction(0)] * m
        art[i] = Fraction(1)
        tableau.append(row[:-1] + art + [row[-1]])
    # price out the artificial basis: structural columns and the right
    # side get the column sums, basic (artificial) columns get zero, and
    # artificials never re-enter
    cost = [Fraction(0)] * (n + m + 1)
    for i in range(m):
        for idx in range(n):
            cost[idx] += tableau[i][idx]
        cost[-1] += tableau[i][-1]
    basis = [n + i for i in range(m)]
    while True:
        entering = next((j for j in range(n) if cost[j] > 0), None)
        if entering is None:
            break
        leaving = None
        best = None
        for i in range(m):
            coeff = tableau[i][entering]
            if coeff > 0:
                ratio = tableau[i][-1] / coeff
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[i] < basis[leaving])
                ):
                    best = ratio
                    leaving = i
        if leaving is None:
            raise RuntimeError("phase-1 objective is bounded below by zero")
        pivot = tableau[leaving][entering]
        tableau[leaving] = [e / pivot for e in tableau[leaving]]
        for i in range(m):
            if i != leaving and tableau[i][entering] != 0:
                factor = tableau[i][entering]
                tableau[i] = [
                    a - factor * b for a, b in zip(tableau[i], tableau[leaving])
                ]
        if cost[entering] != 0:
            factor = cost[entering]
            cost = [a - factor * b for a, b in zip(cost, tableau[leaving])]
        basis[leaving] = entering
    return cost[-1] == 0


def oracle_extreme_points(points: list[tuple[Fraction, ...]]) -> set:
    out = set()
    for i, target in enumerate(points):
        others = [p for j, p in enumerate(points) if j != i]
        if not others or not convex_combination_exists(others, target):
            out.add(target)
    return out


def oracle_graph_status(edges: tuple[tuple[int, int], ...]) -> str:
    """Classify a 7-edge bipartite graph by degree and component census.

    Independent of the library's rule scan: components come from
    union-find, cycle lengths from the edge and node counts per
    component (with degrees at most 2, a component carrying as many
    edges as nodes is a single cycle, anything else is a path).
    """
    a_deg = Counter(a for a, _ in edges)
    b_deg = Counter(b for _, b in edges)
    if max(a_deg.values()) > 2:
        return "rejected(rule 1)"
    if max(b_deg.values()) > 2:
        return "rejected(rule 2)"
    parent: dict[tuple[str, int], tuple[str, int]] = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(("a", a)), find(("b", b))
        if ra != rb:
            parent[ra] = rb
    component_edges: Counter = Counter()
    component_nodes: Counter = Counter()
    for a, b in edges:
        component_edges[find(("a", a))] += 1
    for node in {("a", a) for a, _ in edges} | {("b", b) for _, b in edges}:
        component_nodes[find(node)] += 1
    cycle_lengths = {
        component_edges[root]
        for root in component_edges
        if component_edges[root] == component_nodes[root]
    }
    if 4 in cycle_lengths:
        return "rejected(rule 3)"
    if 6 in cycle_lengths:
        return "rejected(rule 4)"
    assert not cycle_lengths, "7 edges cannot carry a cycle longer than 6"
    return "accepted"


def _row_worker(spec):
    m, n = spec
    return (m, n) + table_row(m, n)


@pytest.fixture(scope="module")
def required_table():
    """All 16 gating rows, computed once and shared across criteria."""
    return {(m, n): table_row(m, n) for m, n in REQUIRED_PAIRS}


@pytest.fixture(scope="module")
def stretch_table():
    with ProcessPoolExecutor(max_workers=4) as pool:
        rows = list(pool.map(_row_worker, STRETCH_PAIRS))
    return {(m, n): (row, diag) for m, n, row, diag in rows}


# -- criteria --------------------------------------------------------------


def test_criterion_01_hom_dimension_law():
    start = time.monotonic()
    for p, q in random_pairs(20):
        h = build_hom(p, q)
        assert h.polytope.dim == p.dim * q.dim + q.dim
    assert time.monotonic() - start < 60


def test_criterion_02_facet_irredundancy_and_count():
    start = time.monotonic()
    checked = 0
    for p, q in random_pairs(20):
        if p.dim * q.dim + q.dim > 6:
            continue
        h = build_hom(p, q)
        assert h.polytope.n_facets == p.n_vertices * q.n_facets
        rebuilt = Polytope.from_inequalities(
            h.polytope.inequalities, h.polytope.ambient_dim
        )
        assert rebuilt.n_facets == h.polytope.n_facets
        assert set(rebuilt.vertices) == set(h.polytope.vertices)
        checked += 1
    assert checked >= 5
    assert time.monotonic() - start < 120


def test_criterion_03_table_rows_3_to_6_exact(required_table):
    start = time.monotonic()
    for (m, n), (row, diag) in required_table.items():
        assert (row.rank0, row.rank1, row.rank2, row.total) == TABLE_ROWS[m, n]
        # every vertex is counted once: nothing is merged
        assert diag.raw_vertex_count == row.total
        assert "clustered" not in row.provenance
    assert time.monotonic() - start < 600


def test_criterion_03_row_7_7_exact():
    """The published (7,7) row, the one a rounded 7-gon misses (1017)."""
    row, _ = table_row(7, 7)
    assert (row.rank0, row.rank1, row.rank2, row.total) == TABLE_ROWS[7, 7]
    assert divisibility_check(row.total, 7, 7).ok


@stretch
def test_criterion_03_stretch_rows_to_8(stretch_table):
    """All twenty rows with a side of 7 or 8 reproduce the published counts."""
    for (m, n), (row, _) in stretch_table.items():
        assert (row.rank0, row.rank1, row.rank2, row.total) == TABLE_ROWS[m, n]
        assert divisibility_check(row.total, m, n).ok


def test_criterion_04_divisibility_all_computed_rows(required_table):
    for (m, n), (row, _) in required_table.items():
        report = divisibility_check(row.total, m, n)
        assert report.ok, f"({m},{n}): {report.reasons}"


def test_criterion_05_closed_forms_match_enumeration(required_table):
    for m, n in REQUIRED_PAIRS:
        if m not in (3, 4) and n not in (3, 4):
            continue
        row, _ = required_table[m, n]
        forms = closed_form_counts(m, n)
        assert forms.rank2 is not None
        assert (row.rank0, row.rank1, row.rank2) == (
            forms.rank0,
            forms.rank1,
            forms.rank2,
        )


@stretch
def test_criterion_05_stretch_example_4_7(stretch_table):
    """The quoted rank-2 example sits outside the quantified 3..6 block."""
    row, _ = stretch_table[(4, 7)]
    assert row.rank2 == 7**3 - 9 * 7 == 280
    assert closed_form_counts(4, 7).rank2 == 280


def test_criterion_06_f_vector_as_stated():
    """Erratum: the published tuple is (36, 144, 224, 204, 88, 16, 1).

    That tuple cannot be the f-vector of a 6-polytope: Euler's relation
    needs the alternating sum f0 - f1 + f2 - f3 + f4 - f5 to be 0, and
    the published tuple gives -16.  The map space factors as a product,
    because Hom(P, -) is right adjoint to the tensor product, so it
    preserves products, and the target square is a segment I times a
    segment: Hom(square, square) is Hom(square, I) squared, and
    Hom(square, I) is the octahedron (6, 12, 8, 1).  The convolution
    square of that f-vector has f2 = 2*6*8 + 12*12 = 240, the value
    asserted here.
    """
    start = time.monotonic()
    h = build_hom(regular_ngon(4), regular_ngon(4))
    result = h.polytope.f_vector
    assert time.monotonic() - start < 120
    assert result == (36, 144, 240, 204, 88, 16, 1)


def test_criterion_06_companion_computed_f_vector():
    """The published tuple has alternating sum -16; a 6-polytope needs 0.

    Two routes that share no face machinery: the map-space build with
    its lattice, and the coordinate-product decomposition of this
    particular map space as octahedron times octahedron, whose f-vector
    is the convolution square of (6, 12, 8, 1).  Both give 240
    two-faces, and the alternating sum checks out.
    """
    h = build_hom(regular_ngon(4), regular_ngon(4))
    computed = h.polytope.f_vector
    assert computed == (36, 144, 240, 204, 88, 16, 1)
    octahedron = cross_polytope(3).f_vector
    convolution = [0] * 7
    for i, a in enumerate(octahedron):
        for j, b in enumerate(octahedron):
            convolution[i + j] += a * b
    assert computed == tuple(convolution)
    proper = computed[:-1]
    assert sum((-1) ** i * f for i, f in enumerate(proper)) == 0


def test_criterion_07_hom_identities():
    first = hom_identity_check("simplex_power", n=1, p=regular_ngon(5))
    assert first.match, (first.lhs_f_vector, first.rhs_f_vector)
    second = hom_identity_check("cube_bipyramid", m=2, n=1)
    assert second.match, (second.lhs_f_vector, second.rhs_f_vector)
    third = hom_identity_check("cube_cross_swap", m=2, n=2)
    assert third.match, (third.lhs_f_vector, third.rhs_f_vector)


def test_criterion_08_classification_fixtures():
    projection = AffineMap(
        (
            (Fraction(1), Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(1), Fraction(0)),
        ),
        (Fraction(0), Fraction(0)),
    )
    triangle = Polytope.from_points(((0, 0), (2, 0), (0, 2)))

    frustum = Polytope.from_points(
        ((0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1))
    )
    h_frustum = build_hom(frustum, triangle)
    assert is_vertex_map(projection, h_frustum)
    assert is_face_collapse(projection, frustum)
    assert not is_deflation(projection, frustum, triangle, h_frustum)

    wedge = Polytope.from_points(
        ((0, 0, 0), (2, 0, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1))
    )
    h_wedge = build_hom(wedge, triangle)
    assert is_vertex_map(projection, h_wedge)
    assert not is_face_collapse(projection, wedge)

    h_oct = build_hom(cross_polytope(3), simplex(2))
    assert h_oct.polytope.dim == 8
    assert h_oct.polytope.n_facets == 18
    _, summary = classify_all(h_oct)
    assert summary.rank_count(2) == 0

    square = regular_ngon(4)
    h_square = build_hom(square, square)
    identity_point = tuple(Fraction(e) for e in (1, 0, 0, 1, 0, 0))
    index = h_square.polytope.vertices.index(identity_point)
    assert len(h_square.polytope.vertex_facet_indices(index)) == 8
    assert not is_simple_vertex(h_square.polytope, index)


def test_criterion_09_factorization_property_suite():
    for m, n in ((3, 3), (3, 4), (4, 3), (4, 4)):
        p, q = regular_ngon(m), regular_ngon(n)
        h = build_hom(p, q)
        records, summary = classify_all(h)
        assert all(is_vertex_map(r.map, h) for r in records)

        for record in records:
            f = record.map
            if record.rank == 0:
                assert f.translation in set(q.vertices)
                continue
            f_surj, f_inj = surj_inj_factorize(f, p)
            image, _ = image_polytope(f, p)
            assert is_vertex_map(f_surj, build_hom(p, image))
            assert is_vertex_map(f_inj, build_hom(image, q))
            if record.is_deflation:
                assert record.surj_factor_is_face_collapse

        # rank-1 converse: compose every rank-1 vertex map onto a fixed
        # segment with every rank-1 vertex map out of it; the composite
        # set is exactly the rank-1 vertex set, and the segment's one
        # nontrivial affine symmetry makes the covering exactly 2-to-1.
        segment = cube(1)
        onto = [
            g
            for g, _ in enumerate_vertex_maps(build_hom(p, segment))
            if map_rank(g) == 1 and surjective_onto(g, p, segment)
        ]
        into = [
            g
            for g, _ in enumerate_vertex_maps(build_hom(segment, q))
            if map_rank(g) == 1
        ]
        composites = {
            compose(h_map, g_map).to_point() for g_map in onto for h_map in into
        }
        rank1_points = {r.map.to_point() for r in records if r.rank == 1}
        assert composites == rank1_points
        assert len(onto) * len(into) == 2 * len(rank1_points)

        assert summary.rank_count(1) == rank1_polygon_count(p, q)


def test_criterion_10_coincidence_certification():
    start = time.monotonic()
    graphs = enumerate_graphs()
    assert len(graphs) == 31
    assert len({canonical_encoding(g) for g in graphs}) == 31
    for g in graphs:
        assert reject_reason(g) == "accepted"
        assert oracle_graph_status(g.edges) == "accepted"

    # every 7-edge subgraph of K_{4,5}, checked against the census oracle
    statuses = Counter()
    accepted_encodings = set()
    for combo in itertools.combinations(
        [(a, b) for a in range(4) for b in range(5)], 7
    ):
        g = CoincidenceGraph(combo)
        status = reject_reason(g)
        assert status == oracle_graph_status(g.edges), g.edges
        statuses[status] += 1
        if status == "accepted":
            accepted_encodings.add(canonical_encoding(g))
    assert statuses == {
        "accepted": 7200,
        "rejected(rule 1)": 57520,
        "rejected(rule 2)": 11240,
        "rejected(rule 3)": 1080,
        "rejected(rule 4)": 480,
    }
    fitting = {
        canonical_encoding(g)
        for g in graphs
        if len(g.a_nodes) <= 4 and len(g.b_nodes) <= 5
    }
    assert accepted_encodings == fitting

    for g in graphs:
        certificate = certify_nonvanishing(g)
        assert certificate.det_value != 0
        matrix = build_generic_matrix(g)
        assert (
            mat_det(evaluate_matrix(matrix, certificate.point))
            == certificate.det_value
        )
        determinant = symbolic_determinant(matrix)
        assert determinant
        assert poly_eval(determinant, certificate.point) == certificate.det_value
    assert time.monotonic() - start < 60


def test_criterion_11_kernel_round_trip():
    start = time.monotonic()
    rng = random.Random(1729)
    for _ in range(200):
        ambient = rng.randint(1, 4)
        count = rng.randint(1, 10)
        points = []
        for _ in range(count):
            coords = []
            for _ in range(ambient):
                den = rng.randint(1, 7)
                coords.append(Fraction(rng.randint(-5 * den, 5 * den), den))
            points.append(tuple(coords))
        projected, _chart = chart_project(tuple(points))
        distinct = sorted(set(projected))
        expected = oracle_extreme_points(distinct)
        if projected[0] == ():
            # all input points coincide; the chart is a single point
            assert expected == {()}
            continue
        hull_dim = len(projected[0])
        facets = Polytope.from_points(distinct).inequalities
        back = Polytope.from_inequalities(facets, hull_dim)
        assert set(back.vertices) == expected
    assert time.monotonic() - start < 300


def test_oracle_self_checks():
    """The acceptance oracles themselves, on knowable inputs."""
    half = Fraction(1, 2)
    square = [
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(1)),
    ]
    assert convex_combination_exists(square, (half, half))
    assert not convex_combination_exists(square, (Fraction(2), half))
    assert oracle_extreme_points(square + [(half, half)]) == set(square)

    path = tuple((i, i) for i in range(4)) + tuple((i + 1, i) for i in range(3))
    assert oracle_graph_status(path) == "accepted"
    star = ((0, 0), (0, 1), (0, 2), (1, 0), (2, 1), (3, 2), (1, 3))
    assert oracle_graph_status(star) == "rejected(rule 1)"
    square_cycle = ((0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2))
    assert oracle_graph_status(square_cycle) == "rejected(rule 3)"
    hexagon = ((0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 0), (3, 3))
    assert oracle_graph_status(hexagon) == "rejected(rule 4)"

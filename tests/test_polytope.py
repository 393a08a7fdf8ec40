"""Unit tests for the polytope kernel: conversions, incidence, faces."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hompoly.polytope as polytope_module
from hompoly.constructions import bipyramid, cross_polytope, cube, product, simplex
from hompoly.errors import (
    GeometryError,
    InfeasibleError,
    LowerDimensionalError,
    OutsideHullError,
    UnboundedError,
)
from hompoly import dd
from hompoly.hom import build_hom
from hompoly.linalg import solve_affine_hull, vec
from hompoly.polytope import (
    AffineChart,
    Inequality,
    Polytope,
    chart_project,
    contains_point,
    is_simple_vertex,
)


def ineq(normal, offset) -> Inequality:
    return Inequality(vec(*normal), Fraction(offset))


def square_hrep() -> list[Inequality]:
    return [
        ineq((1, 0), 1),
        ineq((-1, 0), 1),
        ineq((0, 1), 1),
        ineq((0, -1), 1),
    ]


def test_square_vertices_from_inequalities():
    p = Polytope.from_inequalities(square_hrep(), 2)
    assert p.vertices == (
        vec(-1, -1),
        vec(-1, 1),
        vec(1, -1),
        vec(1, 1),
    )
    assert p.dim == 2


def test_square_facets_from_vertices():
    p = Polytope.from_vertices([vec(1, 1), vec(1, -1), vec(-1, 1), vec(-1, -1)])
    assert p.n_facets == 4
    for iq in p.inequalities:
        assert iq.offset == 1
        assert sorted(abs(e) for e in iq.normal) == [0, 1]


def test_roundtrip_conversions_match():
    facets = Polytope.from_points((vec(0, 0), vec(2, 0), vec(0, 2))).inequalities
    assert len(facets) == 3
    back = Polytope.from_inequalities(facets, 2)
    assert back.vertices == (vec(0, 0), vec(0, 2), vec(2, 0))


def test_cube_roundtrip_3d():
    pts = [vec(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
    p = Polytope.from_vertices(pts)
    assert p.n_facets == 6
    again = Polytope.from_inequalities(p.inequalities, 3)
    assert set(again.vertices) == set(pts)
    assert again.inequalities == p.inequalities


def test_redundant_inequality_dropped():
    rows = square_hrep() + [ineq((1, 1), 5), ineq((2, 0), 2)]
    p = Polytope.from_inequalities(rows, 2)
    assert p.n_vertices == 4
    # (1,1).x <= 5 is slack everywhere; (2,0).x <= 2 duplicates the first row
    assert p.inequalities == tuple(square_hrep())


def test_trusted_inequalities_kept_verbatim():
    rows = square_hrep()
    p = Polytope.from_inequalities(rows, 2, assume_irredundant=True)
    _ = p.vertices
    assert p.inequalities == tuple(rows)


def test_redundant_points_dropped():
    pts = [
        vec(0, 0),
        vec(2, 0),
        vec(0, 2),
        vec(1, 1),       # edge midpoint
        vec("1/2", "1/2"),  # interior
        vec(2, 0),       # duplicate
    ]
    p = Polytope.from_points(pts)
    assert p.vertices == (vec(0, 0), vec(0, 2), vec(2, 0))


def test_point_at_the_center_is_on_no_facet():
    # its dual row 0 . y <= 1 is never tight, so mask bit 4 stays clear
    corners = (vec(-1, -1), vec(-1, 1), vec(1, -1), vec(1, 1))
    facets = polytope_module._facets_of_hull(corners + (vec(0, 0),), 2)
    assert facets == polytope_module._facets_of_hull(corners, 2)
    assert [mask for _, mask in facets] == [0b0011, 0b0101, 0b1010, 0b1100]


def test_from_points_vertices_sort_and_filter():
    pts = (vec(1, 1), vec(0, 0), vec(2, 2), vec(0, 2), vec(2, 0))
    assert Polytope.from_points(pts).vertices == (
        vec(0, 0),
        vec(0, 2),
        vec(2, 0),
        vec(2, 2),
    )


def assert_recession_direction(inequalities, direction):
    assert any(direction)
    assert all(iq.value(direction) <= 0 for iq in inequalities)


def test_unbounded_system_raises():
    # a quadrant: every row passes through the point (1, 1)
    quadrant = [ineq((1, 0), 1), ineq((0, 1), 1)]
    with pytest.raises(UnboundedError) as err:
        Polytope.from_inequalities(quadrant, 2).vertices
    assert_recession_direction(quadrant, err.value.direction)


def test_halfplane_raises_unbounded():
    # a single normal does not span the plane
    halfplane = [ineq((1, 0), 1)]
    with pytest.raises(UnboundedError) as err:
        Polytope.from_inequalities(halfplane, 2).vertices
    assert_recession_direction(halfplane, err.value.direction)


@pytest.mark.parametrize("d", [1, 2])
def test_empty_system_is_unbounded(d):
    # no rows: the solution set is all of R^d
    with pytest.raises(UnboundedError) as err:
        Polytope.from_inequalities([], d).vertices
    assert err.value.direction == (1,) + (0,) * (d - 1)


def test_empty_system_in_dimension_zero_is_the_point():
    assert Polytope.from_inequalities([], 0).vertices == ((),)
    with pytest.raises(ValueError, match="no inequality rows"):
        dd.enumerate_vertices([], [])


def test_infeasible_system_raises():
    with pytest.raises(InfeasibleError):
        Polytope.from_inequalities(
            [ineq((1, 0), 0), ineq((-1, 0), -1)], 1
        ).vertices


def test_point_system_is_lower_dimensional():
    rows = [ineq((1, 0), 0), ineq((0, 1), 0), ineq((-1, -1), 0)]
    with pytest.raises(LowerDimensionalError) as err:
        Polytope.from_inequalities(rows, 2).vertices
    assert err.value.hull_dim == 0


def test_lower_dimensional_points_rejected_by_conversion():
    with pytest.raises(LowerDimensionalError) as err:
        Polytope.from_points((vec(0, 0, 0), vec(1, 1, 1))).inequalities
    assert err.value.hull_dim == 1
    assert err.value.ambient_dim == 3
    assert err.value.tight_row is None
    assert str(err.value) == (
        "set spans a 1-dimensional affine hull in 3-dimensional space; project"
        " onto a chart of the hull (chart_project) before converting"
    )


def test_implicit_equality_is_named_in_the_error():
    """An inequality system with an implicit equality names a tight row,
    not chart_project, which takes points."""
    triangle = simplex(2)
    rows = list(build_hom(triangle, triangle).polytope.inequalities)
    rows.append(Inequality(tuple(-e for e in rows[0].normal), -rows[0].offset))
    with pytest.raises(LowerDimensionalError) as err:
        Polytope.from_inequalities(rows, 6).vertices
    assert (err.value.hull_dim, err.value.ambient_dim) == (5, 6)
    assert err.value.tight_row == 0
    assert str(err.value) == (
        "set spans a 5-dimensional affine hull in 6-dimensional space;"
        " inequality 0 (counting from 0) is tight at every vertex, an implicit"
        " equality; eliminate it before converting"
    )
    assert "chart_project" not in str(err.value)


def test_contains_point_cases():
    p = Polytope.from_inequalities(square_hrep(), 2)
    assert contains_point(p, vec(0, 0)).kind == "interior"
    hit = contains_point(p, vec(1, 0))
    assert hit.kind == "boundary"
    assert hit.active == {0}
    corner = contains_point(p, vec(1, 1))
    assert corner.kind == "boundary"
    assert corner.active == {0, 2}
    assert contains_point(p, vec(2, 0)).kind == "outside"


def test_incidence_masks_are_consistent():
    p = Polytope.from_inequalities(square_hrep(), 2)
    for j, iq in enumerate(p.inequalities):
        for v_index in p.facet_vertex_indices(j):
            assert iq.tight(p.vertices[v_index])
    for v_index, vertex in enumerate(p.vertices):
        tight = {j for j, iq in enumerate(p.inequalities) if iq.tight(vertex)}
        assert set(p.vertex_facet_indices(v_index)) == tight


def test_triangle_face_lattice():
    p = Polytope.from_vertices([vec(0, 0), vec(1, 0), vec(0, 1)])
    faces = p.faces
    assert p.f_vector == (3, 3, 1)
    dims = sorted(face.dim for face in faces)
    assert dims == [-1, 0, 0, 0, 1, 1, 1, 2]
    empty = faces[0]
    assert empty.dim == -1 and empty.vertices == frozenset()
    assert empty.facets == frozenset(range(3))
    top = faces[-1]
    assert top.dim == 2 and top.facets == frozenset()


def test_octahedron_counts():
    pts = [vec(*p) for p in [
        (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)
    ]]
    p = Polytope.from_vertices(pts)
    assert p.n_facets == 8
    assert p.f_vector == (6, 12, 8, 1)


def test_simple_vertices():
    square = Polytope.from_inequalities(square_hrep(), 2)
    assert all(is_simple_vertex(square, v) for v in range(4))
    # square pyramid: the apex meets four facets in dimension three
    pyramid = Polytope.from_vertices([
        vec(1, 1, 0), vec(1, -1, 0), vec(-1, 1, 0), vec(-1, -1, 0), vec(0, 0, 1)
    ])
    apex = pyramid.vertices.index(vec(0, 0, 1))
    assert not is_simple_vertex(pyramid, apex)
    base = pyramid.vertices.index(vec(1, 1, 0))
    assert is_simple_vertex(pyramid, base)
    assert not is_simple_vertex(pyramid, vec(0, 0, 1))


@pytest.mark.parametrize(
    "vertex, message",
    [
        (-1, r"vertex index -1 is not in 0\.\.3"),
        (4, r"vertex index 4 is not in 0\.\.3"),
        (vec(1, 0), r"point \(1, 0\) is not a vertex"),
    ],
    ids=["negative-index", "index-past-the-end", "not-a-vertex"],
)
def test_simple_vertex_refuses_what_is_not_a_vertex(vertex, message):
    square = Polytope.from_inequalities(square_hrep(), 2)
    with pytest.raises(GeometryError, match=message):
        is_simple_vertex(square, vertex)


def test_chart_project_roundtrip():
    pts = (vec(0, 0, 0), vec(1, 1, 1), vec(2, 0, 0))
    projected, chart = chart_project(pts)
    assert chart.dim == 2
    assert projected[0] == vec(0, 0)
    for original, coords in zip(pts, projected):
        assert chart.lift(coords) == original


def test_chart_rejects_points_off_hull():
    pts = (vec(0, 0, 0), vec(1, 1, 1))
    _, chart = chart_project(pts)
    with pytest.raises(OutsideHullError):
        chart.project(vec(1, 0, 0))


@st.composite
def points_on_a_flat(draw):
    """Points base + D z in Q^4 for a drawn direction matrix D, some repeated."""
    d = draw(st.integers(1, 4))
    small = st.integers(-3, 3)
    base = tuple(draw(small) for _ in range(4))
    directions = [[draw(small) for _ in range(4)] for _ in range(d)]
    points = [base]
    for _ in range(draw(st.integers(1, 6))):
        z = [draw(small) for _ in range(d)]
        points.append(
            tuple(b + sum(zi * col[i] for zi, col in zip(z, directions))
                  for i, b in enumerate(base))
        )
    return tuple(vec(*p) for p in points)


@given(points_on_a_flat(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_chart_does_not_depend_on_the_order_of_later_points(points, rng):
    later = list(points[1:])
    rng.shuffle(later)
    shuffled = (points[0], *later)
    projected, chart = chart_project(points)
    shuffled_projected, shuffled_chart = chart_project(shuffled)
    assert shuffled_chart.directions == chart.directions
    assert shuffled_chart.pivots == chart.pivots
    assert dict(zip(shuffled, shuffled_projected)) == dict(zip(points, projected))


def test_chart_coordinates_are_pivot_entries_minus_the_base():
    pts = (vec(1, 2, 3, 4), vec(3, 2, 5, 4), vec(1, 3, 4, 5), vec(2, 4, 6, 6))
    projected, chart = chart_project(pts)
    assert chart.pivots == [0, 1]
    assert chart.directions == (vec(1, 0, 1, 0), vec(0, 1, 1, 1))
    assert projected == (vec(0, 0), vec(2, 0), vec(0, 1), vec(1, 2))


def test_chart_accepts_dependent_spanning_directions():
    base = vec(1, 0, 2)
    chart = AffineChart(
        base, (vec(1, 1, 0), vec(0, 0, 0), vec(2, 2, 0), vec(0, 1, 1), vec(1, 2, 1))
    )
    assert chart.dim == 2
    point = vec(4, 5, 4)  # base + 3 (1, 1, 0) + 2 (0, 1, 1)
    assert chart.lift(chart.project(point)) == point


def test_polytope_dim_variants():
    assert Polytope.from_vertices([vec(3, 4)]).dim == 0
    assert Polytope.from_vertices([vec(0, 0), vec(1, 2)]).dim == 1
    assert Polytope.from_inequalities(square_hrep(), 2).dim == 2


def test_dim_via_interior_witness_skips_enumeration():
    p = Polytope.from_inequalities(
        square_hrep(), 2, assume_irredundant=True, interior_point=vec(0, 0)
    )
    assert p.dim == 2
    assert p._vertices is None


coordinate = st.integers(min_value=-4, max_value=4)


@given(
    st.lists(
        st.tuples(coordinate, coordinate),
        min_size=3,
        max_size=8,
    )
)
@settings(max_examples=40, deadline=None)
def test_hull_contains_all_input_points(raw):
    pts = tuple(vec(*p) for p in raw)
    p = Polytope.from_points(pts)
    try:
        _ = p.vertices
    except LowerDimensionalError:
        return
    for x in pts:
        assert contains_point(p, x).kind != "outside"
    for v in p.vertices:
        assert contains_point(p, v).kind == "boundary"


# -- completion: the facet filter, laziness and the four routes ----------


def _reference_facet_rows(rows, vertices, d):
    """Rows a complete description keeps, by the affine-hull rule.

    A row is kept when the vertices tight on it span a hull of dimension
    d - 1 and no earlier kept row has the same canonical form.
    """
    kept, seen = [], set()
    for iq in rows:
        tight = tuple(v for v in vertices if iq.tight(v))
        if not tight or len(solve_affine_hull(tight)[1]) != d - 1:
            continue
        key = iq.canonical()
        if key not in seen:
            seen.add(key)
            kept.append(iq)
    return tuple(kept)


small = st.integers(min_value=-3, max_value=3)
positive = st.fractions(min_value=Fraction(1, 4), max_value=4)


@st.composite
def redundant_systems(draw):
    """A full-dimensional polytope's facets padded with redundant rows.

    Padding: positive multiples of facets, facets with relaxed offsets,
    and positive combinations of facets, which support the intersection
    of their facets (a lower face, or nothing); all shuffled together.
    """
    d = draw(st.sampled_from((1, 2, 3)))
    points = draw(
        st.lists(st.tuples(*[small] * d), min_size=d + 1, max_size=d + 5)
    )
    pts = tuple(vec(*p) for p in points)
    assume(len(solve_affine_hull(pts)[1]) == d)
    hull = Polytope.from_points(pts)
    facets = list(hull.inequalities)
    pick = st.sampled_from(facets)
    extra = []
    for _ in range(draw(st.integers(0, 3))):
        iq = draw(pick)
        c = draw(positive)
        extra.append(Inequality(tuple(c * e for e in iq.normal), c * iq.offset))
    for _ in range(draw(st.integers(0, 3))):
        iq = draw(pick)
        extra.append(Inequality(iq.normal, iq.offset + draw(positive)))
    for _ in range(draw(st.integers(0, 4))):
        parts = draw(st.lists(pick, min_size=2, max_size=3))
        weights = [draw(positive) for _ in parts]
        normal = tuple(
            sum((w * iq.normal[i] for w, iq in zip(weights, parts)), Fraction(0))
            for i in range(d)
        )
        offset = sum((w * iq.offset for w, iq in zip(weights, parts)), Fraction(0))
        extra.append(Inequality(normal, offset))
    rows = draw(st.permutations(facets + extra))
    return rows, hull.vertices, d


@given(redundant_systems())
@settings(max_examples=150, deadline=None)
def test_redundant_rows_filtered_like_the_affine_hull_rule(system):
    rows, vertices, d = system
    p = Polytope.from_inequalities(rows, d)
    assert p.inequalities == _reference_facet_rows(rows, vertices, d)
    assert set(p.vertices) == set(vertices)


@pytest.fixture
def dd_calls(monkeypatch):
    calls = []
    real = dd.enumerate_vertices

    def counted(normals, offsets):
        calls.append(len(normals))
        return real(normals, offsets)

    monkeypatch.setattr(dd, "enumerate_vertices", counted)
    return calls


PENTAGON = (vec(0, 0), vec(2, 0), vec(3, 2), vec(1, 3), vec(-1, 1))
PENTAGON_FACETS = (
    ineq((0, -1), 0),
    ineq((2, -1), 4),
    ineq((1, 2), 7),
    ineq((-1, 1), 2),
    ineq((-1, -1), 0),
)
PENTAGON_EXTRA_POINTS = (vec(1, 1), vec(1, 0), vec(2, 0))  # interior, edge, repeat
PENTAGON_EXTRA_ROWS = (
    ineq((0, -2), 0),  # scaled facet
    ineq((1, 2), 9),  # relaxed facet
    ineq((1, 1), 5),  # supports the vertex (3, 2) only
    ineq((-2, 0), 2),  # supports the vertex (-1, 1) only
)


def pentagon_routes():
    return {
        "vertices": Polytope.from_vertices(PENTAGON),
        "points": Polytope.from_points(PENTAGON_EXTRA_POINTS + PENTAGON),
        "redundant": Polytope.from_inequalities(
            PENTAGON_EXTRA_ROWS[:2] + PENTAGON_FACETS + PENTAGON_EXTRA_ROWS[2:], 2
        ),
        "irredundant": Polytope.from_inequalities(
            PENTAGON_FACETS, 2, assume_irredundant=True
        ),
    }


def test_reading_the_given_side_runs_no_enumeration(dd_calls):
    p = Polytope.from_vertices(PENTAGON)
    assert p.vertices == PENTAGON
    assert p.dim == 2
    assert Polytope.from_points(PENTAGON_EXTRA_POINTS + PENTAGON).dim == 2
    q = Polytope.from_inequalities(PENTAGON_FACETS, 2, assume_irredundant=True)
    assert q.inequalities == PENTAGON_FACETS
    assert dd_calls == []


@pytest.mark.parametrize("route", ["vertices", "points", "redundant", "irredundant"])
def test_completion_enumerates_once(route, dd_calls):
    p = pentagon_routes()[route]
    _ = p.vertices, p.inequalities, p.facet_masks, p.vertex_masks, p.dim
    _ = p.vertices, p.inequalities, p.facet_masks
    assert len(dd_calls) == 1


def test_four_routes_give_one_polygon():
    facets = {iq.canonical() for iq in PENTAGON_FACETS}
    for route, p in pentagon_routes().items():
        assert set(p.vertices) == set(PENTAGON), route
        assert len(p.vertices) == len(PENTAGON), route
        assert {iq.canonical() for iq in p.inequalities} == facets, route
        assert len(p.inequalities) == len(PENTAGON_FACETS), route
        for j, iq in enumerate(p.inequalities):
            for v, x in enumerate(p.vertices):
                on = bool(p.facet_masks[j] >> v & 1)
                assert on == iq.tight(x), route
                assert on == bool(p.vertex_masks[v] >> j & 1), route


# -- the face lattice, graded from incidences ------------------------------


def _reference_faces(p):
    """Faces by intersection closure, each graded by its exact affine hull.

    Every nonempty face is the whole polytope or an intersection of
    facets, so closing the full vertex set under intersection with the
    facet masks finds them all; the empty face is added with every
    facet incident.  Sorted by (dim, sorted vertices).
    """
    masks = p.facet_masks
    n = len(p.vertices)
    seen = {(1 << n) - 1}
    frontier = list(seen)
    while frontier:
        found = {face & fm for face in frontier for fm in masks} - seen - {0}
        seen |= found
        frontier = list(found)
    faces = [(-1, frozenset(), frozenset(range(len(masks))))]
    for mask in seen:
        verts = frozenset(v for v in range(n) if mask >> v & 1)
        dim = len(solve_affine_hull(tuple(p.vertices[v] for v in sorted(verts)))[1])
        incident = frozenset(j for j, fm in enumerate(masks) if fm & mask == mask)
        faces.append((dim, verts, incident))
    faces.sort(key=lambda f: (f[0], sorted(f[1])))
    return faces


def _face_triples(p):
    return [(f.dim, f.vertices, f.facets) for f in p.faces]


def _counts_of_faces(p):
    counts = [0] * (p.dim + 1)
    for face in p.faces:
        if face.dim >= 0:
            counts[face.dim] += 1
    return tuple(counts)


@st.composite
def full_dimensional_point_sets(draw):
    d = draw(st.sampled_from((1, 2, 3, 4)))
    points = draw(
        st.lists(st.tuples(*[small] * d), min_size=d + 1, max_size=d + 4)
    )
    pts = tuple(vec(*p) for p in points)
    assume(len(solve_affine_hull(pts)[1]) == d)
    return pts


@given(full_dimensional_point_sets())
@settings(max_examples=120, deadline=None)
def test_faces_match_closure_graded_by_affine_hull(pts):
    p = Polytope.from_points(pts)
    assert _face_triples(p) == _reference_faces(p)
    assert p.f_vector == _counts_of_faces(p)


NON_SIMPLE = {
    "octahedron": lambda: cross_polytope(3),
    "4-cross-polytope": lambda: cross_polytope(4),
    "octahedron x segment": lambda: product(cross_polytope(3), simplex(1)),
    "hom(square, segment)": lambda: build_hom(cube(2), simplex(1)).polytope,
    "hom(square, square)": lambda: build_hom(cube(2), cube(2)).polytope,
    "octahedral bipyramid x square": lambda: product(
        bipyramid(cross_polytope(3)), cube(2)
    ),
    "hom(square, square) x segment": lambda: product(
        build_hom(cube(2), cube(2)).polytope, simplex(1)
    ),
}


@pytest.mark.parametrize("name", sorted(NON_SIMPLE))
def test_non_simple_faces_match_closure_graded_by_affine_hull(name):
    p = NON_SIMPLE[name]()
    assert not all(is_simple_vertex(p, v) for v in range(p.n_vertices))
    assert _face_triples(p) == _reference_faces(p)
    assert p.f_vector == _counts_of_faces(p)


@pytest.mark.parametrize("name", sorted(NON_SIMPLE))
def test_faces_need_no_linear_algebra_once_complete(name, monkeypatch):
    calls = []

    def counted(routine):
        def wrapper(*args):
            calls.append(routine.__name__)
            return routine(*args)
        return wrapper

    for routine in ("solve_affine_hull", "mat_rank"):
        monkeypatch.setattr(
            polytope_module, routine, counted(getattr(polytope_module, routine))
        )
    p = NON_SIMPLE[name]()
    _ = p.vertices, p.inequalities, p.facet_masks, p.dim
    before = len(calls)
    _ = p.faces
    assert len(calls) == before


@pytest.mark.parametrize("name", sorted(NON_SIMPLE))
def test_f_vector_builds_no_face(name, monkeypatch):
    gradings = []
    grade = polytope_module._face_lattice

    def counted(*args):
        gradings.append(args)
        return grade(*args)

    def no_face(*args):
        raise AssertionError("a Face was built")

    monkeypatch.setattr(polytope_module, "_face_lattice", counted)
    with monkeypatch.context() as m:
        m.setattr(polytope_module, "Face", no_face)
        p = NON_SIMPLE[name]()
        counts = p.f_vector
    # the faces come later from the same grading, which runs once
    assert _counts_of_faces(p) == counts
    assert len(gradings) == 1


@pytest.mark.parametrize("name", sorted(NON_SIMPLE))
def test_only_the_polytope_itself_reads_every_facet_row(name):
    """A proper face is cut from the facets of one face above it."""
    p = NON_SIMPLE[name]()
    reads = []

    class Rows(tuple):
        def __iter__(self):
            reads.append(1)
            return super().__iter__()

    polytope_module._face_lattice(Rows(p.facet_masks), p.n_vertices, p.dim)
    assert len(reads) == 1


def test_point_in_ambient_dimension_zero_has_two_faces():
    p = Polytope.from_vertices([()])
    assert _face_triples(p) == [
        (-1, frozenset(), frozenset()),
        (0, frozenset({0}), frozenset()),
    ]

"""Vertex-map classification: rank, factorization, deflation, collapse."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hompoly import classify
from hompoly.classify import (
    _fiber_is_contained_in_face,
    classify_all,
    image_polytope,
    image_vertex_locations,
    is_deflation,
    is_face_collapse,
    map_rank,
    rank1_polygon_count,
    surj_inj_factorize,
    surjective_onto,
)
from hompoly.constructions import (
    cross_polytope,
    cube,
    regular_ngon,
    simplex,
)
from hompoly.errors import GeometryError
from hompoly.hom import AffineMap, build_hom, is_vertex_map
from hompoly.linalg import mat_rank, nullspace_basis, solve_affine_hull
from hompoly.polytope import Polytope, is_simple_vertex


def drop_last_axis(source_dim: int, target_dim: int) -> AffineMap:
    linear = tuple(
        tuple(
            Fraction(1) if i == j else Fraction(0)
            for j in range(source_dim)
        )
        for i in range(target_dim)
    )
    zero = tuple(Fraction(0) for _ in range(target_dim))
    return AffineMap(linear, zero)


def big_triangle() -> Polytope:
    return Polytope.from_points(((0, 0), (2, 0), (0, 2)))


def frustum() -> Polytope:
    """Triangle at height 0, its half-scale copy at height 1."""
    return Polytope.from_points(
        (
            (0, 0, 0),
            (2, 0, 0),
            (0, 2, 0),
            (0, 0, 1),
            (1, 0, 1),
            (0, 1, 1),
        )
    )


def wedge() -> Polytope:
    """Triangle at height 0, a single top edge at height 1."""
    return Polytope.from_points(
        (
            (0, 0, 0),
            (2, 0, 0),
            (0, 2, 0),
            (1, 0, 1),
            (0, 1, 1),
        )
    )


# -- rank and image ----------------------------------------------------


def test_map_rank_of_projection_and_constant():
    assert map_rank(drop_last_axis(3, 2)) == 2
    assert map_rank(AffineMap.constant(3, (1, 2))) == 0


def test_image_polytope_of_frustum_projection():
    p = frustum()
    f = drop_last_axis(3, 2)
    image = image_polytope(f, p)
    assert image.dim == 2
    assert image.chart is not None
    lifted = {image.chart.lift(w) for w in image.vertices}
    assert lifted == {
        (Fraction(0), Fraction(0)),
        (Fraction(2), Fraction(0)),
        (Fraction(0), Fraction(2)),
    }


def test_image_polytope_of_rank1_map():
    f = AffineMap(((Fraction(1), Fraction(0)),), (Fraction(0),))
    image = image_polytope(f, cube(2))
    assert image.dim == 1
    assert map_rank(f) == 1


# -- factorization -----------------------------------------------------


def test_factorization_reproduces_projection():
    p = cube(3)
    f = drop_last_axis(3, 2)
    f_surj, f_inj = surj_inj_factorize(f, p)
    assert mat_rank(f_surj.linear) == 2
    assert mat_rank(f_inj.linear) == 2
    for v in p.vertices:
        assert f_inj.apply(f_surj.apply(v)) == f.apply(v)


def test_factorization_of_constant_map():
    p = cube(2)
    f = AffineMap.constant(2, (Fraction(1, 2), Fraction(1, 3)))
    f_surj, f_inj = surj_inj_factorize(f, p)
    assert f_surj.target_dim == 0
    assert f_inj.apply(()) == (Fraction(1, 2), Fraction(1, 3))


def test_rank1_factors_of_segment_to_triangle_maps_are_vertices():
    p = simplex(1)
    q = simplex(2)
    h = build_hom(p, q)
    records, _ = classify_all(h)
    rank1 = [r for r in records if r.rank == 1]
    assert rank1
    for record in rank1:
        f_surj, f_inj = surj_inj_factorize(record.map, p)
        image = image_polytope(record.map, p)
        h_surj = build_hom(p, image)
        h_inj = build_hom(image, q)
        assert is_vertex_map(f_surj, h_surj)
        assert is_vertex_map(f_inj, h_inj)


# -- surjectivity and image locations ----------------------------------


def test_projection_is_surjective_onto_smaller_cube():
    assert surjective_onto(drop_last_axis(3, 2), cube(3), cube(2))


def test_constant_map_is_not_surjective():
    f = AffineMap.constant(2, (0, 0))
    assert not surjective_onto(f, cube(2), cube(2))


def test_wedge_projection_is_surjective():
    assert surjective_onto(drop_last_axis(3, 2), wedge(), big_triangle())


def test_image_locations_of_frustum_projection():
    p = frustum()
    q = big_triangle()
    locations = image_vertex_locations(drop_last_axis(3, 2), p, q)
    # vertices sorted lex: origin, apex, two mid-edge images, two corners
    by_vertex = dict(zip(p.vertices, locations))
    assert by_vertex[(0, 0, 0)] == "vertex"
    assert by_vertex[(0, 0, 1)] == "vertex"
    assert by_vertex[(0, 1, 1)] == "boundary"
    assert by_vertex[(1, 0, 1)] == "boundary"
    assert by_vertex[(0, 2, 0)] == "vertex"
    assert by_vertex[(2, 0, 0)] == "vertex"


# -- deflation ---------------------------------------------------------


def test_cube_projection_is_deflation():
    p, q = cube(3), cube(2)
    h = build_hom(p, q)
    assert is_deflation(drop_last_axis(3, 2), p, q, h)


def test_square_onto_segment_is_deflation():
    p, q = cube(2), cube(1)
    h = build_hom(p, q)
    assert is_deflation(drop_last_axis(2, 1), p, q, h)


def test_frustum_projection_is_not_deflation():
    p, q = frustum(), big_triangle()
    h = build_hom(p, q)
    f = drop_last_axis(3, 2)
    assert is_vertex_map(f, h)
    assert not is_deflation(f, p, q, h)


def test_identity_is_not_deflation():
    p = regular_ngon(4)
    h = build_hom(p, p)
    ident = drop_last_axis(2, 2)
    assert is_vertex_map(ident, h)
    assert not is_deflation(ident, p, p, h)


# -- face collapse -----------------------------------------------------


def test_frustum_projection_is_face_collapse():
    assert is_face_collapse(drop_last_axis(3, 2), frustum())


def test_wedge_projection_is_vertex_map_but_not_face_collapse():
    p, q = wedge(), big_triangle()
    h = build_hom(p, q)
    f = drop_last_axis(3, 2)
    assert is_vertex_map(f, h)
    assert surjective_onto(f, p, q)
    assert not is_face_collapse(f, p)


def test_bijection_is_not_face_collapse():
    assert not is_face_collapse(drop_last_axis(2, 2), regular_ngon(4))


def test_cube_projection_is_face_collapse():
    assert is_face_collapse(drop_last_axis(3, 2), cube(3))


def test_constant_map_collapses_everything():
    f = AffineMap.constant(2, (0, 0))
    assert is_face_collapse(f, cube(2))


def test_deflations_are_face_collapses_on_cube_pairs():
    for sd, td in ((3, 2), (2, 1), (3, 1)):
        p, q = cube(sd), cube(td)
        h = build_hom(p, q)
        f = drop_last_axis(sd, td)
        if is_deflation(f, p, q, h):
            assert is_face_collapse(f, p)


# -- face collapse against the affine-hull reference ---------------------


def _face_directions(p, face):
    pts = tuple(p.vertices[v] for v in sorted(face.vertices))
    return solve_affine_hull(pts)[1]


def _subspace_contains(basis, vectors):
    if not vectors:
        return True
    if not basis:
        return all(all(e == 0 for e in v) for v in vectors)
    return mat_rank(basis + vectors) == mat_rank(basis)


def reference_is_face_collapse(f, p):
    """Face collapse decided with one exact affine hull per face.

    Kernel containment of each face is tested on the face's chart, and
    every family member is re-checked as a full fiber.
    """
    kernel = nullspace_basis(f.linear)
    if not kernel:
        return False
    image = image_polytope(f, p)
    image_vertices = tuple(image.chart.lift(w) for w in image.vertices)
    family, members, directions = [], set(), []
    for w in image_vertices:
        fiber = frozenset(i for i, v in enumerate(p.vertices) if f.apply(v) == w)
        match = next(face for face in p.faces if face.vertices == fiber)
        if match.dim > 0:
            family.append((match, w))
            members.add(fiber)
            directions.extend(_face_directions(p, match))
    if not family:
        return False
    if mat_rank(tuple(directions)) != len(kernel):
        return False
    for face, w in family:
        if not _subspace_contains(kernel, _face_directions(p, face)):
            return False
        if not _fiber_is_contained_in_face(f, p, w, face):
            return False
    for face in p.faces:
        if face.dim < 1 or face.vertices in members:
            continue
        if not _subspace_contains(kernel, _face_directions(p, face)):
            continue
        w = f.apply(p.vertices[min(face.vertices)])
        fiber = frozenset(i for i, v in enumerate(p.vertices) if f.apply(v) == w)
        if fiber != face.vertices:
            continue
        if _fiber_is_contained_in_face(f, p, w, face):
            return False
    return True


@st.composite
def polytopes_and_maps(draw):
    d = draw(st.sampled_from((2, 3, 4)))
    e = draw(st.sampled_from((1, 2, 3)))
    coordinate = st.integers(-2, 2)
    points = draw(
        st.lists(st.tuples(*[coordinate] * d), min_size=d + 1, max_size=d + 4)
    )
    assume(len(solve_affine_hull(points)[1]) == d)
    entry = st.integers(-1, 1)
    linear = draw(st.tuples(*[st.tuples(*[entry] * d)] * e))
    translation = draw(st.tuples(*[entry] * e))
    f = AffineMap(
        tuple(tuple(Fraction(x) for x in row) for row in linear),
        tuple(Fraction(x) for x in translation),
    )
    return Polytope.from_points(points), f


@given(polytopes_and_maps())
@settings(max_examples=150, deadline=None)
def test_face_collapse_matches_affine_hull_reference(case):
    p, f = case
    assert is_face_collapse(f, p) == reference_is_face_collapse(f, p)


def test_face_collapse_reaches_the_maximality_scan(monkeypatch):
    # f(x) = y: the fibers over the image's two vertices span the kernel,
    # and an edge outside the family is a fiber vertex set whose fiber
    # test fails, so the answer stays True only through the scan
    p = Polytope.from_points(
        (
            (2, -1, 2),
            (1, -1, 2),
            (-2, 1, 2),
            (0, 1, -2),
            (0, -1, -1),
            (-2, 0, -2),
            (-2, 0, 0),
        )
    )
    f = AffineMap(
        ((Fraction(0), Fraction(1), Fraction(0)),), (Fraction(0),)
    )
    answers = []

    def recording(*args):
        answers.append(_fiber_is_contained_in_face(*args))
        return answers[-1]

    monkeypatch.setattr(classify, "_fiber_is_contained_in_face", recording)
    assert is_face_collapse(f, p)
    assert False in answers
    assert reference_is_face_collapse(f, p)


def _integer_hexagon() -> Polytope:
    return Polytope.from_points(
        ((2, 0), (1, 1), (-1, 1), (-2, 0), (-1, -1), (1, -1))
    )


HOM_PAIRS = {
    "hexagon to hexagon": lambda: (_integer_hexagon(), _integer_hexagon()),
    "cube3 to cube2": lambda: (cube(3), cube(2)),
    "cross3 to simplex2": lambda: (cross_polytope(3), simplex(2)),
}


@pytest.mark.parametrize("pair", sorted(HOM_PAIRS))
def test_fibers_over_image_vertices_are_full_fiber_faces(pair):
    p, q = HOM_PAIRS[pair]()
    faces = {face.vertices: face for face in p.faces}
    for point in build_hom(p, q).polytope.vertices:
        f = AffineMap.from_point(point, p.ambient_dim, q.ambient_dim)
        image = image_polytope(f, p)
        for w in (image.chart.lift(u) for u in image.vertices):
            fiber = frozenset(
                i for i, v in enumerate(p.vertices) if f.apply(v) == w
            )
            assert fiber in faces
            assert _fiber_is_contained_in_face(f, p, w, faces[fiber])
            assert {f.apply(p.vertices[i]) for i in fiber} == {w}


# -- full classification -----------------------------------------------


def test_segment_to_triangle_classification_counts():
    h = build_hom(simplex(1), simplex(2))
    records, summary = classify_all(h)
    assert summary.total == 9
    assert summary.rank_count(0) == 3
    assert summary.rank_count(1) == 6
    assert all(is_vertex_map(r.map, h) for r in records)


def test_square_to_square_classification_counts():
    p = regular_ngon(4)
    h = build_hom(p, p)
    records, summary = classify_all(h)
    assert summary.table_row() == (4, 24, 8, 36)
    assert all(is_vertex_map(r.map, h) for r in records)
    assert sum(1 for r in records if r.is_deflation) == 0


def test_octahedron_to_triangle_has_no_rank2_vertices():
    h = build_hom(cross_polytope(3), simplex(2))
    assert h.dim == 8
    assert h.polytope.n_facets == 18
    _, summary = classify_all(h)
    assert summary.rank_count(2) == 0
    assert summary.total == summary.rank_count(0) + summary.rank_count(1)


def test_identity_vertex_of_square_hom_is_not_simple():
    p = regular_ngon(4)
    h = build_hom(p, p)
    ident_point = tuple(
        Fraction(e) for e in (1, 0, 0, 1, 0, 0)
    )
    index = h.polytope.vertices.index(ident_point)
    assert len(h.polytope.vertex_facet_indices(index)) == 8
    assert not is_simple_vertex(h.polytope, index)
    records, _ = classify_all(h)
    record = records[index]
    assert record.rank == 2
    assert not record.simple
    assert record.active_labels == 8
    assert record.surjective_onto_target
    assert not record.is_deflation


# -- rank-1 closed form ------------------------------------------------


def test_rank1_count_matches_closed_form():
    assert rank1_polygon_count(regular_ngon(3), regular_ngon(3)) == 18
    assert rank1_polygon_count(regular_ngon(4), regular_ngon(3)) == 12
    assert rank1_polygon_count(regular_ngon(5), regular_ngon(4)) == 60


def test_rank1_count_matches_enumeration():
    p, q = regular_ngon(3), regular_ngon(3)
    _, summary = classify_all(build_hom(p, q))
    assert summary.rank_count(1) == rank1_polygon_count(p, q)


def test_rank1_count_needs_polygon_source():
    with pytest.raises(GeometryError):
        rank1_polygon_count(cube(3), regular_ngon(3))

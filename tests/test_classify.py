"""Vertex-map classification: rank, factorization, deflation, collapse."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hompoly import classify
from hompoly.classify import (
    classify_all,
    classify_summary,
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
from hompoly.errors import GeometryError, OutsideHullError
from hompoly.hom import AffineMap, HomPolytope, build_hom, is_vertex_map
from hompoly.linalg import (
    integer_rref,
    mat_rank,
    mat_vec,
    nullspace_basis,
    rref,
    solve_affine_hull,
    vec_add,
    vec_sub,
)
from hompoly.polytope import Polytope, contains_point, is_simple_vertex
from test_linalg import mat_mul


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
    image, chart = image_polytope(f, p)
    assert image.dim == 2
    lifted = {chart.lift(w) for w in image.vertices}
    assert lifted == {
        (Fraction(0), Fraction(0)),
        (Fraction(2), Fraction(0)),
        (Fraction(0), Fraction(2)),
    }


def test_image_polytope_of_rank1_map():
    f = AffineMap(((Fraction(1), Fraction(0)),), (Fraction(0),))
    image, _ = image_polytope(f, cube(2))
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


def test_surjective_factor_is_the_map_read_at_the_chart_pivots():
    p = cube(2)
    # rank 1 into Q^3: the image is the segment from (0, 2, -1) to (4, 2, 3)
    f = AffineMap(
        tuple(tuple(map(Fraction, row)) for row in ((1, 1), (0, 0), (1, 1))),
        tuple(map(Fraction, (2, 2, 1))),
    )
    f_surj, f_inj = surj_inj_factorize(f, p)
    _, chart = image_polytope(f, p)
    assert chart.pivots == [0]
    assert f_surj.linear == tuple(f.linear[c] for c in chart.pivots)
    assert f_surj.translation == (f.translation[0] - chart.base[0],)
    assert f_inj.linear == tuple((d,) for d in chart.directions[0])
    assert f_inj.translation == chart.base


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
        image, _ = image_polytope(record.map, p)
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


def test_image_locations_at_a_square_pyramid_apex():
    # the apex lies on 4 facets of a 3-polytope, so it is not simple
    q = Polytope.from_points(
        ((-1, -1, 0), (1, -1, 0), (-1, 1, 0), (1, 1, 0), (0, 0, 1))
    )
    apex = q.vertices.index((0, 0, 1))
    assert q.vertex_masks[apex].bit_count() == 4
    # the simplex's corners go to the apex, a base corner, the centre of
    # the base and a point inside
    images = tuple(
        tuple(map(Fraction, w))
        for w in ((0, 0, 1), (1, 1, 0), (0, 0, 0), (0, 0, Fraction(1, 4)))
    )
    columns = [vec_sub(w, images[0]) for w in images[1:]]
    f = AffineMap(tuple(zip(*columns)), images[0])
    p = simplex(3)
    assert tuple(f.apply(v) for v in p.vertices) == images
    assert image_vertex_locations(f, p, q) == (
        "vertex", "vertex", "boundary", "interior"
    )
    assert not surjective_onto(f, p, q)
    identity = drop_last_axis(3, 3)
    assert image_vertex_locations(identity, q, q) == ("vertex",) * 5
    assert surjective_onto(identity, q, q)


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


def _fiber_is_contained_in_face(f, p, w, face):
    """Exact test that every point of ``{x in P : f(x) = w}`` lies in ``face``.

    Every extreme point of the fiber sits in the relative interior of
    some face E of P whose affine hull meets the preimage of w in a
    single point, so scanning all faces (and solving a linear system on
    each one's chart) produces a finite superset of the fiber's extreme
    points; it suffices to check those against the face.
    """
    for e_face in p.faces:
        if e_face.dim < 0:
            continue
        verts = tuple(p.vertices[v] for v in sorted(e_face.vertices))
        base, dirs = solve_affine_hull(verts)
        # solve f(base + D z) = w on the face's chart by one reduction of
        # [L D | w - f(base)]: a unique solution needs a pivot in every
        # direction column and none in the last; otherwise the preimage
        # meets this chart in a positive-dimensional set (its extreme
        # points are found on subfaces) or not at all
        origin = f.apply(base)
        cols = tuple(vec_sub(f.apply(vec_add(base, d)), origin) for d in dirs)
        rhs = vec_sub(w, origin)
        rows, pivots = rref(
            tuple(col[i] for col in cols) + (rhs[i],) for i in range(len(rhs))
        )
        if pivots != list(range(len(dirs))):
            continue
        candidate = base
        for row, direction in zip(rows, dirs):
            z = row[-1]
            if z:
                candidate = tuple(c + z * d for c, d in zip(candidate, direction))
        # any point of P in the preimage of w is a fiber point; one
        # outside the target face disproves containment
        hit = contains_point(p, candidate)
        if hit.kind != "outside" and not face.facets <= hit.active:
            return False
    return True


def reference_is_face_collapse(f, p):
    """Face collapse decided with one exact affine hull per face.

    Kernel containment of each face is tested on the face's chart, every
    family member is re-checked as a full fiber, and maximality is
    scanned over every other face whose vertex set is a vertex fiber.
    """
    kernel = nullspace_basis(f.linear)
    if not kernel:
        return False
    image, chart = image_polytope(f, p)
    image_vertices = tuple(chart.lift(w) for w in image.vertices)
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


@st.composite
def maps_and_kernel_twins(draw):
    # g = B . f + t' for B of full column rank has the kernel of f; B may
    # widen the target
    p, f = draw(polytopes_and_maps())
    e = f.target_dim
    wide = draw(st.integers(e, e + 2))
    entry = st.integers(-2, 2)
    b = draw(st.tuples(*[st.tuples(*[entry] * e)] * wide))
    b = tuple(tuple(Fraction(x) for x in row) for row in b)
    assume(mat_rank(b) == e)
    shift = tuple(Fraction(x) for x in draw(st.tuples(*[entry] * wide)))
    g = AffineMap(mat_mul(b, f.linear), vec_add(mat_vec(b, f.translation), shift))
    return p, f, g


@given(maps_and_kernel_twins())
@settings(max_examples=150, deadline=None)
def test_face_collapse_depends_only_on_the_kernel(case):
    p, f, g = case
    assert is_face_collapse(f, p) == is_face_collapse(g, p)


# -- surjectivity against the image-hull reference ------------------------


def reference_surjective_onto(f, p, q):
    """Surjectivity by exact mutual containment of f(P) and Q.

    f(P) is built as a hull on a chart of its affine hull; each of its
    vertices must lie in Q and each vertex of Q in it.
    """
    if map_rank(f) != q.dim:
        return False
    image, chart = image_polytope(f, p)
    for w in image.vertices:
        if contains_point(q, chart.lift(w)).kind == "outside":
            return False
    for u in q.vertices:
        try:
            coords = chart.project(u)
        except OutsideHullError:
            return False
        if contains_point(image, coords).kind == "outside":
            return False
    return True


@st.composite
def maps_between_polytopes(draw):
    p, f = draw(polytopes_and_maps())
    images = [f.apply(v) for v in p.vertices]
    e = f.target_dim
    coordinate = st.integers(-2, 2)
    extra = draw(st.lists(st.tuples(*[coordinate] * e), min_size=0, max_size=e + 3))
    # the image itself, the image with extra points, or unrelated points
    kind = draw(st.sampled_from(("image", "grown", "random")))
    points = {"image": images, "grown": images + extra, "random": extra}[kind]
    assume(len(points) > e and len(solve_affine_hull(points)[1]) == e)
    return p, f, Polytope.from_points(points)


@given(maps_between_polytopes())
@settings(max_examples=150, deadline=None)
def test_surjective_onto_matches_image_hull_reference(case):
    p, f, q = case
    assert surjective_onto(f, p, q) == reference_surjective_onto(f, p, q)


def reference_locations(f, p, q):
    """Where each f(v) lands: ``vertex`` when it is one of q's vertices,
    otherwise the kind exact containment gives."""
    vertices = set(q.vertices)
    return tuple(
        "vertex" if y in vertices else contains_point(q, y).kind
        for y in (f.apply(v) for v in p.vertices)
    )


@given(maps_between_polytopes())
@settings(max_examples=150, deadline=None)
def test_image_locations_match_the_vertex_list_reference(case):
    p, f, q = case
    expected = reference_locations(f, p, q)
    if "outside" in expected:
        with pytest.raises(GeometryError):
            image_vertex_locations(f, p, q)
    else:
        assert image_vertex_locations(f, p, q) == expected
    images = {f.apply(v) for v in p.vertices}
    assert surjective_onto(f, p, q) == (
        "outside" not in expected and set(q.vertices) <= images
    )


# integer affine models of the regular k-gons
INTEGER_POLYGONS = {
    3: ((2, 0), (-1, 1), (-1, -1)),
    4: ((2, 0), (0, 1), (-2, 0), (0, -1)),
    6: ((2, 0), (1, 1), (-1, 1), (-2, 0), (-1, -1), (1, -1)),
}


def _integer_polygon(k: int) -> Polytope:
    return Polytope.from_points(INTEGER_POLYGONS[k])


HOM_PAIRS = {
    "hexagon to hexagon": lambda: (_integer_polygon(6), _integer_polygon(6)),
    "cube3 to cube2": lambda: (cube(3), cube(2)),
    "cross3 to simplex2": lambda: (cross_polytope(3), simplex(2)),
}


# -- full fibers are exactly the fibers over image vertices ---------------


def _vertex_fiber_faces(f, p):
    """Faces of p of dimension >= 1 whose vertices are all the vertices
    that f sends to one point w, each with its w."""
    images = [f.apply(v) for v in p.vertices]
    for face in p.faces:
        if face.dim < 1:
            continue
        w = images[min(face.vertices)]
        if face.vertices == {i for i, y in enumerate(images) if y == w}:
            yield face, w


def _image_vertices(f, p):
    image, chart = image_polytope(f, p)
    return {chart.lift(u) for u in image.vertices}


def _assert_full_fibers_lie_over_image_vertices(f, p):
    # a face that holds every vertex sent to w holds the whole fiber over
    # w exactly when w is a vertex of the image
    image_vertices = _image_vertices(f, p)
    for face, w in _vertex_fiber_faces(f, p):
        full = _fiber_is_contained_in_face(f, p, w, face)
        assert full == (w in image_vertices)


@given(polytopes_and_maps())
@settings(max_examples=150, deadline=None)
def test_full_fiber_faces_lie_over_image_vertices(case):
    p, f = case
    _assert_full_fibers_lie_over_image_vertices(f, p)


@pytest.mark.parametrize("pair", sorted(HOM_PAIRS))
def test_fibers_over_image_vertices_are_full_fiber_faces(pair):
    p, q = HOM_PAIRS[pair]()
    faces = {face.vertices: face for face in p.faces}
    for point in build_hom(p, q).polytope.vertices:
        f = AffineMap.from_point(point, p.ambient_dim, q.ambient_dim)
        for w in _image_vertices(f, p):
            fiber = frozenset(
                i for i, v in enumerate(p.vertices) if f.apply(v) == w
            )
            assert fiber in faces
            assert _fiber_is_contained_in_face(f, p, w, faces[fiber])
            assert {f.apply(p.vertices[i]) for i in fiber} == {w}
        _assert_full_fibers_lie_over_image_vertices(f, p)


def test_face_collapse_needs_no_maximality_scan():
    # f(x) = y: the fibers over the image's two vertices span the kernel,
    # and an edge outside the family is a vertex fiber whose whole fiber
    # is larger, so maximality holds without scanning for it
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
    image_vertices = _image_vertices(f, p)
    outside = [
        (face, w)
        for face, w in _vertex_fiber_faces(f, p)
        if w not in image_vertices
    ]
    assert outside
    for face, w in outside:
        assert not _fiber_is_contained_in_face(f, p, w, face)
    assert is_face_collapse(f, p)
    assert reference_is_face_collapse(f, p)


def test_a_whole_vertex_fiber_over_a_non_vertex_is_not_in_the_family():
    # f = x sends the edge {(1,1,0), (1,1,1)} and no other vertex to 1,
    # which is not a vertex of the image [0, 2]: the family is the fibers
    # over 0 and 2, two single vertices, so the edge is not in it
    p = Polytope.from_points(((0, 0, 0), (2, 0, 0), (1, 1, 0), (1, 1, 1)))
    f = AffineMap(((Fraction(1), Fraction(0), Fraction(0)),), (Fraction(0),))
    faces = {face.vertices: face for face in p.faces}
    edge = faces[
        frozenset(i for i, v in enumerate(p.vertices) if f.apply(v) == (1,))
    ]
    assert edge.dim == 1
    assert {p.vertices[i] for i in edge.vertices} == {(1, 1, 0), (1, 1, 1)}
    assert _image_vertices(f, p) == {(0,), (2,)}
    family = classify._collapsed_faces(integer_rref(f.linear)[0], p)
    assert edge not in family
    assert family == []
    assert not is_face_collapse(f, p)
    assert not reference_is_face_collapse(f, p)


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


# -- record fields against the public functions --------------------------


def _pair(k: int, l: int):
    return lambda: (_integer_polygon(k), _integer_polygon(l))


# the benchmark's classify pairs, the two fixtures above, and maps into a
# point, whose linear part has no rows
RECORD_PAIRS = {
    **{f"p{k} to p{l}": _pair(k, l) for k, l in (
        (6, 6), (3, 4), (4, 6), (6, 4), (3, 6), (6, 3), (4, 4)
    )},
    "cube3 to cube2": lambda: (cube(3), cube(2)),
    "cross3 to simplex2": lambda: (cross_polytope(3), simplex(2)),
    "frustum to triangle": lambda: (frustum(), big_triangle()),
    "wedge to triangle": lambda: (wedge(), big_triangle()),
    "cube2 to point": lambda: (cube(2), simplex(0)),
    "simplex2 to point": lambda: (simplex(2), simplex(0)),
}


@pytest.fixture(scope="module", params=sorted(RECORD_PAIRS))
def classified(request):
    p, q = RECORD_PAIRS[request.param]()
    h = build_hom(p, q)
    return request.param, h, *classify_all(h)


def test_record_fields_match_the_public_functions(classified):
    _, h, records, _ = classified
    p, q = h.source, h.target
    for record in records:
        f = record.map
        assert record.image_vertex_locations == image_vertex_locations(f, p, q)
        assert record.surjective_onto_target == surjective_onto(f, p, q)
        assert record.is_deflation == is_deflation(f, p, q, h)


def test_record_collapse_matches_is_face_collapse(classified):
    _, h, records, _ = classified
    for record in records:
        assert record.surj_factor_is_face_collapse == is_face_collapse(
            record.map, h.source
        )


def test_summary_equals_the_tally_of_the_records(classified):
    _, h, _, summary = classified
    assert classify_summary(h) == summary


def test_record_deflations_are_face_collapses(classified):
    _, _, records, _ = classified
    assert all(r.surj_factor_is_face_collapse for r in records if r.is_deflation)


def test_classify_all_tests_collapse_once_per_kernel(monkeypatch):
    p = _integer_polygon(6)
    h = build_hom(p, p)
    collapses, calls = classify.is_face_collapse, []

    def counting(f, source):
        assert map_rank(f) < source.ambient_dim
        calls.append(f)
        return collapses(f, source)

    monkeypatch.setattr(classify, "is_face_collapse", counting)
    records, _ = classify_all(h)
    row_spaces = {
        tuple(rref(r.map.linear)[0])
        for r in records
        if r.rank < p.ambient_dim
    }
    assert len(calls) == len(row_spaces) == 4


def test_classify_all_reads_tight_pairs_through_the_hom(monkeypatch):
    h = build_hom(cube(2), simplex(2))
    decode, read = HomPolytope.tight_masks, []

    def counting(self, index):
        read.append(index)
        return decode(self, index)

    monkeypatch.setattr(HomPolytope, "tight_masks", counting)
    records, _ = classify_all(h)
    assert read == list(range(len(records))) == list(range(h.polytope.n_vertices))


def _tally(h, records):
    locations = Counter(
        kind for record in records for kind in record.image_vertex_locations
    )
    for index, record in enumerate(records):
        assert record.vertex_index == index
        assert record.map == h.map_at_vertex(index)
    return {
        "total": len(records),
        "by_rank": dict(sorted(Counter(r.rank for r in records).items())),
        "simple": sum(r.simple for r in records),
        "active_labels": sum(r.active_labels for r in records),
        "surjective": sum(r.surjective_onto_target for r in records),
        "deflation": sum(r.is_deflation for r in records),
        "collapse": sum(r.surj_factor_is_face_collapse for r in records),
        "locations": dict(sorted(locations.items())),
    }


# tallies as the hull-based classification gave them; the CLI prints none
# of these fields, so nothing else pins them
RECORD_TALLIES = {
    "cross3 to simplex2": {
        "total": 27, "by_rank": {0: 3, 1: 24}, "simple": 0,
        "active_labels": 324, "surjective": 0, "deflation": 0, "collapse": 27,
        "locations": {"vertex": 162},
    },
    "cube2 to point": {
        "total": 1, "by_rank": {0: 1}, "simple": 1, "active_labels": 0,
        "surjective": 1, "deflation": 1, "collapse": 1,
        "locations": {"vertex": 4},
    },
    "cube3 to cube2": {
        "total": 64, "by_rank": {0: 4, 1: 36, 2: 24}, "simple": 0,
        "active_labels": 1024, "surjective": 24, "deflation": 24,
        "collapse": 64, "locations": {"vertex": 512},
    },
    "frustum to triangle": {
        "total": 81, "by_rank": {0: 3, 1: 42, 2: 36}, "simple": 0,
        "active_labels": 828, "surjective": 18, "deflation": 0,
        "collapse": 81, "locations": {"boundary": 144, "vertex": 342},
    },
    "p3 to p4": {
        "total": 64, "by_rank": {0: 4, 1: 36, 2: 24}, "simple": 64,
        "active_labels": 384, "surjective": 0, "deflation": 0, "collapse": 40,
        "locations": {"vertex": 192},
    },
    "p3 to p6": {
        "total": 216, "by_rank": {0: 6, 1: 90, 2: 120}, "simple": 216,
        "active_labels": 1296, "surjective": 0, "deflation": 0,
        "collapse": 96, "locations": {"vertex": 648},
    },
    "p4 to p4": {
        "total": 36, "by_rank": {0: 4, 1: 24, 2: 8}, "simple": 0,
        "active_labels": 288, "surjective": 8, "deflation": 0, "collapse": 28,
        "locations": {"vertex": 144},
    },
    "p4 to p6": {
        "total": 138, "by_rank": {0: 6, 1: 60, 2: 72}, "simple": 48,
        "active_labels": 1008, "surjective": 0, "deflation": 0,
        "collapse": 66, "locations": {"interior": 48, "vertex": 504},
    },
    "p6 to p3": {
        "total": 33, "by_rank": {0: 3, 1: 18, 2: 12}, "simple": 12,
        "active_labels": 288, "surjective": 0, "deflation": 0, "collapse": 21,
        "locations": {"boundary": 108, "vertex": 90},
    },
    "p6 to p4": {
        "total": 64, "by_rank": {0: 4, 1: 36, 2: 24}, "simple": 0,
        "active_labels": 576, "surjective": 0, "deflation": 0, "collapse": 40,
        "locations": {"boundary": 144, "interior": 24, "vertex": 216},
    },
    "p6 to p6": {
        "total": 180, "by_rank": {0: 6, 1: 90, 2: 84}, "simple": 72,
        "active_labels": 1440, "surjective": 12, "deflation": 0,
        "collapse": 96,
        "locations": {"boundary": 216, "interior": 252, "vertex": 612},
    },
    "simplex2 to point": {
        "total": 1, "by_rank": {0: 1}, "simple": 1, "active_labels": 0,
        "surjective": 1, "deflation": 1, "collapse": 1,
        "locations": {"vertex": 3},
    },
    "wedge to triangle": {
        "total": 81, "by_rank": {0: 3, 1: 42, 2: 36}, "simple": 18,
        "active_labels": 738, "surjective": 24, "deflation": 6,
        "collapse": 75, "locations": {"boundary": 72, "vertex": 333},
    },
}


def test_record_tallies_are_pinned(classified):
    pair, h, records, _ = classified
    assert _tally(h, records) == RECORD_TALLIES[pair]


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

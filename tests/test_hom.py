"""Unit tests for the polytope of affine maps."""

from fractions import Fraction
from functools import reduce
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hompoly import dd, hom, polytope
from hompoly.constructions import (
    bipyramid,
    cross_polytope,
    cube,
    product,
    regular_ngon,
    simplex,
)
from hompoly.errors import GeometryError
from hompoly.hom import (
    AffineMap,
    FacetLabel,
    build_hom,
    enumerate_vertex_maps,
    hom_identity_check,
    hom_row,
    is_vertex_map,
    split_point,
)
from hompoly.linalg import mat, solve_affine_hull, vec, vec_dot
from hompoly.numfield import survey_field
from hompoly.polytope import Polytope, contains_point


def test_affine_map_point_roundtrip():
    f = AffineMap(mat([1, 2], [3, 4]), vec(5, 6))
    point = f.to_point()
    assert point == vec(1, 2, 3, 4, 5, 6)
    assert AffineMap.from_point(point, 2, 2) == f
    assert f.apply(vec(1, 1)) == vec(8, 13)


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def vectors(d):
    return st.tuples(*[rationals] * d)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_hom_row_dotted_with_a_map_is_the_row_at_its_image(data):
    dp, dq = data.draw(st.integers(0, 3)), data.draw(st.integers(1, 3))
    v, a = data.draw(vectors(dp)), data.draw(vectors(dq))
    f = AffineMap(data.draw(st.tuples(*[vectors(dp)] * dq)), data.draw(vectors(dq)))
    assert vec_dot(hom_row(v, a, mul), f.to_point()) == vec_dot(a, f.apply(v))


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_split_point_reads_the_layout_hom_row_writes(data):
    dp, dq = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    point = data.draw(vectors(dp * dq + dq))
    v, a = data.draw(vectors(dp)), data.draw(vectors(dq))
    linear, t = split_point(point, dp, dq)
    assert [len(row) for row in linear] == [dp] * dq
    image = AffineMap(linear, t).apply(v)
    assert vec_dot(hom_row(v, a, mul), point) == vec_dot(a, image)
    f = AffineMap(data.draw(st.tuples(*[vectors(dp)] * dq)), data.draw(vectors(dq)))
    assert split_point(f.to_point(), dp, dq) == (f.linear, f.translation)
    assert AffineMap.from_point(f.to_point(), dp, dq) == f


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_split_point_reads_number_field_entries(data):
    field = survey_field(5, 5)[0]
    assert field.degree == 2
    zero = (0,) * field.degree

    def dot(xs, ys):
        return reduce(field.add, map(field.mul, xs, ys), zero)

    def entries(count):
        return st.tuples(*[st.tuples(*[st.integers(-5, 5)] * field.degree)] * count)

    dp, dq = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    point = data.draw(entries(dp * dq + dq))
    v, a = data.draw(entries(dp)), data.draw(entries(dq))
    linear, t = split_point(point, dp, dq)
    assert [len(row) for row in linear] == [dp] * dq
    image = [field.add(dot(row, v), e) for row, e in zip(linear, t, strict=True)]
    assert dot(hom_row(v, a, field.mul), point) == dot(a, image)


def test_a_point_of_the_wrong_length_is_refused():
    message = "^hom point of length 5 does not match map shape 2x2$"
    with pytest.raises(ValueError, match=message):
        split_point(vec(1, 2, 3, 4, 5), 2, 2)
    with pytest.raises(ValueError, match=message):
        AffineMap.from_point(vec(1, 2, 3, 4, 5), 2, 2)


@st.composite
def full_dimensional_polytopes(draw):
    d = draw(st.sampled_from((1, 2, 3)))
    small = st.integers(-3, 3)
    points = draw(st.lists(st.tuples(*[small] * d), min_size=d + 1, max_size=d + 4))
    pts = tuple(vec(*x) for x in points)
    assume(len(solve_affine_hull(pts)[1]) == d)
    return Polytope.from_points(pts)


@given(full_dimensional_polytopes(), full_dimensional_polytopes())
@settings(max_examples=40, deadline=None)
def test_build_hom_writes_hom_row_in_vertex_facet_order(p, q):
    h = build_hom(p, q)
    rows = h.polytope.inequalities
    assert len(rows) == len(h.labels) == p.n_vertices * q.n_facets
    for v, point in enumerate(p.vertices):
        for k, facet in enumerate(q.inequalities):
            j = v * q.n_facets + k
            assert rows[j].normal == hom_row(point, facet.normal, mul)
            assert rows[j].offset == facet.offset
            assert h.labels[j] == FacetLabel(v, k)


def test_hom_dimension_formula_small():
    h = build_hom(cube(1), cube(1))
    assert h.dim == 1 * 1 + 1 == h.ambient_dim
    h2 = build_hom(simplex(2), cube(2))
    assert h2.dim == 2 * 2 + 2


def test_hom_facet_labels_cover_all_pairs():
    p, q = simplex(2), cube(2)
    h = build_hom(p, q)
    assert len(h.labels) == p.n_vertices * q.n_facets
    assert h.labels[0] == FacetLabel(0, 0)
    assert len(set(h.labels)) == len(h.labels)


def test_hom_segment_to_segment_is_square():
    # maps t -> at + b with |a| + |b| <= 1 on [-1, 1]: a square rotated
    h = build_hom(cube(1), cube(1))
    assert h.polytope.n_vertices == 4
    assert set(h.polytope.vertices) == {
        vec(1, 0), vec(-1, 0), vec(0, 1), vec(0, -1)
    }


def test_hom_vertices_send_source_into_target():
    p, q = cube(2), simplex(2)
    h = build_hom(p, q)
    for f, tight in enumerate_vertex_maps(h):
        assert len(tight) >= h.dim
        for v in p.vertices:
            assert contains_point(q, f.apply(v)).kind != "outside"


def test_vertex_maps_pass_vertex_test_and_interior_does_not():
    p, q = cube(1), cube(2)
    h = build_hom(p, q)
    for f, _ in enumerate_vertex_maps(h):
        assert is_vertex_map(f, h)
    center = AffineMap.constant(1, vec(0, 0))
    assert not is_vertex_map(center, h)


def test_is_vertex_map_rejects_outside_maps():
    h = build_hom(cube(1), cube(1))
    too_big = AffineMap(mat([2]), vec(0))
    with pytest.raises(GeometryError):
        is_vertex_map(too_big, h)


def test_hom_requires_full_dimensional_input():
    flat = Polytope.from_vertices([vec(0, 0), vec(1, 1)])
    with pytest.raises(GeometryError):
        build_hom(flat, cube(2))
    with pytest.raises(GeometryError):
        build_hom(cube(2), flat)


def test_oversized_hom_is_refused_before_enumeration(monkeypatch):
    def enumerate_vertices(normals, offsets):
        raise AssertionError("vertex enumeration ran")

    monkeypatch.setattr(dd, "enumerate_vertices", enumerate_vertices)
    message = f"hom dimension 42, above the enumeration limit of {hom._HOM_DIM_LIMIT}"
    with pytest.raises(ValueError, match=message):
        build_hom(cube(6), cube(6))
    # reading this target's dimension or interior point would enumerate it
    unread = Polytope.from_inequalities(cube(6).inequalities, 6)
    with pytest.raises(ValueError, match=message):
        build_hom(cube(6), unread)
    # the largest map spaces built elsewhere still pass
    assert build_hom(cube(3), cube(3)).dim == 12


def test_hom_from_point_source():
    # maps from a zero-dimensional source are just points of the target
    point = Polytope.from_vertices([()])
    q = cube(2)
    h = build_hom(point, q)
    assert h.dim == 2
    assert set(h.polytope.vertices) == set(q.vertices)


def test_facet_inequality_matches_label_semantics():
    p, q = simplex(2), cube(2)
    h = build_hom(p, q)
    maps = enumerate_vertex_maps(h)
    for f, tight in maps:
        for label in tight:
            v = p.vertices[label.vertex_index]
            facet = q.inequalities[label.facet_index]
            assert facet.tight(f.apply(v))


def test_tight_masks_decode_the_tight_labels_and_match_evaluation():
    p, q = simplex(2), cube(2)
    h = build_hom(p, q)
    for index, (f, tight) in enumerate(enumerate_vertex_maps(h)):
        masks = h.tight_masks(index)
        assert len(masks) == p.n_vertices
        for v_index, v in enumerate(p.vertices):
            from_labels = sum(
                1 << label.facet_index
                for label in tight
                if label.vertex_index == v_index
            )
            evaluated = sum(1 << k for k in contains_point(q, f.apply(v)).active)
            assert masks[v_index] == from_labels == evaluated


def test_identity_simplex_power_segment_into_square():
    report = hom_identity_check("simplex_power", n=1, p=cube(2))
    assert report.match
    assert report.lhs_f_vector == (16, 32, 24, 8, 1)


def test_identity_cube_bipyramid_small():
    report = hom_identity_check("cube_bipyramid", m=2, n=1)
    assert report.match
    assert report.lhs_f_vector == (6, 12, 8, 1)


def test_identity_cube_bipyramid_heaviest_benchmark_item():
    # the square, by the product rule, of the 4-cross-polytope's (8, 24, 32, 16, 1)
    report = hom_identity_check("cube_bipyramid", m=3, n=2)
    assert report.match
    expected = (64, 384, 1088, 1792, 1808, 1072, 320, 32, 1)
    assert report.lhs_f_vector == report.rhs_f_vector == expected


def test_identity_cube_cross_swap_2_2():
    report = hom_identity_check("cube_cross_swap", m=2, n=2)
    assert report.match


@pytest.fixture
def lattice_calls(monkeypatch):
    """The arguments of every face-lattice grading, recorded as it runs."""
    calls = []
    grade = polytope._face_lattice

    def counted(*args):
        calls.append(args)
        return grade(*args)

    monkeypatch.setattr(polytope, "_face_lattice", counted)
    return calls


@pytest.mark.parametrize(
    "kind, size, graded_vertex_counts",
    [
        # the hom, then one factor of the product side
        ("simplex_power", {"n": 0, "p": regular_ngon(5)}, [5, 5]),
        ("simplex_power", {"n": 1, "p": cube(2)}, [4, 16]),
        ("cube_bipyramid", {"m": 1, "n": 1}, [4, 4]),
        ("cube_bipyramid", {"m": 2, "n": 2}, [6, 36]),
        # the right side is another hom: both are graded in full
        ("cube_cross_swap", {"m": 2, "n": 2}, [36, 36]),
    ],
)
def test_identity_grades_the_hom_and_one_factor(kind, size, graded_vertex_counts, lattice_calls):
    report = hom_identity_check(kind, **size)
    assert report.match
    assert sorted(n_vertices for _masks, n_vertices, _dim in lattice_calls) == graded_vertex_counts


@pytest.mark.parametrize(
    "factors",
    [
        (cube(2), regular_ngon(5)),
        (bipyramid(cross_polytope(2)), bipyramid(cross_polytope(2))),
        (simplex(3), cross_polytope(3)),
        (simplex(0), regular_ngon(3)),
        (regular_ngon(4), regular_ngon(4), regular_ngon(4)),
    ],
    ids=["square-pentagon", "octahedron-squared", "tetrahedron-octahedron", "point-triangle", "square-cubed"],
)
def test_product_f_vector_is_the_graded_products(factors):
    assert reduce(hom._product_f_vector, [q.f_vector for q in factors]) == reduce(product, factors).f_vector


def _moved_apex(apex):
    """Stands in for ``bipyramid``, with the upper apex moved to ``apex``."""

    def build(base):
        *rest, _, lower = bipyramid(base).vertices
        return Polytope.from_vertices([*rest, apex, lower])

    return build


@pytest.mark.parametrize(
    "n, rhs_f_vector",
    [
        (1, (6, 10, 6, 1)),
        (2, (36, 120, 172, 132, 56, 12, 1)),
    ],
)
def test_identity_right_side_is_read_off_the_built_factor(n, rhs_f_vector, monkeypatch):
    # an apex moved into the base plane makes the factor a pentagonal
    # pyramid, so the right side no longer matches the hom
    lhs_f_vector = hom_identity_check("cube_bipyramid", m=2, n=n).lhs_f_vector
    monkeypatch.setattr(hom, "bipyramid", _moved_apex(vec(1, 1, 0)))
    report = hom_identity_check("cube_bipyramid", m=2, n=n)
    assert report.lhs_f_vector == lhs_f_vector
    assert report.rhs_f_vector == rhs_f_vector
    assert not report.match


def test_identity_guard_refuses_large_dimensions():
    with pytest.raises(ValueError, match="dimension"):
        hom_identity_check("simplex_power", n=3, p=cube(3))


def test_identity_vertex_guard_refuses_before_building(monkeypatch):
    def build(*args):
        raise AssertionError("a side was built")

    monkeypatch.setattr(hom, "build_hom", build)
    monkeypatch.setattr(hom, "_product_f_vector", build)
    limit = hom._IDENTITY_VERTEX_LIMIT
    with pytest.raises(ValueError, match=f"= 40000 vertices, above the vertex limit of {limit}"):
        hom_identity_check("simplex_power", n=1, p=regular_ngon(200))


@pytest.mark.parametrize(
    "kind, size, zero_dim_target",
    [
        ("cube_bipyramid", {"m": 30, "n": 0}, False),
        ("cube_cross_swap", {"m": 30, "n": 0}, False),
        ("simplex_power", {"n": 10**5}, True),
    ],
    ids=["cube_bipyramid", "cube_cross_swap", "simplex_power"],
)
def test_identity_guard_bounds_the_source_dimension(kind, size, zero_dim_target, monkeypatch):
    # a zero-dimensional target keeps the hom dimension at 0 for any source
    target = simplex(0) if zero_dim_target else None

    def build(*args):
        raise AssertionError("a side was built")

    for name in ("build_hom", "_product_f_vector", "cube", "simplex"):
        monkeypatch.setattr(hom, name, build)
    source_dim = size.get("m", size["n"])
    limit = hom._IDENTITY_DIM_LIMIT
    with pytest.raises(
        ValueError, match=f"source dimension {source_dim}, above the enumeration limit of {limit}"
    ):
        hom_identity_check(kind, p=target, **size)


@pytest.mark.parametrize("m, n, dims", [(2, 1, (3, 4)), (3, 1, (4, 6)), (1, 3, (6, 4))])
def test_identity_cube_cross_swap_refuses_unequal_dimensions(m, n, dims, monkeypatch):
    # the sides live in hom dimensions n(m+1) and m(n+1), equal only for m = n
    def build(*args):
        raise AssertionError("a side was built")

    for name in ("build_hom", "cube", "cross_polytope"):
        monkeypatch.setattr(hom, name, build)
    message = f"m = n: with m={m} and n={n} its sides live in hom dimensions {dims[0]} and {dims[1]}$"
    with pytest.raises(ValueError, match=message):
        hom_identity_check("cube_cross_swap", m=m, n=n)


def test_identity_unknown_kind():
    with pytest.raises(ValueError):
        hom_identity_check("moebius_flip", n=1, m=1)

"""Unit tests for stock polytopes and combinators."""

import itertools
import time
from fractions import Fraction

import mpmath
import pytest

from hompoly.constructions import (
    bipyramid,
    cross_polytope,
    cube,
    dual,
    join,
    product,
    regular_ngon,
    simplex,
    standard,
    tensor,
)
from hompoly.errors import GeometryError
from hompoly.linalg import vec, vec_dot
from hompoly.polytope import Polytope, contains_point


def convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def test_simplex_counts():
    for n in range(1, 5):
        s = simplex(n)
        assert s.n_vertices == n + 1
        assert s.n_facets == n + 1
        assert s.dim == n
    assert simplex(2).f_vector == (3, 3, 1)


def test_cube_counts_and_incidence():
    c = cube(3)
    assert c.n_vertices == 8
    assert c.n_facets == 6
    assert c.f_vector == (8, 12, 6, 1)
    for j, iq in enumerate(c.inequalities):
        for v in c.facet_vertex_indices(j):
            assert iq.tight(c.vertices[v])
        assert len(c.facet_vertex_indices(j)) == 4


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cube_pins_vertex_and_facet_order(n):
    # a hom with a cube side writes its rows and labels in this order
    c = cube(n)
    signs = list(itertools.product((-1, 1), repeat=n))
    assert c.vertices == tuple(tuple(map(Fraction, s)) for s in signs)
    assert all(type(e) is Fraction for v in c.vertices for e in v)
    expected = []
    for i in range(n):
        for sign in (1, -1):  # facet 2i is x_i <= 1, facet 2i + 1 is -x_i <= 1
            normal = tuple(Fraction(sign if k == i else 0) for k in range(n))
            mask = sum(1 << v for v, s in enumerate(signs) if s[i] == sign)
            expected.append((normal, Fraction(1), mask))
    assert [
        (iq.normal, iq.offset, mask)
        for iq, mask in zip(c.inequalities, c.facet_masks, strict=True)
    ] == expected


def test_cross_polytope_counts():
    o = cross_polytope(3)
    assert o.n_vertices == 6
    assert o.n_facets == 8
    assert o.f_vector == (6, 12, 8, 1)


@pytest.mark.parametrize("n", range(1, 7))
def test_cross_polytope_incidences_match_evaluation(n):
    # a hom with a cross-polytope side writes its rows and labels in this order
    o = cross_polytope(n)
    units = [
        tuple(Fraction(sign if k == i else 0) for k in range(n))
        for i in range(n)
        for sign in (1, -1)  # vertex 2i is e_i, vertex 2i + 1 is -e_i
    ]
    assert o.vertices == tuple(units)
    normals = [tuple(map(Fraction, s)) for s in itertools.product((1, -1), repeat=n)]
    assert [(iq.normal, iq.offset) for iq in o.inequalities] == [
        (normal, Fraction(1)) for normal in normals
    ]
    assert o.facet_masks == tuple(
        sum(1 << v for v, u in enumerate(units) if vec_dot(normal, u) == 1)
        for normal in normals
    )


def test_cube_is_dual_of_cross_polytope():
    c = dual(cross_polytope(3))
    assert set(c.vertices) == set(cube(3).vertices)
    assert c.n_facets == 6


def test_dual_of_dual_restores_vertices():
    p = cube(2)
    assert set(dual(dual(p)).vertices) == set(p.vertices)


def test_dual_requires_interior_origin():
    shifted = Polytope.from_vertices(
        [vec(1, 1), vec(2, 1), vec(1, 2)]
    )
    with pytest.raises(GeometryError):
        dual(shifted)


def test_square_ngon_is_exact():
    q = regular_ngon(4)
    assert set(q.vertices) == {vec(1, 0), vec(0, 1), vec(-1, 0), vec(0, -1)}


def test_pentagon_vertices_on_rounded_circle():
    p = regular_ngon(5, digits=6)
    assert p.n_vertices == 5
    assert p.n_facets == 5
    for v in p.vertices:
        r2 = vec_dot(v, v)
        assert abs(r2 - 1) < Fraction(1, 10**4)


def test_even_ngon_has_exactly_antipodal_vertices():
    for n in (6, 8):
        p = regular_ngon(n)
        verts = p.vertices
        for k in range(n // 2):
            assert verts[k] == tuple(-e for e in verts[k + n // 2])


def _round_decimal(value, digits):
    """Half away from zero at ``digits`` decimals: the mpmath rounding
    ``regular_ngon`` once used, with its guard against rounding ties."""
    if value < 0:
        return -_round_decimal(-value, digits)
    scale = 10**digits
    nearest = mpmath.floor(value * scale + mpmath.mpf("0.5"))
    frac = value * scale + mpmath.mpf("0.5") - nearest
    assert mpmath.mpf("1e-12") < frac < 1 - mpmath.mpf("1e-12")
    return Fraction(int(nearest), scale)


def _reference_ngon(n, digits):
    with mpmath.workdps(digits + 30):
        return [
            tuple(
                _round_decimal(f(mpmath.mpf(2 * k) / n), digits)
                for f in (mpmath.cospi, mpmath.sinpi)
            )
            for k in range(n)
        ]


@pytest.mark.parametrize("digits", [1, 3, 6, 9])
def test_ngon_matches_mpmath_rounding(digits):
    for n in [*range(3, 65), 360, 1024]:
        points = _reference_ngon(n, digits)
        turns = [
            (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])
            for a, b, c in zip(points[-2:] + points, points[-1:] + points, points)
        ]
        if min(turns) > 0:
            assert regular_ngon(n, digits).vertices == tuple(points), (n, digits)
        else:
            with pytest.raises(GeometryError, match="not strictly convex"):
                regular_ngon(n, digits)


def test_ngon_rejects_insufficient_digits():
    with pytest.raises(GeometryError):
        regular_ngon(1000, digits=2)


def test_flattened_ngon_fails_within_a_few_turns():
    # at 6 digits the rounded points around angle 0 are collinear; the
    # turn there is checked before the other 999,997 points are made
    start = time.monotonic()
    with pytest.raises(GeometryError, match="not strictly convex at 6 digits"):
        regular_ngon(10**6)
    assert time.monotonic() - start < 1


def test_standard_refuses_oversized_descriptions_before_building():
    # largest accepted: 2^12 * 12 and 256 * 255 coordinates
    assert standard("cube", 12).n_vertices == 4096
    assert standard("simplex", 255).n_vertices == 256
    start = time.monotonic()
    for kind, n in [
        ("cube", 13),
        ("crosspolytope", 13),
        ("simplex", 256),
        ("regular_ngon", 32769),
        ("cube", 10**12),
    ]:
        with pytest.raises(ValueError, match="above the limit of 65536 coordinates"):
            standard(kind, n)
    for n, digits in [(32768, 33), (3, 3345), (5, 10**6)]:
        with pytest.raises(ValueError, match="above the limit of 67108864; refusing"):
            standard("regular_ngon", n, digits)
    assert time.monotonic() - start < 1


def test_join_of_segment_and_square():
    seg = cube(1)
    sq = cube(2)
    j = join(seg, sq)
    assert j.ambient_dim == 4
    assert j.dim == 4
    assert j.n_vertices == 6


def test_join_of_two_segments_is_tetrahedron():
    j = join(cube(1), cube(1))
    assert j.f_vector == (4, 6, 4, 1)


def test_product_fvector_is_convolution():
    sq = cube(2)
    tri = simplex(2)
    prod = product(sq, tri)
    assert prod.ambient_dim == 4
    assert prod.f_vector == convolve(sq.f_vector, tri.f_vector)
    assert prod.f_vector == (12, 24, 19, 7, 1)


def test_product_incidence_is_trustworthy():
    prod = product(cube(1), simplex(2))
    for j, iq in enumerate(prod.inequalities):
        tight = {
            v for v, vertex in enumerate(prod.vertices) if iq.tight(vertex)
        }
        assert set(prod.facet_vertex_indices(j)) == tight


def test_tensor_of_segments():
    # conv((xy, x, y)) over x, y in {-1, 1} is a 3-dimensional body
    t = tensor(cube(1), cube(1))
    assert t.ambient_dim == 3
    assert t.n_vertices == 4
    assert t.dim == 3
    assert t.f_vector == (4, 6, 4, 1)


def test_bipyramid_over_square():
    b = bipyramid(cube(2))
    assert b.n_vertices == 6
    assert b.n_facets == 8
    assert b.f_vector == (6, 12, 8, 1)
    assert contains_point(b, vec(0, 0, 0)).kind == "interior"


def test_standard_dispatcher():
    assert standard("simplex", 3).n_vertices == 4
    assert standard("cube", 2).n_vertices == 4
    assert standard("crosspolytope", 2).n_vertices == 4
    assert standard("regular_ngon", 5).n_vertices == 5
    with pytest.raises(ValueError):
        standard("orbifold", 2)

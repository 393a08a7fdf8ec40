"""Double description vertex enumeration against independent oracles.

Each system is built from a random point set.  Its rows are every
hyperplane through d affinely independent points that has all points on
one side, found by brute force, so they describe the hull of the points
without the engine's help.  The expected vertices come from the
acceptance suite's phase-1 simplex (a point is a vertex when no convex
combination of the others reaches it), and each returned activity bit
is checked against exact tightness.  Padding rows make the systems
degenerate; dropping, lifting and contradicting rows make them
unbounded, infeasible or lower-dimensional.  The engine's start, rays,
masks and their order are compared with a reference copy of its former
set-up and all-pairs insertion step, and pinned by golden digests.
"""

import hashlib
import itertools
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hompoly import dd
from hompoly.constructions import regular_ngon
from hompoly.errors import InfeasibleError, UnboundedError
from hompoly.hom import build_hom
from hompoly.linalg import (
    independent_rows,
    integer_direction,
    nullspace_basis,
    rref,
    solve_affine_hull,
    vec_dot,
    vec_sub,
)
from hompoly.polytope import Inequality, Polytope
from hompoly.regular import check_survey_size, survey_cone
from test_acceptance import oracle_extreme_points
from test_polytope import PENTAGON, PENTAGON_EXTRA_POINTS, vertex_points

small = st.integers(min_value=-3, max_value=3)
positive = st.fractions(min_value=Fraction(1, 4), max_value=4)


def supporting_rows(points):
    """Rows (normal, offset) of the hyperplanes through d affinely
    independent points with every point on the ``<=`` side."""
    d = len(points[0])
    if d == 0:
        return []
    rows = []
    for subset in itertools.combinations(points, d):
        diffs = tuple(vec_sub(p, subset[0]) for p in subset[1:])
        kernel = nullspace_basis(diffs) if diffs else ((Fraction(1),),)
        if len(kernel) != 1:
            continue
        normal = kernel[0]
        offset = vec_dot(normal, subset[0])
        values = [vec_dot(normal, p) for p in points]
        if all(v <= offset for v in values):
            rows.append((normal, offset))
        elif all(v >= offset for v in values):
            rows.append((tuple(-e for e in normal), -offset))
    return rows


@st.composite
def hulls(draw, dims=(1, 2, 3, 4)):
    """Distinct points spanning R^d and the supporting rows of their hull."""
    d = draw(st.sampled_from(dims))
    raw = draw(
        st.lists(st.tuples(*[small] * d), min_size=d + 1, max_size=d + 3, unique=True)
    )
    points = [tuple(Fraction(e) for e in p) for p in raw]
    assume(len(solve_affine_hull(tuple(points))[1]) == d)
    return points, supporting_rows(points)


def enumerate_rows(rows):
    return vertex_points(dd.enumerate_vertices([n for n, _ in rows], [b for _, b in rows]))


def assert_vertices(rows, found, expected):
    vertices = [x for x, _ in found]
    assert len(set(vertices)) == len(vertices)
    assert set(vertices) == expected
    for x, mask in found:
        assert 0 <= mask < 1 << len(rows)
        for i, (normal, offset) in enumerate(rows):
            assert bool(mask >> i & 1) == (vec_dot(normal, x) == offset)


def assert_recession_direction(rows, direction):
    assert any(direction)
    assert all(vec_dot(normal, direction) <= 0 for normal, _ in rows)


def padded(points, rows, draw):
    """The hull's rows with degenerate padding, in a drawn order: scaled
    copies of rows, and positive combinations of rows through one point."""
    pick = st.sampled_from(rows)
    extra = []
    for _ in range(draw(st.integers(0, 3))):
        normal, offset = draw(pick)
        c = draw(st.sampled_from((Fraction(1), draw(positive))))
        extra.append((tuple(c * e for e in normal), c * offset))
    # a fan of positive combinations of the rows through one point: every
    # one of them passes through that point and is valid on the hull
    apex = draw(st.sampled_from(points))
    through = [r for r in rows if vec_dot(r[0], apex) == r[1]]
    if len(through) >= 2:
        for _ in range(draw(st.integers(0, 4))):
            parts = draw(st.lists(st.sampled_from(through), min_size=2, max_size=3))
            weights = [draw(positive) for _ in parts]
            d = len(apex)
            normal = tuple(
                sum((w * n[i] for w, (n, _) in zip(weights, parts)), Fraction(0))
                for i in range(d)
            )
            if any(normal):
                offset = sum((w * b for w, (_, b) in zip(weights, parts)), Fraction(0))
                extra.append((normal, offset))
    return draw(st.permutations(rows + extra))


@given(hulls(), st.data())
@settings(max_examples=80, deadline=None)
def test_degenerate_systems_give_the_oracle_vertices(hull, data):
    points, rows = hull
    system = padded(points, rows, data.draw)
    assert_vertices(system, enumerate_rows(system), oracle_extreme_points(points))


@given(hulls(dims=(0, 1, 2)), st.data())
@settings(max_examples=60, deadline=None)
def test_lower_dimensional_systems_give_their_vertex_set(hull, data):
    """The hull in R^k, lifted onto the graph x -> (x, A x + c) in R^(k+e)."""
    points, rows = hull
    k = len(points[0])
    e = data.draw(st.integers(1, 2))
    a = data.draw(st.lists(st.tuples(*[small] * k), min_size=e, max_size=e))
    c = data.draw(st.tuples(*[small] * e))
    zeros = (Fraction(0),) * e

    def lift(x):
        return x + tuple(vec_dot(row, x) + ci for row, ci in zip(a, c))

    system = [(n + zeros, b) for n, b in rows]
    for j in range(e):
        unit = tuple(Fraction(int(i == j)) for i in range(e))
        equation = tuple(Fraction(-t) for t in a[j]) + unit
        system.append((equation, Fraction(c[j])))
        system.append((tuple(-t for t in equation), Fraction(-c[j])))
    system = data.draw(st.permutations(system))
    expected = {lift(x) for x in oracle_extreme_points(points)}
    assert_vertices(system, enumerate_rows(system), expected)


@given(hulls(), st.data())
@settings(max_examples=80, deadline=None)
def test_unbounded_systems_raise(hull, data):
    points, rows = hull
    d = len(points[0])
    zero = (Fraction(0),)
    # a prism over the hull: a free coordinate is a line of directions
    prism = [(n + zero, b) for n, b in rows]
    # a half-prism: the rows bound the first coordinate of every ray of the
    # homogenized cone from below, so the only way out is a direction ray
    half_prism = prism + [((Fraction(0),) * d + (Fraction(-1),), Fraction(0))]
    # the rows a random direction does not climb
    u = data.draw(st.tuples(*[small] * d).filter(any))
    wedge = [(n, b) for n, b in rows if vec_dot(n, u) <= 0]
    for system in (prism, half_prism, wedge):
        if not system:
            continue
        system = data.draw(st.permutations(system))
        with pytest.raises(UnboundedError) as err:
            enumerate_rows(system)
        assert_recession_direction(system, err.value.direction)


@given(hulls(), st.data())
@settings(max_examples=60, deadline=None)
def test_infeasible_systems_raise(hull, data):
    points, rows = hull
    d = len(points[0])
    u = data.draw(st.tuples(*[small] * d).filter(any))
    # below the lowest point in direction u, so below the whole hull
    lowest = min(vec_dot(u, p) for p in points)
    cut = (tuple(Fraction(t) for t in u), lowest - data.draw(positive))
    system = rows + [cut]
    if data.draw(st.booleans()):
        # the same contradiction on a prism, whose rows do not span
        system = [(n + (Fraction(0),), b) for n, b in system]
    system = data.draw(st.permutations(system))
    with pytest.raises(InfeasibleError):
        enumerate_rows(system)


# -- rows with an all-zero normal: ``0 . x <= b`` is decided by b alone ------

ZERO_2D = (Fraction(0), Fraction(0))
SQUARE = [
    ((Fraction(1), Fraction(0)), Fraction(1)),
    ((Fraction(-1), Fraction(0)), Fraction(1)),
    ((Fraction(0), Fraction(1)), Fraction(1)),
    ((Fraction(0), Fraction(-1)), Fraction(1)),
]


def test_zero_normal_with_positive_offset_imposes_nothing():
    system = SQUARE + [(ZERO_2D, Fraction(1))]
    found = enumerate_rows(system)
    corners = {(Fraction(x), Fraction(y)) for x in (-1, 1) for y in (-1, 1)}
    assert_vertices(system, found, corners)
    assert sorted(mask for _, mask in found) == [5, 6, 9, 10]


def test_zero_normal_with_negative_offset_is_infeasible():
    with pytest.raises(InfeasibleError):
        enumerate_rows(SQUARE + [(ZERO_2D, Fraction(-1))])
    with pytest.raises(InfeasibleError):
        enumerate_rows([((Fraction(0),), Fraction(-1))])


def test_lone_zero_normal_row_leaves_the_line_unbounded():
    system = [((Fraction(0),), Fraction(1))]
    with pytest.raises(UnboundedError) as err:
        enumerate_rows(system)
    assert_recession_direction(system, err.value.direction)


def test_zero_normal_with_zero_offset_is_refused():
    with pytest.raises(ValueError, match="zero normal and zero offset"):
        enumerate_rows(SQUARE + [(ZERO_2D, Fraction(0))])


# -- golden output: rays, masks and their order ------------------------------

# SHA-256 of repr(dd.extreme_rays(...)) on survey cones, recorded from the
# engine that normalized rays and built its initial generators in
# ``Fraction``; the fraction-free engine must reproduce them exactly.
# (3, 7) (degree 3) and (8, 5) (degree 4) were recorded from the engine
# that normalized by a fraction-free linear solve, before the unit became
# the product of the lead entry's Galois conjugates.  (5, 7) (degree 6)
# was recorded from the engine with per-row tight-ray bitsets, so that any
# change to the degree-6 arithmetic in ``numfield`` is checked against it.
# The digests pin the engine on ``survey_cone``'s row order; ``table_row``
# sorts the rows of degree 1, such as (6, 6), before the engine sees them
SURVEY_DIGESTS = {
    (3, 5): "ea69dfcdb4347dd576d1da2a24e7cc090c2b9e8a658580e29be96f9a0c4483a3",
    (3, 7): "f655852ac94913630f9e1b4b201662ea07b5d2961eb2e0bbe53313a786e17914",
    (5, 4): "6b17522cb5235206841d1da2adefc2254e6f73c2fb575a68d04f2543ab0e72bb",
    (5, 6): "7eab4891fa08a0359521538c65996f418e143bf95e0402b6c3ddaa1bb0b5adf6",
    (5, 7): "6bf2ba1f85acb9331e92e1c1edcf2ca845ec931b616ade0056d54db6fff0b5e9",
    (6, 6): "48573b69650408c9de20067beeca974946744634f0e4200d5ea03819584ea731",
    (8, 5): "0103448b7b947967d3395527d7edbbd19c7995ab29916f4019b59bacc1dbe488",
}
HEXAGON_HOM_DIGEST = "f7fab1f25c0a770826e5c1c5ec10c03bf1b0762c85edfc0013b1f87e9ab53588"


def _digest(found) -> str:
    return hashlib.sha256(repr(found).encode()).hexdigest()


@pytest.mark.parametrize("pair", sorted(SURVEY_DIGESTS))
def test_survey_rays_masks_and_order_are_unchanged(pair):
    _, rows, arithmetic = survey_cone(*pair)
    assert _digest(dd.extreme_rays(rows, arithmetic)) == SURVEY_DIGESTS[pair]


def test_hexagon_hom_vertices_masks_and_order_are_unchanged():
    hexagon = regular_ngon(6)
    inequalities = build_hom(hexagon, hexagon).polytope.inequalities
    found = dd.enumerate_vertices(
        [iq.normal for iq in inequalities], [iq.offset for iq in inequalities]
    )
    assert _digest(vertex_points(found)) == HEXAGON_HOM_DIGEST


# -- the all-pairs insertion step, as a reference ----------------------------


def reference_start(rows, arithmetic):
    """The simplicial start as the engine built it before lineality
    elimination: the lexicographically first basis of the flattened
    blocks, and for each picked row the primitive integer direction of
    the rational solution of M g = e, where M stacks the picked blocks
    and e is the first unit column of the row's block."""
    d = arithmetic.degree
    flat = rows if d == 1 else [r for block in rows for r in block]
    kept = set(independent_rows(flat))
    picked = [i for i in range(len(rows)) if all(i * d + k in kept for k in range(d))]
    basis = [tuple(r) for i in picked for r in flat[i * d:(i + 1) * d]]
    n = len(basis)
    assert n == len(flat[0]), "the rows do not span"
    firsts = range(0, n, d)
    reduced, pivots = rref(
        [row + tuple(int(i == j) for j in firsts) for i, row in enumerate(basis)]
    )
    assert pivots == list(range(n))
    columns = zip(*(row[n:] for row in reduced))
    return picked, [integer_direction(c) for c in columns]


def reference_extreme_rays(rows, arithmetic):
    """``dd.extreme_rays`` with the set-up and the insertion step it had
    before row bitsets: the start of :func:`reference_start`, masks read
    off its values, then every (positive, negative) pair passes a
    popcount of its common mask, and a scan of every ray's mask decides
    adjacency."""
    value, signs, combine = arithmetic.value, arithmetic.signs, arithmetic.combine
    picked, generators = reference_start(rows, arithmetic)
    rays = []
    for g in generators:
        mask = 0
        for i, v in zip(picked, signs([value(rows[i], g) for i in picked])):
            if v == 0:
                mask |= 1 << i
        rays.append((g, mask))

    need = len(picked) - 2
    for k, row in enumerate(rows):
        if k in picked:
            continue
        vals = [value(row, g) for g, _ in rays]
        sgn = signs(vals)
        masks = [m for _, m in rays]
        negatives = [(iq, masks[iq]) for iq, v in enumerate(sgn) if v < 0]
        new_rays = []
        for ip in (i for i, v in enumerate(sgn) if v > 0):
            for iq, mq in negatives:
                common = masks[ip] & mq
                if common.bit_count() < need:
                    continue
                # adjacent: p and q are the only rays whose mask contains common
                containing = (mr for mr in masks if mr & common == common)
                if len(list(itertools.islice(containing, 3))) == 2:
                    ray = combine(vals[ip], rays[ip][0], vals[iq], rays[iq][0])
                    new_rays.append((ray, common | (1 << k)))
        kept = [
            (g, m | (1 << k)) if sgn[i] == 0 else (g, m)
            for i, (g, m) in enumerate(rays)
            if sgn[i] >= 0
        ]
        rays = kept + new_rays
    return rays


@given(hulls(), st.data())
@settings(max_examples=80, deadline=None)
def test_engine_matches_the_all_pairs_reference(hull, data):
    points, rows = hull
    system = padded(points, rows, data.draw)
    cone = dd._homogenize([n for n, _ in system], [b for _, b in system])
    # x0 >= 0 anywhere in the row order, not only last
    at = data.draw(st.integers(0, len(cone)))
    cone.insert(at, (1,) + (0,) * len(points[0]))
    assert dd._simplicial_start(cone, dd.INTEGERS) == (
        *reference_start(cone, dd.INTEGERS),
        [],
    )
    assert repr(dd.extreme_rays(cone, dd.INTEGERS)) == repr(
        reference_extreme_rays(cone, dd.INTEGERS)
    )


def test_survey_start_matches_the_reference():
    """Every pair the survey accepts up to 10 sides, degrees 1 to 6."""
    for m, n in itertools.product(range(3, 11), repeat=2):
        try:
            check_survey_size(m, n)
        except ValueError:
            continue
        _, rows, arithmetic = survey_cone(m, n)
        picked, rays, lines = dd._simplicial_start(rows, arithmetic)
        assert (picked, rays) == reference_start(rows, arithmetic), (m, n)
        assert lines == [], (m, n)


def test_cone_with_a_line_raises_with_the_line_and_the_rays():
    """x - z >= 0, y - z >= 0, x - y >= 0: every row is 0 on (1, 1, 1), and
    modulo that line the cone is spanned by (1, 0, 0) and (1, 1, 0)."""
    rows = [(1, 0, -1), (0, 1, -1), (1, -1, 0)]
    with pytest.raises(dd.ConeDegenerateError) as err:
        dd.extreme_rays(rows, dd.INTEGERS)
    line, found = err.value.line, err.value.rays
    assert any(line) and all(dd._dot(row, line) == 0 for row in rows)
    for ray, mask in found:
        assert all(dd._dot(row, ray) >= 0 for row in rows)
        assert mask == sum(1 << i for i, row in enumerate(rows) if dd._dot(row, ray) == 0)
    assert found == [((1, 0, 0), 0b010), ((1, 1, 0), 0b100)]
    assert line == (1, 1, 1)


@pytest.mark.parametrize(
    "pair, ordered",
    [pytest.param((m, n), False, id=f"{m}-{n}") for m in range(3, 7) for n in range(3, 7)]
    + [pytest.param((m, n), True, id=f"{m}-{n}-sorted") for m in (3, 4, 6) for n in (3, 4, 6)],
)
def test_survey_rays_match_the_all_pairs_reference(pair, ordered):
    """``survey_cone``'s rows, and the integer rows sorted as ``table_row``
    hands them over."""
    _, rows, arithmetic = survey_cone(*pair)
    if ordered:
        assert arithmetic is dd.INTEGERS
        rows = sorted(rows)
    assert repr(dd.extreme_rays(rows, arithmetic)) == repr(
        reference_extreme_rays(rows, arithmetic)
    )


# SHA-256 of the engine output, recorded from the all-pairs engine
# (``reference_extreme_rays`` above)
CUBE_HOM_DIGEST = "adb7f4087773c4ae9a055001c33db5a639792e28edbaba7fbd95a6f24b27188b"
PENTAGON_HULL_DIGEST = "f16d6734e3fe30ceedf167ad0324479b565f48f77bb09fcf25af3b852970a432"


def test_degenerate_cube_hom_vertices_masks_and_order_are_unchanged():
    """Hom([-1, 1]^3, [-1, 1]^2) from the cubes' points, as ``classify``
    reads them: its vertices are tight on more rows than the dimension
    needs, so the candidate counters run with a slack above one."""

    def cube(n):
        return Polytope.from_points(
            [tuple(map(Fraction, p)) for p in itertools.product((-1, 1), repeat=n)]
        )

    inequalities = build_hom(cube(3), cube(2)).polytope.inequalities
    found = dd.enumerate_vertices(
        [iq.normal for iq in inequalities], [iq.offset for iq in inequalities]
    )
    assert _digest(vertex_points(found)) == CUBE_HOM_DIGEST


def test_pentagon_hull_vertices_masks_and_order_are_unchanged(monkeypatch):
    """The V->H pass of ``Polytope.from_points`` on a pentagon with an
    interior, an edge and a repeated point."""
    seen = []
    enumerate_vertices = dd.enumerate_vertices

    def recorded(normals, offsets):
        seen.append(enumerate_vertices(normals, offsets))
        return seen[-1]

    monkeypatch.setattr(dd, "enumerate_vertices", recorded)
    Polytope.from_points(PENTAGON_EXTRA_POINTS + PENTAGON).inequalities
    assert len(seen) == 1
    assert _digest(vertex_points(seen[0])) == PENTAGON_HULL_DIGEST


def test_segment_cone_joins_rays_with_no_common_tight_row():
    """x0 >= 0, x0 + x >= 0, x0 - x >= 0: the cone over -1 <= x <= 1 has
    dimension 2, so ``need`` is 0, and the generators (1, -1) and (0, 1)
    are adjacent though no row is tight on both."""
    found = dd.extreme_rays([(1, 0), (1, 1), (1, -1)], dd.INTEGERS)
    assert found == [((1, -1), 0b010), ((1, 1), 0b100)]


@given(hulls(dims=(2, 3, 4)), st.data())
@settings(max_examples=60, deadline=None)
def test_vertex_rays_are_the_sorted_vertices(hull, data):
    """Each point divided by a drawn denominator, so that the rays' x0
    differ; the polytope described by its points and by its rows."""
    points, _ = hull
    d = len(points[0])
    points = [tuple(e / data.draw(st.integers(1, 4)) for e in p) for p in points]
    assume(len(solve_affine_hull(tuple(points))[1]) == d)
    rows = [Inequality(n, b) for n, b in supporting_rows(points)]
    described = [Polytope.from_points(points), Polytope.from_inequalities(rows, d)]
    for p in described:
        rays = p.vertex_rays
        assert p.vertices == tuple(sorted(p.vertices))
        for ray, v in zip(rays, p.vertices, strict=True):
            assert ray[0] > 0 and gcd(*ray) == 1
            assert tuple(Fraction(e, ray[0]) for e in ray[1:]) == v
    assert described[0].vertex_rays == described[1].vertex_rays
    assert Polytope.from_vertices(described[1].vertices).vertex_rays == described[1].vertex_rays

"""Regular-polygon survey: formulas, clustering, table rows."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hompoly import dd
from hompoly.classify import classify_all
from hompoly.hom import build_hom
from hompoly.polytope import Polytope, _face_lattice, _transpose
from hompoly.regular import (
    ClusterPartition,
    check_survey_size,
    closed_form_counts,
    cluster_vertices,
    divisibility_check,
    survey_cone,
    table_row,
)

# frozen from the proven formulas; every cell checked against an
# independently computed row at least once below
KNOWN_ROWS = {
    (3, 3): (3, 18, 6, 27),
    (3, 4): (4, 36, 24, 64),
    (3, 5): (5, 60, 60, 125),
    (3, 6): (6, 90, 120, 216),
    (4, 3): (3, 12, 0, 15),
    (4, 4): (4, 24, 8, 36),
    (4, 5): (5, 40, 80, 125),
    (4, 6): (6, 60, 72, 138),
    (5, 3): (3, 30, 30, 63),
    (5, 4): (4, 60, 80, 144),
    (6, 3): (3, 18, 12, 33),
    (6, 4): (4, 36, 24, 64),
    (7, 3): (3, 42, 84, 129),
    (7, 4): (4, 84, 168, 256),
    (8, 3): (3, 24, 48, 75),
    (8, 4): (4, 48, 48, 100),
}


# -- closed forms -------------------------------------------------------


def test_closed_forms_match_frozen_rows():
    for (m, n), expected in KNOWN_ROWS.items():
        row = closed_form_counts(m, n)
        assert (row.rank0, row.rank1, row.rank2, row.total) == expected
        assert row.provenance == (
            "closed_form",
            "closed_form",
            "closed_form",
            "closed_form",
        )


def test_closed_form_marks_unknown_rank2():
    row = closed_form_counts(5, 5)
    assert row.rank0 == 5
    assert row.rank1 == 100
    assert row.rank2 is None
    assert row.total is None
    assert row.provenance == (
        "closed_form",
        "closed_form",
        "unknown",
        "unknown",
    )


def test_closed_form_odd_total_square_of_even():
    row = closed_form_counts(7, 4)
    assert row.total == (2 * 7 + 2) ** 2
    assert row.rank2 == 4 * 49 - 28


def test_closed_form_rejects_degenerate_sizes():
    with pytest.raises(ValueError):
        closed_form_counts(2, 5)


# -- clustering ---------------------------------------------------------


def test_distant_points_stay_separate():
    part = cluster_vertices(((0,), (1,)), Fraction(1, 10))
    assert part.clusters == ((0,), (1,))
    assert part.pairwise_ok


def test_chain_makes_one_component_but_fails_pairwise():
    eps = Fraction(1, 100)
    points = ((Fraction(0),), (eps / 2,), (eps,))
    part = cluster_vertices(points, eps)
    assert part.clusters == ((0, 1, 2),)
    assert not part.pairwise_ok


def test_epsilon_below_minimum_gap_gives_singletons():
    points = ((0, 0), (1, 0), (0, 1), (3, 3))
    part = cluster_vertices(points, Fraction(1, 2))
    assert part.clusters == ((0,), (1,), (2,), (3,))


def test_epsilon_above_diameter_gives_one_cluster():
    points = ((0, 0), (1, 0), (0, 1))
    part = cluster_vertices(points, Fraction(10))
    assert part.clusters == ((0, 1, 2),)
    assert part.pairwise_ok


def test_comparison_is_strict():
    part = cluster_vertices(((0,), (1,)), Fraction(1))
    assert part.clusters == ((0,), (1,))


def _all_pairs_partition(points, epsilon):
    """Reference clustering: every pair compared, components by search."""
    eps = Fraction(epsilon)
    pts = [tuple(Fraction(e) for e in p) for p in points]

    def close(i, j):
        return sum((x - y) ** 2 for x, y in zip(pts[i], pts[j])) < eps * eps

    label = list(range(len(pts)))
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if close(i, j) and label[i] != label[j]:
                old, new = label[j], label[i]
                label = [new if lab == old else lab for lab in label]
    groups: dict[int, list[int]] = {}
    for i, lab in enumerate(label):
        groups.setdefault(lab, []).append(i)
    clusters = tuple(sorted(tuple(g) for g in groups.values()))
    pairwise_ok = all(
        close(i, j) for c in clusters for a, i in enumerate(c) for j in c[a + 1 :]
    )
    return ClusterPartition(eps, clusters, pairwise_ok)


@st.composite
def _point_sets(draw):
    """Small rational point sets plus duplicates, chains and boundary pairs."""
    eps = draw(st.sampled_from([Fraction(k, 2) for k in (1, 2, 3, 0, -2)]))
    dim = draw(st.integers(0, 4))
    coord = st.integers(-6, 6).map(lambda k: Fraction(k, 2))
    points = draw(st.lists(st.tuples(*[coord] * dim), max_size=10))
    extras = []
    for p in points[:4]:
        kind = draw(st.sampled_from(["duplicate", "chain", "at_eps", "late", "none"]))
        axis = draw(st.integers(0, dim - 1)) if dim else 0
        if kind == "duplicate":
            extras.append(p)
        elif kind == "chain" and dim:
            extras += [
                p[:axis] + (p[axis] + k * eps / 2,) + p[axis + 1 :] for k in (1, 2, 3)
            ]
        elif kind == "at_eps" and dim >= 2:
            extras.append((p[0] + 3 * eps / 5, p[1] + 4 * eps / 5) + p[2:])
        elif kind == "at_eps" and dim:
            extras.append(p[:axis] + (p[axis] - eps,) + p[axis + 1 :])
        elif kind == "late" and dim:
            delta = draw(st.sampled_from([eps / 3, eps, 2 * eps]))
            extras.append(p[:-1] + (p[-1] + delta,))
    return draw(st.permutations(points + extras)), eps


# Fixed cases: no points, zero-dimensional points, neighbours exactly epsilon
# apart in the later coordinate, and a close pair along (1, 3), the direction
# in which the first two sweep weights spread the keys furthest.
@settings(max_examples=400, deadline=None)
@given(_point_sets())
@example(((), Fraction(1, 2)))
@example((((), (), ()), Fraction(1, 2)))
@example((((0, 0), (0, 1), (0, 2), (5, 0)), Fraction(1)))
@example((((0, 0), (Fraction(31, 100), Fraction(93, 100))), Fraction(1)))
def test_sweep_matches_all_pairs_reference(case):
    points, eps = case
    assert cluster_vertices(tuple(points), eps) == _all_pairs_partition(points, eps)


# -- divisibility -------------------------------------------------------


def test_divisibility_passes_on_known_totals():
    assert divisibility_check(165, 5, 5).ok
    assert divisibility_check(64, 3, 4).ok


def test_divisibility_catches_parity():
    report = divisibility_check(100, 5, 5)
    assert not report.ok
    assert any("parity" in reason for reason in report.reasons)


def test_divisibility_catches_each_clause():
    report = divisibility_check(7, 3, 4)
    assert not report.ok
    assert any("target size" in r for r in report.reasons)


# -- table rows ---------------------------------------------------------


def test_triangle_row_is_exact():
    row, diag = table_row(3, 3)
    assert (row.rank0, row.rank1, row.rank2, row.total) == (3, 18, 6, 27)
    assert diag.raw_vertex_count == 27
    assert all(len(c) == 1 for c in diag.partition.clusters)
    assert divisibility_check(row.total, 3, 3).ok
    assert row == closed_form_counts(3, 3)


def test_square_row_is_exact():
    row, diag = table_row(4, 4)
    assert (row.rank0, row.rank1, row.rank2, row.total) == (4, 24, 8, 36)
    assert diag.raw_vertex_count == 36


def test_pentagon_row_is_exact():
    row, diag = table_row(5, 5)
    assert (row.rank0, row.rank1, row.rank2, row.total) == (5, 100, 60, 165)
    assert diag.raw_vertex_count == 165
    assert diag.partition.clusters == tuple((i,) for i in range(165))
    assert row.provenance == ("closed_form", "closed_form", "enumerated", "enumerated")
    assert divisibility_check(row.total, 5, 5).ok


def test_mixed_pentagon_triangle_row():
    row, _ = table_row(3, 5)
    assert (row.rank0, row.rank1, row.rank2, row.total) == (5, 60, 60, 125)
    assert row == closed_form_counts(3, 5)


# Integer affine models of the regular 3-, 4- and 6-gon: the images of
# the regular polygons under diag(2, 1/sin(2 pi/n)), listed by hand.
INTEGER_MODELS = {
    3: ((2, 0), (-1, 1), (-1, -1)),
    4: ((2, 0), (0, 1), (-2, 0), (0, -1)),
    6: ((2, 0), (1, 1), (-1, 1), (-2, 0), (-1, -1), (1, -1)),
}


@pytest.mark.parametrize("m", sorted(INTEGER_MODELS))
@pytest.mark.parametrize("n", sorted(INTEGER_MODELS))
def test_survey_matches_classify_on_integer_models(m, n):
    """The survey's own rows and DD agree with the Polytope/hom/classify route."""
    p, q = (Polytope.from_vertices(INTEGER_MODELS[k]) for k in (m, n))
    _, summary = classify_all(build_hom(p, q))
    by_rank = dict(summary.by_rank)
    row, _ = table_row(m, n)
    assert (row.rank0, row.rank1, row.rank2, row.total) == (
        by_rank.get(0, 0),
        by_rank.get(1, 0),
        by_rank.get(2, 0),
        summary.total,
    )


def test_oversized_pairs_are_refused_before_enumeration():
    check_survey_size(8, 8)
    check_survey_size(7, 8)
    with pytest.raises(ValueError, match=r"\(3,40\): a 40-gon is above the limit"):
        table_row(3, 40)
    with pytest.raises(ValueError, match=r"\(7,9\): field degree 9 is above the limit"):
        table_row(7, 9)


# -- the order the survey's rows reach the engine in ------------------------

# the pairs whose field is Q, so that the engine runs on integer rows
RATIONAL_PAIRS = [(m, n) for m in (3, 4, 6) for n in (3, 4, 6)]


class CountingIntegers(dd.IntegerArithmetic):
    """Integer scalars that count the engine's combine steps."""

    def __init__(self):
        self.combines = 0

    def combine(self, *args):
        self.combines += 1
        return dd.IntegerArithmetic.combine(*args)


def combine_steps(rows):
    counter = CountingIntegers()
    dd.extreme_rays(rows, counter)
    return counter.combines


def handed_rows(m, n):
    """The rows ``table_row(m, n)`` hands to ``dd.extreme_rays``."""
    calls = []
    real = dd.extreme_rays

    def recorder(rows, arithmetic):
        calls.append(rows)
        return real(rows, arithmetic)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dd, "extreme_rays", recorder)
        table_row(m, n)
    (rows,) = calls
    return rows


def test_table_row_sorts_the_integer_rows_only():
    assert handed_rows(6, 6) == sorted(survey_cone(6, 6)[1])
    # degree 2: the blocks keep survey_cone's order
    assert handed_rows(3, 5) == survey_cone(3, 5)[1]


def test_sorted_rational_rows_take_fewer_combine_steps():
    """The work of the integer cones, pinned as combine steps: the rows
    ``table_row`` hands over against ``survey_cone``'s order."""
    steps = {
        pair: (combine_steps(handed_rows(*pair)), combine_steps(survey_cone(*pair)[1]))
        for pair in RATIONAL_PAIRS
    }
    assert steps[6, 6] == (472, 824)
    assert tuple(map(sum, zip(*steps.values()))) == (1527, 2068)


@pytest.mark.parametrize("pair", RATIONAL_PAIRS, ids="{0[0]}-{0[1]}".format)
def test_sorted_rational_rows_give_the_same_rays(pair):
    rows = survey_cone(*pair)[1]
    handed = handed_rows(*pair)
    assert handed != rows
    found = {ray for ray, _ in dd.extreme_rays(handed, dd.INTEGERS)}
    assert found == {ray for ray, _ in dd.extreme_rays(rows, dd.INTEGERS)}


# -- the exact survey's incidences, graded ----------------------------------


@pytest.mark.parametrize(
    "m, n, known",
    [
        # criterion 6, Hom(square, square)
        (4, 4, dict(enumerate((36, 144, 240, 204, 88, 16, 1)))),
        (5, 5, {1: 685}),
        (6, 6, {1: 984}),
    ],
)
def test_face_lattice_grades_the_survey_incidences(m, n, known):
    """Grade Hom(P_m, P_n) from the DD activity masks of the exact cone.

    The hom rows come first in :func:`survey_cone`; transposing the
    rays' masks over them gives each facet's vertex set.
    """
    _, rows, arithmetic = survey_cone(m, n)
    rays = dd.extreme_rays(rows, arithmetic)
    facet_masks = _transpose((mask for _, mask in rays), m * n)
    counts = [0] * 7
    for dim, _ in _face_lattice(facet_masks, len(rays), 6):
        if dim >= 0:
            counts[dim] += 1
    assert counts[0] == len(rays)
    assert counts[5] == m * n
    assert {i: counts[i] for i in known} == known
    # Euler–Poincaré for a 6-polytope: the proper faces sum to 0
    assert sum((-1) ** i * c for i, c in enumerate(counts[:6])) == 0

"""The survey's number fields against sympy and high-precision evaluation."""

import itertools
import random
from fractions import Fraction
from math import gcd

import mpmath
import pytest

from hompoly.linalg import integer_direction, solve_square
from hompoly.numfield import (
    Field,
    cos_bounds,
    cyclotomic,
    minimal_polynomial,
    survey_degree,
    survey_field,
    survey_moduli,
)

# (m, n) pairs covering both constructions: a tensor product of two
# fields, and a single field K_lcm; degrees 2 to 6
PAIRS = ((5, 5), (8, 8), (7, 7), (5, 8), (5, 7), (7, 8), (6, 8), (10, 4))

MINIMAL = {
    3: (1, 1),
    4: (0, 1),
    5: (-1, 1, 1),
    6: (-1, 1),
    7: (-1, -2, 1, 1),
    8: (-2, 0, 1),
}


def _real(field: Field, x, moduli, units=None) -> mpmath.mpf:
    """x in the embedding where generator i is 2cos(2π units[i] / moduli[i]),
    by default with every unit 1."""
    units = units or (1,) * len(moduli)
    gens = [2 * mpmath.cos(2 * mpmath.pi * a / k) for a, k in zip(units, moduli)]
    return mpmath.fsum(
        mpmath.mpf(c.numerator) / c.denominator
        * mpmath.fprod(g**e for g, e in zip(gens, basis))
        for c, basis in zip(map(Fraction, x), field.exponents)
    )


def test_cyclotomic_polynomials():
    assert cyclotomic(1) == (-1, 1)
    assert cyclotomic(5) == (1, 1, 1, 1, 1)
    assert cyclotomic(8) == (1, 0, 0, 0, 1)
    assert cyclotomic(12) == (1, 0, -1, 0, 1)


def test_minimal_polynomials_for_small_n():
    for n, expected in MINIMAL.items():
        assert minimal_polynomial(n) == expected


def test_minimal_polynomials_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for n in range(3, 25):
        ours = sum(c * x**i for i, c in enumerate(minimal_polynomial(n)))
        theirs = sympy.minimal_polynomial(2 * sympy.cos(2 * sympy.pi / n), x)
        assert sympy.expand(ours - theirs) == 0, n


def test_degrees():
    assert survey_moduli(5, 8) == (5, 8)
    assert survey_moduli(8, 8) == (8,)
    assert survey_moduli(10, 4) == (10, 4)
    for (m, n), degree in {
        (3, 6): 1, (5, 5): 2, (8, 8): 2, (7, 7): 3, (5, 8): 4, (7, 8): 6, (9, 12): 6,
    }.items():
        assert survey_degree(m, n) == degree
        assert survey_field(m, n)[0].degree == degree


def test_structure_constants_match_sympy():
    sympy = pytest.importorskip("sympy")
    for m, n in PAIRS:
        moduli = survey_moduli(m, n)
        field = survey_field(m, n)[0]
        gens = sympy.symbols(f"g0:{len(moduli)}")
        polys = [
            sum(c * g**i for i, c in enumerate(minimal_polynomial(k)))
            for g, k in zip(gens, moduli)
        ]
        d = field.degree
        basis = [tuple(int(k == i) for k in range(d)) for i in range(d)]
        for a, bi in zip(field.exponents, basis):
            for b, bj in zip(field.exponents, basis):
                product = sympy.Integer(1)
                for g, f, e in zip(gens, polys, map(sum, zip(a, b))):
                    product *= sympy.rem(g**e, f, g)
                poly = sympy.Poly(sympy.expand(product), *gens)
                expected = tuple(
                    int(poly.coeff_monomial(sympy.Mul(*(g**k for g, k in zip(gens, c)))))
                    for c in field.exponents
                )
                assert field.mul(bi, bj) == expected, (m, n, a, b)


@mpmath.workdps(100)
def test_cosines_are_the_polygon_cosines():
    for m, n in PAIRS:
        field, alpha, beta = survey_field(m, n)
        moduli = survey_moduli(m, n)
        for side, x in ((m, alpha), (n, beta)):
            exact = 2 * mpmath.cos(2 * mpmath.pi / side)
            assert abs(_real(field, x, moduli) - exact) < mpmath.mpf(10) ** -90


def _elements(field: Field, rng: random.Random, count: int):
    yield (0,) * field.degree
    yield field.one
    for _ in range(count):
        size = rng.choice((3, 50, 10**12))
        yield tuple(rng.randint(-size, size) for _ in range(field.degree))


@mpmath.workdps(100)
def test_signs_match_high_precision_evaluation():
    rng = random.Random(7)
    for m, n in PAIRS:
        field = survey_field(m, n)[0]
        moduli = survey_moduli(m, n)
        for x in _elements(field, rng, 60):
            value = _real(field, x, moduli)
            expected = 0 if not any(x) else (1 if value > 0 else -1)
            assert field.sign(x) == expected, (m, n, x)


@mpmath.workdps(100)
def test_sign_escalates_precision_near_zero():
    # F_(k+1) - F_k * golden = (1 - golden)^k is below 2^-60 for k = 90
    # and 91, with coefficients near 2^62: the 64-bit floors cannot
    # separate it from zero, so the precision doubles
    field, alpha, _ = survey_field(10, 10)  # 2cos(π/5) = golden ratio
    fib = [0, 1]
    while len(fib) < 93:
        fib.append(fib[-1] + fib[-2])
    for k in (90, 91):
        x = field.sub((fib[k + 1], 0), field.mul((fib[k], 0), alpha))
        value = _real(field, x, (10,))
        assert 0 < abs(value) < mpmath.mpf(2) ** -60
        assert field.sign(x) == (1 if value > 0 else -1)
    assert 128 in field._floor_cache


def test_element_times_unit_is_a_positive_multiple_of_one():
    """The primitive integer solution u of x * u = 1, up to a positive
    factor, is the direction of ``unit(x)`` for x > 0 and of its negative
    for x < 0: the unit is positive, and x times it has x's sign."""
    rng = random.Random(11)
    for m, n in PAIRS:
        field = survey_field(m, n)[0]
        for x in _elements(field, rng, 20):
            if any(x):
                u = integer_direction(solve_square(field.matrix(x), field.one))
                product = field.mul(x, u)
                assert product[0] > 0 and not any(product[1:]), (m, n, x)
                sign = field.sign(x)
                assert integer_direction(field.unit(x)) == tuple(sign * e for e in u)
            else:
                with pytest.raises(ValueError, match="singular"):
                    solve_square(field.matrix(x), field.one)


def _apply(sigma, x):
    return tuple(sum(c * e for c, e in zip(row, x)) for row in sigma)


def test_automorphisms_are_the_nontrivial_ring_automorphisms():
    rng = random.Random(19)
    for m, n in PAIRS:
        field = survey_field(m, n)[0]
        d = field.degree
        identity = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
        assert len(field.automorphisms) == d - 1, (m, n)
        assert len(set(field.automorphisms)) == d - 1, (m, n)
        assert identity not in field.automorphisms, (m, n)
        elements = list(_elements(field, rng, 6))
        for sigma in field.automorphisms:
            assert all(isinstance(c, int) for row in sigma for c in row)
            assert _apply(sigma, field.one) == field.one
            for x in elements:
                for y in elements:
                    assert _apply(sigma, field.mul(x, y)) == field.mul(
                        _apply(sigma, x), _apply(sigma, y)
                    ), (m, n, x, y)


@mpmath.workdps(100)
def test_conjugate_product_is_the_norm():
    """x times its other conjugates is N(x)·1, and N(x) is the product of
    x's D real embeddings."""
    rng = random.Random(23)
    for m, n in PAIRS:
        field = survey_field(m, n)[0]
        moduli = survey_moduli(m, n)
        embeddings = list(
            itertools.product(
                *([a for a in range(1, k // 2 + 1) if gcd(a, k) == 1] for k in moduli)
            )
        )
        assert len(embeddings) == field.degree
        for x in _elements(field, rng, 10):
            if not any(x):
                continue
            norm = x
            for sigma in field.automorphisms:
                norm = field.mul(norm, _apply(sigma, x))
            assert norm[0] != 0 and not any(norm[1:]), (m, n, x)
            exact = mpmath.fprod(_real(field, x, moduli, units) for units in embeddings)
            assert abs(exact - norm[0]) < mpmath.mpf(10) ** -50 * (1 + abs(exact)), (m, n, x)


def test_unit_is_positive_and_inverts_up_to_an_integer():
    """The unit combine scales by is ±N(x)/x, positive in the real embedding."""
    rng = random.Random(29)
    for m, n in PAIRS:
        field = survey_field(m, n)[0]
        for x in _elements(field, rng, 20):
            if not any(x):
                continue
            u = field.unit(x)
            assert field.sign(u) == 1, (m, n, x)
            product = field.mul(x, u)
            assert product[0] != 0 and not any(product[1:]), (m, n, x)
            assert (product[0] > 0) == (field.sign(x) > 0), (m, n, x)


@mpmath.workdps(400)
def test_cos_bounds_enclose_high_precision_cosines():
    # at 400 digits the scaled value is off by far less than the margin,
    # which matters only for the rational cosines: their scaled values
    # are integers that an end may equal
    margin = mpmath.mpf(2) ** -200
    for k in range(3, 41):
        for q in (64, 128, 256):
            for a in range(k):
                lo, hi = cos_bounds(a, k, q)
                value = mpmath.ldexp(mpmath.cos(2 * mpmath.pi * a / k), q)
                assert lo - margin <= value <= hi + margin, (a, k, q)
                assert hi - lo <= 2, (a, k, q)


@mpmath.workdps(120)
def test_sign_floors_match_high_precision_values():
    for m, n in PAIRS:
        field = survey_field(m, n)[0]
        moduli = survey_moduli(m, n)
        units = [tuple(int(i == k) for i in range(field.degree)) for k in range(field.degree)]
        for p in (64, 128):
            expected = tuple(
                int(mpmath.floor(mpmath.ldexp(_real(field, b, moduli), p))) for b in units
            )
            assert field._floors(p) == expected, (m, n, p)


@mpmath.workdps(100)
def test_combine_keeps_the_direction():
    """A combined ray is one positive multiple of vp*gq - vq*gp, entry by entry."""
    rng = random.Random(3)
    field = survey_field(7, 8)[0]
    moduli = survey_moduli(7, 8)
    d = field.degree
    for _ in range(20):
        gp, gq = (tuple(rng.randint(-9, 9) for _ in range(3 * d)) for _ in "pq")
        vp, vq = (tuple(rng.randint(-9, 9) for _ in range(d)) for _ in "pq")
        ray = field.combine(vp, gp, vq, gq)
        raw = [
            field.sub(field.mul(vp, gq[j:j + d]), field.mul(vq, gp[j:j + d]))
            for j in range(0, 3 * d, d)
        ]
        chunks = [ray[j:j + d] for j in range(0, 3 * d, d)]
        assert [any(c) for c in chunks] == [any(r) for r in raw]
        ratios = [
            _real(field, c, moduli) / _real(field, r, moduli)
            for c, r in zip(chunks, raw)
            if any(r)
        ]
        assert ratios[0] > 0
        assert all(abs(q - ratios[0]) < mpmath.mpf(10) ** -80 * ratios[0] for q in ratios)

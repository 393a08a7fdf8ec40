"""Exact arithmetic in the real cyclotomic fields of the polygon survey.

K_n = Q(2cos 2π/n) holds the vertices of an affine model of the regular
n-gon, so Hom(P_m, P_n) is cut out by rows over the compositum
K_m·K_n.  Since Q(ζ_m) ∩ Q(ζ_n) = Q(ζ_gcd(m,n)) (Washington,
*Introduction to Cyclotomic Fields*, GTM 83), K_m ∩ K_n = Q whenever
gcd(m, n) is 1, 2, 3, 4 or 6, and the compositum is then the tensor
product K_m ⊗ K_n.  Otherwise it is K_lcm(m,n), which contains both.

A :class:`Field` is generated by one or two such cosines, each given by
its minimal polynomial.  An element is the tuple of its integer (or
rational) coordinates over the monomial basis b_k, products of powers
of the generators below their degrees; b_0 = 1.  The generators are
algebraic integers, so the survey's rows and rays stay integral.

Zero tests are exact.  A sign is decided from the exact floors
F_k = ⌊2^P b_k⌋: the element Σ c_k b_k times 2^P differs from
Σ c_k F_k by less than Σ |c_k|, so a sum that clears that bound has the
element's sign; otherwise P doubles.  The floors come from exact
bisection on the minimal polynomials and integer interval products, so
no floating point is involved.

A field is also the scalar arithmetic :func:`hompoly.dd.extreme_rays`
runs on.  A row over K^d is given as its block: the D rational rows of
its entries' multiplication matrices laid side by side, so its value on
a ray, a flat integer vector of d·D coordinates, is one integer
matrix-vector product.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product
from math import gcd, lcm, prod
from operator import add, mul

from .linalg import integer_direction, solve_square

Element = tuple[int, ...]


def _divide(num: list[int], den: tuple[int, ...]) -> list[int]:
    """Exact quotient of integer polynomials (low degree first), ``den`` monic."""
    num = list(num)
    quotient = [0] * (len(num) - len(den) + 1)
    for i in reversed(range(len(quotient))):
        c = quotient[i] = num[i + len(den) - 1]
        for j, d in enumerate(den):
            num[i + j] -= c * d
    if any(num):
        raise ArithmeticError("polynomial division is not exact")
    return quotient


@cache
def cyclotomic(n: int) -> tuple[int, ...]:
    """Φ_n, low degree first: x^n - 1 divided by Φ_d for every proper divisor d."""
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num = _divide(num, cyclotomic(d))
    return tuple(num)


def minimal_polynomial(n: int) -> tuple[int, ...]:
    """Minimal polynomial of 2cos(2π/n) for n >= 3, low degree first.

    Φ_n is palindromic of degree 2h, so z^(-h) Φ_n(z) is a polynomial
    in x = z + 1/z (Watkins & Zeitlin, Amer. Math. Monthly 100, 1993):
    each z^j + z^(-j) is C_j(x), with C_0 = 2, C_1 = x and
    C_(j+1) = x C_j - C_(j-1).
    """
    if n < 3:
        raise ValueError("2cos(2π/n) is rational for n < 3")
    phi = cyclotomic(n)
    h = (len(phi) - 1) // 2
    result = [phi[h]] + [0] * h
    prev, cur = [2] + [0] * h, [0, 1] + [0] * (h - 1)
    for j in range(1, h + 1):
        result = [r + phi[h + j] * c for r, c in zip(result, cur)]
        # x C_j - C_(j-1), cut at degree h: C_(h+1) is never used
        prev, cur = cur, [a - b for a, b in zip([0] + cur, prev)]
    return tuple(result)


def _totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def survey_moduli(m: int, n: int) -> tuple[int, ...]:
    """The orders k whose fields K_k, tensored together, give K_m·K_n."""
    return (m, n) if gcd(m, n) in (1, 2, 3, 4, 6) else (lcm(m, n),)


def survey_degree(m: int, n: int) -> int:
    """Degree of K_m·K_n over Q; [K_k : Q] = φ(k)/2 for k >= 3."""
    return prod(_totient(k) // 2 for k in survey_moduli(m, n))


def _evaluate(poly: tuple[int, ...], x: Fraction) -> Fraction:
    value = Fraction(0)
    for c in reversed(poly):
        value = value * x + c
    return value


def _root_floor(poly: tuple[int, ...], q: int) -> int:
    """⌊2^q r⌋ for the largest root r of ``poly``, by exact bisection.

    The roots of a minimal polynomial of 2cos(2π/n) are real and lie in
    (-2, 2).  For such a polynomial, x > r exactly when it and all its
    derivatives but the constant one are positive at x: every root of a
    derivative is at most r (Rolle), and when all of them are positive
    Budan-Fourier leaves no root above x.
    """
    derivatives = []
    while len(poly) > 1:
        derivatives.append(poly)
        poly = tuple(i * c for i, c in enumerate(poly))[1:]
    lo, hi = -2 << q, 2 << q
    while hi - lo > 1:
        mid = (lo + hi) // 2
        x = Fraction(mid, 1 << q)
        if all(_evaluate(d, x) > 0 for d in derivatives):
            hi = mid
        else:
            lo = mid
    return lo


def _reduced_power(poly: tuple[int, ...], e: int) -> list[int]:
    """Coordinates of x^e modulo the monic ``poly`` over 1, x, x^2, ..."""
    deg = len(poly) - 1
    coords = [1] + [0] * (deg - 1)
    for _ in range(e):
        top = coords[-1]
        coords = [0] + coords[:-1]
        coords = [c - top * p for c, p in zip(coords, poly)]
    return coords


class Field:
    """The field generated by 2cos(2π/k), one generator per minimal polynomial."""

    def __init__(self, polys: tuple[tuple[int, ...], ...]):
        self.polys = polys
        self.exponents = list(product(*(range(len(f) - 1) for f in polys)))
        self.degree = len(self.exponents)
        rng = range(self.degree)
        table = [
            [self._monomial(tuple(map(add, a, b))) for b in self.exponents]
            for a in self.exponents
        ]
        # _by_entry[k][j][i] is coordinate k of b_i * b_j
        self._by_entry = tuple(
            tuple(tuple(table[i][j][k] for i in rng) for j in rng) for k in rng
        )
        self.one: Element = (1,) + (0,) * (self.degree - 1)
        self._floor_cache: dict[int, tuple[int, ...]] = {}

    def _monomial(self, exps: tuple[int, ...]) -> Element:
        powers = [_reduced_power(f, e) for f, e in zip(self.polys, exps)]
        return tuple(
            prod(p[e] for p, e in zip(powers, basis)) for basis in self.exponents
        )

    def generator(self, index: int) -> Element:
        return self._monomial(tuple(int(i == index) for i in range(len(self.polys))))

    # -- ring operations ------------------------------------------------

    def matrix(self, x: Element) -> tuple[Element, ...]:
        """Multiplication by x: column j holds the coordinates of x * b_j."""
        return tuple(
            tuple(sum(map(mul, x, col)) for col in row) for row in self._by_entry
        )

    def mul(self, x: Element, y: Element) -> Element:
        return tuple(sum(map(mul, row, y)) for row in self.matrix(x))

    def add(self, x: Element, y: Element) -> Element:
        return tuple(map(add, x, y))

    def sub(self, x: Element, y: Element) -> Element:
        return tuple(a - b for a, b in zip(x, y))

    def chebyshev(self, x: Element, count: int) -> list[tuple[Element, Element]]:
        """(C_k(x), S_k(x)) for k < count: 2cos kθ and sin kθ / sin θ at x = 2cos θ.

        C_0 = 2, C_1 = x, S_0 = 0, S_1 = 1, and X_(k+1) = x X_k - X_(k-1)
        for both sequences.
        """
        zero = (0,) * self.degree
        c = [self.add(self.one, self.one), x]
        s = [zero, self.one]
        for _ in range(count - 2):
            c.append(self.sub(self.mul(x, c[-1]), c[-2]))
            s.append(self.sub(self.mul(x, s[-1]), s[-2]))
        return list(zip(c, s))[:count]

    # -- sign -----------------------------------------------------------

    def _floors(self, p: int) -> tuple[int, ...]:
        """⌊2^p b_k⌋ for every basis element, from interval products at 2^q."""
        if p not in self._floor_cache:
            q = 2 * p
            while True:
                roots = [_root_floor(f, q) for f in self.polys]
                floors = []
                for basis in self.exponents:
                    lo = hi = 1 << q
                    for r, e in zip(roots, basis):
                        for _ in range(e):
                            ends = (lo * r, lo * (r + 1), hi * r, hi * (r + 1))
                            lo, hi = min(ends) >> q, -(-max(ends) >> q)
                    if lo >> (q - p) != hi >> (q - p):
                        break
                    floors.append(lo >> (q - p))
                else:
                    self._floor_cache[p] = tuple(floors)
                    break
                q *= 2
        return self._floor_cache[p]

    def sign(self, x: Element) -> int:
        """Sign of x in the embedding where each generator is 2cos(2π/k)."""
        if not any(x):
            return 0
        bound = sum(map(abs, x))
        p = 64
        while True:
            s = sum(map(mul, x, self._floors(p)))
            if abs(s) >= bound:
                return 1 if s > 0 else -1
            p *= 2

    def inverse(self, x: Element) -> tuple[Fraction, ...]:
        """x^-1, the solution y of x * y = 1."""
        return solve_square(self.matrix(x), self.one)

    # -- the scalar arithmetic of dd.extreme_rays -------------------------

    def block(self, row: tuple[Element, ...]) -> tuple[tuple[int, ...], ...]:
        """The D rational rows of ``row``: its entries' matrices side by side."""
        mats = [self.matrix(e) for e in row]
        return tuple(
            tuple(e for mat in mats for e in mat[k]) for k in range(self.degree)
        )

    def value(self, block: tuple[tuple[int, ...], ...], ray: tuple[int, ...]) -> Element:
        return tuple(sum(map(mul, r, ray)) for r in block)

    def signs(self, values: list[Element]) -> list[int]:
        return [self.sign(v) for v in values]

    def combine(
        self, vp: Element, gp: tuple[int, ...], vq: Element, gq: tuple[int, ...]
    ) -> tuple[int, ...]:
        """The ray ``vp * gq - vq * gp``, normalized.

        The ray is multiplied by an integer multiple u of e^-1, where e is
        its first nonzero entry, with u positive in the real embedding so
        the direction is kept; then divided by its integer content.
        """
        d = self.degree
        mp, mq = self.matrix(vp), self.matrix(vq)
        flat: list[int] = []
        for j in range(0, len(gp), d):
            a, b = gp[j:j + d], gq[j:j + d]
            flat += [
                sum(map(mul, rp, b)) - sum(map(mul, rq, a)) for rp, rq in zip(mp, mq)
            ]
        first = next(j for j in range(0, len(flat), d) if any(flat[j:j + d]))
        u = integer_direction(self.inverse(tuple(flat[first:first + d])))
        if self.sign(u) < 0:
            u = tuple(-e for e in u)
        mu = self.matrix(u)
        scaled = [
            sum(map(mul, row, flat[j:j + d]))
            for j in range(0, len(flat), d)
            for row in mu
        ]
        g = gcd(*scaled)
        return tuple(e // g for e in scaled)


def survey_field(m: int, n: int) -> tuple[Field, Element, Element]:
    """K_m·K_n, with 2cos(2π/m) and 2cos(2π/n) as elements of it.

    For a side s and the modulus k it divides, 2cos(2π/s) = C_(k/s)(2cos(2π/k)).
    """
    moduli = survey_moduli(m, n)
    field = Field(tuple(minimal_polynomial(k) for k in moduli))

    def cosine(side: int) -> Element:
        i = next(i for i, k in enumerate(moduli) if k % side == 0)
        return field.chebyshev(field.generator(i), moduli[i] // side + 1)[-1][0]

    return field, cosine(m), cosine(n)

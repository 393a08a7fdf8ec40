"""Exact arithmetic in the real cyclotomic fields of the polygon survey.

K_n = Q(2cos 2π/n) holds the vertices of an affine model of the regular
n-gon, so Hom(P_m, P_n) is cut out by rows over the compositum
K_m·K_n.  Since Q(ζ_m) ∩ Q(ζ_n) = Q(ζ_gcd(m,n)) (Washington,
*Introduction to Cyclotomic Fields*, GTM 83), K_m ∩ K_n = Q whenever
gcd(m, n) is 1, 2, 3, 4 or 6, and the compositum is then the tensor
product K_m ⊗ K_n.  Otherwise it is K_lcm(m,n), which contains both.

A :class:`Field` is generated by one or two such cosines, given by
their moduli k.  An element is the tuple of its integer (or
rational) coordinates over the monomial basis b_k, products of powers
of the generators below their degrees; b_0 = 1.  The generators are
algebraic integers, so the survey's rows and rays stay integral.

Zero tests are exact.  A sign is decided from the exact floors
F_k = ⌊2^P b_k⌋: the element Σ c_k b_k times 2^P differs from
Σ c_k F_k by less than Σ |c_k|, so a sum that clears that bound has the
element's sign; otherwise P doubles.  The floors are integer interval
products of the generators' enclosures by :func:`cos_bounds`, which
also rounds :func:`~hompoly.constructions.regular_ngon`, so neither
floating point nor ``Fraction`` is involved.

A field is also the scalar arithmetic :func:`hompoly.dd.extreme_rays`
runs on.  A row over K^d is given as its block: the D rational rows of
its entries' multiplication matrices laid side by side, so its value on
a ray, a flat integer vector of d·D coordinates, is one integer
matrix-vector product.

K is Galois over Q with an abelian group: the automorphism σ_a of K_k
sends 2cos(2π/k) to 2cos(2πa/k) = C_a(2cos(2π/k)) for 1 <= a <= k/2
with gcd(a, k) = 1, and a field of two generators takes one such a per
generator.  Each σ is an integer D×D matrix, so the product u of an
element e's D - 1 other conjugates is integral and e·u = N(e), its
integer norm.  A new ray is normalized by u = N(e)/e for its lead
entry e, with no linear solve; u is positive exactly when N(e) and e
have one sign, and is negated otherwise.  A start ray is normalized by
the unit of its value v on its own row instead, which makes v rational.
"""

from __future__ import annotations

from functools import cache, reduce
from itertools import product
from math import gcd, lcm, prod
from operator import add, mul

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


def survey_moduli(m: int, n: int) -> tuple[int, ...]:
    """The orders k whose fields K_k, tensored together, give K_m·K_n."""
    return (m, n) if gcd(m, n) in (1, 2, 3, 4, 6) else (lcm(m, n),)


def survey_degree(m: int, n: int) -> int:
    """Degree of K_m·K_n over Q: the product of its generators' degrees."""
    return prod(len(minimal_polynomial(k)) - 1 for k in survey_moduli(m, n))


@cache
def _pi_bounds(w: int) -> tuple[int, int]:
    """(p, e) with |2^w π - p| <= e, by Machin's formula; see :func:`cos_bounds`."""
    total = error = 0
    for n, weight in ((5, 16), (239, -4)):
        power, j = (1 << w) // n, 0
        while power:
            total += (-1) ** j * weight * (power // (2 * j + 1))
            power //= n * n
            j += 1
        error += abs(weight) * (j + 1)
    return total, error


def cos_bounds(a: int, b: int, q: int) -> tuple[int, int]:
    """Integers lo <= 2^q cos(2π a / b) <= hi with hi - lo <= 2, for b >= 1.

    Symmetry reduces the angle to θ = 2π a / b with a / b in [0, 1/4].
    The sums are integers at w = q + g bits, g = bitlength(q) + 8 >= 8.
    Term j of atan(1/n) = Σ (-1)^j / ((2j+1) n^(2j+1)) is taken as
    ⌊⌊2^w / n^(2j+1)⌋ / (2j+1)⌋, the exact floor of 2^w times it, up to
    the first J with ⌊2^w / n^(2J+1)⌋ = 0; the floors and the alternating
    tail leave it within J + 1 <= w/4 + 2, so Machin's π = 16 atan(1/5)
    - 4 atan(1/239) gives 2^w π within E <= 5w + 40 of p, and
    x = ⌊2a (p - E) / b⌋ has 0 <= x <= 2^w θ <= x + E + 1.  The Taylor
    terms T_j = 2^w y^(2j) / (2j)! of 2^w cos y, y = x / 2^w <= π/2, have
    ratios r_j = y² / ((2j-1) 2j) <= 1/2 for j >= 2; their floors
    t_0 = T_0, t_j = ⌊t_(j-1) r_j⌋ (one per step) keep 0 <= T_j - t_j <
    (T_(j-1) - t_(j-1)) r_j + 1 <= 2.  Summed up to the first J with
    t_J = 0, where T_J < 2 bounds the tail, they give s within e = 2J <=
    2w + 6 of 2^w cos y (t_1 <= 3 · 2^w, then the terms halve).  As cos
    decreases on [0, π] with |cos'| <= 1, 2^w cos θ lies in
    [s - e - E - 1, s + e], at most 9w + 53 < 2^g wide: shifted down g
    bits, outward, it is less than 3 wide.
    """
    a = min(a % b, -a % b)  # cos is even and 2π-periodic
    if 4 * a > b:  # cos(π - θ) = -cos θ
        lo, hi = cos_bounds(b - 2 * a, 2 * b, q)
        return -hi, -lo
    g = q.bit_length() + 8
    w = q + g
    pi, error = _pi_bounds(w)
    x2 = (2 * a * (pi - error) // b) ** 2
    term, s, j = 1 << w, 1 << w, 0
    while term:
        j += 1
        term = (term * x2 >> 2 * w) // ((2 * j - 1) * 2 * j)
        s += (-1) ** j * term
    return (s - 2 * j - error - 1) >> g, -(-(s + 2 * j) >> g)


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
    """The field generated by 2cos(2π/k), one generator per modulus k >= 3."""

    def __init__(self, moduli: tuple[int, ...]):
        self.moduli, self.polys = moduli, tuple(minimal_polynomial(k) for k in moduli)
        self.exponents = list(product(*(range(len(f) - 1) for f in self.polys)))
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
        # _structure[k][j*D + i] = _by_entry[k][j][i], the weight of x_i y_j in x*y
        self._structure = tuple(tuple(c for row in k for c in row) for k in self._by_entry)
        self.one: Element = (1,) + (0,) * (self.degree - 1)
        self._floor_cache: dict[int, tuple[int, ...]] = {}
        self.automorphisms = self._automorphisms()

    def _monomial(self, exps: tuple[int, ...]) -> Element:
        powers = [_reduced_power(f, e) for f, e in zip(self.polys, exps)]
        return tuple(
            prod(p[e] for p, e in zip(powers, basis)) for basis in self.exponents
        )

    def generator(self, index: int) -> Element:
        return self._monomial(tuple(int(i == index) for i in range(len(self.polys))))

    def _automorphisms(self) -> tuple[tuple[Element, ...], ...]:
        """The D - 1 automorphisms other than the identity, as integer matrices.

        σ takes generator i to C_(a_i) of it, for one unit 1 <= a_i <= k_i/2
        of each modulus; row r of its matrix holds coordinate r of σ(b_j)
        over the basis elements b_j.
        """
        units = [[a for a in range(1, k // 2 + 1) if gcd(a, k) == 1] for k in self.moduli]
        result = []
        for exps in product(*units):
            if all(a == 1 for a in exps):
                continue
            images = [
                self.chebyshev(self.generator(i), a + 1)[-1][0] for i, a in enumerate(exps)
            ]
            columns = [
                reduce(self.mul, (x for x, e in zip(images, basis) for _ in range(e)), self.one)
                for basis in self.exponents
            ]
            result.append(tuple(zip(*columns)))
        return tuple(result)

    # -- ring operations ------------------------------------------------

    def matrix(self, x: Element) -> tuple[Element, ...]:
        """Multiplication by x: column j holds the coordinates of x * b_j."""
        return tuple(
            tuple(sum(map(mul, x, col)) for col in row) for row in self._by_entry
        )

    def mul(self, x: Element, y: Element) -> Element:
        terms = [a * b for b in y for a in x]
        return tuple(sum(map(mul, k, terms)) for k in self._structure)

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
        q = 2 * p
        while p not in self._floor_cache:
            gens = [cos_bounds(1, k, q + 1) for k in self.moduli]  # 2^q·2cos(2π/k)
            ends = []
            for basis in self.exponents:
                lo = hi = 1 << q
                for (glo, ghi), e in zip(gens, basis):
                    for _ in range(e):
                        prods = (lo * glo, lo * ghi, hi * glo, hi * ghi)
                        lo, hi = min(prods) >> q, -(-max(prods) >> q)
                ends.append((lo >> (q - p), hi >> (q - p)))
            if all(lo == hi for lo, hi in ends):
                self._floor_cache[p] = tuple(lo for lo, _ in ends)
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

    def unit(self, x: Element) -> Element:
        """±N(x)/x for x != 0, with the sign that makes it positive.

        N(x)/x is the product u of x's D - 1 other conjugates, so it is
        integral, and x·u = N(x) is an integer, read off the constant
        coordinate.  u is positive in the real embedding exactly when
        N(x) and x have one sign; otherwise -u is returned.
        """
        conjugates = [tuple(sum(map(mul, row, x)) for row in s) for s in self.automorphisms]
        u = reduce(self.mul, conjugates) if conjugates else self.one
        norm = self.mul(x, u)[0]
        return u if (norm > 0) == (self.sign(x) > 0) else tuple(-c for c in u)

    def combine(
        self, vp: Element, gp: tuple[int, ...], vq: Element, gq: tuple[int, ...]
    ) -> tuple[int, ...]:
        """The ray ``vp * gq - vq * gp``, normalized.

        The ray is multiplied by u = ±N(e)/e from :meth:`unit`, where e is
        its first nonzero entry, and then divided by its integer content.
        The sign is + exactly when N(e) and e have one sign, which makes u
        positive, so the direction is kept; any positive rational multiple
        of e^-1 gives this one primitive vector.  The factor u goes into
        vp and vq before the entries are formed.
        """
        d = self.degree
        for j in range(0, len(gp), d):
            lead = self.sub(self.mul(vp, gq[j:j + d]), self.mul(vq, gp[j:j + d]))
            if any(lead):
                break
        u = self.unit(lead)
        # row k of [M_(u vp) | M_(-u vq)] against (b, a) is coordinate k of u (vp b - vq a)
        rows = [
            rp + rq
            for rp, rq in zip(
                self.matrix(self.mul(u, vp)), self.matrix(self.mul(u, tuple(-c for c in vq)))
            )
        ]
        flat: list[int] = []
        for j in range(0, len(gp), d):
            ba = gq[j:j + d] + gp[j:j + d]
            flat += [sum(map(mul, row, ba)) for row in rows]
        g = gcd(*flat)
        return tuple(e // g for e in flat)

    def normalize(self, block: tuple[Element, ...], ray: tuple[int, ...]) -> tuple[int, ...]:
        """``ray`` times the :meth:`unit` of its value v > 0 on ``block``, made
        primitive: the one such positive multiple with a rational value there."""
        u, d = self.unit(self.value(block, ray)), self.degree
        flat = [c for j in range(0, len(ray), d) for c in self.mul(u, ray[j:j + d])]
        g = gcd(*flat)
        return tuple(e // g for e in flat)


def survey_field(m: int, n: int) -> tuple[Field, Element, Element]:
    """K_m·K_n, with 2cos(2π/m) and 2cos(2π/n) as elements of it.

    For a side s and the modulus k it divides, 2cos(2π/s) = C_(k/s)(2cos(2π/k)).
    """
    moduli = survey_moduli(m, n)
    field = Field(moduli)

    def cosine(side: int) -> Element:
        i = next(i for i, k in enumerate(moduli) if k % side == 0)
        return field.chebyshev(field.generator(i), moduli[i] // side + 1)[-1][0]

    return field, cosine(m), cosine(n)

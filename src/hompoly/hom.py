"""The polytope of affine maps between two polytopes.

An affine map f(x) = Lx + t sends P into Q exactly when every vertex v
of P lands inside every facet inequality (a, b) of Q, and each such pair
contributes the linear constraint a . (Lv + t) <= b on the entries of
(L, t).  Those constraints, one per (vertex of P, facet of Q) pair, are
all facet-defining and pairwise distinct, so the construction here
attaches them as a trusted irredundant description; nothing is ever
filtered, and row order doubles as the facet labeling.

Hom coordinates on the space of maps are the entries of L in row-major
order followed by the entries of t.  ``hom_row`` writes each pair's row
in them, here, in the survey cone and in the coincidence matrices.

The constant map at an interior point of Q is strictly interior to the
hom-polytope, which gives the dimension formula dim P * dim Q + dim Q
without any vertex enumeration; ``build_hom`` wires that witness in.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import mul
from typing import Callable, Sequence

from .constructions import bipyramid, cross_polytope, cube, product, simplex
from .errors import GeometryError
from .linalg import Matrix, Vector, mat_rank, mat_vec, vec_add, zero_vector
from .polytope import Inequality, Polytope, contains_point


@dataclass(frozen=True)
class AffineMap:
    """An affine map x -> linear @ x + translation."""

    linear: Matrix
    translation: Vector

    @property
    def source_dim(self) -> int:
        return len(self.linear[0]) if self.linear else 0

    @property
    def target_dim(self) -> int:
        return len(self.translation)

    def apply(self, x: Vector) -> Vector:
        return vec_add(mat_vec(self.linear, x), self.translation)

    def to_point(self) -> Vector:
        """Hom coordinates: linear entries row-major, then translation."""
        flat = tuple(e for row in self.linear for e in row)
        return flat + self.translation

    @classmethod
    def from_point(cls, point: Vector, source_dim: int, target_dim: int) -> "AffineMap":
        if len(point) != source_dim * target_dim + target_dim:
            raise ValueError(
                f"hom point of length {len(point)} does not match "
                f"map shape {target_dim}x{source_dim}"
            )
        linear = tuple(
            tuple(point[i * source_dim + j] for j in range(source_dim))
            for i in range(target_dim)
        )
        return cls(linear, tuple(point[source_dim * target_dim:]))

    @classmethod
    def constant(cls, source_dim: int, value: Vector) -> "AffineMap":
        zero_row = zero_vector(source_dim)
        return cls(tuple(zero_row for _ in value), value)


@dataclass(frozen=True)
class FacetLabel:
    """Which (vertex of the source, facet of the target) pair cut a hom facet."""

    vertex_index: int
    facet_index: int


@dataclass(frozen=True)
class HomPolytope:
    """The polytope of affine maps sending ``source`` into ``target``."""

    source: Polytope
    target: Polytope
    polytope: Polytope
    labels: tuple[FacetLabel, ...]

    @property
    def dim(self) -> int:
        return self.polytope.dim

    @property
    def ambient_dim(self) -> int:
        return self.polytope.ambient_dim

    def map_at_vertex(self, index: int) -> AffineMap:
        return AffineMap.from_point(
            self.polytope.vertices[index],
            self.source.ambient_dim,
            self.target.ambient_dim,
        )

    def tight_masks(self, index: int) -> list[int]:
        """Per source vertex v, the mask of target facets tight at f(v).

        f is the map at hom vertex ``index``.  Hom facet (v, k) is tight
        at f exactly when target facet k is tight at f(v), so the masks
        are read off the vertex's hom facets and their labels, with no
        arithmetic.
        """
        masks = [0] * self.source.n_vertices
        for j in self.polytope.vertex_facet_indices(index):
            label = self.labels[j]
            masks[label.vertex_index] |= 1 << label.facet_index
        return masks


def hom_row(v: Sequence, a: Sequence, mul: Callable) -> tuple:
    """The coefficients of a . (Lv + t) in hom coordinates.

    mul(a_i, v_j) at L's entry (i, j), then a_i at t_i, so the row dotted
    with ``f.to_point()`` is a . f(v).  ``mul`` is the product of the
    entries' ring: rationals, number field blocks or polynomials.
    """
    return (*(mul(e, x) for e in a for x in v), *a)


def build_hom(p: Polytope, q: Polytope) -> HomPolytope:
    """Assemble the polytope of affine maps sending p into q.

    Both arguments must be full-dimensional in their ambient spaces
    (project lower-dimensional input onto a chart first); otherwise the
    space of maps is degenerate in these coordinates and none of the
    facet structure survives.  A hom or source dimension above
    ``_HOM_DIM_LIMIT`` is refused with a ``ValueError`` before anything
    is enumerated.
    """
    dp, dq = p.ambient_dim, q.ambient_dim
    _guard_side(
        dp,
        dq,
        f"hom of a {dp}-dimensional source into a {dq}-dimensional target",
        _HOM_DIM_LIMIT,
    )
    if p.dim < p.ambient_dim:
        raise GeometryError(
            "source polytope is not full-dimensional; project it onto a "
            "chart of its affine hull first"
        )
    if q.dim < q.ambient_dim:
        raise GeometryError(
            "target polytope is not full-dimensional; project it onto a "
            "chart of its affine hull first"
        )
    inequalities = [
        Inequality(hom_row(v, facet.normal, mul), facet.offset)
        for v in p.vertices
        for facet in q.inequalities
    ]
    labels = [FacetLabel(v, k) for v in range(p.n_vertices) for k in range(q.n_facets)]
    witness = AffineMap.constant(dp, q.interior_point).to_point()
    hom = Polytope.from_inequalities(
        inequalities,
        dp * dq + dq,
        assume_irredundant=True,
        interior_point=witness,
    )
    return HomPolytope(p, q, hom, tuple(labels))


def enumerate_vertex_maps(
    h: HomPolytope,
) -> list[tuple[AffineMap, frozenset[FacetLabel]]]:
    """All vertices of the hom-polytope as maps with their tight labels.

    Order follows the lexicographic order of the underlying hom points.
    """
    return [
        (
            h.map_at_vertex(index),
            frozenset(h.labels[j] for j in h.polytope.vertex_facet_indices(index)),
        )
        for index in range(h.polytope.n_vertices)
    ]


def is_vertex_map(f: AffineMap, h: HomPolytope) -> bool:
    """Whether the map is a vertex of the hom-polytope.

    The exact criterion: the map lies in the polytope and the normals of
    its tight constraints span the whole hom space.  Maps outside the
    polytope are rejected with an error rather than a False, since that
    is always a caller bug.
    """
    hit = contains_point(h.polytope, f.to_point())
    if hit.kind == "outside":
        raise GeometryError("map does not send the source into the target")
    if len(hit.active) < h.polytope.ambient_dim:
        return False
    normals = tuple(h.polytope.inequalities[j].normal for j in hit.active)
    return mat_rank(normals) == h.polytope.ambient_dim


@dataclass(frozen=True)
class IdentityCheckReport:
    """Outcome of one structural identity comparison."""

    kind: str
    lhs_description: str
    rhs_description: str
    lhs_f_vector: tuple[int, ...]
    rhs_f_vector: tuple[int, ...]

    @property
    def match(self) -> bool:
        return self.lhs_f_vector == self.rhs_f_vector


# Largest hom dimension build_hom accepts, and the tighter one the
# identity checks accept, since they enumerate every face of both sides;
# an identity side's source dimension is held to it too, since a
# zero-dimensional target leaves the hom dimension at 0 whatever the
# source.  simplex_power also bounds each side's vertex count
# |V(p)|^(n+1): at 4096 vertices (n = 2 on a 16-gon, n = 3 on an
# octagon) one check takes 5-7 s on a 2-vCPU Xeon box, and the 12-gon at
# n = 3 (20,736) ran past 30 s.
_HOM_DIM_LIMIT = 12
_IDENTITY_DIM_LIMIT = 8
_IDENTITY_VERTEX_LIMIT = 4096

IDENTITY_KINDS = ("simplex_power", "cube_bipyramid", "cube_cross_swap")


def _guard_side(
    source_dim: int, target_dim: int, description: str, limit: int = _IDENTITY_DIM_LIMIT
) -> None:
    """Refuse a hom side whose hom or source dimension is above ``limit``."""
    for what, dim in (
        ("lives in hom dimension", source_dim * target_dim + target_dim),
        ("has source dimension", source_dim),
    ):
        if dim > limit:
            raise ValueError(
                f"{description} {what} {dim}, above the "
                f"enumeration limit of {limit}; refusing"
            )


def hom_identity_check(
    kind: str,
    *,
    n: int | None = None,
    m: int | None = None,
    p: Polytope | None = None,
) -> IdentityCheckReport:
    """Check one of the known structural identities by comparing f-vectors.

    ``simplex_power``: maps from the n-simplex are free choices of n+1
    image points, so the hom-polytope against target p is the (n+1)-fold
    product of p.

    ``cube_bipyramid``: maps from the m-cube to the n-cube split across
    the target coordinates, and each coordinate factor is the bipyramid
    over the m-dimensional cross-polytope.

    ``cube_cross_swap``: for m = n, maps from the m-cube to the n-cross-
    polytope match maps from the (m-1)-cube to the (n+1)-cross-polytope.

    Each side must stay within hom dimension 8 and source dimension 8,
    and a ``simplex_power`` side within 4096 vertices (|V(p)|^(n+1));
    larger requests are refused before anything is built, with the
    exceeded value in the message.  The left side is built first.
    """
    if kind == "simplex_power":
        if n is None or p is None:
            raise ValueError("simplex_power needs n and a target polytope p")
        _guard_side(n, p.dim, f"hom(simplex({n}), target)")
        vertex_count = p.n_vertices ** (n + 1)
        if vertex_count > _IDENTITY_VERTEX_LIMIT:
            raise ValueError(
                f"hom(simplex({n}), target) has {p.n_vertices}^{n + 1} = "
                f"{vertex_count} vertices, above the vertex limit of "
                f"{_IDENTITY_VERTEX_LIMIT}; refusing"
            )
        lhs_description = f"maps from the {n}-simplex into the target"
        lhs = build_hom(simplex(n), p).polytope
        rhs_description = f"{n + 1}-fold product of the target"
        rhs = reduce(product, [p] * (n + 1))
    elif kind == "cube_bipyramid":
        if m is None or n is None:
            raise ValueError("cube_bipyramid needs source dim m and target dim n")
        _guard_side(m, n, f"hom(cube({m}), cube({n}))")
        lhs_description = f"maps from the {m}-cube into the {n}-cube"
        lhs = build_hom(cube(m), cube(n)).polytope
        rhs_description = f"{n}-fold product of the bipyramid over the {m}-cross-polytope"
        rhs = reduce(product, [bipyramid(cross_polytope(m))] * n)
    elif kind == "cube_cross_swap":
        if m is None or n is None:
            raise ValueError("cube_cross_swap needs source dim m and target dim n")
        _guard_side(m, n, f"hom(cube({m}), crosspolytope({n}))")
        _guard_side(m - 1, n + 1, f"hom(cube({m - 1}), crosspolytope({n + 1}))")
        if m < 2:
            raise ValueError("cube_cross_swap needs source dimension at least 2")
        lhs_description = f"maps from the {m}-cube into the {n}-cross-polytope"
        lhs = build_hom(cube(m), cross_polytope(n)).polytope
        rhs_description = f"maps from the {m - 1}-cube into the {n + 1}-cross-polytope"
        rhs = build_hom(cube(m - 1), cross_polytope(n + 1)).polytope
    else:
        raise ValueError(f"unknown identity kind {kind!r}")
    return IdentityCheckReport(kind, lhs_description, rhs_description, lhs.f_vector, rhs.f_vector)

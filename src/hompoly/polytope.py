"""Bounded rational polytopes with exact dual representations.

A :class:`Polytope` is given one side, its vertices or its inequalities,
and completes the other side on first use via the double description
engine.  Vertex/facet incidence is recorded as bitmasks (facet mask bit
v set means vertex v lies on that facet), which is the form the face
lattice, simplicity tests, and the map classification layers consume.

The given side is either checked or unchecked.  Checked input
(:meth:`Polytope.from_vertices`, :meth:`Polytope.from_inequalities`
with ``assume_irredundant``) is already irredundant and is kept
verbatim, which matters when inequality order encodes labels.
Unchecked input (:meth:`Polytope.from_points`,
:meth:`Polytope.from_inequalities` without ``assume_irredundant``) is
normalized by the same completion step: points that are not extreme
and duplicates are dropped and the vertices sorted; rows that do not
define a facet, or repeat one, are dropped and the rest keep their
order.  Both filters read the incidences the completion computes anyway.

Conversions require full-dimensional input.  Lower-dimensional point
sets must go through :func:`chart_project` first; the error says so.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Literal

from . import dd
from .errors import (
    GeometryError,
    InfeasibleError,
    LowerDimensionalError,
    OutsideHullError,
    UnboundedError,
)
from .linalg import (
    Vector,
    canonical_inequality,
    independent_rows,
    mat_inverse,
    mat_rank,
    solve_affine_hull,
    vec_dot,
    vec_sub,
)


@dataclass(frozen=True)
class Inequality:
    """One linear constraint ``normal . x <= offset``."""

    normal: Vector
    offset: Fraction

    def value(self, x: Vector) -> Fraction:
        return vec_dot(self.normal, x)

    def holds(self, x: Vector) -> bool:
        return self.value(x) <= self.offset

    def tight(self, x: Vector) -> bool:
        return self.value(x) == self.offset

    def canonical(self) -> "Inequality":
        normal, offset = canonical_inequality(self.normal, self.offset)
        return Inequality(normal, offset)


@dataclass(frozen=True)
class VRep:
    ambient_dim: int
    points: tuple[Vector, ...]


@dataclass(frozen=True)
class HRep:
    ambient_dim: int
    inequalities: tuple[Inequality, ...]


@dataclass(frozen=True)
class Face:
    """A face of the lattice: its dimension and incident index sets."""

    dim: int
    vertices: frozenset[int]
    facets: frozenset[int]


@dataclass(frozen=True)
class Containment:
    """Result of a point query: where the point sits and which facets are tight."""

    kind: Literal["interior", "boundary", "outside"]
    active: frozenset[int]


class AffineChart:
    """Exact coordinates on an affine subspace.

    Built from a basepoint and an independent set of direction vectors.
    ``project`` solves for the coordinates of an ambient point (raising
    :class:`OutsideHullError` when the point is not in the subspace) and
    ``lift`` maps chart coordinates back; the two are exact inverses.
    """

    def __init__(self, base: Vector, directions: tuple[Vector, ...]):
        self.base = base
        self.directions = directions
        self.ambient_dim = len(base)
        self.dim = len(directions)
        # pick self.dim independent coordinate rows of the direction
        # matrix (directions as columns) and invert that square block,
        # so projection is one matrix-vector product plus a lift check
        coordinate_rows = tuple(zip(*directions))
        picked = independent_rows(coordinate_rows)
        if len(picked) < self.dim:
            raise ValueError("chart directions are linearly dependent")
        self._rows = tuple(picked)
        block = tuple(coordinate_rows[r] for r in picked)
        self._inverse = mat_inverse(block)

    def project(self, x: Vector) -> Vector:
        diff = vec_sub(x, self.base)
        coords = tuple(
            sum(
                (self._inverse[i][k] * diff[self._rows[k]] for k in range(self.dim)),
                Fraction(0),
            )
            for i in range(self.dim)
        )
        if self.lift(coords) != x:
            raise OutsideHullError(
                "point does not lie in the chart's affine subspace"
            )
        return coords

    def lift(self, coords: Vector) -> Vector:
        out = list(self.base)
        for c, direction in zip(coords, self.directions, strict=True):
            if c:
                for i, e in enumerate(direction):
                    out[i] += c * e
        return tuple(out)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AffineChart)
            and self.base == other.base
            and self.directions == other.directions
        )

    def __repr__(self) -> str:
        return f"AffineChart(base={self.base!r}, dim={self.dim})"


def _affine_rank(points: Iterable[Vector]) -> int:
    pts = tuple(points)
    if not pts:
        return -1
    _, basis = solve_affine_hull(pts)
    return len(basis)


def barycenter(points: tuple[Vector, ...]) -> Vector:
    """Coordinate-wise average of a nonempty point tuple."""
    n = len(points)
    return tuple(
        sum((p[i] for p in points), Fraction(0)) / n
        for i in range(len(points[0]))
    )


def _vertices_of_system(
    inequalities: tuple[Inequality, ...], ambient_dim: int
) -> list[tuple[Vector, int]]:
    """Sorted vertices with activity masks over the given inequality order.

    Requires the feasible set to be a full-dimensional polytope; bounded
    lower-dimensional sets raise :class:`LowerDimensionalError`.
    """
    if ambient_dim == 0:
        # the only candidate point is the empty tuple; constraints reduce
        # to their offsets
        if any(iq.offset < 0 for iq in inequalities):
            raise InfeasibleError()
        mask = 0
        for j, iq in enumerate(inequalities):
            if iq.offset == 0:
                mask |= 1 << j
        return [((), mask)]
    if not inequalities:
        # the empty system is all of R^d
        raise UnboundedError(tuple(Fraction(int(i == 0)) for i in range(ambient_dim)))
    normals = [iq.normal for iq in inequalities]
    offsets = [iq.offset for iq in inequalities]
    found = dd.enumerate_vertices(normals, offsets)
    found.sort(key=lambda item: item[0])
    rank = _affine_rank(p for p, _ in found)
    if rank < ambient_dim:
        raise LowerDimensionalError(rank, ambient_dim)
    return found


def _facets_of_hull(
    points: tuple[Vector, ...], ambient_dim: int
) -> list[tuple[Inequality, int]]:
    """Sorted facet inequalities of conv(points) with point-activity masks.

    Facet normals come out primitive integer via polarity around the
    point average, which is interior because the hull is required to be
    full-dimensional.  Mask bit i refers to input point i, so redundant
    input points are handled and reported faithfully; a point equal to
    the center gives the dual row ``0 . y <= 1``, which is never tight.
    """
    if ambient_dim == 0:
        return []
    rank = _affine_rank(points)
    if rank < ambient_dim:
        raise LowerDimensionalError(rank, ambient_dim)
    center = barycenter(points)
    dual_vertices = dd.enumerate_vertices(
        [vec_sub(p, center) for p in points], [Fraction(1)] * len(points)
    )
    results = [
        (Inequality(*canonical_inequality(y, 1 + vec_dot(y, center))), mask)
        for y, mask in dual_vertices
    ]
    results.sort(key=lambda item: (item[0].normal, item[0].offset))
    return results


def vrep_to_hrep(v: VRep) -> HRep:
    """Facet description of the convex hull of a full-dimensional point set."""
    facets = _facets_of_hull(v.points, v.ambient_dim)
    return HRep(v.ambient_dim, tuple(iq for iq, _ in facets))


def hrep_to_vrep(h: HRep) -> VRep:
    """Vertex description of a bounded full-dimensional inequality system."""
    found = _vertices_of_system(h.inequalities, h.ambient_dim)
    return VRep(h.ambient_dim, tuple(p for p, _ in found))


def _transpose(masks: Iterable[int], width: int) -> tuple[int, ...]:
    """Transpose an incidence matrix given as bitmask rows of ``width`` bits."""
    out = [0] * width
    for j, mask in enumerate(masks):
        while mask:
            low = mask & -mask
            out[low.bit_length() - 1] |= 1 << j
            mask ^= low
    return tuple(out)


def _facet_rows(
    inequalities: tuple[Inequality, ...], masks: tuple[int, ...], n_vertices: int
) -> list[int]:
    """Indices of the facet-defining rows, the first of each canonical class.

    ``masks[j]`` is the vertex set of row j.  Every facet of a
    full-dimensional polytope is among the rows of any inequality
    description of it, and the facets are its maximal proper faces, so a
    row defines a facet exactly when its vertex set is nonempty, proper
    and not strictly inside another row's.
    """
    full = (1 << n_vertices) - 1
    distinct = set(masks)
    maximal = {
        m for m in distinct
        if m and m != full and not any(m != o and m & o == m for o in distinct)
    }
    seen: set[tuple[Vector, Fraction]] = set()
    keep = []
    for j, iq in enumerate(inequalities):
        if masks[j] in maximal:
            key = canonical_inequality(iq.normal, iq.offset)
            if key not in seen:
                seen.add(key)
                keep.append(j)
    return keep


def _extreme_points(
    points: tuple[Vector, ...],
    point_masks: tuple[int, ...],
    facets: tuple[Inequality, ...],
) -> list[int]:
    """First index of each distinct extreme point.

    A point is extreme exactly when the normals of the facets through it
    have full rank.
    """
    d = len(points[0])
    first: dict[Vector, int] = {}
    for i, p in enumerate(points):
        first.setdefault(p, i)
    out = []
    for i in first.values():
        active = tuple(
            iq.normal for j, iq in enumerate(facets) if point_masks[i] >> j & 1
        )
        if len(active) >= d and mat_rank(active) == d:
            out.append(i)
    return out


class Polytope:
    """A bounded convex polytope over the rationals.

    One side is given: the vertices or the inequalities, each either
    checked (already irredundant, kept verbatim) or unchecked (to be
    normalized).  A single completion step fills in the other side and
    the facet masks, normalizing unchecked input on the way, and every
    accessor that needs something not yet known runs it.  Instances are
    immutable in intent: completion only fills in and caches.  Use the
    ``from_*`` constructors; the bare initializer is for internal
    assembly where all invariants are already established.
    """

    def __init__(
        self,
        ambient_dim: int,
        *,
        vertices: tuple[Vector, ...] | None = None,
        inequalities: tuple[Inequality, ...] | None = None,
        facet_masks: tuple[int, ...] | None = None,
        checked: bool = True,
        interior_point: Vector | None = None,
        chart: AffineChart | None = None,
    ):
        self.ambient_dim = ambient_dim
        self.chart = chart
        self._vertices = vertices
        self._inequalities = inequalities
        self._facet_masks = facet_masks
        self._checked = checked
        self._interior_point = interior_point
        self._dim: int | None = None
        self._vertex_masks: tuple[int, ...] | None = None
        self._faces: tuple[Face, ...] | None = None

    # -- constructors -------------------------------------------------

    @classmethod
    def from_vertices(cls, points: Iterable[Vector], *, chart: AffineChart | None = None) -> "Polytope":
        """Polytope from points the caller asserts are exactly its vertices.

        Order is preserved verbatim.  Use :meth:`from_points` when the
        set may contain redundant points.
        """
        pts = tuple(tuple(Fraction(e) for e in p) for p in points)
        if not pts:
            raise GeometryError("a polytope needs at least one point")
        return cls(len(pts[0]), vertices=pts, chart=chart)

    @classmethod
    def from_points(cls, points: Iterable[Vector], *, chart: AffineChart | None = None) -> "Polytope":
        """Polytope from an arbitrary finite point set.

        Redundant points are dropped on first completion; the stored
        vertex order is lexicographic.
        """
        pts = tuple(tuple(Fraction(e) for e in p) for p in points)
        if not pts:
            raise GeometryError("a polytope needs at least one point")
        return cls(len(pts[0]), vertices=pts, checked=False, chart=chart)

    @classmethod
    def from_inequalities(
        cls,
        inequalities: Iterable[Inequality],
        ambient_dim: int,
        *,
        assume_irredundant: bool = False,
        interior_point: Vector | None = None,
    ) -> "Polytope":
        """Polytope from a linear inequality system.

        With ``assume_irredundant`` the rows are trusted to be exactly
        the facets and are kept verbatim (callers that label rows rely
        on this); otherwise non-facet-defining and duplicate rows are
        dropped on first completion, keeping original order.
        """
        return cls(
            ambient_dim,
            inequalities=tuple(inequalities),
            checked=assume_irredundant,
            interior_point=interior_point,
        )

    # -- completion ---------------------------------------------------

    def _complete(self) -> None:
        """Fill in the missing side and the facet masks; normalize unchecked input."""
        if self._vertices is None:
            assert self._inequalities is not None
            found = _vertices_of_system(self._inequalities, self.ambient_dim)
            self._vertices = tuple(p for p, _ in found)
            masks = _transpose((m for _, m in found), len(self._inequalities))
            if not self._checked:
                keep = _facet_rows(self._inequalities, masks, len(found))
                self._inequalities = tuple(self._inequalities[j] for j in keep)
                masks = tuple(masks[j] for j in keep)
        else:
            points = self._vertices
            facets = _facets_of_hull(points, self.ambient_dim)
            self._inequalities = tuple(iq for iq, _ in facets)
            masks = tuple(m for _, m in facets)
            if not self._checked:
                point_masks = _transpose(masks, len(points))
                kept = sorted(
                    _extreme_points(points, point_masks, self._inequalities),
                    key=points.__getitem__,
                )
                self._vertices = tuple(points[i] for i in kept)
                masks = _transpose((point_masks[i] for i in kept), len(masks))
        self._facet_masks = masks
        self._checked = True

    # -- core accessors -----------------------------------------------

    @property
    def vertices(self) -> tuple[Vector, ...]:
        if self._vertices is None or not self._checked:
            self._complete()
        assert self._vertices is not None
        return self._vertices

    @property
    def inequalities(self) -> tuple[Inequality, ...]:
        if self._inequalities is None or not self._checked:
            self._complete()
        assert self._inequalities is not None
        return self._inequalities

    @property
    def facet_masks(self) -> tuple[int, ...]:
        """Per-facet vertex incidence bitmasks (bit v = vertex v on facet)."""
        if self._facet_masks is None:
            self._complete()
        assert self._facet_masks is not None
        return self._facet_masks

    @property
    def vertex_masks(self) -> tuple[int, ...]:
        """Per-vertex facet incidence bitmasks (bit j = facet j at vertex)."""
        if self._vertex_masks is None:
            self._vertex_masks = _transpose(self.facet_masks, len(self.vertices))
        return self._vertex_masks

    @property
    def dim(self) -> int:
        """Dimension of the affine hull.

        When only an inequality description is known and a strictly
        interior point was provided at construction, the dimension is
        the ambient dimension without any vertex enumeration; that check
        is exact and cheap, and the hom builder relies on it.
        """
        if self._dim is None:
            if self._vertices is not None:
                # unchecked points span the same affine hull as their vertices
                self._dim = _affine_rank(self._vertices)
            elif (
                self._interior_point is not None
                and self._inequalities is not None
                and all(
                    iq.value(self._interior_point) < iq.offset
                    for iq in self._inequalities
                )
            ):
                self._dim = self.ambient_dim
            else:
                self._dim = _affine_rank(self.vertices)
        return self._dim

    @property
    def vrep(self) -> VRep:
        return VRep(self.ambient_dim, self.vertices)

    @property
    def hrep(self) -> HRep:
        return HRep(self.ambient_dim, self.inequalities)

    @property
    def interior_point(self) -> Vector:
        """A strictly interior point (the vertex average unless preset)."""
        if self._interior_point is None:
            self._interior_point = barycenter(self.vertices)
        return self._interior_point

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_facets(self) -> int:
        return len(self.inequalities)

    # -- derived structure ---------------------------------------------

    @property
    def faces(self) -> tuple[Face, ...]:
        if self._faces is None:
            self._faces = _face_lattice(self)
        return self._faces

    @property
    def f_vector(self) -> tuple[int, ...]:
        counts = [0] * (self.dim + 1)
        for face in self.faces:
            if face.dim >= 0:
                counts[face.dim] += 1
        return tuple(counts)

    def facet_vertex_indices(self, j: int) -> tuple[int, ...]:
        mask = self.facet_masks[j]
        return tuple(v for v in range(len(self.vertices)) if mask >> v & 1)

    def vertex_facet_indices(self, v: int) -> tuple[int, ...]:
        mask = self.vertex_masks[v]
        return tuple(j for j in range(len(self.inequalities)) if mask >> j & 1)

    def __repr__(self) -> str:
        parts = [f"ambient_dim={self.ambient_dim}"]
        # unchecked input may still hold redundant points or rows
        if self._checked and self._vertices is not None:
            parts.append(f"n_vertices={len(self._vertices)}")
        if self._checked and self._inequalities is not None:
            parts.append(f"n_inequalities={len(self._inequalities)}")
        return "Polytope(" + ", ".join(parts) + ")"


def polytope_dim(p: Polytope) -> int:
    """Dimension of the affine hull of the polytope."""
    return p.dim


def contains_point(p: Polytope, x: Vector) -> Containment:
    """Locate a point relative to the polytope: interior, boundary, outside.

    ``active`` lists the tight facet indices for boundary points and is
    empty otherwise.
    """
    point = tuple(Fraction(e) for e in x)
    tight: list[int] = []
    for j, iq in enumerate(p.inequalities):
        value = iq.value(point)
        if value > iq.offset:
            return Containment("outside", frozenset())
        if value == iq.offset:
            tight.append(j)
    if tight:
        return Containment("boundary", frozenset(tight))
    return Containment("interior", frozenset())


def is_simple_vertex(p: Polytope, vertex: int | Vector) -> bool:
    """Whether exactly ``dim`` facets meet at the vertex."""
    if isinstance(vertex, int):
        index = vertex
    else:
        target = tuple(Fraction(e) for e in vertex)
        index = p.vertices.index(target)
    return len(p.vertex_facet_indices(index)) == p.dim


def _face_lattice(p: Polytope) -> tuple[Face, ...]:
    """All faces, graded top-down from the vertex-facet incidences alone.

    The facets of a face G of dimension k >= 1 are exactly the
    inclusion-maximal sets among the nonempty intersections of G with
    the facets of P other than G itself (Kaibel and Pfetsch, "Computing
    the face lattice of a polytope from its vertex-facet incidences",
    Comput. Geom. 23, 2002).  Starting from the full vertex set at level
    ``p.dim``, each level is the union of the facets of the level above,
    down to the vertices at level 0; the empty face is added with
    dimension -1 and every facet incident.  No arithmetic is done on
    coordinates, so the grading holds over any ordered field.
    """
    masks = p.facet_masks
    n = len(p.vertices)
    faces = [Face(-1, frozenset(), frozenset(range(len(masks))))]
    level = {(1 << n) - 1}
    for dim in range(p.dim, -1, -1):
        below: set[int] = set()
        for face in level:
            incident = []
            candidates = set()
            for j, fm in enumerate(masks):
                sub = face & fm
                if sub == face:
                    incident.append(j)
                elif sub:
                    candidates.add(sub)
            verts = frozenset(v for v in range(n) if face >> v & 1)
            faces.append(Face(dim, verts, frozenset(incident)))
            if dim == 0:
                continue
            # largest first, so a candidate need only be tested against
            # the kept sets, which are the facets of this face so far
            kept: list[int] = []
            for sub in sorted(candidates, key=int.bit_count, reverse=True):
                if all(sub & big != sub for big in kept):
                    kept.append(sub)
            below.update(kept)
        level = below
    faces.sort(key=lambda f: (f.dim, sorted(f.vertices)))
    return tuple(faces)


def face_lattice(p: Polytope) -> tuple[Face, ...]:
    """Graded tuple of all faces, from the empty face to the polytope."""
    return p.faces


def f_vector(p: Polytope) -> tuple[int, ...]:
    """Face counts by dimension, from vertices up to the polytope itself."""
    return p.f_vector


def chart_project(
    points: tuple[Vector, ...]
) -> tuple[tuple[Vector, ...], AffineChart]:
    """Project points onto exact coordinates of their affine hull.

    The chart basepoint is the first point and the basis is the greedy
    difference-vector basis, so the projection is deterministic and the
    first point maps to the origin.  Lifting the projected points through
    the returned chart reproduces the input exactly.
    """
    pts = tuple(tuple(Fraction(e) for e in p) for p in points)
    if not pts:
        raise GeometryError("cannot build a chart from no points")
    base, basis = solve_affine_hull(pts)
    chart = AffineChart(base, basis)
    return tuple(chart.project(p) for p in pts), chart


def canonicalize_vertices(points: tuple[Vector, ...]) -> tuple[Vector, ...]:
    """Extreme points of conv(points), sorted lexicographically."""
    return Polytope.from_points(points).vertices

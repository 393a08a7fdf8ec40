"""Bounded rational polytopes with exact dual representations.

A :class:`Polytope` is given one side, its vertices or its inequalities,
and completes the other side on first use via the double description
engine.  That is the only conversion route: the facets of a point set
are ``Polytope.from_points(points).inequalities`` and the vertices of
an inequality system are ``Polytope.from_inequalities(rows, d).vertices``.
Vertex/facet incidence is recorded as bitmasks (facet mask bit v set
means vertex v lies on that facet), which is the form the face lattice,
simplicity tests, and the map classification layers consume.  The
dimension, the faces and the f-vector are properties of the polytope.

The given side is either checked or unchecked.  Checked input
(:meth:`Polytope.from_vertices`, :meth:`Polytope.from_inequalities`
with ``assume_irredundant``) is already irredundant and is kept
verbatim, which matters when inequality order encodes labels.
Unchecked input (:meth:`Polytope.from_points`,
:meth:`Polytope.from_inequalities` without ``assume_irredundant``) is
normalized by the same completion step: points that are not extreme
and duplicates are dropped and the vertices sorted; rows that do not
define a facet, or repeat one, are dropped and the rest keep their
order.  Both filters are one rule, :func:`_first_maximal`, on the
incidences the completion computes anyway: the first of each maximal
mask, a row's vertex set or a point's facet set.

Both passes call :func:`hompoly.dd.enumerate_vertices`, which gives
each vertex as the primitive integer ray (x0, x0 v) it finds.  The H->V
pass hands it the rows in the lexicographic order of their homogenized
rows (b, -a): insertion order governs how large the double description
grows, and on the hom systems this order needs far fewer steps than
input order.  The masks it returns are mapped back to input numbering,
since rows may be labels (a hom's rows are its (vertex, facet) pairs)
and every incidence consumer reads bit j as input row j.  The polytope
keeps the sorted rays as :attr:`Polytope.vertex_rays` and builds the
``Fraction`` vertices from them only when they are read; counts, masks
and the face lattice never need them.  The V->H pass keeps input order
and reads each facet straight off its polar ray.

Completion requires full-dimensional input.  Lower-dimensional point
sets must go through :func:`chart_project` first; the error says so.
For an inequality system the error names a row that is tight at every
vertex instead.
:func:`chart_project` returns the chart beside the projected points,
and the chart lifts them back to the original space.  A chart's
directions are the reduced row echelon basis of the hull's directions,
so the chart is fixed by the hull and its basepoint, and a point's
coordinates are its entries at the pivot columns minus the basepoint's.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
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
    _integer_row,
    canonical_inequality,
    mat_rank,
    rref,
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

    def tight(self, x: Vector) -> bool:
        return self.value(x) == self.offset

    def canonical(self) -> "Inequality":
        normal, offset = canonical_inequality(self.normal, self.offset)
        return Inequality(normal, offset)


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
    """Exact pivot coordinates on an affine subspace.

    Built from a basepoint and direction vectors that span the
    subspace's directions; they may be dependent.  The chart keeps the
    nonzero rows of their reduced row echelon form as ``directions`` and
    those rows' pivot columns as ``pivots``, so it depends only on the
    subspace and the basepoint.  Direction i is 1 at pivot i and 0 at
    every other pivot, so the coordinates of a point x of the subspace
    are ``x[c] - base[c]`` at the pivots c.  ``project`` reads them off
    and checks that ``lift`` gives x back, raising
    :class:`OutsideHullError` when x is not in the subspace; ``lift``
    maps chart coordinates back, and the two are exact inverses.
    """

    def __init__(self, base: Vector, directions: Iterable[Vector]):
        rows, self.pivots = rref(directions)
        self.base = base
        self.directions = tuple(rows)
        self.ambient_dim = len(base)
        self.dim = len(rows)

    def project(self, x: Vector) -> Vector:
        coords = tuple(x[c] - self.base[c] for c in self.pivots)
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

    def __repr__(self) -> str:
        return f"AffineChart(base={self.base!r}, dim={self.dim})"


def _affine_rank(points: Iterable[Vector]) -> int:
    _, basis = solve_affine_hull(tuple(points))
    return len(basis)


def barycenter(points: tuple[Vector, ...]) -> Vector:
    """Coordinate-wise average of a nonempty point tuple."""
    n = len(points)
    return tuple(
        sum((p[i] for p in points), Fraction(0)) / n
        for i in range(len(points[0]))
    )


def _ray_point(ray: tuple[int, ...]) -> Vector:
    """The point v of the ray (x0, x0 v), x0 > 0."""
    x0 = ray[0]
    return tuple(Fraction(e, x0) for e in ray[1:])


def _point_ray(point: Vector) -> tuple[int, ...]:
    """The primitive integer ray (x0, x0 v) of the point v, x0 > 0.

    x0 is the lcm of the denominators, which leaves no common factor.
    """
    entries, x0 = _integer_row(point)
    return (x0, *entries)


def _vertices_of_system(
    inequalities: tuple[Inequality, ...], ambient_dim: int
) -> list[tuple[tuple[int, ...], int]]:
    """Sorted vertex rays with activity masks over the given inequality order.

    Each vertex v is the engine's primitive integer ray (x0, x0 v),
    x0 > 0.  The engine takes the rows in the lexicographic order of
    their homogenized rows (b, -a), which keeps the double description's
    intermediate cones small on the hom systems, and each returned mask
    is mapped back so that bit j still means input row j; labelled rows
    and facet masks are read in input numbering.  The rays are then
    sorted lexicographically by exact integer keys, the entries after x0
    times L // x0 for the lcm L of all x0: each vertex's coordinates over
    one common denominator, which order the vertices as the rationals do.

    Requires the feasible set to be a full-dimensional polytope; bounded
    lower-dimensional sets raise :class:`LowerDimensionalError`.  A
    bounded feasible set is lower-dimensional exactly when some row is
    tight at every vertex (an implicit equality), which the activity
    masks show; the error names the first such input row, and the hull
    dimension is computed only for the message.  The direction an
    :class:`UnboundedError` carries is a recession direction, but which
    one may depend on the engine's row order.
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
        return [((1,), mask)]
    if not inequalities:
        # the empty system is all of R^d
        raise UnboundedError(tuple(Fraction(int(i == 0)) for i in range(ambient_dim)))
    order = sorted(
        range(len(inequalities)),
        key=lambda j: (inequalities[j].offset, *(-e for e in inequalities[j].normal)),
    )
    found = dd.enumerate_vertices(
        [inequalities[j].normal for j in order],
        [inequalities[j].offset for j in order],
    )
    bit_of = [1 << j for j in order]
    found = [(ray, sum(bit_of[i] for i in dd._bits(mask))) for ray, mask in found]
    x0s = {ray[0] for ray, _ in found}
    common = lcm(*x0s)
    # integer keys compare in C; each distinct x0's scale is divided out once
    scale = {x0: common // x0 for x0 in x0s}

    def key(item: tuple[tuple[int, ...], int]) -> list[int]:
        ray = item[0]
        s = scale[ray[0]]
        return [e * s for e in ray[1:]]

    found.sort(key=key)
    implicit = -1
    for _, mask in found:
        implicit &= mask
    if implicit:
        # the rays (x0, x0 v) span one more dimension than the points v
        raise LowerDimensionalError(
            mat_rank([ray for ray, _ in found]) - 1,
            ambient_dim,
            dd._bits(implicit)[0],
        )
    return found


def _facets_of_hull(
    points: tuple[Vector, ...], ambient_dim: int
) -> list[tuple[Inequality, int]]:
    """Sorted facet inequalities of conv(points) with point-activity masks.

    Facet normals come out primitive integer via polarity around the
    point average c, which is interior because the hull is required to
    be full-dimensional.  A vertex y of the polar comes as the ray
    (x0, x0 y), and its facet y . x <= 1 + y . c is read off the ray as
    x0 y . x <= x0 + x0 y . c, with no division.  Mask bit i refers to
    input point i, so redundant input points are handled and reported
    faithfully; a point equal to the center gives the dual row
    ``0 . y <= 1``, which is never tight.
    The polar system is unbounded exactly when the points do not span,
    so that is how a lower-dimensional hull shows.
    """
    if ambient_dim == 0:
        return []
    center = barycenter(points)
    try:
        dual_vertices = dd.enumerate_vertices(
            [vec_sub(p, center) for p in points], [Fraction(1)] * len(points)
        )
    except UnboundedError:
        raise LowerDimensionalError(_affine_rank(points), ambient_dim) from None
    results = []
    for ray, mask in dual_vertices:
        normal = ray[1:]
        offset = ray[0] + vec_dot(normal, center)
        results.append((Inequality(*canonical_inequality(normal, offset)), mask))
    results.sort(key=lambda item: (item[0].normal, item[0].offset))
    return results


def _transpose(masks: Iterable[int], width: int) -> tuple[int, ...]:
    """Transpose an incidence matrix given as bitmask rows of ``width`` bits."""
    out = [0] * width
    for j, mask in enumerate(masks):
        bit = 1 << j
        for i in dd._bits(mask):
            out[i] |= bit
    return tuple(out)


def _first_maximal(masks: tuple[int, ...]) -> list[int]:
    """The first index of each inclusion-maximal mask, in index order.

    This is the redundancy filter of both sides.  For rows, ``masks[j]``
    is row j's vertex set: every facet of a full-dimensional polytope is
    among the rows of any description of it, and the facets are its
    maximal proper faces, so a row defines a facet exactly when its
    vertex set is not strictly inside another row's.  For points,
    ``masks[i]`` is point i's facet set: a vertex is the only point of
    the face its facets cut out, and any other point lies in a face with
    a vertex on more facets, so a point is extreme exactly when no other
    point lies on a strict superset of its facets.  Among the maximal
    masks, equal masks mean one facet, which has one supporting
    hyperplane, or one vertex, so the mask is the key that drops repeats.
    """
    kept: list[int] = []
    # largest first: a strict superset has more bits, so it is kept already,
    # and a repeated mask lies inside its first copy, so it is dropped
    for m in sorted(masks, key=int.bit_count, reverse=True):
        for big in kept:
            if m & big == m:
                break
        else:
            kept.append(m)
    maximal = set(kept)
    keep = []
    for i, mask in enumerate(masks):
        if mask in maximal:
            maximal.remove(mask)
            keep.append(i)
    return keep


class Polytope:
    """A bounded convex polytope over the rationals.

    One side is given: the vertices or the inequalities, each either
    checked (already irredundant, kept verbatim) or unchecked (to be
    normalized).  A single completion step fills in the other side and
    the facet masks, normalizing unchecked input on the way, and every
    accessor that needs something not yet known runs it.  Completing
    the vertex side keeps the engine's integer rays; the ``Fraction``
    vertices are built from them when first read.  Instances are
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
    ):
        self.ambient_dim = ambient_dim
        self._vertices = vertices
        self._rays: tuple[tuple[int, ...], ...] | None = None
        self._inequalities = inequalities
        self._facet_masks = facet_masks
        self._checked = checked
        self._interior_point = interior_point
        self._dim: int | None = None
        self._vertex_masks: tuple[int, ...] | None = None
        self._lattice: tuple[tuple[int, int], ...] | None = None
        self._faces: tuple[Face, ...] | None = None

    # -- constructors -------------------------------------------------

    @classmethod
    def from_vertices(cls, points: Iterable[Vector]) -> "Polytope":
        """Polytope from points the caller asserts are exactly its vertices.

        Order is preserved verbatim.  Use :meth:`from_points` when the
        set may contain redundant points.
        """
        pts = tuple(tuple(Fraction(e) for e in p) for p in points)
        if not pts:
            raise GeometryError("a polytope needs at least one point")
        return cls(len(pts[0]), vertices=pts)

    @classmethod
    def from_points(cls, points: Iterable[Vector]) -> "Polytope":
        """Polytope from an arbitrary finite point set.

        Redundant points are dropped on first completion; the stored
        vertex order is lexicographic.
        """
        pts = tuple(tuple(Fraction(e) for e in p) for p in points)
        if not pts:
            raise GeometryError("a polytope needs at least one point")
        return cls(len(pts[0]), vertices=pts, checked=False)

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
            self._rays = tuple(r for r, _ in found)
            vertex_masks = tuple(m for _, m in found)
            masks = _transpose(vertex_masks, len(self._inequalities))
            if self._checked:
                # every row is kept, so these are the vertex masks already
                self._vertex_masks = vertex_masks
            else:
                # a point has no facets; above dimension 0 an empty mask is
                # never maximal, and a full one was refused as an equality
                keep = _first_maximal(masks) if self.ambient_dim else []
                self._inequalities = tuple(self._inequalities[j] for j in keep)
                masks = tuple(masks[j] for j in keep)
        else:
            points = self._vertices
            facets = _facets_of_hull(points, self.ambient_dim)
            self._inequalities = tuple(iq for iq, _ in facets)
            masks = tuple(m for _, m in facets)
            if not self._checked:
                point_masks = _transpose(masks, len(points))
                kept = sorted(_first_maximal(point_masks), key=points.__getitem__)
                self._vertices = tuple(points[i] for i in kept)
                masks = _transpose((point_masks[i] for i in kept), len(masks))
        self._facet_masks = masks
        self._checked = True

    # -- core accessors -----------------------------------------------

    def _vertex_side(self) -> None:
        """Complete unless the vertices are known, as points or as rays."""
        if not self._checked or self._vertices is None and self._rays is None:
            self._complete()

    @property
    def vertices(self) -> tuple[Vector, ...]:
        if self._vertices is None or not self._checked:
            self._vertex_side()
            if self._vertices is None:
                assert self._rays is not None
                self._vertices = tuple(map(_ray_point, self._rays))
        return self._vertices

    @property
    def vertex_rays(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex v as the primitive integer ray (x0, x0 v), x0 > 0.

        In vertex order.  For a polytope given by inequalities they are
        the engine's own rays; for one given by its vertices they are
        derived from them.
        """
        if self._rays is None:
            self._vertex_side()
            if self._rays is None:
                self._rays = tuple(map(_point_ray, self._vertices))
        return self._rays

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
            self._vertex_masks = _transpose(self.facet_masks, self.n_vertices)
        return self._vertex_masks

    @property
    def dim(self) -> int:
        """Dimension of the affine hull.

        Once the facet masks are known it is the ambient dimension,
        because completion refuses lower-dimensional input.  When only an
        inequality description is known and a strictly interior point
        was provided at construction, it is the ambient dimension without
        any vertex enumeration; that check is exact and cheap, and the
        hom builder relies on it.
        """
        if self._dim is None:
            if self._facet_masks is not None:
                self._dim = self.ambient_dim
            elif self._vertices is not None:
                # unchecked points span the same affine hull as their vertices
                self._dim = _affine_rank(self._vertices)
            elif self._interior_point is not None and all(
                iq.value(self._interior_point) < iq.offset
                for iq in self._inequalities or ()
            ):
                self._dim = self.ambient_dim
            else:
                self._complete()
                self._dim = self.ambient_dim
        return self._dim

    @property
    def interior_point(self) -> Vector:
        """A strictly interior point (the vertex average unless preset)."""
        if self._interior_point is None:
            self._interior_point = barycenter(self.vertices)
        return self._interior_point

    @property
    def n_vertices(self) -> int:
        self._vertex_side()
        return len(self._rays if self._vertices is None else self._vertices)

    @property
    def n_facets(self) -> int:
        return len(self.inequalities)

    # -- derived structure ---------------------------------------------

    def _graded(self) -> tuple[tuple[int, int], ...]:
        """The face lattice as ``(dim, vertex mask)`` pairs, computed once."""
        if self._lattice is None:
            self._lattice = _face_lattice(
                self.facet_masks, self.n_vertices, self.dim
            )
        return self._lattice

    @property
    def faces(self) -> tuple[Face, ...]:
        """All faces as :class:`Face` objects, by dimension, then vertex list.

        Built from the graded masks on first use: a face's incident
        facets are the AND of its vertices' ``vertex_masks``.
        """
        if self._faces is None:
            vertex_masks = self.vertex_masks
            every_facet = (1 << len(self.facet_masks)) - 1
            graded = []
            for dim, mask in self._graded():
                vertices = tuple(dd._bits(mask))
                incident = every_facet
                for v in vertices:
                    incident &= vertex_masks[v]
                graded.append((dim, vertices, incident))
            graded.sort(key=lambda item: item[:2])
            self._faces = tuple(
                Face(dim, frozenset(vertices), frozenset(dd._bits(incident)))
                for dim, vertices, incident in graded
            )
        return self._faces

    @property
    def f_vector(self) -> tuple[int, ...]:
        """Face counts by dimension, counted off the graded masks."""
        counts = [0] * (self.dim + 1)
        for dim, _ in self._graded():
            if dim >= 0:
                counts[dim] += 1
        return tuple(counts)

    def facet_vertex_indices(self, j: int) -> tuple[int, ...]:
        return tuple(dd._bits(self.facet_masks[j]))

    def vertex_facet_indices(self, v: int) -> tuple[int, ...]:
        return tuple(dd._bits(self.vertex_masks[v]))

    def __repr__(self) -> str:
        parts = [f"ambient_dim={self.ambient_dim}"]
        # unchecked input may still hold redundant points or rows
        if self._checked and (self._vertices is not None or self._rays is not None):
            parts.append(f"n_vertices={self.n_vertices}")
        if self._checked and self._inequalities is not None:
            parts.append(f"n_inequalities={len(self._inequalities)}")
        return "Polytope(" + ", ".join(parts) + ")"


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
    """Whether exactly ``dim`` facets meet at the vertex, given by index or point.

    An index or a point that names no vertex raises ``GeometryError``.
    """
    if isinstance(vertex, int):
        if not 0 <= vertex < p.n_vertices:
            raise GeometryError(f"vertex index {vertex} is not in 0..{p.n_vertices - 1}")
        index = vertex
    else:
        target = tuple(Fraction(e) for e in vertex)
        if target not in p.vertices:
            raise GeometryError(f"point ({', '.join(map(str, target))}) is not a vertex")
        index = p.vertices.index(target)
    return len(p.vertex_facet_indices(index)) == p.dim


def _face_lattice(
    facet_masks: tuple[int, ...], n_vertices: int, dim: int
) -> tuple[tuple[int, int], ...]:
    """All faces as ``(dim, vertex mask)`` pairs, graded top-down.

    The grading reads the vertex-facet incidences alone: ``facet_masks``
    are the vertex sets of the facets of a ``dim``-polytope with
    ``n_vertices`` vertices.  The facets of a face G of dimension
    k >= 1 are exactly the inclusion-maximal sets among the nonempty
    intersections of G with facets other than G itself (Kaibel and
    Pfetsch, "Computing the face lattice of a polytope from its
    vertex-facet incidences", Comput. Geom. 23, 2002), and the facets
    of any one face F just above G suffice: by the diamond property
    each ridge of F lies in exactly two facets of F (Ziegler,
    *Lectures on Polytopes*, Thm 2.7), so each facet of G is G ∩ K for
    a facet K of F.  Each level maps its faces to the facets of such an
    F, starting from the full vertex set at level ``dim`` with the
    polytope's facets, down to the vertices at level 0.  The empty face
    comes first as ``(-1, 0)``, then the levels from the top; within a
    level the order is unspecified, and so is the order of
    ``facet_masks``, which decides only which face above cuts a face.
    No arithmetic is done on coordinates, so the grading holds over any
    ordered field.

    Two rules keep the intersections few for a face G of dimension k:

    - The floor.  An intersection with fewer than k vertices is
      dropped, since a facet of G is a (k-1)-polytope and so has at
      least k vertices.  G itself, the only intersection with as many
      vertices as G, is dropped too.
    - Larger masks only.  The intersections go by vertex count and the
      largest are kept whole; a smaller one is tested only against the
      kept masks with more vertices.  Distinct masks of one size never
      contain each other, and a mask strictly inside another lies
      inside a maximal one with more vertices, which is kept first.
    """
    lattice = [(-1, 0)]
    level = {(1 << n_vertices) - 1: facet_masks}
    for k in range(dim, 0, -1):
        lattice.extend((k, face) for face in level)
        below: dict[int, list[int]] = {}
        for face, above in level.items():
            # the intersections by vertex count, from the floor k up to
            # the face's own count, which only the face itself reaches
            top = face.bit_count()
            buckets: dict[int, set[int]] = {}
            for fm in above:
                h = face & fm
                n = h.bit_count()
                if k <= n < top:
                    # not setdefault, which would build a set per call
                    if n in buckets:
                        buckets[n].add(h)
                    else:
                        buckets[n] = {h}
            if len(buckets) == 1:
                # the common case: one size, so nothing to test
                facets = list(buckets.popitem()[1])
            else:
                sizes = sorted(buckets, reverse=True)
                facets = list(buckets[sizes[0]])
                for n in sizes[1:]:
                    larger = facets[:]
                    for h in buckets[n]:
                        for big in larger:
                            if h & big == h:
                                break
                        else:
                            facets.append(h)
            for h in facets:
                below.setdefault(h, facets)
        level = below
    lattice.extend((0, face) for face in level)
    return tuple(lattice)


def chart_project(
    points: tuple[Vector, ...]
) -> tuple[tuple[Vector, ...], AffineChart]:
    """Project points onto exact pivot coordinates of their affine hull.

    The chart basepoint is the first point, which maps to the origin, and
    its directions are the reduced row echelon basis of every difference
    from it, so the chart does not depend on the order of the later
    points.  Lifting the projected points through the returned chart
    reproduces the input exactly.
    """
    pts = tuple(tuple(Fraction(e) for e in p) for p in points)
    if not pts:
        raise GeometryError("cannot build a chart from no points")
    base = pts[0]
    chart = AffineChart(base, (vec_sub(p, base) for p in pts[1:]))
    return tuple(chart.project(p) for p in pts), chart

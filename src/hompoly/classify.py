"""Classification of vertex maps: rank, factorization, collapse structure.

Everything here works on exact data.  Surjectivity is decided by mutual
containment of vertex sets in inequality descriptions, factorization
goes through an exact chart of the image's affine hull, and the
face-collapse test runs the finite scan over the source's face lattice.

The collapse test rests on one identity worth recording: for a face G
of the source with all its directions inside ker L and K = ker L,

    (G + K) intersected with P  =  the full fiber of f over f(G).

Both inclusions are elementary (translating by K does not move the
image; any point with the same image differs by a kernel vector), so
the set-theoretic condition "(G + K) cap P = G" is exactly "G is the
whole fiber over its image point", and fibers can be checked finitely
by scanning the faces of P for their extreme points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import GeometryError, OutsideHullError
from .hom import AffineMap, HomPolytope, is_vertex_map
from .linalg import (
    Matrix,
    Vector,
    integer_direction,
    mat_rank,
    nullspace_basis,
    rref,
    solve_affine_hull,
    vec_add,
    vec_sub,
)
from .polytope import (
    Face,
    Polytope,
    chart_project,
    contains_point,
    is_simple_vertex,
)


def map_rank(f: AffineMap) -> int:
    """Rank of the linear part: the dimension of the image."""
    return mat_rank(f.linear)


def image_polytope(f: AffineMap, p: Polytope) -> Polytope:
    """The image f(P) as a full-dimensional polytope in chart coordinates.

    The returned polytope's ``chart`` field lifts chart coordinates back
    to the target space.  A rank-zero map yields the zero-dimensional
    polytope whose chart basepoint is the image point.
    """
    images = tuple(f.apply(v) for v in p.vertices)
    projected, chart = chart_project(images)
    return Polytope.from_points(projected, chart=chart)


def surj_inj_factorize(f: AffineMap, p: Polytope) -> tuple[AffineMap, AffineMap]:
    """Split f into a surjection onto its image chart and an injection back.

    ``f_surj`` maps source coordinates onto the chart coordinates of
    f(P); ``f_inj`` embeds those chart coordinates into the target
    space.  Their composite reproduces f exactly; this is asserted, and
    a failure would be an internal bug, not bad input.
    """
    dp = f.source_dim
    images = tuple(f.apply(v) for v in p.vertices)
    _, chart = chart_project(images)
    t_surj = chart.project(f.translation)
    columns = []
    for j in range(dp):
        e = tuple(Fraction(1) if i == j else Fraction(0) for i in range(dp))
        columns.append(vec_sub(chart.project(f.apply(e)), t_surj))
    linear_surj: Matrix = tuple(
        tuple(columns[j][i] for j in range(dp)) for i in range(chart.dim)
    )
    f_surj = AffineMap(linear_surj, t_surj)
    linear_inj: Matrix = tuple(
        tuple(chart.directions[j][i] for j in range(chart.dim))
        for i in range(len(chart.base))
    )
    f_inj = AffineMap(linear_inj, chart.base)
    for v in p.vertices:
        if f_inj.apply(f_surj.apply(v)) != f.apply(v):
            raise RuntimeError("factorization failed to reproduce the map")
    return f_surj, f_inj


def surjective_onto(f: AffineMap, p: Polytope, q: Polytope) -> bool:
    """Whether f(P) equals Q, by exact mutual containment of vertex sets."""
    if map_rank(f) != q.dim:
        return False
    image = image_polytope(f, p)
    if image.dim != q.dim:
        return False
    chart = image.chart
    assert chart is not None
    for w in image.vertices:
        if contains_point(q, chart.lift(w)).kind == "outside":
            return False
    for u in q.vertices:
        try:
            coords = chart.project(u)
        except OutsideHullError:
            return False
        if contains_point(image, coords).kind == "outside":
            return False
    return True


def image_vertex_locations(
    f: AffineMap, p: Polytope, q: Polytope
) -> tuple[str, ...]:
    """Where each source vertex lands in the target.

    One entry per vertex of p: ``vertex`` when the image point is a
    vertex of q, ``interior`` or ``boundary`` otherwise.  Points outside
    q mean f is not in the hom-polytope and raise.
    """
    q_vertices = set(q.vertices)
    out = []
    for v in p.vertices:
        y = f.apply(v)
        if y in q_vertices:
            out.append("vertex")
            continue
        hit = contains_point(q, y)
        if hit.kind == "outside":
            raise GeometryError("map does not send the source into the target")
        out.append(hit.kind)
    return tuple(out)


def is_deflation(
    f: AffineMap, p: Polytope, q: Polytope, h: HomPolytope
) -> bool:
    """Whether f is a deflation: a strictly rank-dropping collapse onto q.

    Requires f to be surjective onto q, a vertex of the hom-polytope,
    and to send every vertex of p to a vertex of q or into its interior.
    Affine bijections are excluded (the rank must drop below dim p):
    admitting them would break the containment of deflations in
    face-collapses that the rest of the classification relies on.
    """
    if map_rank(f) >= p.dim:
        return False
    if not surjective_onto(f, p, q):
        return False
    if not is_vertex_map(f, h):
        return False
    return all(
        location != "boundary"
        for location in image_vertex_locations(f, p, q)
    )


def _face_directions(p: Polytope, face: Face) -> tuple[Vector, ...]:
    verts = sorted(face.vertices)
    pts = tuple(p.vertices[v] for v in verts)
    _, basis = solve_affine_hull(pts)
    return basis


def _subspace_contains(basis: tuple[Vector, ...], vectors: tuple[Vector, ...]) -> bool:
    if not vectors:
        return True
    if not basis:
        return all(all(e == 0 for e in v) for v in vectors)
    return mat_rank(basis + vectors) == mat_rank(basis)


def _fiber_is_contained_in_face(
    f: AffineMap, p: Polytope, w: Vector, face: Face
) -> bool:
    """Exact test that every point of ``{x in P : f(x) = w}`` lies in ``face``.

    Every extreme point of the fiber sits in the relative interior of
    some face E of P whose affine hull meets the preimage of w in a
    single point, so scanning all faces (and solving a linear system on
    each one's chart) produces a finite superset of the fiber's extreme
    points; it suffices to check those against the face.
    """
    for e_face in p.faces:
        if e_face.dim < 0:
            continue
        verts = tuple(p.vertices[v] for v in sorted(e_face.vertices))
        base, dirs = solve_affine_hull(verts)
        # solve f(base + D z) = w on the face's chart by one reduction of
        # [L D | w - f(base)]: a unique solution needs a pivot in every
        # direction column and none in the last; otherwise the preimage
        # meets this chart in a positive-dimensional set (its extreme
        # points are found on subfaces) or not at all
        origin = f.apply(base)
        cols = tuple(vec_sub(f.apply(vec_add(base, d)), origin) for d in dirs)
        rhs = vec_sub(w, origin)
        rows, pivots = rref(
            tuple(col[i] for col in cols) + (rhs[i],) for i in range(len(rhs))
        )
        if pivots != list(range(len(dirs))):
            continue
        candidate = base
        for row, direction in zip(rows, dirs):
            z = row[-1]
            if z:
                candidate = tuple(c + z * d for c, d in zip(candidate, direction))
        # any point of P in the preimage of w is a fiber point; one
        # outside the target face disproves containment
        hit = contains_point(p, candidate)
        if hit.kind != "outside" and not face.facets <= hit.active:
            return False
    return True


def is_face_collapse(f: AffineMap, p: Polytope) -> bool:
    """Whether f collapses a canonical family of faces of p.

    Builds the candidate family: the positive-dimensional fibers over
    vertices of the image.  True when the family is nonempty, the face
    directions together span exactly ker(linear part), each member is
    the full fiber over its image vertex, and no further positive-
    dimensional face of p could be added without changing the kernel or
    failing the full-fiber condition (maximality, scanned over the face
    lattice).  A bijective f has an empty family and returns False.
    """
    kernel = nullspace_basis(f.linear)
    kernel_dim = len(kernel)
    if kernel_dim == 0:
        return False
    image = image_polytope(f, p)
    chart = image.chart
    assert chart is not None
    image_vertices = tuple(chart.lift(w) for w in image.vertices)

    # canonical family: fibers over image vertices with positive dimension
    family: list[tuple[Face, Vector]] = []
    family_members: set[frozenset[int]] = set()
    all_directions: list[Vector] = []
    for w in image_vertices:
        fiber_vertex_set = frozenset(
            i for i, v in enumerate(p.vertices) if f.apply(v) == w
        )
        if not fiber_vertex_set:
            raise RuntimeError("image vertex with no source vertex above it")
        match = next(
            (face for face in p.faces if face.vertices == fiber_vertex_set),
            None,
        )
        if match is None:
            raise RuntimeError(
                "fiber of an image vertex is not a face of the source"
            )
        if match.dim > 0:
            family.append((match, w))
            family_members.add(fiber_vertex_set)
            all_directions.extend(_face_directions(p, match))
    if not family:
        return False

    # condition: the collapsed directions span the kernel exactly
    if mat_rank(tuple(all_directions)) != kernel_dim:
        return False

    # full-fiber condition for each member (holds by construction once
    # the directions lie in the kernel, but verified finitely anyway)
    for face, w in family:
        if not _subspace_contains(kernel, _face_directions(p, face)):
            return False
        if not _fiber_is_contained_in_face(f, p, w, face):
            return False

    # maximality: no positive-dimensional face outside the family can be
    # added while keeping the kernel and the full-fiber condition
    for face in p.faces:
        if face.dim < 1 or face.vertices in family_members:
            continue
        dirs = _face_directions(p, face)
        if not _subspace_contains(kernel, dirs):
            continue
        w = f.apply(p.vertices[min(face.vertices)])
        fiber_vertex_set = frozenset(
            i for i, v in enumerate(p.vertices) if f.apply(v) == w
        )
        if fiber_vertex_set != face.vertices:
            continue
        if _fiber_is_contained_in_face(f, p, w, face):
            return False
    return True


@dataclass(frozen=True)
class MapClassification:
    """Everything the tables need to know about one vertex map."""

    vertex_index: int
    map: AffineMap
    rank: int
    is_vertex: bool
    simple: bool
    active_labels: int
    surjective_onto_target: bool
    image_vertex_locations: tuple[str, ...]
    is_deflation: bool
    surj_factor_is_face_collapse: bool


@dataclass(frozen=True)
class ClassifySummary:
    """Counts over a full classification run."""

    total: int
    by_rank: tuple[tuple[int, int], ...]
    simple_count: int

    def rank_count(self, r: int) -> int:
        for rank, count in self.by_rank:
            if rank == r:
                return count
        return 0

    def table_row(self) -> tuple[int, int, int, int]:
        """(rank 0, rank 1, rank 2, total), the planar table layout."""
        return (
            self.rank_count(0),
            self.rank_count(1),
            self.rank_count(2),
            self.total,
        )


def classify_all(
    h: HomPolytope,
) -> tuple[list[MapClassification], ClassifySummary]:
    """Classify every vertex of the hom-polytope.

    Returns per-vertex records in the polytope's vertex order plus a
    summary with counts by rank and the number of simple vertices.
    """
    p, q = h.source, h.target
    records: list[MapClassification] = []
    rank_counts: dict[int, int] = {}
    simple_count = 0
    for index, point in enumerate(h.polytope.vertices):
        f = AffineMap.from_point(point, p.ambient_dim, q.ambient_dim)
        rank = map_rank(f)
        vertexness = is_vertex_map(f, h)
        simple = is_simple_vertex(h.polytope, index)
        active = len(h.polytope.vertex_facet_indices(index))
        surjective = surjective_onto(f, p, q)
        locations = image_vertex_locations(f, p, q)
        deflation = is_deflation(f, p, q, h) if surjective else False
        collapse = is_face_collapse(f, p)
        records.append(
            MapClassification(
                vertex_index=index,
                map=f,
                rank=rank,
                is_vertex=vertexness,
                simple=simple,
                active_labels=active,
                surjective_onto_target=surjective,
                image_vertex_locations=locations,
                is_deflation=deflation,
                surj_factor_is_face_collapse=collapse,
            )
        )
        rank_counts[rank] = rank_counts.get(rank, 0) + 1
        if simple:
            simple_count += 1
    summary = ClassifySummary(
        total=len(records),
        by_rank=tuple(sorted(rank_counts.items())),
        simple_count=simple_count,
    )
    return records, summary


def rank1_polygon_count(p: Polytope, q: Polytope) -> int:
    """Closed-form rank-1 vertex count for a polygon source.

    With l edges of which m pairs are parallel (opposite primitive
    normals) and n target vertices, the count is (l - m) n (n - 1).
    """
    if p.dim != 2:
        raise GeometryError("rank-1 count needs a two-dimensional source")
    normals = [integer_direction(iq.normal) for iq in p.inequalities]
    l = len(normals)
    m = 0
    for i in range(l):
        for j in range(i + 1, l):
            if normals[i] == tuple(-e for e in normals[j]):
                m += 1
    n = q.n_vertices
    return (l - m) * n * (n - 1)

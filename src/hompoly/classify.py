"""Classification of vertex maps: rank, factorization, collapse structure.

Everything here works on exact data.  Surjectivity is decided by mutual
containment of vertex sets in inequality descriptions, factorization
goes through an exact chart of the image's affine hull, and the
face-collapse test reads the vertex images and the source's face
lattice.

The collapse test rests on two identities.  First, the directions of a
face G of the source lie in K = ker L exactly when f is constant on G's
vertices, since those directions are spanned by vertex differences.
Second, the fiber of f over a vertex w of f(P) is a face of P whose
vertices are exactly the vertices sent to w: a functional c exposing w
on f(P) makes that fiber the face where c . f is maximal on P.  So the
fibers over image vertices are full fibers by construction, and only a
face outside that family needs the finite fiber scan, which rests on

    (G + K) intersected with P  =  the full fiber of f over f(G)

for a face G whose directions lie in K.  Both inclusions are elementary
(translating by K does not move the image; any point with the same
image differs by a kernel vector), so "(G + K) cap P = G" is exactly "G
is the whole fiber over its image point", and fibers can be checked
finitely by scanning the faces of P for their extreme points.
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

    The candidate family is the positive-dimensional fibers over the
    vertices of the image.  True when the family is nonempty, its
    directions span exactly ker(linear part), and no further positive-
    dimensional face of p could be added without changing the kernel or
    failing the full-fiber condition (maximality, scanned over the face
    lattice).  A bijective f has an empty family and returns False.

    Two identities keep the test on vertex images and the face lattice.
    The directions of a face G lie in the kernel exactly when f is
    constant on G's vertices.  The fiber over a vertex w of f(P) is the
    face where c . f is maximal on P, for any functional c exposing w,
    so its vertices are exactly those sent to w and every family member
    is a full fiber by construction.
    """
    kernel_dim = f.source_dim - map_rank(f)
    if kernel_dim == 0:
        return False
    images = tuple(f.apply(v) for v in p.vertices)
    fibers: dict[Vector, frozenset[int]] = {}
    for i, y in enumerate(images):
        fibers[y] = fibers.get(y, frozenset()) | {i}
    face_of = {face.vertices: face for face in p.faces}
    image = image_polytope(f, p)
    chart = image.chart
    assert chart is not None

    # canonical family: fibers over image vertices with positive dimension
    family: list[Face] = []
    for w in image.vertices:
        match = face_of.get(fibers.get(chart.lift(w), frozenset()))
        if match is None:
            raise RuntimeError(
                "fiber of an image vertex is not a face of the source"
            )
        if match.dim > 0:
            family.append(match)
    if not family:
        return False

    # condition: the collapsed directions span the kernel exactly
    differences = tuple(
        vec_sub(p.vertices[i], p.vertices[min(face.vertices)])
        for face in family
        for i in face.vertices
    )
    if mat_rank(differences) != kernel_dim:
        return False

    # maximality: no positive-dimensional face outside the family can be
    # added while keeping the kernel and the full-fiber condition; such a
    # face has f constant on its vertices and no other vertex sharing
    # their image, which is one fiber-set comparison
    members = {face.vertices for face in family}
    for face in p.faces:
        if face.dim < 1 or face.vertices in members:
            continue
        w = images[min(face.vertices)]
        if fibers[w] != face.vertices:
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
    summary with counts by rank and the number of simple vertices.  Each
    record's map is a vertex of ``h.polytope`` by construction, so no
    vertex test is repeated here.
    """
    p, q = h.source, h.target
    records: list[MapClassification] = []
    rank_counts: dict[int, int] = {}
    simple_count = 0
    masks = h.polytope.vertex_masks
    for index, point in enumerate(h.polytope.vertices):
        f = AffineMap.from_point(point, p.ambient_dim, q.ambient_dim)
        rank = map_rank(f)
        active = masks[index].bit_count()
        simple = active == h.polytope.dim
        surjective = surjective_onto(f, p, q)
        locations = image_vertex_locations(f, p, q)
        deflation = is_deflation(f, p, q, h) if surjective else False
        collapse = is_face_collapse(f, p)
        records.append(
            MapClassification(
                vertex_index=index,
                map=f,
                rank=rank,
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

"""Classification of vertex maps: rank, factorization, collapse structure.

Everything here works on exact data.  Image locations, surjectivity
and deflation are read off the facets of Q tight at each f(v): f(v) is
the vertex of Q with exactly those facets, if there is one.  For a
vertex of the hom-polytope they are its tight (vertex, facet) pairs, so
``classify_all`` needs no arithmetic for them.  Factorization goes
through the pivot chart of the image's affine hull: its directions are
the reduced row echelon basis of the image's directions and its
coordinates are entries at their pivot columns, so the surjective
factor is f read at the pivots and the injective factor is that basis
placed at the basepoint.  The face-collapse test reads the source's
face lattice over P/K, as below.

The collapse test rests on two facts.  First, the directions of a
face G of the source lie in K = ker L exactly when f is constant on G's
vertices, since those directions are spanned by vertex differences.
Second, the fiber of f over a vertex w of f(P) is a face of P whose
vertices are exactly the vertices sent to w: a functional c exposing w
on f(P) makes that fiber the face where c . f is maximal on P.  The
family the test reads is these fibers over the vertices of the image,
those of positive dimension, with the image vertices taken from the
hull of P/K.  A face whose vertices are all the vertices sent to its
image point need not be in it: for P = conv{(0,0,0), (2,0,0), (1,1,0),
(1,1,1)} and f = x the edge {(1,1,0), (1,1,1)} is all the vertices sent
to 1, and 1 is not a vertex of f(P) = [0, 2].

The verdict depends on f only through K.  Two vertices of P share an
image exactly when they differ by a kernel vector, so the fiber vertex
sets are the cosets of K meeting the vertex set, and f(P) is affinely
isomorphic to P/K, the projection of P along K: the image of P under
the reduced row echelon rows of L, which have kernel K and full rank.
``classify_all`` therefore runs the test once per kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GeometryError
from .hom import AffineMap, HomPolytope, is_vertex_map
from .linalg import (
    Vector,
    integer_direction,
    integer_rref,
    mat_rank,
    mat_vec,
    vec_sub,
)
from .polytope import (
    AffineChart,
    Face,
    Polytope,
    chart_project,
    contains_point,
)


def map_rank(f: AffineMap) -> int:
    """Rank of the linear part: the dimension of the image."""
    return mat_rank(f.linear)


def image_polytope(f: AffineMap, p: Polytope) -> tuple[Polytope, AffineChart]:
    """The image f(P) as a full-dimensional polytope in chart coordinates.

    Returned beside the chart that lifts chart coordinates back to the
    target space, as :func:`~hompoly.polytope.chart_project` returns
    it.  A rank-zero map yields the zero-dimensional polytope whose
    chart basepoint is the image point.
    """
    projected, chart = chart_project(tuple(f.apply(v) for v in p.vertices))
    return Polytope.from_points(projected), chart


def surj_inj_factorize(f: AffineMap, p: Polytope) -> tuple[AffineMap, AffineMap]:
    """Split f into a surjection onto its image chart and an injection back.

    The chart of f(P) has the reduced row echelon basis of the image's
    directions and reads coordinates at its pivots, so ``f_surj`` is f
    read at the pivots: the rows of ``f.linear`` there, and
    ``f.translation - base`` there.  ``f_inj`` embeds chart coordinates
    into the target space: its columns are the echelon basis and its
    translation is the chart's basepoint.  Their composite reproduces f
    exactly; this is asserted, and a failure would be an internal bug,
    not bad input.
    """
    _, chart = chart_project(tuple(f.apply(v) for v in p.vertices))
    f_surj = AffineMap(
        tuple(f.linear[c] for c in chart.pivots),
        tuple(f.translation[c] - chart.base[c] for c in chart.pivots),
    )
    f_inj = AffineMap(
        tuple(tuple(d[i] for d in chart.directions) for i in range(f.target_dim)),
        chart.base,
    )
    for v in p.vertices:
        if f_inj.apply(f_surj.apply(v)) != f.apply(v):
            raise RuntimeError("factorization failed to reproduce the map")
    return f_surj, f_inj


def _vertex_lookup(q: Polytope) -> dict[int, int]:
    """``{facet mask: u}`` over the vertices u of q."""
    return {m: u for u, m in enumerate(q.vertex_masks)}


def _locate(
    masks: list[int], vertex_of: dict[int, int]
) -> tuple[tuple[str, ...], bool]:
    """Image locations, and whether every vertex of q is hit, from facet masks.

    ``vertex_of`` is q's :func:`_vertex_lookup`.  A point of q is the
    vertex u exactly when its tight facets are u's, since u is the
    intersection of its facets and distinct vertices have incomparable
    facet sets.
    """
    locations, hit = [], set()
    for mask in masks:
        u = vertex_of.get(mask)
        if u is not None:
            hit.add(u)
        locations.append(
            "vertex" if u is not None else "boundary" if mask else "interior"
        )
    return tuple(locations), len(hit) == len(vertex_of)


def _deflates(
    rank: int, p: Polytope, locations: tuple[str, ...], surjective: bool
) -> bool:
    """Deflation short of the vertex test: rank below dim p, onto q, no boundary image."""
    return rank < p.dim and surjective and "boundary" not in locations


def _locate_images(
    f: AffineMap, p: Polytope, q: Polytope
) -> tuple[tuple[str, ...], bool] | None:
    """:func:`_locate` of q's facets tight at each f(v); None if one lies outside q."""
    masks = []
    for v in p.vertices:
        hit = contains_point(q, f.apply(v))
        if hit.kind == "outside":
            return None
        masks.append(sum(1 << j for j in hit.active))
    return _locate(masks, _vertex_lookup(q))


def surjective_onto(f: AffineMap, p: Polytope, q: Polytope) -> bool:
    """Whether f(P) equals Q: every f(v) lies in Q and hits every vertex of Q.

    A vertex of Q inside f(P), a subset of Q, is extreme in f(P), so it is
    the image of a vertex of P; no image hull is needed.
    """
    located = _locate_images(f, p, q)
    return located is not None and located[1]


def image_vertex_locations(
    f: AffineMap, p: Polytope, q: Polytope
) -> tuple[str, ...]:
    """Where each source vertex lands in the target.

    One entry per vertex of p: ``vertex`` when the image point is a
    vertex of q, ``interior`` or ``boundary`` otherwise.  Points outside
    q mean f is not in the hom-polytope and raise.
    """
    located = _locate_images(f, p, q)
    if located is None:
        raise GeometryError("map does not send the source into the target")
    return located[0]


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
    located = _locate_images(f, p, q)
    if located is None:
        return False
    return _deflates(map_rank(f), p, *located) and is_vertex_map(f, h)


def is_face_collapse(f: AffineMap, p: Polytope) -> bool:
    """Whether f collapses a canonical family of faces of p.

    The family is the positive-dimensional fibers over the vertices of
    the image, which :func:`_collapsed_faces` finds by the hull of P/K.
    True when the family is nonempty and its directions span exactly
    ker(linear part).  A bijective f has an empty family and returns
    False.  A face that is not a fiber over an image vertex is not in
    the family, even when its vertices are all the vertices sent to its
    image point (see the module docstring).
    """
    rows = integer_rref(f.linear)[0]
    kernel_dim = p.ambient_dim - len(rows)
    if kernel_dim == 0:
        return False
    family = _collapsed_faces(rows, p)
    if not family:
        return False

    # the collapsed directions span the kernel exactly
    differences = tuple(
        vec_sub(p.vertices[i], p.vertices[min(face.vertices)])
        for face in family
        for i in face.vertices
    )
    return mat_rank(differences) == kernel_dim


def _collapsed_faces(rows: list[tuple[int, ...]], p: Polytope) -> list[Face]:
    """The positive-dimensional fibers over the image's vertices, as faces of p.

    ``rows`` are the integer echelon rows of the linear part, of the same
    kernel K and of full rank, so they map P onto a copy of P/K.  The
    directions of a face lie in K exactly when f is constant on its
    vertices, and the fiber over a vertex w of the image is the face
    where c . f is maximal on P, for any functional c exposing w, so
    its vertices are exactly those sent to w.
    """
    projected = tuple(mat_vec(rows, v) for v in p.vertices)
    fibers: dict[Vector, frozenset[int]] = {}
    for i, y in enumerate(projected):
        fibers[y] = fibers.get(y, frozenset()) | {i}
    face_of = {face.vertices: face for face in p.faces}
    family: list[Face] = []
    for w in Polytope.from_points(projected).vertices:
        match = face_of.get(fibers.get(w, frozenset()))
        if match is None:
            raise RuntimeError(
                "fiber of an image vertex is not a face of the source"
            )
        if match.dim > 0:
            family.append(match)
    return family


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
    vertex test is repeated here.  Hom facet (v, k) is tight at it
    exactly when target facet k is tight at f(v), so image locations,
    surjectivity and deflation are read off ``h.tight_masks``.

    The face-collapse verdict depends only on the kernel K of the linear
    part: fiber sets are cosets of K and the image vertices are the
    vertices of P/K.  So ``is_face_collapse`` runs once per kernel within
    this call, keyed by :func:`~hompoly.linalg.integer_rref` of the
    linear part: the reduced row echelon rows as primitive integers, a
    canonical basis of the row space whose orthogonal complement is K.
    Their count is the rank.  A map of full rank has no kernel and is
    never a face collapse.
    """
    p, q = h.source, h.target
    records: list[MapClassification] = []
    rank_counts: dict[int, int] = {}
    simple_count = 0
    collapse_by_kernel: dict[tuple[tuple[int, ...], ...], bool] = {}
    masks = h.polytope.vertex_masks
    vertex_of = _vertex_lookup(q)
    for index in range(h.polytope.n_vertices):
        f = h.map_at_vertex(index)
        row_space = tuple(integer_rref(f.linear)[0])
        rank = len(row_space)
        active = masks[index].bit_count()
        simple = active == h.polytope.dim
        locations, surjective = _locate(h.tight_masks(index), vertex_of)
        deflation = _deflates(rank, p, locations, surjective)
        if rank < p.ambient_dim and row_space not in collapse_by_kernel:
            collapse_by_kernel[row_space] = is_face_collapse(f, p)
        collapse = collapse_by_kernel.get(row_space, False)
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
    normals = {integer_direction(iq.normal) for iq in p.inequalities}
    l = len(normals)
    m = sum(tuple(-e for e in u) in normals for u in normals) // 2
    n = q.n_vertices
    return (l - m) * n * (n - 1)

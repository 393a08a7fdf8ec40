"""Walk through Hom(square, square), the smallest interesting map space.

The square here is the exact one with vertices (1,0), (0,1), (-1,0),
(0,-1), so everything below is computed in exact rational arithmetic:
the dimension, the facet count, the full f-vector, and the vertex
census by linear-part rank.  The identity map is singled out at the
end because it is the standard example of a non-simple vertex.
"""

from fractions import Fraction

from hompoly import (
    AffineMap,
    build_hom,
    classify_all,
    is_simple_vertex,
    regular_ngon,
)


def main() -> None:
    square = regular_ngon(4)
    h = build_hom(square, square)

    print("source and target: the exact unit square (4 vertices, 4 facets)")
    print(f"map space dimension: {h.polytope.dim}  (2*2 + 2 = 6)")
    print(f"facets: {h.polytope.n_facets}  (4 vertices * 4 facets = 16)")
    print(f"vertices: {h.polytope.n_vertices}")
    print(f"f-vector: {h.polytope.f_vector}")
    print()

    records, summary = classify_all(h)
    for rank in (0, 1, 2):
        print(f"rank {rank}: {summary.rank_count(rank)} vertex maps")
    simple = sum(1 for r in records if r.simple)
    print(f"simple vertices: {simple} of {len(records)}")
    print()

    identity = AffineMap(
        ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
        (Fraction(0), Fraction(0)),
    )
    index = h.polytope.vertices.index(identity.to_point())
    active = h.polytope.vertex_facet_indices(index)
    print(f"the identity map is vertex #{index}")
    print(f"it lies on {len(active)} of the 16 facets; a simple vertex of a")
    print("6-polytope would lie on exactly 6, so this vertex is not simple:")
    print(f"is_simple_vertex: {is_simple_vertex(h.polytope, index)}")
    labels = (h.labels[i] for i in active)
    for label in sorted(labels, key=lambda l: (l.vertex_index, l.facet_index)):
        print(f"  tight on (vertex {label.vertex_index}, facet {label.facet_index})")


if __name__ == "__main__":
    main()

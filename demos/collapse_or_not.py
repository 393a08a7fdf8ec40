"""Two 3-polytopes, one projection, two different stories.

Dropping the z coordinate maps both solids below onto the big triangle
with corners (0,0), (2,0), (0,2).  On the frustum (the triangle's prism
cut by a slanted top) the projection is a face collapse: the fiber over
the image vertex (0,0) is the vertical edge from (0,0,0) to (0,0,1),
whose direction spans the kernel, the z-axis.  On the wedge (same solid
with one top corner removed) the same formula is a vertex of the map
space but not a face collapse: the fiber over each image vertex is a
single vertex, so no positive-dimensional face collapses.  Neither is a
deflation; the demo prints the three judgments for both solids side by
side.
"""

from fractions import Fraction

from hompoly import (
    AffineMap,
    Polytope,
    build_hom,
    is_deflation,
    is_face_collapse,
    is_vertex_map,
    surjective_onto,
)

DROP_Z = AffineMap(
    (
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1), Fraction(0)),
    ),
    (Fraction(0), Fraction(0)),
)

TRIANGLE = Polytope.from_points(((0, 0), (2, 0), (0, 2)))

SOLIDS = {
    "frustum": Polytope.from_points(
        ((0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1))
    ),
    "wedge": Polytope.from_points(
        ((0, 0, 0), (2, 0, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1))
    ),
}


def main() -> None:
    print(f"{'solid':<8} {'vertex map':>10} {'surjective':>10} {'face collapse':>13} {'deflation':>9}")
    for name, solid in SOLIDS.items():
        h = build_hom(solid, TRIANGLE)
        print(
            f"{name:<8}"
            f" {str(is_vertex_map(DROP_Z, h)):>10}"
            f" {str(surjective_onto(DROP_Z, solid, TRIANGLE)):>10}"
            f" {str(is_face_collapse(DROP_Z, solid)):>13}"
            f" {str(is_deflation(DROP_Z, solid, TRIANGLE, h)):>9}"
        )


if __name__ == "__main__":
    main()

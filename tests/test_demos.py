"""The demos that read the classify layer print what they always printed.

Each demo runs in-process as ``__main__`` and its stdout is compared
byte for byte with the frozen text below.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

COLLAPSE_OR_NOT = """\
solid    vertex map surjective face collapse deflation
frustum        True       True          True     False
wedge          True       True         False     False
"""

SQUARE_TO_SQUARE = """\
source and target: the exact unit square (4 vertices, 4 facets)
map space dimension: 6  (2*2 + 2 = 6)
facets: 16  (4 vertices * 4 facets = 16)
vertices: 36
f-vector: (36, 144, 240, 204, 88, 16, 1)

rank 0: 4 vertex maps
rank 1: 24 vertex maps
rank 2: 8 vertex maps
simple vertices: 0 of 36

the identity map is vertex #34
it lies on 8 of the 16 facets; a simple vertex of a
6-polytope would lie on exactly 6, so this vertex is not simple:
is_simple_vertex: False
  tight on (vertex 0, facet 2)
  tight on (vertex 0, facet 3)
  tight on (vertex 1, facet 1)
  tight on (vertex 1, facet 3)
  tight on (vertex 2, facet 0)
  tight on (vertex 2, facet 1)
  tight on (vertex 3, facet 0)
  tight on (vertex 3, facet 2)
"""


@pytest.mark.parametrize(
    "name, expected",
    (
        ("collapse_or_not", COLLAPSE_OR_NOT),
        ("square_to_square", SQUARE_TO_SQUARE),
    ),
)
def test_demo_prints_its_frozen_output(name, expected, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out == expected

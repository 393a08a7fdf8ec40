"""Every demo prints frozen text, and the README's library tour gives the
results its comments state and names only what exists.

Each demo runs in-process as ``__main__`` and its stdout is compared
byte for byte with the frozen text below.
"""

import importlib.util
import pkgutil
import re
import runpy
from collections import Counter
from functools import reduce
from pathlib import Path

import pytest

import hompoly

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"

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

POLYGON_CENSUS = """\
 m  n  rank0  rank1  rank2  total  divisible  provenance
--------------------------------------------------------
 3  3      3     18      6     27        yes  closed_form
 3  4      4     36     24     64        yes  closed_form
 3  5      5     60     60    125        yes  closed_form
 3  6      6     90    120    216        yes  closed_form
 4  3      3     12      0     15        yes  closed_form
 4  4      4     24      8     36        yes  closed_form
 4  5      5     40     80    125        yes  closed_form
 4  6      6     60     72    138        yes  closed_form
 5  3      3     30     30     63        yes  closed_form
 5  4      4     60     80    144        yes  closed_form
 5  5      5    100     60    165        yes  closed_form,enumerated
 5  6      6    150    540    696        yes  closed_form,enumerated
 6  3      3     18     12     33        yes  closed_form
 6  4      4     36     24     64        yes  closed_form
 6  5      5     60    240    305        yes  closed_form,enumerated
 6  6      6     90     84    180        yes  closed_form,enumerated
"""

CERTIFIED_GRAPHS = """\
admissible graphs: 31
encoding           det at certificate  symbolic check
7                            16809984  ok
6A+1                        -26873856  ok
6B+1                        409042944  ok
5+2A                        -45785088  ok
5+2B                       -296524800  ok
5+1+1                       -71059968  ok
4A+3                        -32348160  ok
4A+2A+1                     -20100096  ok
4A+2B+1                      48646656  ok
4A+1+1+1                    -69304320  ok
4B+3                      -1114103808  ok
4B+2A+1                   -1060687872  ok
4B+2B+1                     142497792  ok
4B+1+1+1                    346613760  ok
3+3+1                       -94224384  ok
3+2A+2A                        552960  ok
3+2A+2B                     -39121920  ok
3+2A+1+1                   -146833920  ok
3+2B+2B                     260075520  ok
3+2B+1+1                    821184000  ok
3+1+1+1+1                  -288293376  ok
2A+2A+2A+1                  -20431872  ok
2A+2A+2B+1                  -40803840  ok
2A+2A+1+1+1                 756748800  ok
2A+2B+2B+1                 -652108032  ok
2A+2B+1+1+1                 780476928  ok
2A+1+1+1+1+1               3197491200  ok
2B+2B+2B+1                 -435861504  ok
2B+2B+1+1+1                 372363264  ok
2B+1+1+1+1+1               1488061440  ok
1+1+1+1+1+1+1             12122009856  ok
"""

FROZEN = (
    ("collapse_or_not", COLLAPSE_OR_NOT),
    ("square_to_square", SQUARE_TO_SQUARE),
    ("polygon_census", POLYGON_CENSUS),
    ("certified_graphs", CERTIFIED_GRAPHS),
)


@pytest.mark.parametrize("name, expected", FROZEN)
def test_demo_prints_its_frozen_output(name, expected, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out == expected


def test_every_demo_has_frozen_text():
    assert sorted(path.stem for path in DEMOS.glob("*.py")) == sorted(
        name for name, _ in FROZEN
    )


def library_tour(readme: str) -> str:
    """README's "Library tour" section, which runs to the end of the file."""
    return readme[readme.index("## Library tour"):]


def test_readme_library_tour_gives_its_commented_results(capsys):
    tour = library_tour((ROOT / "README.md").read_text())
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    names = {}
    exec(code, names)
    h, summary = names["h"], names["summary"]
    assert h.polytope.dim == 6
    assert len(h.polytope.inequalities) == 16
    assert len(h.polytope.vertices) == 36
    assert [summary.rank_count(r) for r in (0, 1, 2)] == [4, 24, 8]
    assert capsys.readouterr().out == "(36, 144, 240, 204, 88, 16, 1)\n"


def unresolved_tour_names(text: str) -> tuple[list[str], Counter]:
    """The backticked spans of ``text`` naming nothing in hompoly, and counts.

    Three kinds of span are checked: ``hompoly.<module>`` must import,
    ``Name.attr...`` whose ``Name`` is a hompoly export must resolve up
    to its first ``(``, and ``name(...)`` must be a name in some hompoly
    module.  Other spans, bare words like ``dim`` among them, and fenced
    code blocks are skipped.
    """
    modules = [
        importlib.import_module(f"hompoly.{info.name}")
        for info in pkgutil.iter_modules(hompoly.__path__)
    ]
    unresolved, checked = [], Counter()
    for span in re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", text, flags=re.S)):
        span = " ".join(span.split())
        head = span.split("(")[0]
        root, *attributes = head.split(".")
        if re.fullmatch(r"hompoly\.\w+", span):
            kind = "module"
            found = importlib.util.find_spec(span) is not None
        elif re.fullmatch(r"\w+(\.\w+)+", head) and root in hompoly.__all__:
            kind = "attribute"
            try:
                reduce(getattr, attributes, getattr(hompoly, root))
                found = True
            except AttributeError:
                found = False
        elif re.fullmatch(r"\w+\(.*\)", span):
            kind = "call"
            found = any(hasattr(module, head) for module in modules)
        else:
            continue
        checked[kind] += 1
        if not found:
            unresolved.append(span)
    return unresolved, checked


def test_readme_library_tour_names_only_what_exists():
    unresolved, checked = unresolved_tour_names(library_tour((ROOT / "README.md").read_text()))
    assert unresolved == []
    assert set(checked) == {"module", "attribute", "call"}


def test_the_tour_check_sees_a_stale_name():
    text = (
        "`hompoly.hom` `hompoly.gone` `Polytope.from_points(pts).dim` "
        "`Polytope.gone(x)` `hom_row(v, a, mul)` `gone(x)` `dim` `f.gone`"
    )
    unresolved, checked = unresolved_tour_names(text)
    assert unresolved == ["hompoly.gone", "Polytope.gone(x)", "gone(x)"]
    assert checked == Counter(module=2, attribute=2, call=2)

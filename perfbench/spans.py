"""Tracing from outside the program: wrappers, spans and per-layer metrics.

A :class:`Tracer` replaces chosen ``hompoly`` functions with wrappers
that record a span per call (name, start, end, parent span, item) plus
a few counts taken from the arguments or the result.  Modules bind
names with ``from .linalg import mat_rank``, so every module attribute
that refers to a traced function is replaced, not only the defining
module's.  Per-element helpers (``vec_dot``, ``mat_vec``,
``Inequality.value``) are not traced: a span per call would cost more
than the work it measures.

Spans stay in memory until :meth:`Tracer.remove`; the caller writes them
out at the end of the run.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from typing import Any, Callable

# (span name, defining module, function name, count hook).  A count hook
# maps (args, result) to a tuple of numbers kept with the span.
Hook = Callable[[tuple, Any], tuple]


def _rows_and_size(args: tuple, result: Any) -> tuple:
    return (len(args[0]), len(result))


def _raw_and_clusters(args: tuple, result: Any) -> tuple:
    _row, diag = result
    return (diag.raw_vertex_count, len(diag.partition.clusters))


def _size(args: tuple, result: Any) -> tuple:
    return (len(result),)


def _attempts(args: tuple, result: Any) -> tuple:
    return (result.attempts,)


TARGETS: tuple[tuple[str, str, str, Hook | None], ...] = (
    ("regular.table_row", "hompoly.regular", "table_row", _raw_and_clusters),
    ("regular.cluster_vertices", "hompoly.regular", "cluster_vertices", None),
    ("dd.enumerate_vertices", "hompoly.dd", "enumerate_vertices", _rows_and_size),
    # the two conversions that call the DD engine, so its spans can be split
    ("polytope.hv", "hompoly.polytope", "_vertices_of_system", None),
    ("polytope.vh", "hompoly.polytope", "_facets_of_hull", None),
    ("polytope.face_lattice", "hompoly.polytope", "_face_lattice", _size),
    ("polytope.contains_point", "hompoly.polytope", "contains_point", None),
    ("linalg.solve_affine_hull", "hompoly.linalg", "solve_affine_hull", None),
    ("linalg.mat_rank", "hompoly.linalg", "mat_rank", None),
    ("linalg.mat_det", "hompoly.linalg", "mat_det", None),
    ("linalg.nullspace_basis", "hompoly.linalg", "nullspace_basis", None),
    ("linalg.solve_square", "hompoly.linalg", "solve_square", None),
    ("linalg.mat_inverse", "hompoly.linalg", "mat_inverse", None),
    ("classify.map_rank", "hompoly.classify", "map_rank", None),
    ("classify.is_face_collapse", "hompoly.classify", "is_face_collapse", None),
    ("classify.is_deflation", "hompoly.classify", "is_deflation", None),
    ("classify.surjective_onto", "hompoly.classify", "surjective_onto", None),
    ("classify.image_polytope", "hompoly.classify", "image_polytope", None),
    ("classify.classify_all", "hompoly.classify", "classify_all", None),
    ("coincidence.reject_reason", "hompoly.coincidence", "reject_reason", None),
    ("coincidence.certify_nonvanishing", "hompoly.coincidence", "certify_nonvanishing", _attempts),
    ("hom.build_hom", "hompoly.hom", "build_hom", None),
    ("hom.is_vertex_map", "hompoly.hom", "is_vertex_map", None),
    ("hom.hom_identity_check", "hompoly.hom", "hom_identity_check", None),
    *(
        (f"constructions.{fn}", "hompoly.constructions", fn, None)
        for fn in (
            "simplex", "cube", "cross_polytope", "regular_ngon", "join",
            "product", "tensor", "dual", "bipyramid", "standard",
        )
    ),
    *(
        (f"polyio.{fn}", "hompoly.polyio", fn, None)
        for fn in ("read_polytope", "write_vrep", "write_hrep", "write_labels", "read_labels")
    ),
    ("cli.main", "hompoly.cli", "main", None),
)

# Span fields, by position.
NAME, START, END, PARENT, ITEM, DATA = range(6)


class Tracer:
    """Installs span-recording wrappers and removes them again."""

    def __init__(self):
        self.spans: list[list] = []
        self.item: object = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.item, None])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][END] = time.perf_counter()

    def wrap(self, name: str, fn: Callable, hook: Hook | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if hook is not None:
                self.spans[index][DATA] = hook(args, result)
            return result

        return traced

    # -- installation --------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        """Wrap every target and rebind it in every ``hompoly`` module."""
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "hompoly" or key.startswith("hompoly."))
        ]
        for name, module_name, attr, hook in targets:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(name, original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def remove(self) -> None:
        """Put every original function back where it was found."""
        while self._patched:
            module, key, original = self._patched.pop()
            setattr(module, key, original)

    def patched_names(self) -> list[str]:
        return [f"{m.__name__}.{key}" for m, key, _ in self._patched]


def bindings() -> dict[tuple[str, str], int]:
    """Identity of every callable bound in a ``hompoly`` module."""
    return {
        (key, attr): id(value)
        for key, module in list(sys.modules.items())
        if module is not None and (key == "hompoly" or key.startswith("hompoly."))
        for attr, value in vars(module).items()
        if callable(value)
    }


# -- analysis ------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s[START]
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, s[END])
            if end > start:
                covered += end - start
                reach = end
        out.append(s[END] - s[START] - covered)
    return out


def _outermost(spans: list[list], index: int, name: str) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return False
        parent = spans[parent][PARENT]
    return True


def layer_totals(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics for one pass, from that pass's spans."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    incl_s: dict[str, float] = {}
    data: dict[str, list[float]] = {}
    for i, s in enumerate(spans):
        name = s[NAME]
        if name == "dd.enumerate_vertices":
            parent = s[PARENT]
            kind = spans[parent][NAME] if parent >= 0 else ""
            name = {"polytope.hv": "dd.hv", "polytope.vh": "dd.vh"}.get(kind, "dd.other")
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + selfs[i]
        if _outermost(spans, i, s[NAME]):
            incl_s[name] = incl_s.get(name, 0.0) + s[END] - s[START]
        if s[DATA] is not None:
            acc = data.setdefault(name, [0] * len(s[DATA]))
            for k, value in enumerate(s[DATA]):
                acc[k] += value

    def total(table: dict, *names: str) -> float:
        return sum(table.get(n, 0) for n in names)

    def prefixed(table: dict, prefix: str) -> float:
        return sum(v for n, v in table.items() if n.startswith(prefix))

    raw, clusters = data.get("regular.table_row", [0, 0])
    other = ("linalg.nullspace_basis", "linalg.solve_square", "linalg.mat_inverse")
    out = {
        "regular.row_calls": calls.get("regular.table_row", 0),
        "regular.row_self_s": self_s.get("regular.table_row", 0.0),
        "regular.cluster_calls": calls.get("regular.cluster_vertices", 0),
        "regular.cluster_s": incl_s.get("regular.cluster_vertices", 0.0),
        "regular.raw_vertices": raw,
        "regular.clusters": clusters,
        "regular.kept_ratio": clusters / raw if raw else 0.0,
    }
    for kind, size in (("hv", "vertices"), ("vh", "facets")):
        rows, found = data.get(f"dd.{kind}", [0, 0])
        out[f"dd.{kind}.calls"] = calls.get(f"dd.{kind}", 0)
        out[f"dd.{kind}.self_s"] = self_s.get(f"dd.{kind}", 0.0)
        out[f"dd.{kind}.rows"] = rows
        out[f"dd.{kind}.{size}"] = found
    out.update({
        "polytope.lattice_calls": calls.get("polytope.face_lattice", 0),
        "polytope.lattice_self_s": self_s.get("polytope.face_lattice", 0.0),
        "polytope.faces": data.get("polytope.face_lattice", [0])[0],
        "polytope.contains_calls": calls.get("polytope.contains_point", 0),
        "polytope.contains_s": incl_s.get("polytope.contains_point", 0.0),
        "linalg.affine_hull_calls": calls.get("linalg.solve_affine_hull", 0),
        "linalg.affine_hull_s": incl_s.get("linalg.solve_affine_hull", 0.0),
        "linalg.rank_calls": calls.get("linalg.mat_rank", 0),
        "linalg.rank_s": incl_s.get("linalg.mat_rank", 0.0),
        "linalg.det_calls": calls.get("linalg.mat_det", 0),
        "linalg.det_s": incl_s.get("linalg.mat_det", 0.0),
        "linalg.other_calls": total(calls, *other),
        "linalg.other_s": total(incl_s, *other),
        "classify.rank_calls": calls.get("classify.map_rank", 0),
        "classify.rank_s": incl_s.get("classify.map_rank", 0.0),
        "classify.face_collapse_calls": calls.get("classify.is_face_collapse", 0),
        "classify.face_collapse_s": incl_s.get("classify.is_face_collapse", 0.0),
        "classify.deflation_s": incl_s.get("classify.is_deflation", 0.0),
        "classify.surjective_s": incl_s.get("classify.surjective_onto", 0.0),
        "classify.image_calls": calls.get("classify.image_polytope", 0),
        "classify.image_s": incl_s.get("classify.image_polytope", 0.0),
        "classify.all_self_s": self_s.get("classify.classify_all", 0.0),
        "coincidence.reject_calls": calls.get("coincidence.reject_reason", 0),
        "coincidence.reject_s": incl_s.get("coincidence.reject_reason", 0.0),
        "coincidence.certify_calls": calls.get("coincidence.certify_nonvanishing", 0),
        "coincidence.certify_s": incl_s.get("coincidence.certify_nonvanishing", 0.0),
        "coincidence.certify_attempts": data.get("coincidence.certify_nonvanishing", [0])[0],
        "hom.build_calls": calls.get("hom.build_hom", 0),
        "hom.build_self_s": self_s.get("hom.build_hom", 0.0),
        "hom.vertex_test_calls": calls.get("hom.is_vertex_map", 0),
        "hom.vertex_test_s": incl_s.get("hom.is_vertex_map", 0.0),
        "constructions.calls": prefixed(calls, "constructions."),
        "constructions.self_s": prefixed(self_s, "constructions."),
        "polyio.calls": prefixed(calls, "polyio."),
        "polyio.self_s": prefixed(self_s, "polyio."),
        "cli.self_s": self_s.get("cli.main", 0.0),
    })
    return out


def split_by_pass(spans: list[list]) -> list[list[list]]:
    """Spans grouped by the pass in their item id ``(pass, name)``.

    Parent indices are rebased to each group; a pass's spans are
    contiguous and their parents lie in the same pass.
    """
    groups: dict[object, list[list]] = {}
    base: dict[object, int] = {}
    for i, s in enumerate(spans):
        key = s[ITEM][0]
        group = groups.setdefault(key, [])
        base.setdefault(key, i)
        parent = s[PARENT] - base[key] if s[PARENT] >= 0 else -1
        group.append([s[NAME], s[START], s[END], parent, s[ITEM], s[DATA]])
    return list(groups.values())


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "1"
    return "count"


def median_layers(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the traced passes."""
    return {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}

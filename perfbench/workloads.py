"""The four benchmark workloads: their items, inputs and reference checks.

An item is one unit of program work: a ``hompoly`` command line run
in-process through ``hompoly.cli.main`` with stdout captured, or the
admissibility census, which calls ``hompoly.coincidence.reject_reason``
directly.  Each item knows how to check its own output against
:mod:`oracles`, which never imports ``hompoly``.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles

WORKLOADS = ("table", "lattice", "classify", "graphs")

# Gating pairs of the survey table left out of the ``table`` workload: one
# pass over them costs about 52 s of the 62 s the sixteen pairs take, which
# does not fit the run length.  Their rows stay gated by the test suite.
TABLE_LEFT_OUT = {(5, 5), (5, 6), (6, 5)}

# (source, target) V-files for ``classify``; the p<k> files hold the
# integer affine models of the regular k-gon.
CLASSIFY_PAIRS = (
    ("p6", "p6"),
    ("p3", "p4"),
    ("p4", "p6"),
    ("p6", "p4"),
    ("p3", "p6"),
    ("p6", "p3"),
    ("p4", "p4"),
    ("cube3", "cube2"),
    ("cross3", "simplex2"),
)


def _vfile(points: list[tuple[int, ...]]) -> str:
    lines = [f"V {len(points[0])} {len(points)}"]
    lines += [" ".join(str(c) for c in p) for p in points]
    return "\n".join(lines) + "\n"


def _cube(n: int) -> list[tuple[int, ...]]:
    if n == 0:
        return [()]
    return [p + (s,) for p in _cube(n - 1) for s in (-1, 1)]


def _cross(n: int) -> list[tuple[int, ...]]:
    return [
        tuple(s if i == j else 0 for j in range(n)) for i in range(n) for s in (1, -1)
    ]


V_FILES = {
    **{f"p{k}": _vfile(list(pts)) for k, pts in oracles.POLYGON_MODELS.items()},
    "cube3": _vfile(_cube(3)),
    "cube2": _vfile(_cube(2)),
    "cross3": _vfile(_cross(3)),
    "simplex2": _vfile([(0, 0), (1, 0), (0, 1)]),
}


def run_cli(argv: tuple[str, ...]) -> tuple[int, str]:
    """Run one command through ``hompoly.cli.main``; return (status, stdout).

    The entry point is looked up at call time, so a traced run sees the
    wrapped function.  Stderr (warnings) is captured and dropped.
    """
    import hompoly.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = hompoly.cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            status = exc.code if isinstance(exc.code, int) else 1
    return status, out.getvalue()


# -- checks: each returns None when the output is right, else the reason ----

Check = Callable[[int, str], "str | None"]


def _check_table(m: int, n: int) -> Check:
    want = (m, n) + oracles.PUBLISHED_ROWS[(m, n)]

    def check(status: int, out: str) -> str | None:
        if status != 0:
            return f"exit status {status}"
        fields = out.splitlines()[-1].split("\t")
        got = tuple(int(x) for x in fields[:6])
        return None if got == want else f"row {got}, published {want}"

    return check


_F_VECTOR = re.compile(r"^(lhs|rhs): .*: f-vector \(([\d, ]+)\)$", re.M)


def _check_identity(expected: tuple[int, ...]) -> Check:
    def check(status: int, out: str) -> str | None:
        if status != 0:
            return f"exit status {status}"
        sides = {
            side: tuple(int(x) for x in body.split(","))
            for side, body in _F_VECTOR.findall(out)
        }
        if set(sides) != {"lhs", "rhs"}:
            return "missing f-vector lines"
        for side, got in sides.items():
            if got != expected:
                return f"{side} f-vector {got}, convolution gives {expected}"
        return None

    return check


def _rank_counts(out: str) -> tuple[dict[int, int], int]:
    ranks: dict[int, int] = {}
    total = -1
    for line in out.splitlines()[1:]:
        key, value = line.split("\t")
        if key == "total":
            total = int(value)
        elif key != "simple":
            ranks[int(key)] = int(value)
    return ranks, total


def _check_classify(source: str, target: str) -> Check:
    def check(status: int, out: str) -> str | None:
        if status != 0:
            return f"exit status {status}"
        ranks, total = _rank_counts(out)
        if sum(ranks.values()) != total:
            return f"ranks {ranks} do not sum to total {total}"
        if source.startswith("p"):
            m, n = int(source[1:]), int(target[1:])
            r0, r1, r2, t = oracles.PUBLISHED_ROWS[(m, n)]
            want = {r: c for r, c in ((0, r0), (1, r1), (2, r2)) if c}
            if ranks != want or total != t:
                return f"ranks {ranks} total {total}, published {want} {t}"
        elif source == "cube3":
            want_total = oracles.power(oracles.CROSS_4, 2)[0]
            if total != want_total:
                return f"total {total}, cube-bipyramid identity gives {want_total}"
        elif ranks.get(2, 0) != 0:
            return f"{ranks[2]} rank-2 vertices, expected none"
        return None

    return check


def _check_graphs(status: int, out: str) -> str | None:
    if status != 0:
        return f"exit status {status}"
    rows = out.splitlines()[1:]
    if len(rows) != 31:
        return f"{len(rows)} graphs, expected 31"
    for row in rows:
        fields = row.split("\t")
        if len(fields) != 4 or fields[1] != "accepted" or fields[3] in ("0", "-0"):
            return f"bad certificate line {row!r}"
    return None


# -- items and workloads -----------------------------------------------------


@dataclass
class Item:
    """One timed unit of work and the check of its output."""

    name: str
    run: Callable[[], tuple[int, object]]
    check: Callable[[int, object], "str | None"]
    text: Callable[[object], str] = str  # the stdout-equivalent to digest


@dataclass
class Workload:
    name: str
    items: list[Item]
    warmup: Item


def _cli_item(name: str, argv: tuple[str, ...], check: Check) -> Item:
    return Item(name, lambda: run_cli(argv), check)


def _census_item(rng: random.Random) -> Item:
    """``reject_reason`` on every seven-edge subgraph of K(4,5).

    The seed relabels the nodes; subgraph i keeps its shape, so the list
    of reasons must not depend on the seed.
    """
    a_labels = tuple(rng.sample(range(oracles.CENSUS_A), oracles.CENSUS_A))
    b_labels = tuple(rng.sample(range(oracles.CENSUS_B), oracles.CENSUS_B))
    subgraphs = oracles.census_subgraphs(a_labels, b_labels)

    def run() -> tuple[int, object]:
        from hompoly.coincidence import CoincidenceGraph, reject_reason

        return 0, [reject_reason(CoincidenceGraph(edges)) for edges in subgraphs]

    oracle: list[str] = []  # filled on the first check, outside the timed passes

    def check(status: int, reasons: list) -> str | None:
        if not oracle:
            oracle.extend(oracles.census_reason(edges) for edges in subgraphs)
        totals = {r: oracle.count(r) for r in oracles.CENSUS_TOTALS}
        if totals != oracles.CENSUS_TOTALS:
            return f"oracle totals {totals} differ from {oracles.CENSUS_TOTALS}"
        if reasons != oracle:
            wrong = sum(1 for a, b in zip(reasons, oracle) if a != b)
            return f"{wrong} subgraphs classified differently from the oracle"
        return None

    return Item("census K4,5", run, check, text="\n".join)


def build(name: str, seed: int, workdir: Path) -> Workload:
    """The workload's items in the seed's order; writes any V-files it needs."""
    rng = random.Random(seed)
    if name == "table":
        items = [
            _cli_item(f"table {m} {n}", ("table", "--m-range", str(m), "--n-range", str(n)), _check_table(m, n))
            for m in range(3, 7)
            for n in range(3, 7)
            if (m, n) not in TABLE_LEFT_OUT
        ]
        warmup = _cli_item("warm-up table 3 3", ("table", "--m-range", "3", "--n-range", "3"), _check_table(3, 3))
    elif name == "lattice":
        checks = (
            (("cube_bipyramid", "--m", "3", "--n", "2"), oracles.power(oracles.CROSS_4, 2)),
            (("cube_bipyramid", "--m", "2", "--n", "2"), oracles.power(oracles.OCTAHEDRON, 2)),
            (("simplex_power", "--n", "2", "--target", "regular_ngon:4"), oracles.power(oracles.SQUARE, 3)),
        )
        items = [
            _cli_item("identity-check " + " ".join(args), ("identity-check",) + args, _check_identity(want))
            for args, want in checks
        ]
        warmup = _cli_item(
            "warm-up identity-check cube_bipyramid --m 1 --n 1",
            ("identity-check", "cube_bipyramid", "--m", "1", "--n", "1"),
            _check_identity(oracles.SQUARE),
        )
    elif name == "classify":
        workdir.mkdir(parents=True, exist_ok=True)
        for stem, text in V_FILES.items():
            (workdir / f"{stem}.v").write_text(text)
        items = [
            _cli_item(
                f"classify {a} {b}",
                ("classify", str(workdir / f"{a}.v"), str(workdir / f"{b}.v")),
                _check_classify(a, b),
            )
            for a, b in CLASSIFY_PAIRS
        ]
        warmup = _cli_item(
            "warm-up classify p3 p3",
            ("classify", str(workdir / "p3.v"), str(workdir / "p3.v")),
            _check_classify("p3", "p3"),
        )
    elif name == "graphs":
        items = [_cli_item("graphs", ("graphs",), _check_graphs), _census_item(rng)]
        warmup = _cli_item("warm-up graphs", ("graphs",), _check_graphs)
    else:
        raise ValueError(f"unknown workload {name!r}; pick one of {', '.join(WORKLOADS)}")
    rng.shuffle(items)
    return Workload(name, items, warmup)

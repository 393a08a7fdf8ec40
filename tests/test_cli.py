"""Unit tests for the text formats and the command-line surface."""

import dataclasses
import hashlib
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import hompoly.polyio
import hompoly.cli
from hompoly.cli import (
    MAX_DIGITS,
    InvariantViolation,
    _check_hom,
    _check_row,
    main,
    worker_count,
)
from hompoly.coincidence import Certificate, CoincidenceGraph
from hompoly.constructions import cube, regular_ngon, simplex
from hompoly.hom import HomPolytope, IdentityCheckReport, build_hom
from hompoly.polytope import Inequality, Polytope
from hompoly.regular import divisibility_check, table_row
from hompoly.polyio import (
    MAX_DECIMAL_EXPONENT,
    MAX_SCALAR_LENGTH,
    ParseError,
    read_labels,
    read_polytope,
    write_hrep,
    write_labels,
    write_vrep,
)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- polytope text format ------------------------------------------------


def test_vrep_roundtrip():
    c = cube(2)
    back = read_polytope(write_vrep(c))
    assert sorted(back.vertices) == sorted(c.vertices)
    assert back.n_facets == 4


def test_hrep_roundtrip():
    c = cube(2)
    text = write_hrep(c)
    assert text.splitlines()[0] == "H 2 4"
    back = read_polytope(text)
    assert sorted(back.vertices) == sorted(c.vertices)


def test_read_drops_non_extreme_points():
    text = "V 2 5\n0 0\n2 0\n0 2\n2 2\n1 1\n"
    assert read_polytope(text).n_vertices == 4


def test_comments_and_blank_lines_are_ignored():
    text = "# a square\n\nV 2 4\n# corners follow\n1 0\n0 1\n-1 0\n\n0 -1\n"
    assert read_polytope(text).n_vertices == 4


def test_fraction_and_decimal_scalars_parse_exactly():
    p = read_polytope("V 1 2\n-1/3\n0.25\n")
    assert sorted(p.vertices) == [(Fraction(-1, 3),), (Fraction(1, 4),)]


@pytest.mark.parametrize(
    "text, line, column, fragment",
    [
        ("", 1, 1, "empty file"),
        ("W 2 1\n0 0\n", 1, 1, "expected a header"),
        ("V 0 1\n\n", 1, 3, "ambient dimension"),
        ("V 2 0\n", 1, 5, "row count"),
        ("V \u00b2 1\n0 0\n", 1, 3, "ambient dimension"),
        pytest.param(
            "V 2 " + "9" * 5000 + "\n0 0\n", 1, 5, "exceeds the limit of 1000",
            id="5000-digit row count",
        ),
        ("V 2 2\n1 1\n", 1, 5, "promised 2 rows"),
        ("V 2 1\n1 x\n", 2, 3, "rational number"),
        ("V 2 1\n1 2 3\n", 2, 5, "expected 2 entries"),
        ("H 2 1\n1 0\n", 2, 4, "expected 3 entries"),
        ("V 2 1\n1 2\n3 4\n", 3, 1, "unexpected content"),
    ],
)
def test_parse_errors_carry_line_and_column(text, line, column, fragment):
    with pytest.raises(ParseError) as info:
        read_polytope(text)
    assert info.value.line == line
    assert info.value.column == column
    assert fragment in str(info.value)


@pytest.mark.parametrize(
    "token, fragment",
    [
        ("1e999999999", "exponent"),
        ("-2.5E-999999999", "exponent"),
        (f"1e{MAX_DECIMAL_EXPONENT + 1}", "exponent"),
        ("1" * (MAX_SCALAR_LENGTH + 1), "characters"),
    ],
)
def test_oversized_scalars_are_refused_before_fraction(token, fragment, monkeypatch):
    seen = []

    def guarded_fraction(value):
        seen.append(value)
        if value == token:
            raise AssertionError("hostile token reached Fraction")
        return Fraction(value)

    monkeypatch.setattr(hompoly.polyio, "Fraction", guarded_fraction)
    with pytest.raises(ParseError) as info:
        read_polytope(f"V 2 1\n0 {token}\n")
    assert (info.value.line, info.value.column) == (2, 3)
    assert fragment in str(info.value)
    assert seen == ["0"]


def test_scalars_within_the_bounds_parse():
    limit = MAX_DECIMAL_EXPONENT
    p = read_polytope(f"V 1 2\n1e{limit}\n-25E-{limit}\n")
    assert sorted(p.vertices) == [
        (Fraction(-25, 10**limit),),
        (Fraction(10**limit),),
    ]


def test_label_sidecar_roundtrip():
    h = build_hom(regular_ngon(3), regular_ngon(3))
    text = write_labels(h.labels)
    assert text.splitlines()[0] == "0 0 0"
    assert len(text.splitlines()) == 9
    assert read_labels(text) == h.labels


def test_label_sidecar_rejects_gaps_and_junk():
    with pytest.raises(ParseError, match="indices must run"):
        read_labels("1 0 0\n")
    with pytest.raises(ParseError, match="nonnegative index"):
        read_labels("0 0 -1\n")
    with pytest.raises(ParseError, match="nonnegative index") as info:
        read_labels("0 0 \u00b2\n")
    assert (info.value.line, info.value.column) == (1, 5)
    with pytest.raises(ParseError, match="exceeds the limit of 1000") as info:
        read_labels("0 0 " + "9" * 5000 + "\n")
    assert (info.value.line, info.value.column) == (1, 5)
    with pytest.raises(ParseError, match="3 indices"):
        read_labels("0 0\n")
    with pytest.raises(ParseError, match="empty label file"):
        read_labels("# nothing\n")


# -- flag validation -----------------------------------------------------

SIDECAR_MESSAGE = (
    "hom writes a label sidecar; pass --output (sidecar goes next to it)"
    " or --labels"
)


def test_validate_rejects_bad_flags(capsys):
    # every flag check a command line can reach; argparse (exit 2) refuses
    # unknown kinds, a missing input and flags a command does not have
    cases = [
        (["construct", "cube", "3", "--digits", "0"], "--digits must be at least 1"),
        (["construct", "cube", "0"], "construct needs a positive size"),
        (["hom", "a.v", "b.v"], SIDECAR_MESSAGE),
        (["table", "--jobs", "0"], "--jobs must be at least 1"),
        (["table", "--m-range", "2..4"], "--m-range must start at 3 or more"),
        (["table", "--n-range", "5..4"], "--n-range is empty"),
        (
            ["identity-check", "simplex_power", "--n", "1"],
            "simplex_power needs --n and --target",
        ),
        (
            ["identity-check", "cube_cross_swap", "--n", "2"],
            "cube_cross_swap needs --m and --n",
        ),
    ]
    for argv, message in cases:
        code, out, err = run_cli(argv, capsys)
        assert (code, out, err) == (1, "", f"hompoly: ValueError: {message}\n"), argv


def test_hom_checks_its_destination_before_reading_inputs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(["hom", "missing.v", "missing.v"], capsys)
    assert (code, out, err) == (1, "", f"hompoly: ValueError: {SIDECAR_MESSAGE}\n")


def test_identity_check_status_follows_the_report(monkeypatch, capsys):
    def mismatch(kind, **_):
        return IdentityCheckReport(kind, "left", "right", (1, 1), (2, 1))

    monkeypatch.setattr(hompoly.cli, "hom_identity_check", mismatch)
    code, out, err = run_cli(["identity-check", "cube_bipyramid", "--m", "2", "--n", "1"], capsys)
    assert code == 1
    assert err == ""
    assert out.splitlines()[-1] == "match: no"


# ``--help`` of every subcommand at 80 columns, frozen so that no option
# comes or goes unnoticed (argparse's formatting as of Python 3.10-3.12)
HELP = {
    "construct": """\
usage: hompoly construct [-h] [--digits DIGITS] [-o OUTPUT] [--check]
                         {simplex,cube,crosspolytope,regular_ngon} size

Emit a stock polytope as a V-file. regular_ngon N for N other than 3, 4 and 6
rounds the coordinates to --digits decimals, so the polygon is not an affine
image of the regular N-gon; the file says so in a # line.

positional arguments:
  {simplex,cube,crosspolytope,regular_ngon}
  size                  dimension, or vertex count for regular_ngon

options:
  -h, --help            show this help message and exit
  --digits DIGITS       decimals of a rounded regular_ngon
  -o OUTPUT, --output OUTPUT
                        write here instead of stdout
  --check               re-verify invariants and abort on the first violation
""",
    "hom": """\
usage: hompoly hom [-h] [--labels LABELS] [-o OUTPUT] [--check] source target

positional arguments:
  source                V- or H-file for P
  target                V- or H-file for Q

options:
  -h, --help            show this help message and exit
  --labels LABELS       label sidecar path (default: OUTPUT.labels)
  -o OUTPUT, --output OUTPUT
                        write here instead of stdout
  --check               re-verify invariants and abort on the first violation
""",
    "classify": """\
usage: hompoly classify [-h] [-o OUTPUT] [--check] source target

positional arguments:
  source
  target

options:
  -h, --help            show this help message and exit
  -o OUTPUT, --output OUTPUT
                        write here instead of stdout
  --check               re-verify invariants and abort on the first violation
""",
    "table": """\
usage: hompoly table [-h] [--m-range LO..HI] [--n-range LO..HI] [--jobs JOBS]
                     [-o OUTPUT] [--check]

options:
  -h, --help            show this help message and exit
  --m-range LO..HI
  --n-range LO..HI
  --jobs JOBS
  -o OUTPUT, --output OUTPUT
                        write here instead of stdout
  --check               re-verify invariants and abort on the first violation
""",
    "graphs": """\
usage: hompoly graphs [-h] [-o OUTPUT] [--check]

options:
  -h, --help            show this help message and exit
  -o OUTPUT, --output OUTPUT
                        write here instead of stdout
  --check               re-verify invariants and abort on the first violation
""",
    "identity-check": """\
usage: hompoly identity-check [-h] [--n N] [--m M] [--target TARGET]
                              [-o OUTPUT] [--check]
                              {simplex_power,cube_bipyramid,cube_cross_swap}

positional arguments:
  {simplex_power,cube_bipyramid,cube_cross_swap}

options:
  -h, --help            show this help message and exit
  --n N
  --m M
  --target TARGET       target polytope as kind:size, e.g. regular_ngon:5
  -o OUTPUT, --output OUTPUT
                        write here instead of stdout
  --check               re-verify invariants and abort on the first violation
""",
}


@pytest.mark.skipif(
    not (3, 10) <= sys.version_info[:2] < (3, 13),
    reason="argparse formats options differently from Python 3.13 on",
)
@pytest.mark.parametrize("command", sorted(HELP))
def test_help_is_frozen(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exited:
        main([command, "--help"])
    assert exited.value.code == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (HELP[command], "")


def test_worker_count_is_clamped(monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    assert worker_count(1, 16) == 1
    assert worker_count(8, 16) == 2
    assert worker_count(8, 1) == 1
    assert worker_count(10**9, 10**9) == 2
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert worker_count(8, 16) == 1


# -- commands ------------------------------------------------------------


def test_construct_square_is_exact(capsys):
    code, out, err = run_cli(["construct", "regular_ngon", "4"], capsys)
    assert code == 0
    assert out == "V 2 4\n1 0\n0 1\n-1 0\n0 -1\n"
    assert err == ""


def test_construct_writes_file(tmp_path, capsys):
    path = tmp_path / "simplex.poly"
    code, out, _ = run_cli(["construct", "simplex", "2", "-o", str(path)], capsys)
    assert code == 0
    assert out == ""
    assert read_polytope(path.read_text()).n_vertices == 3


def test_hom_writes_hrep_and_sidecar(tmp_path, capsys):
    p3 = tmp_path / "p3.poly"
    run_cli(["construct", "regular_ngon", "3", "-o", str(p3)], capsys)
    out_path = tmp_path / "hom.poly"
    code, _, err = run_cli(
        ["hom", str(p3), str(p3), "-o", str(out_path), "--check"], capsys
    )
    assert code == 0
    assert err == ""
    hom = read_polytope(out_path.read_text())
    assert hom.ambient_dim == 6
    assert out_path.read_text().splitlines()[0] == "H 6 9"
    labels = read_labels((tmp_path / "hom.poly.labels").read_text())
    assert len(labels) == 9
    assert hom.n_vertices == 27


def test_classify_summary_bytes(tmp_path, capsys):
    p3 = tmp_path / "p3.poly"
    run_cli(["construct", "regular_ngon", "3", "-o", str(p3)], capsys)
    code, out, _ = run_cli(["classify", str(p3), str(p3)], capsys)
    assert code == 0
    assert out == (
        "rank\tcount\n"
        "0\t3\n"
        "1\t18\n"
        "2\t6\n"
        "total\t27\n"
        "simple\t27\n"
    )


def test_classify_check_certifies_tight_pairs(tmp_path, capsys):
    # integer hexagon onto the integer square: images land on vertices,
    # edges and the interior, so every location kind is certified
    hexagon = tmp_path / "p6.v"
    hexagon.write_text("V 2 6\n2 0\n1 1\n-1 1\n-2 0\n-1 -1\n1 -1\n")
    square = tmp_path / "p4.v"
    square.write_text("V 2 4\n2 0\n0 1\n-2 0\n0 -1\n")
    argv = ["classify", str(hexagon), str(square)]
    code, plain, _ = run_cli(argv, capsys)
    assert code == 0
    code, checked, err = run_cli(argv + ["--check"], capsys)
    assert code == 0
    assert err == ""
    assert checked == plain == "rank\tcount\n0\t4\n1\t36\n2\t24\ntotal\t64\nsimple\t0\n"


def test_check_rejects_labels_that_misplace_tight_pairs():
    h = build_hom(regular_ngon(3), regular_ngon(3))
    _check_hom(h)
    rotated = dataclasses.replace(h, labels=h.labels[1:] + h.labels[:1])
    with pytest.raises(InvariantViolation) as caught:
        _check_hom(rotated)
    assert caught.value.property_name == "vertex-map-tight-pairs"


def test_check_rejects_a_decoder_that_drops_a_tight_pair(monkeypatch):
    h = build_hom(regular_ngon(3), regular_ngon(3))
    decode = HomPolytope.tight_masks

    def drop_one(self, index):
        masks = decode(self, index)
        v = next(v for v, mask in enumerate(masks) if mask)
        masks[v] &= masks[v] - 1  # clear the lowest tight facet
        return masks

    monkeypatch.setattr(HomPolytope, "tight_masks", drop_one)
    with pytest.raises(InvariantViolation) as caught:
        _check_hom(h)
    assert caught.value.property_name == "vertex-map-tight-pairs"


def test_check_names_the_dimension_law_for_a_flat_hom():
    # a row and its negation pin the hom to a hyperplane
    h = build_hom(simplex(2), simplex(2))
    row = h.polytope.inequalities[0]
    negated = Inequality(tuple(-e for e in row.normal), -row.offset)
    flat = Polytope.from_inequalities(
        h.polytope.inequalities + (negated,), h.ambient_dim, assume_irredundant=True
    )
    flat_hom = dataclasses.replace(h, polytope=flat, labels=h.labels + h.labels[:1])
    with pytest.raises(InvariantViolation) as caught:
        _check_hom(flat_hom)
    assert caught.value.property_name == "hom-dimension-law"
    assert "dim 5 != 2*2+2" in str(caught.value)


def test_check_counts_the_facets_against_the_sides():
    # a triangle's nine hom facets, claimed for a square source
    h = build_hom(simplex(2), simplex(2))
    with pytest.raises(InvariantViolation) as caught:
        _check_hom(dataclasses.replace(h, source=cube(2)))
    assert caught.value.property_name == "hom-facet-count"
    assert "9 facets, expected 12" in str(caught.value)


@pytest.mark.parametrize(
    "extra",
    (
        pytest.param(Inequality((Fraction(1), Fraction(0)), Fraction(10)), id="loose"),
        pytest.param(simplex(2).inequalities[0], id="repeated"),
    ),
)
def test_check_finds_redundant_hom_rows(extra):
    # a target row trusted as a facet but implied by the others, or a
    # copy of one of them, lends each source vertex a redundant hom row;
    # the count still agrees
    triangle = simplex(2).inequalities
    target = Polytope.from_inequalities(triangle + (extra,), 2, assume_irredundant=True)
    h = build_hom(simplex(2), target)
    assert h.polytope.n_facets == 12
    with pytest.raises(InvariantViolation) as caught:
        _check_hom(h)
    assert caught.value.property_name == "hom-facet-irredundancy"
    assert "kept 9 of 12" in str(caught.value)


def test_check_rejects_a_map_that_leaves_the_target():
    # the hom's vertex maps reach the corners of [-1, 1]^2, outside a
    # target shrunk to half its size with the same four facets
    h = build_hom(simplex(2), cube(2))
    half = Polytope.from_vertices([(x / 2, y / 2) for x, y in cube(2).vertices])
    with pytest.raises(InvariantViolation) as caught:
        _check_hom(dataclasses.replace(h, target=half))
    assert caught.value.property_name == "vertex-map-containment"


@pytest.fixture(scope="module")
def row_4_4():
    row, diag = table_row(4, 4)
    _check_row(row, diag)
    assert (row.rank0, row.rank1, row.rank2, row.total) == (4, 24, 8, 36)
    return row, diag


def _miscounted(row, diag, **cells):
    """The row with ``cells`` replaced and its diagnostics rederived."""
    bad = dataclasses.replace(row, **cells)
    return bad, dataclasses.replace(
        diag,
        divisibility=divisibility_check(bad.total, bad.m, bad.n),
        closed_form_mismatches=tuple(
            (cell, getattr(row, cell), value) for cell, value in cells.items()
        ),
    )


@pytest.mark.parametrize(
    "cells, name",
    [
        ({"total": 37}, "table-total-sum"),
        ({"rank0": 5, "rank2": 7}, "table-low-rank-closed-forms"),
        ({"rank2": 9, "total": 37}, "table-divisibility"),
        ({"rank2": 12, "total": 40}, "table-closed-form-match"),
    ],
)
def test_table_check_names_each_miscount(row_4_4, cells, name):
    with pytest.raises(InvariantViolation) as caught:
        _check_row(*_miscounted(*row_4_4, **cells))
    assert caught.value.property_name == name


def test_table_rows_and_determinism(capsys):
    argv = ["table", "--m-range", "3..3", "--n-range", "3..4"]
    code, first, err = run_cli(argv, capsys)
    assert code == 0
    assert err == ""
    lines = first.splitlines()
    assert lines[0] == "m\tn\trank0\trank1\trank2\ttotal\tprovenance"
    assert lines[1].startswith("3\t3\t3\t18\t6\t27\t")
    assert lines[2].startswith("3\t4\t4\t36\t24\t64\t")
    code, second, _ = run_cli(argv, capsys)
    assert second == first
    code, parallel, _ = run_cli(argv + ["--jobs", "2"], capsys)
    assert parallel == first


def test_table_check_mode_accepts_good_rows(capsys):
    code, out, err = run_cli(
        ["table", "--m-range", "4..4", "--n-range", "4..4", "--check"], capsys
    )
    assert code == 0
    assert "4\t4\t4\t24\t8\t36" in out


GRAPHS_SHA256 = "b090e4f767b26683af41e1ceed23a90738ee3921c8af1d6186d373b11dadc0fc"


def test_graphs_output_and_determinism(capsys):
    code, first, err = run_cli(["graphs"], capsys)
    assert code == 0
    assert err == ""
    lines = first.splitlines()
    assert lines[0].startswith("# graph")
    data = [line for line in lines if not line.startswith("#")]
    assert len(data) == 31
    assert all(line.split("\t")[1] == "accepted" for line in data)
    assert all(Fraction(line.split("\t")[3]) != 0 for line in data)
    encoding, _, point, det = data[0].split("\t")
    assert encoding == "7"
    assert point.startswith("s0=2 t0=3")
    # every certificate point and determinant, frozen
    assert hashlib.sha256(first.encode()).hexdigest() == GRAPHS_SHA256


def test_graphs_check_reaches_the_acceptance_invariant(monkeypatch, capsys):
    # a 4-cycle beside three free edges has no generic matrix, so the
    # status must be checked before a certificate is attempted
    four_cycle = CoincidenceGraph(
        ((0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (3, 3), (4, 4))
    )
    monkeypatch.setattr(hompoly.cli, "enumerate_graphs", lambda: [four_cycle])
    code, out, err = run_cli(["graphs", "--check"], capsys)
    assert (code, out) == (1, "")
    assert "violated invariant enumerated-graphs-accepted" in err
    assert "rejected(rule 3)" in err


def test_graphs_check_confirms_the_certificate_without_its_determinant(
    monkeypatch, capsys
):
    # at the all-ones point every row reads (1, 1, 1, 1, 1, 1, -1): the
    # matrix has rank 1 whatever determinant the certificate claims
    def all_ones(g):
        variables = tuple(f"{x}{b}" for b in g.b_nodes for x in "st") + tuple(
            f"{x}{a}" for a in g.a_nodes for x in "uv"
        )
        return Certificate("forged", variables, (1,) * len(variables), Fraction(1), 1)

    monkeypatch.setattr(hompoly.cli, "certify_nonvanishing", all_ones)
    code, out, err = run_cli(["graphs", "--check"], capsys)
    assert (code, out) == (1, "")
    assert "violated invariant certificate-nonzero" in err
    assert "forged" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["identity-check", "simplex_power", "--n", "1", "--target", "regular_ngon:5"],
        ["identity-check", "cube_bipyramid", "--m", "2", "--n", "1"],
        ["identity-check", "cube_cross_swap", "--m", "2", "--n", "2"],
    ],
)
def test_identity_checks_match(argv, capsys):
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out.splitlines()[-1] == "match: yes"
    assert out.startswith(f"kind: {argv[1]}\n")


def test_identity_check_refuses_a_non_decimal_target_size(capsys):
    # "²" passes str.isdigit but int() rejects it
    code, out, err = run_cli(
        ["identity-check", "simplex_power", "--n", "1", "--target", "regular_ngon:²"],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert err.startswith(
        "hompoly: ValueError: --target must look like kind:size, got 'regular_ngon:²'"
    )


def test_cli_errors_are_structured(tmp_path, capsys):
    code, _, err = run_cli(
        ["hom", "/does/not/exist.poly", "/same.poly", "-o", str(tmp_path / "x")],
        capsys,
    )
    assert code == 1
    assert err.startswith("hompoly: FileNotFoundError")

    bad = tmp_path / "bad.poly"
    bad.write_text("V 2 1\n1 x\n")
    good = tmp_path / "good.poly"
    run_cli(["construct", "regular_ngon", "3", "-o", str(good)], capsys)
    code, _, err = run_cli(
        ["hom", str(bad), str(good), "-o", str(tmp_path / "h")], capsys
    )
    assert code == 1
    assert "line 2, column 3" in err

    code, _, err = run_cli(["table", "--m-range", "2..3"], capsys)
    assert code == 1
    assert "start at 3" in err



def test_oversized_table_fails_at_once(capsys):
    start = time.monotonic()
    code, out, err = run_cli(["table", "--n-range", "40"], capsys)
    assert time.monotonic() - start < 5
    assert code == 1
    assert out == ""
    assert err == (
        "hompoly: ValueError: survey pair (3,40): a 40-gon is above the"
        " limit of 10 sides; refusing\n"
    )


def test_oversized_table_range_is_refused_before_its_pairs_are_built(capsys):
    tracemalloc.start()
    try:
        code, out, err = run_cli(
            ["table", "--m-range", "3..1000", "--n-range", "3..1000"], capsys
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert err == (
        "hompoly: ValueError: survey pair (3,11): a 11-gon is above the"
        " limit of 10 sides; refusing\n"
    )
    assert peak < 1 << 20


def test_oversized_simplex_power_fails_at_once(capsys):
    start = time.monotonic()
    code, out, err = run_cli(
        ["identity-check", "simplex_power", "--n", "3", "--target", "regular_ngon:12"],
        capsys,
    )
    assert time.monotonic() - start < 5
    assert code == 1
    assert out == ""
    assert err == (
        "hompoly: ValueError: hom(simplex(3), target) has 12^4 = 20736"
        " vertices, above the vertex limit of 4096; refusing\n"
    )


def test_oversized_identity_source_is_refused_before_it_is_built(capsys):
    # a zero-dimensional target leaves the hom dimension at 0, so only the
    # source bound stops the 2^30 cube vertices
    tracemalloc.start()
    try:
        code, out, err = run_cli(
            ["identity-check", "cube_bipyramid", "--m", "30", "--n", "0"], capsys
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert err == (
        "hompoly: ValueError: hom(cube(30), cube(0)) has source dimension 30,"
        " above the enumeration limit of 8; refusing\n"
    )
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["construct", "cube", "26"],
            "cube 26 has 2^26 vertices of 26 coordinates each",
        ),
        (
            ["construct", "crosspolytope", "26"],
            "crosspolytope 26 has 2^26 facets of 26 coordinates each",
        ),
        (
            ["construct", "simplex", "20000"],
            "simplex 20000 has 20001 vertices of 20000 coordinates each",
        ),
        (
            ["identity-check", "simplex_power", "--n", "1", "--target",
             "regular_ngon:1000000"],
            "regular_ngon 1000000 has 1000000 vertices of 2 coordinates each",
        ),
    ],
    ids=["cube", "crosspolytope", "simplex", "target"],
)
def test_oversized_construction_fails_at_once(argv, message, capsys):
    start = time.monotonic()
    code, out, err = run_cli(argv, capsys)
    assert time.monotonic() - start < 2
    assert code == 1
    assert out == ""
    assert err == (
        f"hompoly: ValueError: {message}, above the limit of 65536"
        " coordinates; refusing\n"
    )


def test_construct_digits_stay_readable(tmp_path, capsys):
    # one digit more and the 7-gon's longest coordinate no longer reads
    one_more = write_vrep(regular_ngon(7, MAX_DIGITS + 1))
    assert max(map(len, one_more.split())) > MAX_SCALAR_LENGTH
    for n in (5, 7, 9):
        path = tmp_path / f"p{n}.v"
        argv = ["construct", "regular_ngon", str(n), "--digits", str(MAX_DIGITS)]
        code, _, err = run_cli(argv + ["-o", str(path)], capsys)
        assert (code, err) == (0, "")
        assert read_polytope(path.read_text()).n_vertices == n
    code, out, err = run_cli(
        ["construct", "regular_ngon", "7", "--digits", str(MAX_DIGITS + 1)], capsys
    )
    assert (code, out) == (1, "")
    assert err == (
        f"hompoly: ValueError: --digits above {MAX_DIGITS} writes coordinates"
        f" longer than the {MAX_SCALAR_LENGTH} characters a V-file may hold\n"
    )


@pytest.mark.parametrize(
    "size, digits, cost",
    [("5", "100000", 10**11), ("32768", "33", 71368704)],
    ids=["digits", "sides"],
)
def test_oversized_ngon_digits_fail_at_once(size, digits, cost, capsys):
    start = time.monotonic()
    code, out, err = run_cli(["construct", "regular_ngon", size, "--digits", digits], capsys)
    assert time.monotonic() - start < 2
    assert code == 1
    assert out == ""
    assert err == (
        f"hompoly: ValueError: regular_ngon {size} at {digits} digits has sides x 2"
        f" x digits^2 = {cost}, above the limit of 67108864; refusing\n"
    )


def test_rounded_ngon_says_so(capsys):
    code, pentagon, _ = run_cli(["construct", "regular_ngon", "5"], capsys)
    assert code == 0
    assert pentagon.startswith(
        "# coordinates rounded to 6 decimals: not an affine image of the"
        " regular 5-gon\nV 2 5\n"
    )
    assert read_polytope(pentagon).n_vertices == 5
    code, square, _ = run_cli(["construct", "regular_ngon", "4"], capsys)
    assert "#" not in square


def test_module_is_runnable():
    # the child finds hompoly where this process did, installed or not
    src = str(Path(hompoly.polyio.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-m", "hompoly.cli", "construct", "regular_ngon", "4"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0
    assert result.stdout == "V 2 4\n1 0\n0 1\n-1 0\n0 -1\n"


def _run_alone(argv):
    """(status, stdout, stderr) of ``argv`` in a fresh process."""
    src = str(Path(hompoly.polyio.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-m", "hompoly.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    return result.returncode, result.stdout, result.stderr


def test_one_parser_serves_every_call_in_a_process(tmp_path, monkeypatch, capsys):
    """main builds its parser once; a call, a usage error included, leaves
    nothing behind that changes the next one."""
    monkeypatch.setenv("COLUMNS", "80")
    triangle = tmp_path / "p3.poly"
    triangle.write_text("V 2 3\n0 0\n1 0\n0 1\n")
    table = ["table", "--m-range", "3", "--n-range", "3..4"]
    calls = [table, ["table", "--jobs"], ["classify", str(triangle), str(triangle)], table]
    hompoly.cli._build_parser.cache_clear()
    results = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exited:
            code = exited.code
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err))
    assert hompoly.cli._build_parser.cache_info().misses == 1
    assert [code for code, _, _ in results] == [0, 2, 0, 0]
    assert "expected one argument" in results[1][2]
    assert results == [_run_alone(argv) for argv in calls]


def test_runs_without_mpmath():
    # a None entry in sys.modules makes `import mpmath` fail
    src = str(Path(hompoly.polyio.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = (
        "import sys\n"
        "sys.modules['mpmath'] = None\n"
        "from hompoly.cli import main\n"
        "assert main(['construct', 'regular_ngon', '7']) == 0\n"
        "assert main(['table', '--m-range', '5', '--n-range', '5']) == 0\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("# coordinates rounded to 6 decimals")
    assert "\n5\t5\t5\t100\t60\t165\t" in result.stdout

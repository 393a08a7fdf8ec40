"""Unit tests for the text formats and the command-line surface."""

import dataclasses
import hashlib
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import hompoly.polyio
from hompoly.cli import InvariantViolation, RunConfig, _check_hom, main, worker_count
from hompoly.constructions import cube, regular_ngon
from hompoly.hom import build_hom
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


# -- RunConfig validation ------------------------------------------------


def test_validate_rejects_bad_flags():
    with pytest.raises(ValueError, match="digits"):
        RunConfig("graphs", digits=0).validate()
    with pytest.raises(ValueError, match="jobs"):
        RunConfig("graphs", jobs=0).validate()
    with pytest.raises(ValueError, match="unknown construction"):
        RunConfig("construct", kind="orb", size=3).validate()
    with pytest.raises(ValueError, match="exactly two"):
        RunConfig("hom", inputs=("one.poly",)).validate()
    with pytest.raises(ValueError, match="sidecar"):
        RunConfig("hom", inputs=("a", "b")).validate()
    with pytest.raises(ValueError, match="start at 3"):
        RunConfig("table", m_range=(2, 4)).validate()
    with pytest.raises(ValueError, match="empty"):
        RunConfig("table", n_range=(5, 4)).validate()
    with pytest.raises(ValueError, match="needs --n and --target"):
        RunConfig("identity-check", kind="simplex_power").validate()
    with pytest.raises(ValueError, match="needs --m and --n"):
        RunConfig("identity-check", kind="cube_cross_swap", n=2).validate()


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

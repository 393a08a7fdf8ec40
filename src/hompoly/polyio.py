"""Line-oriented text formats for polytopes and facet labels.

A polytope file starts with a header line, either ``V <ambient_dim>
<count>`` or ``H <ambient_dim> <count>``, followed by exactly
``<count>`` data lines.  A V-file line holds the coordinates of one
point; an H-file line holds a normal vector followed by one offset,
meaning ``normal . x <= offset``.  Scalars are exact rationals in any
form :class:`~fractions.Fraction` accepts ("2", "-1/3", "0.25"), up to
:data:`MAX_SCALAR_LENGTH` characters and with a decimal exponent of at
most :data:`MAX_DECIMAL_EXPONENT` in absolute value; header counts and
label indices are decimal integers of at most the same length.
Lines whose first non-blank character is ``#`` and blank lines are
ignored everywhere.

A label sidecar pairs each inequality of a hom polytope with its
origin: one line ``<ineq_index> <vertex_index> <facet_index>`` per
inequality, in inequality order.

Parse failures raise :class:`ParseError` carrying the 1-based line and
column of the offending token, so callers can point at the exact spot.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .hom import FacetLabel
from .polytope import Inequality, Polytope

_TOKEN = re.compile(r"\S+")

# Bounds on one number token, checked before Fraction or int sees it:
# an exponent such as "1e999999999" would otherwise be expanded into a
# billion-digit integer, and int() refuses strings of over 4300 digits
# without saying where they are.
MAX_SCALAR_LENGTH = 1000
MAX_DECIMAL_EXPONENT = 1000


class ParseError(ValueError):
    """A polytope or label file does not follow the format."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _content_lines(text: str) -> list[tuple[int, str]]:
    """Strip comments and blanks, keeping original line numbers."""
    kept = []
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        kept.append((number, line))
    return kept


def _tokens(line: str) -> list[tuple[int, str]]:
    return [(m.start() + 1, m.group()) for m in _TOKEN.finditer(line)]


def _refuse_long(token: str, line: int, column: int) -> None:
    if len(token) > MAX_SCALAR_LENGTH:
        raise ParseError(
            f"number of {len(token)} characters exceeds the limit of"
            f" {MAX_SCALAR_LENGTH}",
            line,
            column,
        )


def _scalar(token: str, line: int, column: int) -> Fraction:
    _refuse_long(token, line, column)
    mark = max(token.rfind("e"), token.rfind("E"))
    if mark >= 0:
        try:
            exponent = int(token[mark + 1 :])
        except ValueError:
            exponent = 0  # not a decimal exponent; Fraction rejects the token
        if abs(exponent) > MAX_DECIMAL_EXPONENT:
            raise ParseError(
                f"exponent in {token[:40]!r} exceeds the limit of"
                f" {MAX_DECIMAL_EXPONENT}",
                line,
                column,
            )
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"expected a rational number, got {token!r}", line, column)


def _index(token: str, expected: str, line: int, column: int) -> int:
    """A nonnegative decimal integer token, refused before ``int`` sees it."""
    _refuse_long(token, line, column)
    # isdecimal, not isdigit: "²" is a digit that int() rejects
    if not token.isdecimal():
        raise ParseError(f"expected {expected}, got {token!r}", line, column)
    return int(token)


def _positive_int(token: str, what: str, line: int, column: int) -> int:
    expected = f"a positive {what}"
    value = _index(token, expected, line, column)
    if value == 0:
        raise ParseError(f"expected {expected}, got {token!r}", line, column)
    return value


def _row(
    numbered: tuple[int, str], width: int, what: str
) -> tuple[Fraction, ...]:
    number, line = numbered
    tokens = _tokens(line)
    if len(tokens) != width:
        column = tokens[width][0] if len(tokens) > width else len(line) + 1
        raise ParseError(
            f"expected {width} entries for a {what}, got {len(tokens)}",
            number,
            column,
        )
    return tuple(_scalar(tok, number, col) for col, tok in tokens)


def read_polytope(text: str) -> Polytope:
    """Parse one V- or H-file into a polytope.

    V-files are treated as point sets (non-extreme points are dropped
    during canonicalization); H-files as inequality systems, which must
    be bounded, feasible, and full-dimensional to be completed later.
    """
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty file: expected a V or H header", 1, 1)
    number, header = lines[0]
    tokens = _tokens(header)
    if len(tokens) != 3 or tokens[0][1] not in ("V", "H"):
        raise ParseError(
            'expected a header "V <ambient_dim> <count>" or '
            '"H <ambient_dim> <count>"',
            number,
            tokens[0][0] if tokens else 1,
        )
    kind = tokens[0][1]
    ambient = _positive_int(tokens[1][1], "ambient dimension", number, tokens[1][0])
    count = _positive_int(tokens[2][1], "row count", number, tokens[2][0])
    body, extra = lines[1 : 1 + count], lines[1 + count :]
    if len(body) < count:
        raise ParseError(
            f"header promised {count} rows but the file has {len(body)}",
            number,
            tokens[2][0],
        )
    if extra:
        raise ParseError(
            f"unexpected content after the promised {count} rows",
            extra[0][0],
            1,
        )
    if kind == "V":
        points = [_row(entry, ambient, "point") for entry in body]
        return Polytope.from_points(points)
    rows = [_row(entry, ambient + 1, "normal and offset") for entry in body]
    inequalities = [Inequality(row[:-1], row[-1]) for row in rows]
    return Polytope.from_inequalities(inequalities, ambient)


def _header(kind: str, p: Polytope, count: int) -> str:
    if p.ambient_dim == 0:
        raise ValueError(
            "cannot write ambient dimension 0: the format has no line for a"
            " point of R^0, and the reader requires a positive ambient dimension"
        )
    return f"{kind} {p.ambient_dim} {count}"


def write_vrep(p: Polytope) -> str:
    """Render the vertex description, one vertex per line."""
    rows = [_header("V", p, p.n_vertices)]
    for v in p.vertices:
        rows.append(" ".join(str(c) for c in v))
    return "\n".join(rows) + "\n"


def write_hrep(p: Polytope) -> str:
    """Render the facet description, one inequality per line."""
    rows = [_header("H", p, p.n_facets)]
    for ineq in p.inequalities:
        rows.append(
            " ".join(str(c) for c in ineq.normal) + f" {ineq.offset}"
        )
    return "\n".join(rows) + "\n"


def write_labels(labels: tuple[FacetLabel, ...]) -> str:
    """Render a label sidecar, one inequality per line."""
    rows = [
        f"{index} {label.vertex_index} {label.facet_index}"
        for index, label in enumerate(labels)
    ]
    return "\n".join(rows) + "\n"


def read_labels(text: str) -> tuple[FacetLabel, ...]:
    """Parse a label sidecar back into facet labels, in inequality order."""
    labels: list[FacetLabel] = []
    for number, line in _content_lines(text):
        tokens = _tokens(line)
        if len(tokens) != 3:
            column = tokens[3][0] if len(tokens) > 3 else len(line) + 1
            raise ParseError(
                f"expected 3 indices per label line, got {len(tokens)}",
                number,
                column,
            )
        values = [
            _index(token, "a nonnegative index", number, column)
            for column, token in tokens
        ]
        if values[0] != len(labels):
            raise ParseError(
                f"inequality indices must run 0,1,2,...; got {values[0]} "
                f"where {len(labels)} was expected",
                number,
                tokens[0][0],
            )
        labels.append(FacetLabel(values[1], values[2]))
    if not labels:
        raise ParseError("empty label file", 1, 1)
    return tuple(labels)

"""Shared exception types.

Input failures derive from :class:`GeometryError` so callers that only
care about "the input was not a bounded full-dimensional polytope" can
catch one type, while tests and the CLI can branch on the specific
failure and report the attached witness data.  :class:`InvariantViolation`,
raised by :mod:`hompoly.checks`, is a fault of the program, not of the
input, and so a ``RuntimeError``.
"""

from __future__ import annotations

from fractions import Fraction


class GeometryError(ValueError):
    """Base class for geometric input failures."""


class UnboundedError(GeometryError):
    """The inequality system admits an unbounded feasible direction."""

    def __init__(self, direction: tuple[Fraction, ...]):
        super().__init__(
            "polytope is unbounded in direction ("
            + ", ".join(str(e) for e in direction)
            + ")"
        )
        self.direction = direction


class InfeasibleError(GeometryError):
    """The inequality system has no solution."""

    def __init__(self, message: str = "inequality system is infeasible"):
        super().__init__(message)


class LowerDimensionalError(GeometryError):
    """The feasible set or point set is not full-dimensional.

    Carries the dimension of the affine hull.  For a point set the usual
    fix is to project onto a chart of the hull first; for an inequality
    system, ``tight_row`` names a row that holds with equality at every
    vertex (an implicit equality), which must be eliminated first.
    """

    def __init__(self, hull_dim: int, ambient_dim: int, tight_row: int | None = None):
        if tight_row is None:
            fix = "project onto a chart of the hull (chart_project)"
        else:
            fix = (
                f"inequality {tight_row} (counting from 0) is tight at every"
                " vertex, an implicit equality; eliminate it"
            )
        super().__init__(
            f"set spans a {hull_dim}-dimensional affine hull in "
            f"{ambient_dim}-dimensional space; {fix} before converting"
        )
        self.hull_dim = hull_dim
        self.ambient_dim = ambient_dim
        self.tight_row = tight_row


class OutsideHullError(GeometryError):
    """A point handed to a chart does not lie in the chart's affine hull."""


class InvariantViolation(RuntimeError):
    """An assertion-mode re-check failed; carries the property's name."""

    def __init__(self, property_name: str, detail: str):
        super().__init__(f"violated invariant {property_name}: {detail}")
        self.property_name = property_name
        self.detail = detail

    def __reduce__(self):
        # rebuild from both arguments; the default passes only the message
        return type(self), (self.property_name, self.detail)

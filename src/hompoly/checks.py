"""The invariants ``--check`` re-verifies, one function per command.

Each function recomputes a property of a result another module
produced, by a route independent of the one that produced it, and
raises :class:`~hompoly.errors.InvariantViolation` naming the first
property that fails.  Checks run in a fixed order, so a planted fault
always reports the same name.

* ``hom``: :func:`check_hom`.
* ``classify``: :func:`check_hom`, then :func:`check_classify_summary`.
* ``table``: :func:`check_table_row`, once per row.
* ``graphs``: :func:`check_graph_accepted` on each enumerated graph's
  status, then :func:`check_certificate` on its certificate.  The
  status is checked first because a rejected graph has no matrix.
"""

from __future__ import annotations

from .classify import ClassifySummary, rank1_polygon_count
from .coincidence import Certificate, CoincidenceGraph, build_generic_matrix, evaluate_matrix
from .errors import InvariantViolation, LowerDimensionalError
from .hom import HomPolytope
from .linalg import mat_rank
from .polytope import _first_maximal, contains_point
from .regular import CountRow, closed_form_counts, divisibility_check


def check_hom(h: HomPolytope) -> None:
    """The hom's dimension, facets, and each vertex map's tight pairs by evaluation."""
    dp, dq = h.source.ambient_dim, h.target.ambient_dim
    try:
        dim = h.polytope.dim
    except LowerDimensionalError as exc:
        dim = exc.hull_dim
    if dim != dp * dq + dq:
        raise InvariantViolation(
            "hom-dimension-law", f"dim {dim} != {dp}*{dq}+{dq}"
        )
    expected = h.source.n_vertices * h.target.n_facets
    if h.polytope.n_facets != expected:
        raise InvariantViolation(
            "hom-facet-count",
            f"{h.polytope.n_facets} facets, expected {expected}",
        )
    # the filter an unchecked description runs, on the hom's own masks
    kept = _first_maximal(h.polytope.facet_masks)
    if len(kept) != h.polytope.n_facets:
        raise InvariantViolation(
            "hom-facet-irredundancy",
            f"irredundancy pass kept {len(kept)} of "
            f"{h.polytope.n_facets} inequalities",
        )
    # classification reads the target facets tight at f(v) off the hom
    # facets tight at f; certify that reading against exact evaluation
    for index in range(h.polytope.n_vertices):
        f = h.map_at_vertex(index)
        masks = h.tight_masks(index)
        for v, mask in zip(h.source.vertices, masks, strict=True):
            hit = contains_point(h.target, f.apply(v))
            if hit.kind == "outside":
                raise InvariantViolation(
                    "vertex-map-containment",
                    f"map {f.to_point()} sends {v} outside the target",
                )
            marked = {k for k in range(h.target.n_facets) if mask >> k & 1}
            if hit.active != marked:
                raise InvariantViolation(
                    "vertex-map-tight-pairs",
                    f"map {f.to_point()} is tight at {v} on target facets "
                    f"{sorted(hit.active)}, its hom facets mark {sorted(marked)}",
                )


def check_classify_summary(h: HomPolytope, summary: ClassifySummary) -> None:
    """A polygon source's rank-1 count against its closed form in the source's edges."""
    if h.source.dim != 2:
        return
    expected = rank1_polygon_count(h.source, h.target)
    if summary.rank_count(1) != expected:
        raise InvariantViolation(
            "classify-rank1-closed-form",
            f"{summary.rank_count(1)} rank-1 vertices, the closed form says {expected}",
        )


def check_table_row(row: CountRow) -> None:
    """A survey row's sum, closed forms and divisibility, from its cells alone."""
    m, n = row.m, row.n
    if row.rank0 + row.rank1 + row.rank2 != row.total:
        raise InvariantViolation(
            "table-total-sum", f"({m},{n}) ranks do not sum to total"
        )
    forms = closed_form_counts(m, n)
    if row.rank0 != forms.rank0 or row.rank1 != forms.rank1:
        raise InvariantViolation(
            "table-low-rank-closed-forms",
            f"({m},{n}) got rank0={row.rank0} rank1={row.rank1}, "
            f"closed forms say {forms.rank0}, {forms.rank1}",
        )
    divisibility = divisibility_check(row.total, m, n)
    if not divisibility.ok:
        raise InvariantViolation(
            "table-divisibility",
            f"({m},{n}) total {row.total}: " + "; ".join(divisibility.reasons),
        )
    # the sum, rank0 and rank1 hold here, so rank2 and the total differ together
    if forms.rank2 is not None and row.rank2 != forms.rank2:
        raise InvariantViolation(
            "table-closed-form-match",
            f"({m},{n}) cells disagree with closed forms: "
            f"{('rank2', forms.rank2, row.rank2), ('total', forms.total, row.total)}",
        )


def check_graph_accepted(g: CoincidenceGraph, status: str) -> None:
    """An enumerated graph's ``reject_reason`` status is ``accepted``."""
    if status != "accepted":
        raise InvariantViolation(
            "enumerated-graphs-accepted", f"edges {g.edges} came out {status}"
        )


def check_certificate(g: CoincidenceGraph, cert: Certificate) -> None:
    """The certificate's determinant is nonzero and its point gives rank 7."""
    # a rank on the echelon kernel, independent of mat_det's Bareiss
    if (
        cert.det_value == 0
        or mat_rank(evaluate_matrix(build_generic_matrix(g), cert.point)) != 7
    ):
        raise InvariantViolation(
            "certificate-nonzero",
            f"{cert.encoding} is singular at its certificate point",
        )

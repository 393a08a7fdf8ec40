"""Batch command-line surface tying the modules together.

Every command reads polytope text files (the format in
:mod:`hompoly.polyio`), writes its result to ``--output`` or stdout,
and is deterministic: the same inputs and flags produce byte-identical
output.  ``--jobs`` distributes independent table rows over processes,
never more than there are rows or CPUs, and only changes wall time,
never content or order.
``--check`` turns on assertion mode, which re-verifies the documented
invariants along the way and aborts naming the violated property.

Exit status: 0 on success, 1 on any module or validation error (and on
a failed identity check), 2 on command-line usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .classify import classify_all
from .coincidence import (
    canonical_encoding,
    certify_nonvanishing,
    enumerate_graphs,
    reject_reason,
)
from .constructions import standard
from .errors import GeometryError
from .hom import HomPolytope, build_hom, enumerate_vertex_maps, hom_identity_check
from .polyio import ParseError, read_polytope, write_hrep, write_labels, write_vrep
from .polytope import Polytope, contains_point, polytope_dim
from .regular import (
    CLUSTER_CONVENTION,
    DEFAULT_EPSILONS,
    DISTANCE_CONVENTION,
    CountRow,
    TableDiagnostics,
    closed_form_counts,
    table_row,
)

_CONSTRUCTION_KINDS = ("simplex", "cube", "crosspolytope", "regular_ngon")
_IDENTITY_KINDS = ("simplex_power", "cube_bipyramid", "cube_cross_swap")


class InvariantViolation(RuntimeError):
    """An assertion-mode re-check failed; carries the property's name."""

    def __init__(self, property_name: str, detail: str):
        super().__init__(f"violated invariant {property_name}: {detail}")
        self.property_name = property_name


@dataclass(frozen=True)
class RunConfig:
    """One fully validated command invocation."""

    command: str
    inputs: tuple[str, ...] = ()
    output: str | None = None
    labels: str | None = None
    kind: str | None = None
    size: int | None = None
    target: str | None = None
    m: int | None = None
    n: int | None = None
    m_range: tuple[int, int] = (3, 6)
    n_range: tuple[int, int] = (3, 6)
    digits: int = 6
    eps: tuple[Fraction, ...] = field(default=DEFAULT_EPSILONS)
    check: bool = False
    jobs: int = 1

    def validate(self) -> None:
        """Reject bad flag combinations before any computation starts."""
        if self.digits < 1:
            raise ValueError("--digits must be at least 1")
        if not self.eps:
            raise ValueError("--eps needs at least one threshold")
        if any(e <= 0 for e in self.eps):
            raise ValueError("--eps thresholds must be positive")
        if self.jobs < 1:
            raise ValueError("--jobs must be at least 1")
        if self.command == "construct":
            if self.kind not in _CONSTRUCTION_KINDS:
                raise ValueError(
                    f"unknown construction {self.kind!r}; pick one of "
                    + ", ".join(_CONSTRUCTION_KINDS)
                )
            if self.size is None or self.size < 1:
                raise ValueError("construct needs a positive size")
        elif self.command in ("hom", "classify"):
            if len(self.inputs) != 2:
                raise ValueError(f"{self.command} needs exactly two polytope files")
            if self.command == "hom" and self.output is None and self.labels is None:
                raise ValueError(
                    "hom writes a label sidecar; pass --output (sidecar goes "
                    "next to it) or --labels"
                )
        elif self.command == "table":
            for name, (lo, hi) in (("m", self.m_range), ("n", self.n_range)):
                if lo < 3:
                    raise ValueError(f"--{name}-range must start at 3 or more")
                if hi < lo:
                    raise ValueError(f"--{name}-range is empty")
        elif self.command == "identity-check":
            if self.kind not in _IDENTITY_KINDS:
                raise ValueError(
                    f"unknown identity {self.kind!r}; pick one of "
                    + ", ".join(_IDENTITY_KINDS)
                )
            if self.kind == "simplex_power" and (self.n is None or not self.target):
                raise ValueError("simplex_power needs --n and --target")
            if self.kind != "simplex_power" and (self.n is None or self.m is None):
                raise ValueError(f"{self.kind} needs --m and --n")
        elif self.command != "graphs":
            raise ValueError(f"unknown command {self.command!r}")


# -- assertion-mode re-checks -------------------------------------------


def _check_hom(h: HomPolytope) -> None:
    dp, dq = h.source.ambient_dim, h.target.ambient_dim
    if polytope_dim(h.polytope) != dp * dq + dq:
        raise InvariantViolation(
            "hom-dimension-law",
            f"dim {polytope_dim(h.polytope)} != {dp}*{dq}+{dq}",
        )
    expected = h.source.n_vertices * h.target.n_facets
    if h.polytope.n_facets != expected:
        raise InvariantViolation(
            "hom-facet-count",
            f"{h.polytope.n_facets} facets, expected {expected}",
        )
    rebuilt = Polytope.from_inequalities(
        h.polytope.inequalities, h.polytope.ambient_dim
    )
    if rebuilt.n_facets != h.polytope.n_facets:
        raise InvariantViolation(
            "hom-facet-irredundancy",
            f"irredundancy pass kept {rebuilt.n_facets} of "
            f"{h.polytope.n_facets} inequalities",
        )
    # classification reads the target facets tight at f(v) off the hom
    # facets tight at f; certify that reading against exact evaluation
    for f, labels in enumerate_vertex_maps(h):
        for v_index, v in enumerate(h.source.vertices):
            hit = contains_point(h.target, f.apply(v))
            if hit.kind == "outside":
                raise InvariantViolation(
                    "vertex-map-containment",
                    f"map {f.to_point()} sends {v} outside the target",
                )
            marked = {
                label.facet_index for label in labels if label.vertex_index == v_index
            }
            if hit.active != marked:
                raise InvariantViolation(
                    "vertex-map-tight-pairs",
                    f"map {f.to_point()} is tight at {v} on target facets "
                    f"{sorted(hit.active)}, its hom facets mark {sorted(marked)}",
                )


def _check_row(row: CountRow, diag: TableDiagnostics) -> None:
    if row.rank0 + row.rank1 + row.rank2 != row.total:
        raise InvariantViolation(
            "table-total-sum", f"({row.m},{row.n}) ranks do not sum to total"
        )
    forms = closed_form_counts(row.m, row.n)
    if row.rank0 != forms.rank0 or row.rank1 != forms.rank1:
        raise InvariantViolation(
            "table-low-rank-closed-forms",
            f"({row.m},{row.n}) got rank0={row.rank0} rank1={row.rank1}, "
            f"closed forms say {forms.rank0}, {forms.rank1}",
        )
    if not diag.divisibility.ok:
        raise InvariantViolation(
            "table-divisibility",
            f"({row.m},{row.n}) total {row.total}: "
            + "; ".join(diag.divisibility.reasons),
        )
    if diag.closed_form_mismatches:
        raise InvariantViolation(
            "table-closed-form-match",
            f"({row.m},{row.n}) cells disagree with closed forms: "
            f"{diag.closed_form_mismatches}",
        )


# -- command bodies ------------------------------------------------------

Emission = list[tuple[str | None, str]]


def _cmd_construct(config: RunConfig) -> Emission:
    assert config.kind is not None
    p = standard(config.kind, config.size, config.digits)
    return [(config.output, write_vrep(p))]


def _read_input(path: str) -> Polytope:
    return read_polytope(Path(path).read_text())


def _cmd_hom(config: RunConfig) -> Emission:
    p = _read_input(config.inputs[0])
    q = _read_input(config.inputs[1])
    h = build_hom(p, q)
    if config.check:
        _check_hom(h)
    labels_path = config.labels
    if labels_path is None and config.output is not None:
        labels_path = config.output + ".labels"
    out: Emission = [(config.output, write_hrep(h.polytope))]
    if labels_path is not None:
        out.append((labels_path, write_labels(h.labels)))
    return out


def _cmd_classify(config: RunConfig) -> Emission:
    p = _read_input(config.inputs[0])
    q = _read_input(config.inputs[1])
    h = build_hom(p, q)
    if config.check:
        _check_hom(h)
    _records, summary = classify_all(h)
    lines = ["rank\tcount"]
    for rank, count in summary.by_rank:
        lines.append(f"{rank}\t{count}")
    lines.append(f"total\t{summary.total}")
    lines.append(f"simple\t{summary.simple_count}")
    return [(config.output, "\n".join(lines) + "\n")]


def worker_count(jobs: int, tasks: int) -> int:
    """Processes to start for ``tasks`` independent tasks under ``--jobs``.

    Never more than the tasks, the requested jobs or the CPUs, and at
    least one, so ``--jobs`` cannot start an unbounded number of workers.
    """
    return max(1, min(jobs, tasks, os.cpu_count() or 1))


def _table_worker(
    spec: tuple[int, int, int, tuple[Fraction, ...]]
) -> tuple[CountRow, TableDiagnostics]:
    m, n, digits, eps = spec
    return table_row(m, n, digits=digits, eps_list=eps)


def _cmd_table(config: RunConfig) -> Emission:
    specs = [
        (m, n, config.digits, config.eps)
        for m in range(config.m_range[0], config.m_range[1] + 1)
        for n in range(config.n_range[0], config.n_range[1] + 1)
    ]
    workers = worker_count(config.jobs, len(specs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_table_worker, specs))
    else:
        results = [_table_worker(spec) for spec in specs]
    eps_text = ",".join(str(e) for e in config.eps)
    lines = [
        f"# digits={config.digits} eps={eps_text} "
        f"distance={DISTANCE_CONVENTION} clusters={CLUSTER_CONVENTION}",
        "m\tn\trank0\trank1\trank2\ttotal\tprovenance",
    ]
    for row, diag in results:
        if config.check:
            _check_row(row, diag)
        elif not diag.divisibility.ok:
            print(
                f"hompoly: warning: ({row.m},{row.n}) fails divisibility: "
                + "; ".join(diag.divisibility.reasons),
                file=sys.stderr,
            )
        if diag.mixed_rank_clusters or diag.mixed_label_clusters:
            print(
                f"hompoly: warning: ({row.m},{row.n}) has mixed clusters "
                f"(rank: {len(diag.mixed_rank_clusters)}, "
                f"label: {len(diag.mixed_label_clusters)})",
                file=sys.stderr,
            )
        lines.append(
            f"{row.m}\t{row.n}\t{row.rank0}\t{row.rank1}\t{row.rank2}"
            f"\t{row.total}\t" + ",".join(row.provenance)
        )
    return [(config.output, "\n".join(lines) + "\n")]


def _cmd_graphs(config: RunConfig) -> Emission:
    lines = ["# graph\tstatus\tcertificate\tdeterminant"]
    for g in enumerate_graphs():
        cert = certify_nonvanishing(g)
        status = reject_reason(g)
        if config.check and status != "accepted":
            raise InvariantViolation(
                "enumerated-graphs-accepted",
                f"{canonical_encoding(g)} came out {status}",
            )
        if config.check and cert.det_value == 0:
            raise InvariantViolation(
                "certificate-nonzero", f"{cert.encoding} certified zero"
            )
        point = " ".join(
            f"{name}={value}"
            for name, value in zip(cert.variables, cert.point)
        )
        lines.append(
            f"{cert.encoding}\t{status}\t{point}\t{cert.det_value}"
        )
    return [(config.output, "\n".join(lines) + "\n")]


def _cmd_identity_check(config: RunConfig) -> Emission:
    target = None
    if config.target:
        name, _, size = config.target.partition(":")
        # isdecimal, not isdigit: "²" is a digit that int() rejects
        if not size.isdecimal():
            raise ValueError(
                f"--target must look like kind:size, got {config.target!r}"
            )
        target = standard(name, int(size), config.digits)
    report = hom_identity_check(
        config.kind or "", n=config.n, m=config.m, p=target
    )
    lines = [
        f"kind: {report.kind}",
        f"lhs: {report.lhs_description}: f-vector {report.lhs_f_vector}",
        f"rhs: {report.rhs_description}: f-vector {report.rhs_f_vector}",
        f"match: {'yes' if report.match else 'no'}",
    ]
    return [(config.output, "\n".join(lines) + "\n")]


_HANDLERS = {
    "construct": _cmd_construct,
    "hom": _cmd_hom,
    "classify": _cmd_classify,
    "table": _cmd_table,
    "graphs": _cmd_graphs,
    "identity-check": _cmd_identity_check,
}


def run(config: RunConfig) -> int:
    """Validate, execute, and write one command; return the exit status."""
    config.validate()
    emissions = _HANDLERS[config.command](config)
    for destination, text in emissions:
        if destination is None:
            sys.stdout.write(text)
        else:
            Path(destination).write_text(text)
    if config.command == "identity-check":
        return 0 if emissions[0][1].splitlines()[-1] == "match: yes" else 1
    return 0


# -- argument parsing ----------------------------------------------------


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    try:
        if sep:
            return int(lo), int(hi)
        return int(lo), int(lo)
    except ValueError:
        raise ValueError(f"ranges look like 3..6 or a single number, got {text!r}")


def _parse_eps(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(part) for part in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--eps takes comma-separated rationals, got {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hompoly",
        description="Polytopes of affine maps: construction, "
        "classification, tables, and certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("-o", "--output", help="write here instead of stdout")
        p.add_argument(
            "--check",
            action="store_true",
            help="re-verify invariants and abort on the first violation",
        )

    p = sub.add_parser("construct", help="emit a stock polytope as a V-file")
    p.add_argument("kind", choices=_CONSTRUCTION_KINDS)
    p.add_argument("size", type=int, help="dimension, or vertex count for regular_ngon")
    p.add_argument("--digits", type=int, default=6)
    common(p)

    p = sub.add_parser("hom", help="build the polytope of maps sending P into Q")
    p.add_argument("source", help="V- or H-file for P")
    p.add_argument("target", help="V- or H-file for Q")
    p.add_argument("--labels", help="label sidecar path (default: OUTPUT.labels)")
    common(p)

    p = sub.add_parser("classify", help="rank summary of the vertex maps P -> Q")
    p.add_argument("source")
    p.add_argument("target")
    common(p)

    p = sub.add_parser("table", help="vertex-count table for regular polygon pairs")
    p.add_argument("--m-range", type=_parse_range, default=(3, 6), metavar="LO..HI")
    p.add_argument("--n-range", type=_parse_range, default=(3, 6), metavar="LO..HI")
    p.add_argument("--digits", type=int, default=6)
    p.add_argument(
        "--eps",
        type=_parse_eps,
        default=DEFAULT_EPSILONS,
        help="comma-separated cluster thresholds (default 1e-3,1e-4)",
    )
    p.add_argument("--jobs", type=int, default=1)
    common(p)

    p = sub.add_parser("graphs", help="coincidence graphs with nonvanishing certificates")
    common(p)

    p = sub.add_parser("identity-check", help="compare f-vectors across a hom identity")
    p.add_argument("kind", choices=_IDENTITY_KINDS)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--target", help="target polytope as kind:size, e.g. regular_ngon:5")
    p.add_argument("--digits", type=int, default=6)
    common(p)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    fields: dict[str, object] = {"command": args.command}
    if args.command == "construct":
        fields.update(kind=args.kind, size=args.size, digits=args.digits)
    elif args.command in ("hom", "classify"):
        fields.update(inputs=(args.source, args.target))
        if args.command == "hom":
            fields.update(labels=args.labels)
    elif args.command == "table":
        fields.update(
            m_range=args.m_range,
            n_range=args.n_range,
            digits=args.digits,
            eps=args.eps,
            jobs=args.jobs,
        )
    elif args.command == "identity-check":
        fields.update(
            kind=args.kind,
            n=args.n,
            m=args.m,
            target=args.target,
            digits=args.digits,
        )
    fields.update(output=args.output, check=args.check)
    return RunConfig(**fields)  # type: ignore[arg-type]


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    config = _config_from_args(args)
    try:
        return run(config)
    except (ParseError, GeometryError, RuntimeError, ValueError, OSError) as exc:
        print(f"hompoly: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

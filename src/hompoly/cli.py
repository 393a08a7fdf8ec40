"""Batch command-line surface tying the modules together.

Every command reads polytope text files (the format in
:mod:`hompoly.polyio`), writes its result to ``--output`` or stdout,
and is deterministic: the same inputs and flags produce byte-identical
output.  ``--jobs`` distributes independent table rows over processes,
never more than there are rows or CPUs, and only changes wall time,
never content or order.
``--check`` turns on assertion mode, which re-verifies the invariants
of :mod:`hompoly.checks` along the way and aborts naming the violated
property.

Validation happens in two places.  argparse checks the shape of the
command line: the subcommand, the kind names, the positional inputs and
the integer flags.  Each ``_cmd_*`` handler then first checks the values
of the flags it owns, before it reads an input file or computes
anything.

Exit status: 0 on success, 1 on any module or validation error (and on
a failed identity check), 2 on command-line usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable
from functools import cache
from pathlib import Path

from .checks import check_certificate, check_graph_accepted, check_hom, check_table_row
from .classify import classify_all
from .coincidence import certify_nonvanishing, enumerate_graphs, reject_reason
from .constructions import STOCK, check_size, standard
from .errors import GeometryError
from .hom import IDENTITY_KINDS, HomPolytope, build_hom, hom_identity_check
from .polyio import (
    MAX_SCALAR_LENGTH,
    ParseError,
    read_polytope,
    write_hrep,
    write_labels,
    write_vrep,
)
from .regular import check_survey_size, divisibility_check, table_row

# A rounded coordinate is written as sign, at most D numerator digits,
# "/" and the D + 1 digits of 10^D: 2D + 3 characters, which read_polytope
# must accept.
MAX_DIGITS = (MAX_SCALAR_LENGTH - 3) // 2


# -- command bodies ------------------------------------------------------

# Each handler checks the flags it owns, then returns what to write
# where (None is stdout) and the exit status.
Emission = list[tuple[str | None, str]]
Handler = Callable[[argparse.Namespace], tuple[Emission, int]]


def _cmd_construct(args: argparse.Namespace) -> tuple[Emission, int]:
    if args.digits < 1:
        raise ValueError("--digits must be at least 1")
    if args.size < 1:
        raise ValueError("construct needs a positive size")
    # the builder's own limits first, then what read_polytope takes back
    check_size(args.kind, args.size, args.digits)
    if args.digits > MAX_DIGITS:
        raise ValueError(
            f"--digits above {MAX_DIGITS} writes coordinates longer than the"
            f" {MAX_SCALAR_LENGTH} characters a V-file may hold"
        )
    text = write_vrep(standard(args.kind, args.size, args.digits))
    if args.kind == "regular_ngon" and args.size not in (3, 4, 6):
        text = (
            f"# coordinates rounded to {args.digits} decimals: not an affine"
            f" image of the regular {args.size}-gon\n" + text
        )
    return [(args.output, text)], 0


def _read_hom(args: argparse.Namespace) -> HomPolytope:
    p, q = (read_polytope(Path(f).read_text()) for f in (args.source, args.target))
    h = build_hom(p, q)
    if args.check:
        check_hom(h)
    return h


def _cmd_hom(args: argparse.Namespace) -> tuple[Emission, int]:
    labels_path = args.labels
    if labels_path is None and args.output is not None:
        labels_path = args.output + ".labels"
    if labels_path is None:
        raise ValueError(
            "hom writes a label sidecar; pass --output (sidecar goes "
            "next to it) or --labels"
        )
    h = _read_hom(args)
    return [
        (args.output, write_hrep(h.polytope)),
        (labels_path, write_labels(h.labels)),
    ], 0


def _cmd_classify(args: argparse.Namespace) -> tuple[Emission, int]:
    _records, summary = classify_all(_read_hom(args))
    lines = ["rank\tcount"]
    for rank, count in summary.by_rank:
        lines.append(f"{rank}\t{count}")
    lines.append(f"total\t{summary.total}")
    lines.append(f"simple\t{summary.simple_count}")
    return [(args.output, "\n".join(lines) + "\n")], 0


def worker_count(jobs: int, tasks: int) -> int:
    """Processes to start for ``tasks`` independent tasks under ``--jobs``.

    Never more than the tasks, the requested jobs or the CPUs, and at
    least one, so ``--jobs`` cannot start an unbounded number of workers.
    """
    return max(1, min(jobs, tasks, os.cpu_count() or 1))


def _cmd_table(args: argparse.Namespace) -> tuple[Emission, int]:
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1")
    for name, (lo, hi) in (("m", args.m_range), ("n", args.n_range)):
        if lo < 3:
            raise ValueError(f"--{name}-range must start at 3 or more")
        if hi < lo:
            raise ValueError(f"--{name}-range is empty")
    # each pair is refused as it comes, so a huge range never builds its list
    specs = []
    for m in range(args.m_range[0], args.m_range[1] + 1):
        for n in range(args.n_range[0], args.n_range[1] + 1):
            check_survey_size(m, n)
            specs.append((m, n))
    workers = worker_count(args.jobs, len(specs))
    if workers > 1:
        # the pool's import pulls in multiprocessing; only this branch pays for it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(table_row, *zip(*specs)))
    else:
        results = [table_row(m, n) for m, n in specs]
    lines = ["m\tn\trank0\trank1\trank2\ttotal\tprovenance"]
    for row, _ in results:
        divisibility = divisibility_check(row.total, row.m, row.n)
        if args.check:
            check_table_row(row)
        elif not divisibility.ok:
            print(
                f"hompoly: warning: ({row.m},{row.n}) fails divisibility: "
                + "; ".join(divisibility.reasons),
                file=sys.stderr,
            )
        lines.append(
            f"{row.m}\t{row.n}\t{row.rank0}\t{row.rank1}\t{row.rank2}"
            f"\t{row.total}\t" + ",".join(row.provenance)
        )
    return [(args.output, "\n".join(lines) + "\n")], 0


def _cmd_graphs(args: argparse.Namespace) -> tuple[Emission, int]:
    lines = ["# graph\tstatus\tcertificate\tdeterminant"]
    for g in enumerate_graphs():
        # decided before certifying: a rejected graph has no matrix
        status = reject_reason(g)
        if args.check:
            check_graph_accepted(g, status)
        cert = certify_nonvanishing(g)
        if args.check:
            check_certificate(g, cert)
        point = " ".join(
            f"{name}={value}"
            for name, value in zip(cert.variables, cert.point)
        )
        lines.append(
            f"{cert.encoding}\t{status}\t{point}\t{cert.det_value}"
        )
    return [(args.output, "\n".join(lines) + "\n")], 0


def _cmd_identity_check(args: argparse.Namespace) -> tuple[Emission, int]:
    # a flag the kind never reads is refused, not silently dropped
    target = None
    if args.kind == "simplex_power":
        if args.n is None or not args.target:
            raise ValueError("simplex_power needs --n and --target")
        if args.m is not None:
            raise ValueError("simplex_power takes no --m")
        name, _, size = args.target.partition(":")
        # isdecimal, not isdigit: "²" is a digit that int() rejects
        if not size.isdecimal():
            raise ValueError(
                f"--target must look like kind:size, got {args.target!r}"
            )
        target = standard(name, int(size))
    else:
        if args.n is None or args.m is None:
            raise ValueError(f"{args.kind} needs --m and --n")
        if args.target is not None:
            raise ValueError(f"{args.kind} takes no --target")
    report = hom_identity_check(args.kind, n=args.n, m=args.m, p=target)
    lines = [
        f"kind: {report.kind}",
        f"lhs: {report.lhs_description}: f-vector {report.lhs_f_vector}",
        f"rhs: {report.rhs_description}: f-vector {report.rhs_f_vector}",
        f"match: {'yes' if report.match else 'no'}",
    ]
    return [(args.output, "\n".join(lines) + "\n")], 0 if report.match else 1


# -- argument parsing ----------------------------------------------------


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    try:
        if sep:
            return int(lo), int(hi)
        return int(lo), int(lo)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"ranges look like 3..6 or a single number, got {text!r}"
        )


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="hompoly",
        description="Polytopes of affine maps: construction, "
        "classification, tables, and certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, handler: Handler) -> None:
        p.set_defaults(handler=handler)
        p.add_argument("-o", "--output", help="write here instead of stdout")
        p.add_argument(
            "--check",
            action="store_true",
            help="re-verify invariants and abort on the first violation",
        )

    p = sub.add_parser(
        "construct",
        help="emit a stock polytope as a V-file",
        description="Emit a stock polytope as a V-file.  regular_ngon N for N"
        " other than 3, 4 and 6 rounds the coordinates to --digits decimals,"
        " so the polygon is not an affine image of the regular N-gon; the"
        " file says so in a # line.",
    )
    p.add_argument("kind", choices=tuple(STOCK))
    p.add_argument("size", type=int, help="dimension, or vertex count for regular_ngon")
    p.add_argument(
        "--digits", type=int, default=6, help="decimals of a rounded regular_ngon"
    )
    common(p, _cmd_construct)

    p = sub.add_parser("hom", help="build the polytope of maps sending P into Q")
    p.add_argument("source", help="V- or H-file for P")
    p.add_argument("target", help="V- or H-file for Q")
    p.add_argument("--labels", help="label sidecar path (default: OUTPUT.labels)")
    common(p, _cmd_hom)

    p = sub.add_parser("classify", help="rank summary of the vertex maps P -> Q")
    p.add_argument("source")
    p.add_argument("target")
    common(p, _cmd_classify)

    p = sub.add_parser("table", help="vertex-count table for regular polygon pairs")
    p.add_argument("--m-range", type=_parse_range, default=(3, 6), metavar="LO..HI")
    p.add_argument("--n-range", type=_parse_range, default=(3, 6), metavar="LO..HI")
    p.add_argument("--jobs", type=int, default=1)
    common(p, _cmd_table)

    p = sub.add_parser("graphs", help="coincidence graphs with nonvanishing certificates")
    common(p, _cmd_graphs)

    p = sub.add_parser("identity-check", help="compare f-vectors across a hom identity")
    p.add_argument("kind", choices=IDENTITY_KINDS)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--target", help="target polytope as kind:size, e.g. regular_ngon:5")
    common(p, _cmd_identity_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        emissions, status = args.handler(args)
        for destination, text in emissions:
            if destination is None:
                sys.stdout.write(text)
            else:
                Path(destination).write_text(text)
    except (ParseError, GeometryError, RuntimeError, ValueError, OSError) as exc:
        print(f"hompoly: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())

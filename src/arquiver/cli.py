"""Command line interface.

Exit codes: 0 success, 1 internal consistency failure, 2 invalid input.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import ExitStack, nullcontext
from pathlib import Path

from . import ar_quiver, coxeter, derived, oracle
from .dynkin import classify_dynkin
from .errors import (
    ArquiverError,
    BoundExceededError,
    InvalidQuiverError,
    NotATreeError,
    NotDynkinError,
    ParseError,
    PositionOutOfRangeError,
)
from .hammock import knit_hammock
from .quiver import ValuedQuiver
from .report import _lines, build_report, parse_quiver, to_dot, write_report

_INPUT_ERRORS = (
    ParseError,
    InvalidQuiverError,
    NotATreeError,
    NotDynkinError,
    BoundExceededError,
    PositionOutOfRangeError,
)


def _load(path: str) -> ValuedQuiver:
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Number lines as parse_quiver does, counting the bad byte's own line.
        line = len(_lines(data[: exc.start].decode("utf-8") + "?"))
        raise ParseError(line, f"invalid UTF-8 byte 0x{data[exc.start]:02x}") from exc
    return parse_quiver(text.removeprefix("\ufeff"))  # one UTF-8 byte-order mark


def cmd_classify(args: argparse.Namespace) -> int:
    q = _load(args.file)
    dyn = classify_dynkin(q.underlying_graph())
    if dyn is None:
        print("NotDynkin")
        return 2
    relabel = " ".join(f"{v}->{dyn.to_canonical(v)}" for v in q.vertices())
    print(f"{dyn.family} {dyn.rank}")
    print(f"relabel: {relabel}")
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    arq = ar_quiver.build(_load(args.file))
    cd = coxeter.coxeter_matrix(arq)
    report = build_report(arq, cd.order, include_hammocks=args.hammocks)
    with ExitStack() as targets:
        # Both targets are opened before either is written, so a target
        # that cannot be opened leaves no report behind.
        json_out, dot_out = (
            targets.enter_context(open(path, "w", encoding="utf-8")) if path else None
            for path in (args.json, args.dot)
        )
        with json_out or nullcontext(sys.stdout) as out:
            write_report(report, out)
        if dot_out:
            dot_out.write(to_dot(arq))
            if dot_out.seekable():
                dot_out.truncate()  # the end of a report written to the same file
    return 0


def cmd_hammock(args: argparse.Namespace) -> int:
    res = knit_hammock(_load(args.file), args.k)
    print(f"k = {args.k}")
    for level, base, value in res.table:
        print(f"h({level},{base}) = {value}")
    print(f"terminator: ({res.terminator.level},{res.terminator.base})")
    print(f"m({res.orbit}) = {res.orbit_index}")
    print(f"rho({res.orbit}) = {res.k}")
    members = " ".join(f"({level},{base})" for level, base, value in res.table if value > 0)
    print(f"hammock vertices: {members}")
    return 0


def cmd_coxeter(args: argparse.Namespace) -> int:
    arq = ar_quiver.build(_load(args.file))
    cd = coxeter.coxeter_matrix(arq)
    print("matrix:")
    for row in cd.matrix:
        print("  " + " ".join(f"{x:3d}" for x in row))
    print(f"order: {cd.order}")
    ok = coxeter.order_identity_check(arq, cd)
    print(f"order identity: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def cmd_cluster(args: argparse.Namespace) -> int:
    arq = ar_quiver.build(_load(args.file))
    cd = coxeter.coxeter_matrix(arq)
    print(f"cluster objects: {derived.cluster_count(arq, cd.order)}")
    print(
        "nilpotency: module={0} derived={1} cluster={2}".format(
            ar_quiver.counts_and_nilpotency(arq, cd.order).nilpotency,
            derived.derived_nilpotency(arq, cd.order),
            cd.order - 1,
        )
    )
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    arq = ar_quiver.build(_load(args.file))
    cd = coxeter.coxeter_matrix(arq)
    report = oracle.run_all(arq, cd.order)
    witness = coxeter._order_identity_witness(arq, cd)
    report.add("order-identity", not witness, witness)
    for check in report.checks:
        print(check.line())
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arquiver",
        description=(
            "Construct the Auslander-Reiten quiver of a Dynkin-type "
            "hereditary algebra from its ext-quiver."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="recognise the Dynkin type")
    p.add_argument("file")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("build", help="full construction, JSON report, DOT export")
    p.add_argument("file")
    p.add_argument("--json", metavar="OUT", help="write the report to a file")
    p.add_argument("--dot", metavar="OUT", help="write a DOT drawing to a file")
    p.add_argument("--hammocks", action="store_true", help="include hammock tables")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("hammock", help="hammock of one simple module")
    p.add_argument("file")
    p.add_argument("-k", type=int, required=True, metavar="VERTEX")
    p.set_defaults(func=cmd_hammock)

    p = sub.add_parser("coxeter", help="Coxeter matrix, order, identity check")
    p.add_argument("file")
    p.set_defaults(func=cmd_coxeter)

    p = sub.add_parser("cluster", help="cluster-category count and nilpotencies")
    p.add_argument("file")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("check", help="run all independent oracle checks")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArquiverError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

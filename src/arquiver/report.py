"""Input grammar, JSON report, and DOT export.

Input format, one directive per line::

    n 6            # vertex count, first non-comment line
    arrow 1 2      # trivial valuation
    arrow 2 3 1 2  # valuation (1, 2)

``#`` starts a comment, blank lines are skipped, tokens are separated by
spaces or tabs.  Reports serialise deterministically: sorted object
keys, vertices ordered by (base, level), integers only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import groupby
from typing import TextIO

from .ar_quiver import ARQuiver, counts_and_nilpotency
from .derived import cluster_count, derived_nilpotency
from .errors import InvalidQuiverError, ParseError
from .hammock import hammock_vertices
from .quiver import Arrow, ValuedQuiver, Valuation
from .repetitive import ZVertex


def parse_quiver(text: str) -> ValuedQuiver:
    """Parse the line grammar into a validated quiver."""
    n: int | None = None
    arrows: list[Arrow] = []
    pairs: dict[frozenset[int], int] = {}

    def integers(line_no: int, tokens: list[str]) -> list[int]:
        values = []
        for t in tokens:
            digits = t[1:] if t.startswith("-") else t
            # ASCII only: str.isdigit also accepts '²', which int() rejects.
            if not (digits.isascii() and digits.isdigit()):
                raise ParseError(line_no, f"expected an integer, got {t!r}")
            try:
                values.append(int(t))
            except ValueError as exc:  # longer than sys.get_int_max_str_digits()
                raise ParseError(line_no, f"integer of {len(digits)} digits is too long") from exc
        return values

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "n":
            if n is not None:
                raise ParseError(line_no, "duplicate 'n' line")
            if arrows:
                raise ParseError(line_no, "'n' must precede all arrows")
            if len(tokens) != 2:
                raise ParseError(line_no, "'n' takes exactly one argument")
            (n,) = integers(line_no, tokens[1:])
            if n < 1:
                raise ParseError(line_no, f"vertex count {n} must be positive")
        elif tokens[0] == "arrow":
            if n is None:
                raise ParseError(line_no, "'arrow' before 'n'")
            if len(tokens) not in (3, 5):
                raise ParseError(
                    line_no, "'arrow' takes 'src dst' or 'src dst a b'"
                )
            values = integers(line_no, tokens[1:])
            src, dst = values[0], values[1]
            val: Valuation = (values[2], values[3]) if len(values) == 4 else (1, 1)
            arrow = Arrow(src, dst, val)
            try:
                ValuedQuiver(n, (arrow,))
            except InvalidQuiverError as exc:
                raise ParseError(line_no, str(exc)) from exc
            pair = frozenset((src, dst))
            if pair in pairs:
                raise ParseError(
                    line_no,
                    f"second arrow between {src} and {dst} (first on line {pairs[pair]})",
                )
            pairs[pair] = line_no
            arrows.append(arrow)
        else:
            raise ParseError(line_no, f"unknown directive {tokens[0]!r}")
    if n is None:
        raise ParseError(len(text.splitlines()) + 1, "missing 'n' line")
    return ValuedQuiver(n, tuple(arrows))


# -- report ---------------------------------------------------------------------

@dataclass(frozen=True)
class HammockSummary:
    k: int
    table: tuple[tuple[int, int, int], ...]  # (level, base, value)
    terminator: tuple[int, int]
    vertices: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Report:
    family: str
    rank: int
    relabel: tuple[int, ...]
    coxeter_order: int
    rho: tuple[int, ...]
    m: tuple[int, ...]
    indecomposables: int
    cluster_objects: int
    nilpotency_module: int
    nilpotency_derived: int
    nilpotency_cluster: int
    vertices: tuple[tuple[int, int, tuple[int, ...]], ...]  # (r, i, dim)
    arrows: tuple[tuple[tuple[int, int], tuple[int, int], Valuation], ...]
    hammocks: tuple[HammockSummary, ...] | None = None


def build_report(arq: ARQuiver, order: int, include_hammocks: bool = False) -> Report:
    counts = counts_and_nilpotency(arq, order)
    hammocks = None
    if include_hammocks:
        hammocks = tuple(
            HammockSummary(
                res.k,
                tuple(sorted((v.level, v.base, value) for v, value in res.table.items())),
                (res.terminator.level, res.terminator.base),
                tuple(sorted((v.level, v.base) for v in hammock_vertices(res))),
            )
            for res in arq.hammocks
        )
    return Report(
        family=arq.dynkin.family,
        rank=arq.dynkin.rank,
        relabel=arq.dynkin.relabel,
        coxeter_order=order,
        rho=arq.rho,
        m=arq.m,
        indecomposables=counts.indecomposables,
        cluster_objects=cluster_count(arq, order),
        nilpotency_module=counts.nilpotency,
        nilpotency_derived=derived_nilpotency(arq, order),
        nilpotency_cluster=order - 1,
        vertices=tuple(
            (v.level, v.base, arq.dims[v])
            for v in sorted(arq.vertices, key=lambda v: (v.base, v.level))
        ),
        arrows=tuple(
            ((za.src.level, za.src.base), (za.dst.level, za.dst.base), za.val)
            for za in arq.arrows
        ),
        hammocks=hammocks,
    )


def _payload(report: Report) -> dict:
    payload = {
        "dynkin": {
            "family": report.family,
            "rank": report.rank,
            "relabel": list(report.relabel),
        },
        "coxeter_order": report.coxeter_order,
        "rho": list(report.rho),
        "m": list(report.m),
        "counts": {
            "indecomposables": report.indecomposables,
            "cluster": report.cluster_objects,
        },
        "nilpotency": {
            "module": report.nilpotency_module,
            "derived": report.nilpotency_derived,
            "cluster": report.nilpotency_cluster,
        },
        "vertices": [
            {"r": r, "i": i, "dim": list(dim)} for r, i, dim in report.vertices
        ],
        "arrows": [
            {"src": list(src), "dst": list(dst), "val": list(val)}
            for src, dst, val in report.arrows
        ],
    }
    if report.hammocks is not None:
        payload["hammocks"] = {
            str(h.k): {
                "table": [list(row) for row in h.table],
                "terminator": list(h.terminator),
                "vertices": [list(v) for v in h.vertices],
            }
            for h in report.hammocks
        }
    return payload


def report_to_json(report: Report) -> str:
    return json.dumps(_payload(report), sort_keys=True, indent=2) + "\n"


def write_report(report: Report, out: TextIO) -> None:
    """Stream the text of :func:`report_to_json` to ``out``.

    Chunks go out as they are encoded, so the whole text is never held.
    """
    json.dump(_payload(report), out, sort_keys=True, indent=2)
    out.write("\n")


def report_from_json(text: str) -> Report:
    payload = json.loads(text)
    hammocks = None
    if "hammocks" in payload:
        hammocks = tuple(
            HammockSummary(
                int(k),
                tuple(tuple(row) for row in h["table"]),
                tuple(h["terminator"]),
                tuple(tuple(v) for v in h["vertices"]),
            )
            for k, h in sorted(payload["hammocks"].items(), key=lambda kv: int(kv[0]))
        )
    return Report(
        family=payload["dynkin"]["family"],
        rank=payload["dynkin"]["rank"],
        relabel=tuple(payload["dynkin"]["relabel"]),
        coxeter_order=payload["coxeter_order"],
        rho=tuple(payload["rho"]),
        m=tuple(payload["m"]),
        indecomposables=payload["counts"]["indecomposables"],
        cluster_objects=payload["counts"]["cluster"],
        nilpotency_module=payload["nilpotency"]["module"],
        nilpotency_derived=payload["nilpotency"]["derived"],
        nilpotency_cluster=payload["nilpotency"]["cluster"],
        vertices=tuple(
            (v["r"], v["i"], tuple(v["dim"])) for v in payload["vertices"]
        ),
        arrows=tuple(
            (tuple(a["src"]), tuple(a["dst"]), tuple(a["val"]))
            for a in payload["arrows"]
        ),
        hammocks=hammocks,
    )


# -- DOT ------------------------------------------------------------------------

def _node_id(v: ZVertex) -> str:
    return f'"{v.level},{v.base}"'


def to_dot(arq: ARQuiver) -> str:
    """Layered DOT drawing: columns by level, rows by base vertex.

    Projectives are boxed, injectives double-circled, vertices that are
    both get a double box.  Output is byte-stable for identical input.
    """
    lines = ["digraph ar_quiver {", "  rankdir=LR;", '  node [fontsize=11];']
    for _, column in groupby(sorted(arq.vertices), key=lambda v: v.level):
        lines.append("  { rank=same;")
        for v in column:
            proj, inj = arq.is_projective(v), arq.is_injective(v)
            if proj and inj:
                shape = "Msquare"
            elif proj:
                shape = "box"
            elif inj:
                shape = "doublecircle"
            else:
                shape = "ellipse"
            label = f"({v.level},{v.base})"
            lines.append(f'    {_node_id(v)} [label="{label}", shape={shape}];')
        lines.append("  }")
    for za in arq.arrows:
        attr = ""
        if za.val != (1, 1):
            attr = f' [label="({za.val[0]},{za.val[1]})"]'
        lines.append(f"  {_node_id(za.src)} -> {_node_id(za.dst)}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"

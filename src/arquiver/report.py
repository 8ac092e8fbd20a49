"""Input grammar, JSON report, and DOT export.

Input format, one directive per line::

    n 6            # vertex count, first non-comment line
    arrow 1 2      # trivial valuation
    arrow 2 3 1 2  # valuation (1, 2)

``#`` starts a comment, blank lines are skipped, tokens are separated by
spaces or tabs, and lines end at ``\n``, ``\r\n`` or ``\r`` only.  The
report is the JSON document itself: ``build_report`` returns it as a
plain ``dict`` and ``report_to_json``/``write_report`` encode it
deterministically: sorted object keys, vertices ordered by (base,
level), integers only.

The writer takes a ``build_report`` document and writes exactly what the
standard library's ``json`` writes with ``sort_keys=True, indent=2``,
followed by a newline.  Every member other than the row arrays
(``vertices``, ``arrows`` and each hammock's ``table`` and ``vertices``)
is the stdlib's own text; each row array goes through one ``%`` template
made from the stdlib's text of its first row, and a row slot that is not
an ``int`` raises ``TypeError``.
"""

from __future__ import annotations

import io
import json
import re
from itertools import chain, groupby
from operator import itemgetter
from typing import Iterator, TextIO

from .ar_quiver import ARQuiver, counts_and_nilpotency
from .derived import cluster_count, derived_nilpotency
from .errors import InvalidQuiverError, ParseError
from .hammock import hammocks
from .quiver import Arrow, ValuedQuiver, Valuation


def _lines(text: str) -> list[str]:
    """The lines of ``text`` as ``open()`` reads them: broken only at
    ``\\n``, ``\\r\\n`` and ``\\r``, each with its break read as ``\\n``."""
    return io.StringIO(text, newline=None).readlines()


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

    for line_no, raw in enumerate(_lines(text), start=1):
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
        raise ParseError(len(_lines(text)) + 1, "missing 'n' line")
    return ValuedQuiver(n, tuple(arrows))


# -- report ---------------------------------------------------------------------

def build_report(arq: ARQuiver, order: int, include_hammocks: bool = False) -> dict:
    """The JSON document of a build: the quiver, its counts and nilpotencies.

    Values are the build's own tuples, and each ``dim`` a tuple of its
    layout's bytes; JSON writes tuples and ``ZVertex`` named tuples as
    arrays.  With ``include_hammocks``, each hammock's
    ``table`` rows are ``(level, base, value)`` and its ``vertices`` the
    ``(level, base)`` of the positive rows, both in ``(level, base)`` order.
    """
    counts = counts_and_nilpotency(arq, order)
    report = {
        "dynkin": {
            "family": arq.dynkin.family,
            "rank": arq.dynkin.rank,
            "relabel": arq.dynkin.relabel,
        },
        "coxeter_order": order,
        "rho": arq.rho,
        "m": arq.m,
        "counts": {
            "indecomposables": counts.indecomposables,
            "cluster": cluster_count(arq, order),
        },
        "nilpotency": {
            "module": counts.nilpotency,
            "derived": derived_nilpotency(arq, order),
            "cluster": order - 1,
        },
        "vertices": [
            {"r": r, "i": i, "dim": vector}
            for (r, i), vector in zip(arq.vertices, zip(*[iter(arq.layout)] * arq.n))
        ],
        "arrows": [
            {"src": za.src, "dst": za.dst, "val": za.val} for za in arq.arrows
        ],
    }
    if include_hammocks:
        report["hammocks"] = {
            str(res.k): {
                "table": res.table,
                "terminator": res.terminator,
                "vertices": [(level, base) for level, base, value in res.table if value > 0],
            }
            for res in hammocks(arq)
        }
    return report


def report_to_json(report: dict) -> str:
    return "".join(_document(report))


def write_report(report: dict, out: TextIO) -> None:
    """Stream the text of :func:`report_to_json` to ``out``.

    Each row array goes out in bounded chunks, so the whole text is never
    held.
    """
    out.writelines(_document(report))


_INT = frozenset((int,))
_CHUNK_SLOTS = 1 << 11  # ints per chunk of a row array


def _document(report: dict) -> Iterator[str]:
    """The stdlib's text of ``report`` with each row array cut out and
    written by :func:`_array` at the indent of the line that held it."""
    arrays: list = []

    def cut(rows: list) -> str:
        # No string of a document holds a NUL, so "\u0000<i>" marks array i.
        arrays.append(rows)
        return f"\0{len(arrays) - 1}"

    outline = {**report, "arrows": cut(report["arrows"]), "vertices": cut(report["vertices"])}
    if "hammocks" in report:
        outline["hammocks"] = {
            k: {**hammock, "table": cut(hammock["table"]), "vertices": cut(hammock["vertices"])}
            for k, hammock in report["hammocks"].items()
        }
    pieces = re.split(r'"\\u0000(\d+)"', json.dumps(outline, sort_keys=True, indent=2))
    for text, index in zip(pieces[::2], pieces[1::2]):
        yield text
        line = text[text.rfind("\n") + 1 :]
        yield from _array(arrays[int(index)], line[: len(line) - len(line.lstrip())])
    yield pieces[-1] + "\n"


def _array(rows: list, pad: str) -> Iterator[str]:
    """The stdlib's text of ``rows`` closed at indent ``pad``, a chunk of at
    most ``_CHUNK_SLOTS`` ints per string.

    Every row goes through one ``%`` template: the text of the first row
    with each int as ``%d``.  A chunk holding a slot that is not an
    ``int`` raises ``TypeError``, as ``%d`` would write a ``bool`` or a
    ``float`` as an int.
    """
    if not rows:
        yield "[]"
        return
    inner = pad + "  "
    first = json.dumps(rows[0], sort_keys=True, indent=2).replace("\n", "\n" + inner)
    template = re.sub(r"-?\d+", "%d", first)
    size = max(1, _CHUNK_SLOTS // max(1, template.count("%d")))
    lead, separator = "[\n" + inner, ",\n" + inner
    for start in range(0, len(rows), size):
        columns = _columns(rows[start : start + size], rows[0])
        if not _INT.issuperset(map(type, chain.from_iterable(columns))):
            bad = next(x for x in chain.from_iterable(columns) if type(x) is not int)
            raise TypeError(f"{type(bad).__name__} value {bad!r} in a row is not an int")
        yield lead + separator.join(map(template.__mod__, zip(*columns)))
        lead = separator
    yield f"\n{pad}]"


def _columns(rows: list, first: object) -> list:
    """The slots of ``rows`` column by column, in the order of the text of
    ``first``: a tuple row entry by entry, a dict row by sorted key with
    an array member entry by entry."""
    if not isinstance(first, dict):
        return list(zip(*rows))
    columns: list = []
    for key in sorted(first):
        column = list(map(itemgetter(key), rows))
        columns += zip(*column) if isinstance(first[key], (list, tuple)) else [column]
    return columns


# -- DOT ------------------------------------------------------------------------

def to_dot(arq: ARQuiver) -> str:
    """Layered DOT drawing: columns by level, rows by base vertex.

    Projectives are boxed, injectives double-circled, vertices that are
    both get a double box.  Output is byte-stable for identical input.
    """
    # Indexed by (projective, injective).
    shapes = (("ellipse", "doublecircle"), ("box", "Msquare"))
    node_id = {v: f'"{v.level},{v.base}"' for v in arq.vertices}
    lines = ["digraph ar_quiver {", "  rankdir=LR;", '  node [fontsize=11];']
    for _, column in groupby(sorted(arq.vertices), key=lambda v: v.level):
        lines.append("  { rank=same;")
        for v in column:
            level, base = v
            shape = shapes[level == 0][level == arq.m[base - 1]]
            lines.append(f'    {node_id[v]} [label="({level},{base})", shape={shape}];')
        lines.append("  }")
    for za in arq.arrows:
        attr = ""
        if za.val != (1, 1):
            attr = f' [label="({za.val[0]},{za.val[1]})"]'
        lines.append(f"  {node_id[za.src]} -> {node_id[za.dst]}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"

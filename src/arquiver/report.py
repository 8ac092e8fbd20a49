"""Input grammar, JSON report, and DOT export.

Input format, one directive per line::

    n 6            # vertex count, first non-comment line
    arrow 1 2      # trivial valuation
    arrow 2 3 1 2  # valuation (1, 2)

``#`` starts a comment, blank lines are skipped, tokens are separated by
spaces or tabs.  The report is the JSON document itself: ``build_report``
returns it as a plain ``dict`` and ``report_to_json``/``write_report``
encode it deterministically: sorted object keys, vertices ordered by
(base, level), integers only.

The encoder is this module's own: its text is exactly what the standard
library's ``json`` writes with ``sort_keys=True, indent=2``, followed by
a newline.  It accepts ``dict`` with ``str`` keys, ``list``, ``tuple``
(named tuples too), ``int`` and ``str``; strings are escaped to ASCII as
``json`` does.  Any other value or key type, ``bool``, ``float`` and
``None`` included, raises ``TypeError``.
"""

from __future__ import annotations

from itertools import chain, groupby, repeat
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter
from typing import Iterator, TextIO

from .ar_quiver import ARQuiver, counts_and_nilpotency
from .derived import cluster_count, derived_nilpotency
from .errors import InvalidQuiverError, ParseError
from .hammock import hammock_vertices
from .quiver import Arrow, ValuedQuiver, Valuation


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

def build_report(arq: ARQuiver, order: int, include_hammocks: bool = False) -> dict:
    """The JSON document of a build: the quiver, its counts and nilpotencies.

    Values are the build's own tuples; JSON writes tuples and ``ZVertex``
    named tuples as arrays.  With ``include_hammocks``, each hammock's
    ``table`` rows are ``(level, base, value)``.
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
            for i, orbit in enumerate(arq.orbits, 1)
            for r, vector in enumerate(orbit)
        ],
        "arrows": [
            {"src": za.src, "dst": za.dst, "val": za.val} for za in arq.arrows
        ],
    }
    if include_hammocks:
        report["hammocks"] = {
            str(res.k): {
                "table": sorted((*v, value) for v, value in res.table.items()),
                "terminator": res.terminator,
                "vertices": sorted(hammock_vertices(res)),
            }
            for res in arq.hammocks
        }
    return report


def report_to_json(report: dict) -> str:
    return "".join(_document(report))


def write_report(report: dict, out: TextIO) -> None:
    """Stream the text of :func:`report_to_json` to ``out``.

    One string goes out per member of each top-level array or object, or
    per bounded chunk of members of an array written through one template,
    so the whole text is never held.
    """
    out.writelines(_document(report))


def _document(report: dict) -> Iterator[str]:
    yield from _stream(report, "", "", 2)
    yield "\n"


_INT = frozenset((int,))
_DICT = frozenset((dict,))
_CHUNK_SLOTS = 1 << 11  # ints per chunk of a templated array


def _stream(value: object, pad: str, lead: str, depth: int) -> Iterator[str]:
    """``lead`` and the text of ``value``, one string per member of each
    container fewer than ``depth`` levels down; deeper values come whole.

    A streamed array whose members are all objects of one shape, each key
    holding an int or an array of ints of one length, is checked once as
    a whole and written through one ``%`` template, a bounded chunk of
    members per string; any other array goes member by member.
    """
    if depth == 0 or not isinstance(value, (dict, list, tuple)) or not value:
        yield lead + _encode(value, pad)
        return
    inner = pad + "  "
    if isinstance(value, dict):
        items = sorted(value.items())
        prefixes = [f"{_quote(key)}: " for key, _ in items]
        members = [member for _, member in items]
        separator, closing = f"{lead}{{\n{inner}", f"\n{pad}}}"
    else:
        prefixes, members = repeat(""), value
        separator, closing = f"{lead}[\n{inner}", f"\n{pad}]"
        chunks = _rows(value, inner) if depth == 1 else None
        if chunks is not None:
            for chunk in chunks:
                yield separator + chunk
                separator = f",\n{inner}"
            yield closing
            return
    for prefix, member in zip(prefixes, members):
        if depth == 1:
            yield separator + prefix + _encode(member, inner)
        else:
            yield from _stream(member, inner, separator + prefix, depth - 1)
        separator = f",\n{inner}"
    yield closing


def _encode(value: object, pad: str) -> str:
    """The text of ``value``, its nested lines indented past ``pad``."""
    kind = type(value)
    if kind is int:
        return int.__repr__(value)
    if isinstance(value, (dict, list, tuple)):
        if not value:
            return "{}" if isinstance(value, dict) else "[]"
        inner = pad + "  "
        separator = ",\n" + inner
        if isinstance(value, dict):
            members = [
                f"{_quote(key)}: {_encode(member, inner)}" for key, member in sorted(value.items())
            ]
            return f"{{\n{inner}{separator.join(members)}\n{pad}}}"
        if _INT.issuperset(map(type, value)):
            return f"[\n{inner}{separator.join(map(int.__repr__, value))}\n{pad}]"
        members = [_encode(member, inner) for member in value]
        return f"[\n{inner}{separator.join(members)}\n{pad}]"
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, int) and kind is not bool:
        return int.__repr__(value)
    raise TypeError(f"{kind.__name__} value {value!r} is not JSON report data")


def _rows(array: list | tuple, pad: str) -> Iterator[str] | None:
    """The members of ``array`` through one template, in bounded chunks,
    or ``None`` unless all are objects of one shape that holds only ints
    and int arrays, at least one int in all."""
    if not _DICT.issuperset(map(type, array)):
        return None
    keys = sorted(array[0])
    if set(map(len, array)) != {len(keys)}:
        return None
    kinds = []
    for key in keys:
        try:
            column = list(map(itemgetter(key), array))
        except KeyError:
            return None
        types = set(map(type, column))
        if types == _INT:
            kinds.append(-1)
        elif (
            all(issubclass(kind, (list, tuple)) for kind in types)
            and len(lengths := set(map(len, column))) == 1
            and _INT.issuperset(map(type, chain.from_iterable(column)))
        ):
            kinds.append(lengths.pop())
        else:
            return None
    width = sum(1 if kind < 0 else kind for kind in kinds)
    if not width:
        return None
    template = _template(keys, kinds, pad)
    return _chunks(array, keys, kinds, template, pad, max(1, _CHUNK_SLOTS // width))


def _chunks(
    array: list | tuple, keys: list[str], kinds: list[int], template: str, pad: str, size: int
) -> Iterator[str]:
    """The members of ``array``, ``size`` at a time, each through ``template``.

    The slots are gathered column by column: a key's ints, or one column
    per entry of its arrays.
    """
    separator = ",\n" + pad
    for start in range(0, len(array), size):
        chunk = array[start : start + size]
        columns: list = []
        for key, kind in zip(keys, kinds):
            column = list(map(itemgetter(key), chunk))
            if kind < 0:
                columns.append(column)
            else:
                columns += zip(*column)
        yield separator.join(map(template.__mod__, zip(*columns)))


def _template(keys: list[str], kinds: list[int], pad: str) -> str:
    """The ``%`` template of an object indented past ``pad`` whose member
    at each key is an int (kind -1) or an array of ``kind`` ints."""
    inner = pad + "  "
    members = []
    for key, kind in zip(keys, kinds):
        if kind < 0:
            text = "%d"
        elif kind == 0:
            text = "[]"
        else:
            text = f"[\n{inner}  " + f",\n{inner}  ".join(["%d"] * kind) + f"\n{inner}]"
        members.append(f"{_quote(key).replace('%', '%%')}: {text}")
    return f"{{\n{inner}" + f",\n{inner}".join(members) + f"\n{pad}}}"


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

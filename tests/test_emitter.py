"""The report writer against the standard library's JSON encoder.

``json.dumps(report, sort_keys=True, indent=2) + "\\n"`` is the reference
for every byte ``report_to_json`` and ``write_report`` produce from a
``build_report`` document.
"""

from __future__ import annotations

import io
import json
import os
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arquiver import (
    build,
    build_report,
    coxeter_matrix,
    report,
    report_to_json,
)
from arquiver.dynkin import canonical_diagram
from arquiver.report import write_report
from conftest import a1_quiver, all_diagrams, all_orientations, orient
from plane import dims, relaid


def _reference(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


def _written(value) -> str:
    out = io.StringIO()
    write_report(value, out)
    return out.getvalue()


def _reports(q):
    arq = build(q)
    order = coxeter_matrix(arq).order
    return [build_report(arq, order, include) for include in (False, True)]


def _spoiled(value, path, slot):
    """A copy of ``value`` with ``slot`` at ``path``, a list of keys and indices."""
    if not path:
        return slot
    head, *rest = path
    if isinstance(value, dict):
        return {**value, head: _spoiled(value[head], rest, slot)}
    items = list(value)
    items[head] = _spoiled(items[head], rest, slot)
    return items


def _rejected(document):
    with pytest.raises(TypeError):
        report_to_json(document)
    with pytest.raises(TypeError):
        _written(document)


@pytest.mark.parametrize("family, rank", all_diagrams(6))
def test_report_bytes_match_the_stdlib_on_every_orientation(family, rank):
    for q in all_orientations(canonical_diagram(family, rank)):
        for document in _reports(q):
            text = report_to_json(document)
            assert text == _reference(document)
            assert _written(document) == text


def _linear(family, rank):
    return orient(canonical_diagram(family, rank), 0)


@pytest.mark.parametrize("family, rank", [("A", 60), ("B", 32)])
def test_report_bytes_match_the_stdlib_at_large_rank(family, rank):
    for document in _reports(_linear(family, rank)):
        text = report_to_json(document)
        assert text == _reference(document)
        assert _written(document) == text


def test_write_report_holds_less_than_a_megabyte_at_a60_with_hammocks():
    document = _reports(_linear("A", 60))[1]
    with open(os.devnull, "w", encoding="utf-8") as sink:
        tracemalloc.start()
        try:
            write_report(document, sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 1_000_000, peak


# -- row slots: every slot of a row array is an int, which ``%d`` writes as
# the stdlib does; anything else raises ``TypeError``.


@pytest.mark.parametrize(
    "value",
    [
        {"a": 1.0},
        {"a": None},
        {"a": True},
        {"a": [1, False]},
        {"a": (1, 2.5)},
        {"a": {"b": [{"c": None}]}},
        {1: 2},
        {"a": {2: "b"}},
        {True: 1},
        {None: 1},
        {(1, 2): 3},
        {"a": 1, 2: "b"},
        {"a": {1, 2}},
        {"a": b"bytes"},
        True,
        None,
        1.5,
    ],
)
def test_emitter_rejects_values_outside_the_report_types(value):
    # In the first row the value also shapes the template; past it, only the check sees it.
    document = _reports(_linear("D", 4))[0]
    for row in (0, -1):
        _rejected(_spoiled(document, ["vertices", row, "dim", 0], value))


@pytest.mark.parametrize(
    "value",
    [
        ["vertices", 0, "r"],
        ["vertices", 0, "dim", 1],
        ["arrows", 0, "src", 0],
        ["arrows", 0, "val", 1],
        ["hammocks", "1", "table", 0, 2],
        ["hammocks", "1", "vertices", 0, 1],
    ],
)
def test_templates_still_reject_bools(value):
    # ``%d`` writes ``True`` as 1 and ``False`` as 0, so each row array checks its slots.
    document = _reports(_linear("A", 3))[1]
    for flag in (True, False):
        _rejected(_spoiled(document, value, flag))


@pytest.mark.parametrize(
    "rows",
    [
        (["vertices", -1, "dim", 0], 1.0),
        (["vertices", -1, "i"], True),
        (["arrows", -1, "val", 1], None),
        (["hammocks", "3", "table", -1, 2], "0"),
        (["hammocks", "3", "vertices", -1, 0], 2.5),
    ],
)
def test_arrays_of_one_shape_still_reject_values_outside_the_report_types(rows):
    # ``rows``: a slot in the last row of an array, which a later chunk checks.
    path, slot = rows
    document = _reports(_linear("D", 5))[1]
    with mock.patch.object(report, "_CHUNK_SLOTS", 7):
        assert report_to_json(document) == _reference(document)
        _rejected(_spoiled(document, path, slot))


@pytest.mark.parametrize("slot", [True, 1.0])
def test_a_dimension_vector_holding_a_bool_or_float_is_rejected(slot):
    # No layout holds either: bytes() refuses a float, and lays a bool out
    # as the int it is, so the report's dim slot holds an int.
    arq = build(_linear("B", 4))
    order = coxeter_matrix(arq).order
    v = arq.vertices[-1]
    vectors = {**dims(arq), v: (slot, *dims(arq)[v][1:])}
    if type(slot) is float:
        with pytest.raises(TypeError):
            relaid(arq, vectors)
        return
    document = build_report(relaid(arq, vectors), order)
    assert type(document["vertices"][-1]["dim"][0]) is int
    assert report_to_json(document) == _reference(document)


def test_rows_with_empty_arrays_and_large_integers():
    # A1 has no arrows; the first row's ints shape the template whatever their size and sign.
    document = _reports(a1_quiver())[1]
    assert document["arrows"] == []
    big = 10**40
    for dim in ((big,), (-big,), (-1,), (0,)):
        spoiled = _spoiled(document, ["vertices", 0, "dim"], dim)
        assert report_to_json(spoiled) == _reference(spoiled)
        assert _written(spoiled) == _reference(spoiled)


class _Pieces:
    def __init__(self):
        self.pieces = []

    def writelines(self, pieces):
        self.pieces += pieces

    @property
    def sizes(self):
        return list(map(len, self.pieces))


_SMALL = [q for family, rank in all_diagrams(5) for q in all_orientations(canonical_diagram(family, rank))]
_INTS = st.integers(min_value=-(10**20), max_value=10**20)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_SMALL), st.data())
def test_rows_drawn_from_few_shapes_match_the_stdlib(q, data):
    # Each of the four row shapes (vertex, arrow, table row, hammock vertex) with any ints.
    document = _reports(q)[1]
    paths = [["vertices", r, "dim", k] for r in range(len(document["vertices"])) for k in range(q.n)]
    paths += [["arrows", a, "val", 0] for a in range(len(document["arrows"]))]
    for key, hammock in document["hammocks"].items():
        paths += [["hammocks", key, "table", t, 2] for t in range(len(hammock["table"]))]
        paths += [["hammocks", key, "vertices", t, 0] for t in range(len(hammock["vertices"]))]
    for path in data.draw(st.lists(st.sampled_from(paths), max_size=6)):
        document = _spoiled(document, path, data.draw(_INTS))
    assert report_to_json(document) == _reference(document)
    assert _written(document) == _reference(document)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_SMALL), st.booleans(), st.sampled_from([1, 2, 7, 1 << 11]))
def test_arrays_of_one_shape_match_the_stdlib_in_any_chunking(q, hammocks, slots):
    document = _reports(q)[hammocks]
    with mock.patch.object(report, "_CHUNK_SLOTS", slots):
        assert report_to_json(document) == _reference(document)
        sink = _Pieces()
        write_report(document, sink)
    assert "".join(sink.pieces) == _reference(document)
    if slots == 1:  # a row of n + 2 ints is more than a chunk, so it goes alone
        vertex_rows = [piece.count('"dim"') for piece in sink.pieces if '"dim"' in piece]
        assert vertex_rows == [1] * len(document["vertices"])


def test_vertices_of_a60_are_written_in_bounded_chunks():
    document = _reports(_linear("A", 60))[0]
    sink = _Pieces()
    write_report(document, sink)
    text = report_to_json(document)
    assert sum(sink.sizes) == len(text)
    # 1,830 vertices of 62 ints each, at most 33 vertices (about 50 kB) a chunk.
    assert len(document["vertices"]) == 1830
    assert len(text) > 1_800_000
    assert max(sink.sizes) < 64_000


def test_hammocks_of_a60_are_written_in_bounded_chunks():
    document = _reports(_linear("A", 60))[1]
    sink = _Pieces()
    write_report(document, sink)
    assert "".join(sink.pieces) == report_to_json(document)
    assert max(sink.sizes) < 64_000

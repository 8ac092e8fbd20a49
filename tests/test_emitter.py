"""The report emitter against the standard library's JSON encoder.

``json.dumps(report, sort_keys=True, indent=2) + "\\n"`` is the reference
for every byte ``report_to_json`` and ``write_report`` produce.
"""

from __future__ import annotations

import io
import json
import os
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arquiver import build, build_report, coxeter_matrix, report_to_json
from arquiver.dynkin import all_orientations, canonical_diagram, orient
from arquiver.report import write_report
from conftest import all_diagrams


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


@pytest.mark.parametrize("family, rank", all_diagrams(6))
def test_report_bytes_match_the_stdlib_on_every_orientation(family, rank):
    for q in all_orientations(canonical_diagram(family, rank)):
        for report in _reports(q):
            text = report_to_json(report)
            assert text == _reference(report)
            assert _written(report) == text


def _linear(family, rank):
    return orient(canonical_diagram(family, rank), 0)


@pytest.mark.parametrize("family, rank", [("A", 60), ("B", 32)])
def test_report_bytes_match_the_stdlib_at_large_rank(family, rank):
    for report in _reports(_linear(family, rank)):
        text = report_to_json(report)
        assert text == _reference(report)
        assert _written(report) == text


_KEYS = st.text(max_size=4) | st.sampled_from(["10", "2", "", "a", "A", "é", "\x00"])
_SCALARS = (
    st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.text(max_size=6)
    | st.text(st.characters(max_codepoint=0x1F), max_size=3)
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(_KEYS, _VALUES, max_size=6) | _VALUES)
def test_emitter_matches_the_stdlib_on_nested_values(value):
    text = report_to_json(value)
    assert text == _reference(value)
    assert _written(value) == text


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
    with pytest.raises(TypeError):
        report_to_json(value)
    with pytest.raises(TypeError):
        _written(value)


def test_write_report_holds_less_than_a_megabyte_at_a60_with_hammocks():
    report = _reports(_linear("A", 60))[1]
    with open(os.devnull, "w", encoding="utf-8") as sink:
        tracemalloc.start()
        try:
            write_report(report, sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 1_000_000, peak


# -- objects below the streamed top levels are encoded whole, so these put
# rows at that depth.

_ROW_KEYS = ["%", "%d", "%s", "é", "\x00", "100%", "a%%b"]


@pytest.mark.parametrize(
    "value",
    [
        {"rows": [{key: 1 for key in _ROW_KEYS}, {key: (1, 2) for key in _ROW_KEYS}]},
        [{key: [key, {key: key}] for key in _ROW_KEYS}],
        {"a": {"b": {key: -3 for key in _ROW_KEYS}}},
    ],
    ids=["ints", "nested", "deep"],
)
def test_object_templates_escape_their_keys(value):
    assert report_to_json(value) == _reference(value)
    assert _written(value) == _reference(value)


def test_one_list_of_rows_with_arrays_of_different_lengths():
    rows = [{"a": tuple(range(length)), "b": length} for length in (3, 1, 0, 5, 1, 3)]
    rows.append({"a": [7, 8], "b": [9]})
    for value in ({"rows": rows}, rows):
        assert report_to_json(value) == _reference(value)


def test_rows_with_empty_arrays_and_large_integers():
    big = 10**40
    rows = [
        {"dim": (), "r": big, "i": -big},
        {"dim": (-big, big, 0), "r": -big, "i": big},
        {"dim": [], "r": 0, "i": 0},
    ]
    assert report_to_json({"rows": rows}) == _reference({"rows": rows})


def test_rows_that_mix_member_kinds_under_the_same_keys():
    rows = [
        {"i": 1, "a": (1, 2), "s": "%d%s", "d": {"x": (3,), "y": {"z": 1}}},
        {"i": (1,), "a": "s", "s": 2, "d": 4},
        {"i": {"%": 1}, "a": [1, "2"], "s": [], "d": ({"e": (5,)},)},
        {"i": 1, "a": (1, 2), "s": "%d%s", "d": {"x": (3,), "y": {"z": 1}}},
    ]
    for value in ({"rows": rows}, rows, {"a": {"rows": rows}}):
        assert report_to_json(value) == _reference(value)


_MEMBERS = (
    st.integers(min_value=-(10**40), max_value=10**40)
    | st.lists(st.integers(), max_size=4).map(tuple)
    | st.lists(st.integers(), max_size=3)
    | st.text(max_size=3)
    | st.dictionaries(st.sampled_from(["%", "x"]), st.integers(), max_size=2)
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.dictionaries(st.sampled_from(_ROW_KEYS[:4] + ["a"]), _MEMBERS), max_size=8))
def test_rows_drawn_from_few_shapes_match_the_stdlib(rows):
    for value in ({"rows": rows}, rows):
        assert report_to_json(value) == _reference(value)
        assert _written(value) == _reference(value)


@pytest.mark.parametrize(
    "value",
    [
        {"a": (1, True)},
        {"a": 1, "b": False},
        {"rows": [{"a": (1, True)}]},
        {"rows": [{"a": 1, "b": False}]},
        [{"a": 1}, {"a": 1, "b": False}],
        [{"a": (1, 2)}, {"a": (1, True)}],
    ],
)
def test_templates_still_reject_bools(value):
    with pytest.raises(TypeError):
        report_to_json(value)
    with pytest.raises(TypeError):
        _written(value)


# -- one template per array: members of one shape are written together, in
# bounded chunks; any other array goes member by member.


@st.composite
def _uniform_rows(draw):
    """Rows of one shape (each key an int or an int array of one length),
    sometimes with one member that breaks the shape."""
    keys = draw(st.lists(st.sampled_from(_ROW_KEYS + ["a", "dim"]), min_size=1, max_size=4, unique=True))
    kinds = {key: draw(st.integers(-1, 3)) for key in keys}
    count = draw(st.integers(1, 12))
    ints = st.integers(min_value=-(10**20), max_value=10**20)

    def member(key):
        if kinds[key] < 0:
            return draw(ints)
        array = draw(st.lists(ints, min_size=kinds[key], max_size=kinds[key]))
        return draw(st.sampled_from([tuple, list]))(array)

    rows = [{key: member(key) for key in keys} for _ in range(count)]
    if draw(st.booleans()):
        row = rows[draw(st.integers(0, count - 1))]
        key = draw(st.sampled_from(keys))
        change = draw(st.sampled_from(["drop", "add", "string", "array", "longer", "dict", "nested"]))
        if change == "drop":
            del row[key]
        elif change == "add":
            row["zz"] = 1
        elif change == "string":
            row[key] = "%d"
        elif change == "array":
            row[key] = (1,) if kinds[key] < 0 else 1
        elif change == "longer":
            row[key] = tuple(row[key]) + (5,) if kinds[key] >= 0 else [row[key]]
        elif change == "dict":
            rows[rows.index(row)] = dict(row.items()) if count > 1 else [row]
        else:
            row[key] = {"x": row[key]}
    return rows


@settings(max_examples=300, deadline=None)
@given(_uniform_rows(), st.sampled_from([1, 2, 7, 1 << 11]))
def test_arrays_of_one_shape_match_the_stdlib_in_any_chunking(rows, slots):
    from unittest import mock

    from arquiver import report

    with mock.patch.object(report, "_CHUNK_SLOTS", slots):
        for value in ({"rows": rows, "n": 1}, rows, {"a": rows}):
            assert report_to_json(value) == _reference(value)
            assert _written(value) == _reference(value)


@pytest.mark.parametrize(
    "rows",
    [
        [{"a": 1}, {"a": True}],
        [{"a": (1, 2)}, {"a": (1, False)}],
        [{"a": 1, "b": (2,)}, {"a": 1, "b": (None,)}],
        [{"a": 1.0}, {"a": 1}],
        [{1: 1}, {1: 2}],
    ],
)
def test_arrays_of_one_shape_still_reject_values_outside_the_report_types(rows):
    for value in ({"rows": rows}, rows):
        with pytest.raises(TypeError):
            report_to_json(value)
        with pytest.raises(TypeError):
            _written(value)


def test_arrays_of_empty_rows_go_member_by_member():
    for rows in ([{}, {}], [{"a": ()}, {"a": []}]):
        assert report_to_json({"rows": rows}) == _reference({"rows": rows})


class _Pieces:
    def __init__(self):
        self.sizes = []

    def writelines(self, pieces):
        self.sizes += map(len, pieces)


def test_vertices_of_a60_are_written_in_bounded_chunks():
    report = _reports(_linear("A", 60))[0]
    sink = _Pieces()
    write_report(report, sink)
    text = report_to_json(report)
    assert sum(sink.sizes) == len(text)
    # 1,830 vertices of 62 ints each, at most 33 vertices (about 50 kB) a chunk.
    assert len(report["vertices"]) == 1830
    assert len(text) > 1_800_000
    assert max(sink.sizes) < 64_000

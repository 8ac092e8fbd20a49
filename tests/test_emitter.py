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

"""Hammock tables read off the build, seed sections, and composition
multiplicities."""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings

from arquiver import (
    ArquiverError,
    BoundExceededError,
    KnitInconsistentError,
    NotDynkinError,
    PositionOutOfRangeError,
    ZVertex,
    build,
    hammock_vertices,
    hammocks,
    knit_hammock,
    validate,
)
from arquiver.coxeter import table_order
from arquiver.dynkin import canonical_diagram, classify_quiver
from arquiver.repetitive import mesh_inputs
from arquiver.report import build_report
from conftest import (
    a1_quiver,
    a3_linear,
    all_diagrams,
    all_orientations,
    e6_example,
    g2_quiver,
    random_orientation,
    relabelled_orientations,
)
from plane import (
    composition_multiplicity,
    dims,
    in_arrows,
    injective_position,
    is_successor,
    reference_knit,
    relaid,
    seed_section,
    table_of,
)


def test_seed_section_a3():
    seeds = seed_section(a3_linear().opposite(), 1)
    assert seeds == {ZVertex(0, 1): 1, ZVertex(1, 2): 1, ZVertex(2, 3): 1}


def test_seed_section_g2_picks_up_second_component():
    seeds = seed_section(g2_quiver().opposite(), 1)
    assert seeds == {ZVertex(0, 1): 1, ZVertex(1, 2): 3}


def test_seed_section_a1():
    assert seed_section(a1_quiver(), 1) == {ZVertex(0, 1): 1}


def _offset_misread(q):
    """``q``, its opposite's level offset of base 1 in hammock 3 misread as 1."""
    qop = q.opposite()
    steps = [list(row) for row in qop._forward_steps]
    steps[1][3] = 1  # the backward steps of the walk 3 .. 1
    qop.__dict__["_forward_steps"] = steps
    return q


def test_sweep_off_the_level_offset_is_inconsistent():
    # Linear A3: the plain arrows of the opposite quiver run 3 -> 2 -> 1.
    with pytest.raises(
        KnitInconsistentError,
        match=re.escape("sweep from 3 meets base 1 at level 0; its level offset is 1"),
    ):
        knit_hammock(_offset_misread(a3_linear()), 1)


def test_cli_hammock_reports_an_inconsistent_sweep(monkeypatch, tmp_path, capsys):
    from arquiver import cli

    load = cli._load
    monkeypatch.setattr(cli, "_load", lambda path: _offset_misread(load(path)))
    path = tmp_path / "a3.q"
    path.write_text("n 3\narrow 1 2\narrow 2 3\n", encoding="utf-8")
    assert cli.main(["hammock", str(path), "-k", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("internal error: sweep from 3 meets base 1")


def test_knit_a3():
    res = knit_hammock(a3_linear(), 1)
    assert res.terminator == ZVertex(3, 3)
    assert res.orbit == 3 and res.orbit_index == 2
    table = table_of(res)
    assert table[ZVertex(1, 1)] == 0
    assert table[ZVertex(2, 2)] == 0
    assert table[ZVertex(2, 1)] == 0
    assert table[ZVertex(3, 3)] == -1


def test_knit_a1_projective_equals_injective():
    res = knit_hammock(a1_quiver(), 1)
    assert res.terminator == ZVertex(1, 1)
    assert res.orbit == 1 and res.orbit_index == 0


def test_knit_g2():
    res = knit_hammock(g2_quiver(), 1)
    assert res.terminator == ZVertex(3, 1)
    assert res.orbit == 1 and res.orbit_index == 2
    table = table_of(res)
    assert table[ZVertex(1, 1)] == 2
    assert table[ZVertex(2, 2)] == 3
    assert table[ZVertex(2, 1)] == 1
    assert table[ZVertex(3, 2)] == 0


def test_hammock_vertices_a3():
    members = hammock_vertices(knit_hammock(a3_linear(), 1))
    assert members == {ZVertex(0, 1), ZVertex(1, 2), ZVertex(2, 3)}


def test_hammock_vertices_a1():
    assert hammock_vertices(knit_hammock(a1_quiver(), 1)) == {ZVertex(0, 1)}


def test_hammock_vertices_g2():
    members = hammock_vertices(knit_hammock(g2_quiver(), 1))
    assert members == {
        ZVertex(0, 1),
        ZVertex(1, 2),
        ZVertex(1, 1),
        ZVertex(2, 2),
        ZVertex(2, 1),
    }


def test_composition_multiplicity_examples():
    res = knit_hammock(a3_linear(), 1)
    assert composition_multiplicity(res, ZVertex(1, 2)) == 1
    g2 = knit_hammock(g2_quiver(), 1)
    assert composition_multiplicity(g2, ZVertex(1, 1)) == 2
    for q in (a3_linear(), g2_quiver()):
        for k in q.vertices():
            assert composition_multiplicity(knit_hammock(q, k), ZVertex(0, k)) == 1


def test_composition_multiplicity_rejects_bad_positions():
    res = knit_hammock(a3_linear(), 1)
    with pytest.raises(PositionOutOfRangeError):
        composition_multiplicity(res, ZVertex(-1, 1))
    with pytest.raises(PositionOutOfRangeError):
        composition_multiplicity(res, ZVertex(0, 4))
    with pytest.raises(PositionOutOfRangeError):
        composition_multiplicity(res, res.terminator)


def test_additivity_holds_at_knitted_vertices():
    q = g2_quiver()
    qop = q.opposite()
    res = knit_hammock(q, 2)
    seeds = seed_section(qop, 2)
    table = table_of(res)
    for v, value in table.items():
        if v in seeds:
            continue
        total = sum(za.val[1] * table[za.src] for za in in_arrows(qop, v))
        assert value == total - table[v.translate()]


def test_projective_and_injective_multiplicities_are_one():
    for q in (a3_linear(), g2_quiver()):
        for k in q.vertices():
            res = knit_hammock(q, k)
            assert table_of(res)[ZVertex(0, k)] == 1
            assert table_of(res)[injective_position(res)] > 0
            assert composition_multiplicity(res, injective_position(res)) == 1


def test_values_before_terminator_are_nonnegative():
    for k in (1, 2, 3):
        res = knit_hammock(a3_linear(), k)
        for v, value in table_of(res).items():
            if v != res.terminator:
                assert value >= 0


def test_knit_rejects_non_dynkin_input():
    affine = validate(3, [(1, 2), (2, 3), (1, 3)])  # oriented triangle
    with pytest.raises(NotDynkinError):
        knit_hammock(affine, 1)


def test_knit_bound_exceeded_on_wild_valuation():
    from arquiver.ar_quiver import _knit_vectors

    # Classification rejects a wild input first; the knit itself still stops.
    with pytest.raises(BoundExceededError):
        _knit_vectors(validate(2, [(1, 2, (1, 4))]), 60)


def test_knit_detects_inconsistent_seed(monkeypatch):
    # Doubling the seeds scales every vector, so the knit runs as before
    # and only the top of each projective, 2 instead of 1, is flagged.
    from arquiver import ar_quiver

    level_zero = ar_quiver._level_zero
    monkeypatch.setattr(
        ar_quiver,
        "_level_zero",
        lambda qop, k: {j: 2 * value for j, value in level_zero(qop, k).items()},
    )
    with pytest.raises(KnitInconsistentError, match="^projective 1 misses its own simple top$"):
        knit_hammock(a3_linear(), 1)


def test_read_rejects_a_terminator_off_path_length_h():
    # Orbit 3 of linear A3 run on by a zero vector: hammock 1 would end a level late.
    arq = relaid(build(a3_linear()), m=(0, 1, 3))
    with pytest.raises(
        KnitInconsistentError,
        match=r"^terminator ZVertex\(level=4, base=3\) lies at path length 6, not at h = 4$",
    ):
        hammocks(arq)


def test_read_rejects_a_terminator_without_a_positive_value_below():
    arq = build(a3_linear())
    injective = arq.injective(1)  # (2, 3), where orbit 3 ends hammock 1
    arq = relaid(arq, {**dims(arq), injective: (0, 1, 0)})
    with pytest.raises(
        KnitInconsistentError,
        match=r"^value directly before the terminator ZVertex\(level=3, base=3\) is not positive$",
    ):
        hammocks(arq)


def test_vertex_out_of_range():
    with pytest.raises(PositionOutOfRangeError):
        knit_hammock(a3_linear(), 4)


def test_knit_bound_comes_from_the_coxeter_number(monkeypatch):
    from arquiver import hammock

    # A3 has h = 4; hammock 1 terminates at level 3 = h - 1, at path length h.
    res = knit_hammock(a3_linear(), 1)
    assert res.terminator == ZVertex(3, 3)
    # Base j runs to the last level within path length h, (h - c_j) // 2,
    # where c_j = 0, -1, -2 is the walk 1 .. j's forward less backward steps.
    lengths = [1 + max(level for level, base, _ in res.table if base == j) for j in (1, 2, 3)]
    assert lengths == [3, 3, 4]
    # Claiming h = 6 leaves the terminator short of it.
    monkeypatch.setattr(hammock, "table_order", lambda dynkin: 6)
    with pytest.raises(KnitInconsistentError, match="lies at path length 4, not at h = 6$"):
        knit_hammock(a3_linear(), 1)


def test_knit_hammock_matches_build():
    q = g2_quiver()
    for res in hammocks(build(q)):
        alone = knit_hammock(q, res.k)
        assert alone.table == res.table and alone.terminator == res.terminator


@pytest.mark.parametrize(
    "q",
    [validate(5, [(1, 2), (2, 3), (3, 4), (4, 5)]), e6_example()],
    ids=["A5", "E6"],
)
def test_build_sweeps_once_per_knit(monkeypatch, q):
    # build knits all hammocks at once from their level-0 seeds, one sweep each.
    from arquiver import ar_quiver, build

    calls = []
    sweep = ar_quiver._level_zero

    def counting(qop, k):
        calls.append(k)
        return sweep(qop, k)

    monkeypatch.setattr(ar_quiver, "_level_zero", counting)
    build(q)
    assert sorted(calls) == list(q.vertices())


@pytest.mark.parametrize("family, rank", all_diagrams(8))
def test_hammock_vertices_are_the_positive_predecessors_of_the_injective(family, rank):
    q = random_orientation(canonical_diagram(family, rank), random.Random(f"{family}{rank}"))
    qop = q.opposite()
    for k in q.vertices():
        res = knit_hammock(q, k)
        top = injective_position(res)
        assert hammock_vertices(res) == {
            v for v, value in table_of(res).items() if value > 0 and is_successor(qop, v, top)
        }


@pytest.mark.parametrize("family, rank", all_diagrams(6))
def test_table_rows_are_the_report_order_and_hold_the_hammock_vertices(family, rank):
    for q in all_orientations(canonical_diagram(family, rank)):
        arq = build(q)
        report = build_report(arq, table_order(arq.dynkin), include_hammocks=True)
        for res in hammocks(arq):
            keys = [(level, base) for level, base, _ in res.table]
            assert all(a < b for a, b in zip(keys, keys[1:]))
            positive = [(level, base) for level, base, value in res.table if value > 0]
            assert hammock_vertices(res) == set(positive)
            assert report["hammocks"][str(res.k)]["table"] == res.table
            assert report["hammocks"][str(res.k)]["vertices"] == positive


def _reference_knits(q):
    """The heap knit's table and terminator of every hammock of ``q``."""
    qop = q.opposite()
    bound = table_order(classify_quiver(q)) + 1
    return [reference_knit(qop, k, seed_section(qop, k), bound) for k in q.vertices()]


def _assert_knit_matches_reference(q):
    read = hammocks(build(q))
    assert [(table_of(res), res.terminator) for res in read] == _reference_knits(q)
    # The benchmark's hammock.table_entries counts the entries of knit_hammock.
    assert knit_hammock(q, q.n).table == read[-1].table


@pytest.mark.parametrize("family, rank", all_diagrams(8))
def test_grid_knit_matches_heap_knit_on_every_orientation(family, rank):
    for q in all_orientations(canonical_diagram(family, rank)):
        _assert_knit_matches_reference(q)


@settings(max_examples=60, deadline=None)
@given(relabelled_orientations())
def test_grid_knit_matches_heap_knit_on_relabelled_orientations(q):
    _assert_knit_matches_reference(q)


def _shifted_meshes(shift):
    """``mesh_inputs`` with each input at level offset ``o`` read at ``o + shift[o]``."""

    def meshes(base):
        return {
            x: tuple((offset + shift[offset], src, w) for offset, src, w in rows)
            for x, rows in mesh_inputs(base).items()
        }

    return meshes


# Star inputs read a level too high, where nothing is knitted yet; plain
# inputs a level too low, below the seed for some bases of the heap knit.
# The vector knit has every level below knitted and fails on the sums.
@pytest.mark.parametrize(
    "shift, match",
    [({-1: 1, 0: 0}, "before it was knitted"), ({-1: 0, 0: -1}, None)],
    ids=["ahead", "behind"],
)
@pytest.mark.parametrize("family, rank", all_diagrams(5))
def test_mesh_input_read_before_it_was_knitted_fails(monkeypatch, family, rank, shift, match):
    import plane
    from arquiver import ar_quiver

    monkeypatch.setattr(ar_quiver, "mesh_inputs", _shifted_meshes(shift))
    monkeypatch.setattr(plane, "mesh_inputs", _shifted_meshes(shift))
    for q in all_orientations(canonical_diagram(family, rank)):
        try:
            expected = _reference_knits(q)
        except (LookupError, ArquiverError):
            with pytest.raises(KnitInconsistentError, match=match):
                build(q)
            continue
        assert [(table_of(res), res.terminator) for res in hammocks(build(q))] == expected

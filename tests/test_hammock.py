"""Hammock seeding, knitting, and composition multiplicities."""

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
    hammock_vertices,
    knit_hammock,
    seed_section,
    validate,
)
from arquiver.coxeter import table_order
from arquiver.dynkin import (
    all_orientations,
    canonical_diagram,
    classify_quiver,
    random_orientation,
)
from arquiver.hammock import HammockResult, _knit_from_seed
from arquiver.repetitive import mesh_inputs
from conftest import (
    a1_quiver,
    a3_linear,
    all_diagrams,
    e6_example,
    g2_quiver,
    relabelled_orientations,
)
from plane import composition_multiplicity, in_arrows, is_successor, reference_knit


def test_seed_section_a3():
    seeds = seed_section(a3_linear().opposite(), 1)
    assert seeds == {ZVertex(0, 1): 1, ZVertex(1, 2): 1, ZVertex(2, 3): 1}


def test_seed_section_g2_picks_up_second_component():
    seeds = seed_section(g2_quiver().opposite(), 1)
    assert seeds == {ZVertex(0, 1): 1, ZVertex(1, 2): 3}


def test_seed_section_a1():
    assert seed_section(a1_quiver(), 1) == {ZVertex(0, 1): 1}


def _sweep_one_level_late(monkeypatch):
    from arquiver import hammock

    sweep = hammock._sweep

    def late(qop, k):
        found = sweep(qop, k)
        level, value = found[3]
        found[3] = (level + 1, value)
        return found

    monkeypatch.setattr(hammock, "_sweep", late)


def test_sweep_off_the_level_offset_is_inconsistent(monkeypatch):
    _sweep_one_level_late(monkeypatch)
    with pytest.raises(
        KnitInconsistentError,
        match=re.escape("sweep from 1 meets base 3 at level 3, not at its level offset 2"),
    ):
        knit_hammock(a3_linear(), 1)


def test_cli_hammock_reports_an_inconsistent_sweep(monkeypatch, tmp_path, capsys):
    from arquiver.cli import main

    _sweep_one_level_late(monkeypatch)
    path = tmp_path / "a3.q"
    path.write_text("n 3\narrow 1 2\narrow 2 3\n", encoding="utf-8")
    assert main(["hammock", str(path), "-k", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("internal error: sweep from 1 meets base 3")


def test_knit_a3():
    res = knit_hammock(a3_linear(), 1)
    assert res.terminator == ZVertex(3, 3)
    assert res.orbit == 3 and res.orbit_index == 2
    assert res.table[ZVertex(1, 1)] == 0
    assert res.table[ZVertex(2, 2)] == 0
    assert res.table[ZVertex(2, 1)] == 0
    assert res.table[ZVertex(3, 3)] == -1


def test_knit_a1_projective_equals_injective():
    res = knit_hammock(a1_quiver(), 1)
    assert res.terminator == ZVertex(1, 1)
    assert res.orbit == 1 and res.orbit_index == 0


def test_knit_g2():
    res = knit_hammock(g2_quiver(), 1)
    assert res.terminator == ZVertex(3, 1)
    assert res.orbit == 1 and res.orbit_index == 2
    assert res.table[ZVertex(1, 1)] == 2
    assert res.table[ZVertex(2, 2)] == 3
    assert res.table[ZVertex(2, 1)] == 1
    assert res.table[ZVertex(3, 2)] == 0


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
    for v, value in res.table.items():
        if v in seeds:
            continue
        total = sum(za.val[1] * res.table[za.src] for za in in_arrows(qop, v))
        assert value == total - res.table[v.translate()]


def test_projective_and_injective_multiplicities_are_one():
    for q in (a3_linear(), g2_quiver()):
        for k in q.vertices():
            res = knit_hammock(q, k)
            assert res.table[ZVertex(0, k)] == 1
            assert res.table[res.injective_position] > 0
            assert composition_multiplicity(res, res.injective_position) == 1


def test_values_before_terminator_are_nonnegative():
    for k in (1, 2, 3):
        res = knit_hammock(a3_linear(), k)
        for v, value in res.table.items():
            if v != res.terminator:
                assert value >= 0


def test_knit_rejects_non_dynkin_input():
    affine = validate(3, [(1, 2), (2, 3), (1, 3)])  # oriented triangle
    with pytest.raises(NotDynkinError):
        knit_hammock(affine, 1)


def test_knit_bound_exceeded_on_wild_valuation():
    wild = validate(2, [(1, 2, (1, 4))])
    qop = wild.opposite()
    with pytest.raises(BoundExceededError):
        _knit_from_seed(qop, 1, seed_section(qop, 1), bound=60)


def test_knit_detects_inconsistent_seed():
    # Doubling the seeds scales the whole table; the first negative
    # value is then -2 and must be flagged.
    q = a3_linear()
    qop = q.opposite()
    seeds = {v: 2 * value for v, value in seed_section(qop, 1).items()}
    with pytest.raises(KnitInconsistentError):
        _knit_from_seed(qop, 1, seeds, bound=100)


def test_vertex_out_of_range():
    with pytest.raises(PositionOutOfRangeError):
        knit_hammock(a3_linear(), 4)


def test_knit_bound_comes_from_the_coxeter_number():
    from arquiver.hammock import knit_classified

    # A3 has h = 4; hammock 1 terminates at level 3 = h - 1.
    assert knit_classified(a3_linear(), 1, 4).terminator == ZVertex(3, 3)
    # Claiming h = 1 bounds knitting at level 2, below the terminator.
    with pytest.raises(BoundExceededError, match="within 2 levels"):
        knit_classified(a3_linear(), 1, 1)


def test_knit_hammock_matches_build():
    from arquiver import build

    q = g2_quiver()
    for res in build(q).hammocks:
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
        top = res.injective_position
        assert hammock_vertices(res) == {
            v for v, value in res.table.items() if value > 0 and is_successor(qop, v, top)
        }


def _knits(q):
    """Seeds and bound of every hammock of ``q``, as ``knit_classified`` passes them."""
    qop = q.opposite()
    bound = table_order(classify_quiver(q)) + 1
    return [(qop, k, seed_section(qop, k), bound) for k in q.vertices()]


def _knit_table(qop, k, seeds, bound):
    """The position-keyed table of ``_knit_from_seed``'s grid, and its terminator."""
    grid, terminator = _knit_from_seed(qop, k, seeds, bound)
    return HammockResult(qop.opposite(), k, grid, terminator).table, terminator


def _assert_knit_matches_reference(q):
    for qop, k, seeds, bound in _knits(q):
        table, terminator = _knit_table(qop, k, seeds, bound)
        ref_table, ref_terminator = reference_knit(qop, k, seeds, bound)
        assert table == ref_table, k
        assert terminator == ref_terminator, k
        # The benchmark's hammock.table_entries counts these entries.
        assert len(knit_hammock(q, k).table) == len(ref_table), k


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


# Star inputs read a level too high (not knitted yet); plain inputs a level
# too low (below the seed for some bases).
@pytest.mark.parametrize(
    "shift", [{-1: 1, 0: 0}, {-1: 0, 0: -1}], ids=["ahead", "behind"]
)
@pytest.mark.parametrize("family, rank", all_diagrams(5))
def test_mesh_input_read_before_it_was_knitted_fails(monkeypatch, family, rank, shift):
    import plane
    from arquiver import hammock

    monkeypatch.setattr(hammock, "mesh_inputs", _shifted_meshes(shift))
    monkeypatch.setattr(plane, "mesh_inputs", _shifted_meshes(shift))
    for q in all_orientations(canonical_diagram(family, rank)):
        for qop, k, seeds, bound in _knits(q):
            try:
                expected = reference_knit(qop, k, seeds, bound)
            except LookupError:
                with pytest.raises(KnitInconsistentError, match="before it was knitted"):
                    _knit_from_seed(qop, k, seeds, bound)
                continue
            except ArquiverError as exc:
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    _knit_from_seed(qop, k, seeds, bound)
                continue
            table, terminator = _knit_table(qop, k, seeds, bound)
            assert table == expected[0]
            assert terminator == expected[1]

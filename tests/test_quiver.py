"""Valued quivers, graphs, and reduced-walk counting."""

from __future__ import annotations

import random

import pytest

from arquiver import (
    Arrow,
    BadValuationError,
    DanglingVertexError,
    Edge,
    LoopArrowError,
    MultipleArrowError,
    NotATreeError,
    TwoCycleError,
    ValuedGraph,
    ValuedQuiver,
    arrow_counts,
    reduced_walk,
    validate,
)
from conftest import e6_example
from plane import is_reduced


def test_validate_oriented_g2():
    q = validate(2, [(1, 2, (1, 3))])
    assert q.arrows == (Arrow(1, 2, (1, 3)),)


def test_validate_single_vertex_no_arrows():
    assert validate(1, []).n == 1


def test_validate_rejects_two_cycle():
    with pytest.raises(TwoCycleError):
        validate(2, [(1, 2), (2, 1)])


def test_validate_rejects_loop():
    with pytest.raises(LoopArrowError):
        validate(2, [(1, 1)])


def test_validate_rejects_parallel_arrows():
    with pytest.raises(MultipleArrowError):
        validate(2, [(1, 2), (1, 2, (1, 2))])


def test_validate_rejects_zero_valuation():
    with pytest.raises(BadValuationError):
        validate(2, [(1, 2, (0, 1))])


def test_validate_rejects_dangling_vertex():
    with pytest.raises(DanglingVertexError):
        validate(2, [(1, 3)])


def test_opposite_swaps_valuation():
    q = validate(2, [(1, 2, (1, 3))])
    assert q.opposite().arrows == (Arrow(2, 1, (3, 1)),)


def test_opposite_of_empty_quiver():
    q = validate(1, [])
    assert q.opposite() == q


def test_opposite_is_involution_on_e6():
    q = e6_example()
    assert q.opposite().opposite() == q


def test_underlying_graph_example():
    # 1 -> 2 with (1,3) and 3 -> 2: edges 1-2 (1,3) and 2-3 (1,1).
    q = validate(3, [(1, 2, (1, 3)), (3, 2)])
    g = q.underlying_graph()
    assert g.valuation(1, 2) == 1 and g.valuation(2, 1) == 3
    assert g.valuation(2, 3) == 1 and g.valuation(3, 2) == 1


def test_quiver_and_opposite_share_underlying_graph():
    q = e6_example()
    assert q.underlying_graph() == q.opposite().underlying_graph()


def test_single_vertex_graph_has_no_edges():
    assert validate(1, []).underlying_graph().edges == ()


def test_edge_storage_is_direction_normalised():
    assert ValuedGraph(2, (Edge(2, 1, (3, 1)),)) == ValuedGraph(2, (Edge(1, 2, (1, 3)),))


def test_reduced_walk_e6_forward():
    w = reduced_walk(e6_example(), 1, 3)
    assert [s.forward for s in w.steps] == [True, True]
    assert w.start == 1 and w.end == 3


def test_reduced_walk_trivial():
    w = reduced_walk(e6_example(), 4, 4)
    assert len(w) == 0 and w.start == w.end == 4


def test_reduced_walk_e6_mixed():
    w = reduced_walk(e6_example(), 6, 3)
    assert [(s.arrow.src, s.arrow.dst, s.forward) for s in w.steps] == [
        (6, 5, True),
        (3, 5, False),
    ]


def test_reduced_walk_requires_tree():
    disconnected = validate(3, [(1, 2)])
    with pytest.raises(NotATreeError):
        reduced_walk(disconnected, 1, 3)


def test_arrow_counts_examples():
    q = e6_example()
    assert arrow_counts(q, 1, 3) == (2, 0)
    assert arrow_counts(q, 3, 3) == (0, 0)
    assert arrow_counts(q, 6, 3) == (1, 1)


def _random_tree_quiver(rng: random.Random, n: int) -> ValuedQuiver:
    arrows = []
    for v in range(2, n + 1):
        u = rng.randrange(1, v)
        val = (rng.randrange(1, 4), rng.randrange(1, 4))
        arrows.append((u, v, val) if rng.random() < 0.5 else (v, u, val))
    return validate(n, arrows)


def test_walk_counting_identities_on_random_trees():
    rng = random.Random(7)
    for _ in range(25):
        q = _random_tree_quiver(rng, rng.randrange(2, 9))
        for x in q.vertices():
            for y in q.vertices():
                aplus, aminus = arrow_counts(q, x, y)
                assert (aplus, aminus)[::-1] == arrow_counts(q, y, x)
                assert aplus + aminus == len(reduced_walk(q, x, y))


def test_walks_are_reduced():
    q = e6_example()
    for x in q.vertices():
        for y in q.vertices():
            assert is_reduced(reduced_walk(q, x, y))

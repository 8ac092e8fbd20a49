"""Dynkin recognition: canonical diagrams, relabellings, rejections."""

from __future__ import annotations

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arquiver import (
    Edge,
    ValuedGraph,
    canonical_diagram,
    classify_dynkin,
    validate,
)
from arquiver.dynkin import is_valued_graph_isomorphism, random_orientation
from conftest import all_diagrams


@pytest.mark.parametrize("family,rank", all_diagrams(8))
def test_canonical_diagrams_classify_to_themselves(family, rank):
    g = canonical_diagram(family, rank)
    dyn = classify_dynkin(g)
    assert dyn is not None
    assert (dyn.family, dyn.rank) == (family, rank)
    assert dyn.relabel == tuple(g.vertices())  # identity-compatible
    assert is_valued_graph_isomorphism(g, g, dyn.relabel)


def test_g2_edge_read_from_either_side():
    assert classify_dynkin(ValuedGraph(2, (Edge(1, 2, (1, 3)),))).name == "G2"
    flipped = classify_dynkin(ValuedGraph(2, (Edge(1, 2, (3, 1)),)))
    assert flipped is not None and flipped.name == "G2"
    assert flipped.relabel == (2, 1)


def test_single_vertex_is_a1():
    dyn = classify_dynkin(ValuedGraph(1, ()))
    assert dyn is not None and dyn.name == "A1"


def test_rank2_with_valuation_12_reports_family_b():
    for val in ((1, 2), (2, 1)):
        dyn = classify_dynkin(ValuedGraph(2, (Edge(1, 2, val),)))
        assert dyn is not None and (dyn.family, dyn.rank) == ("B", 2)


def test_middle_triple_valued_path_is_not_dynkin():
    g = validate(3, [(1, 2, (1, 3)), (2, 3)]).underlying_graph()
    assert classify_dynkin(g) is None


@pytest.mark.parametrize(
    "edges,n",
    [
        ([(1, 2), (2, 3), (3, 1)], 3),  # cycle
        ([(1, 2)], 3),  # disconnected
        ([(1, 2, (2, 2))], 2),  # unusable valuation
        ([(1, 2, (1, 4))], 2),  # unusable valuation
        ([(1, 2), (2, 3, (1, 2)), (3, 4), (4, 5)], 5),  # non-terminal (1,2) edge
        ([(1, 3), (2, 3), (3, 4), (4, 5), (6, 4)], 6),  # two branch vertices
        ([(1, 5), (2, 5), (3, 5), (4, 5)], 5),  # degree four
        ([(1, 4), (2, 4), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9)], 9),  # E9
        ([(1, 2, (1, 2)), (2, 3), (2, 4)], 4),  # valued edge on a branch
    ],
)
def test_not_dynkin_cases(edges, n):
    g = ValuedGraph(n, tuple(Edge(*e) for e in edges))
    assert classify_dynkin(g) is None


def test_affine_d4_rejected():
    # Star with four rays: the branch vertex has degree 4.
    g = ValuedGraph(5, tuple(Edge(i, 5) for i in range(1, 5)))
    assert classify_dynkin(g) is None


def _relabelled(g: ValuedGraph, perm: list[int]) -> ValuedGraph:
    return ValuedGraph(
        g.n, tuple(Edge(perm[e.x - 1], perm[e.y - 1], e.val) for e in g.edges)
    )


@pytest.mark.parametrize("family,rank", all_diagrams(8))
def test_classification_invariant_under_relabelling(family, rank):
    rng = random.Random(hash((family, rank)) & 0xFFFF)
    g = canonical_diagram(family, rank)
    for _ in range(6):
        perm = list(g.vertices())
        rng.shuffle(perm)
        h = _relabelled(g, perm)
        dyn = classify_dynkin(h)
        assert dyn is not None
        assert (dyn.family, dyn.rank) == (family, rank)
        assert is_valued_graph_isomorphism(h, g, dyn.relabel)


@pytest.mark.parametrize("family,rank", all_diagrams(8))
def test_classification_invariant_under_opposite(family, rank):
    rng = random.Random(hash((family, rank)) & 0xFFF)
    g = canonical_diagram(family, rank)
    for _ in range(4):
        q = random_orientation(g, rng)
        a = classify_dynkin(q.underlying_graph())
        b = classify_dynkin(q.opposite().underlying_graph())
        assert a is not None and b is not None
        assert (a.family, a.rank) == (b.family, b.rank) == (family, rank)


def _weight(g, x):
    """The sum of the valuations ``v_xy`` over the neighbours ``y`` of ``x``."""
    return sum(g.valuation(x, y) for y in g.neighbors(x))


@pytest.mark.parametrize("family,rank", all_diagrams(8))
def test_weights_bounded_in_dynkin_graphs(family, rank):
    g = canonical_diagram(family, rank)
    weights = [_weight(g, x) for x in g.vertices()]
    assert max(weights) <= 3
    assert sum(1 for w in weights if w == 3) <= 1


def test_relabel_preserves_weight():
    g = canonical_diagram("E", 7)
    perm = [4, 7, 1, 3, 6, 2, 5]
    h = _relabelled(g, perm)
    dyn = classify_dynkin(h)
    assert dyn is not None
    canon = canonical_diagram(dyn.family, dyn.rank)
    for x in h.vertices():
        assert _weight(h, x) == _weight(canon, dyn.to_canonical(x))


def test_graph_with_too_few_edges_is_rejected_without_a_neighbour_table():
    # The edge count alone rules out a tree, so nothing is allocated per vertex.
    tracemalloc.start()
    try:
        assert classify_dynkin(ValuedGraph(200_000)) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _all_pairs_isomorphism(g: ValuedGraph, h: ValuedGraph, relabel) -> bool:
    """Every ordered pair of vertices keeps its valuation component."""
    if g.n != h.n or sorted(relabel) != list(g.vertices()):
        return False
    return all(
        g.valuation(x, y) == h.valuation(relabel[x - 1], relabel[y - 1])
        for x in g.vertices()
        for y in g.vertices()
    )


_VALUATIONS = st.sampled_from([(1, 1), (1, 1), (1, 2), (2, 1), (1, 3), (3, 1)])


@st.composite
def _valued_graphs(draw, n):
    """Any valued graph on ``n`` vertices, cycles and isolated vertices included."""
    pairs = [(x, y) for x in range(1, n + 1) for y in range(x + 1, n + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return ValuedGraph(n, tuple(Edge(x, y, draw(_VALUATIONS)) for x, y in chosen))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_isomorphism_check_matches_the_all_pairs_reference(data):
    n = data.draw(st.integers(1, 6))
    g = data.draw(_valued_graphs(n))
    perm = data.draw(st.permutations(range(1, n + 1)))
    kind = data.draw(st.sampled_from(["image", "edited image", "other graph"]))
    if kind == "other graph":
        h = data.draw(_valued_graphs(n))
    else:
        h = _relabelled(g, perm)
        if kind == "edited image":
            edges = list(h.edges)
            if edges and data.draw(st.booleans()):
                k = data.draw(st.integers(0, len(edges) - 1))
                edges[k] = edges[k]._replace(val=data.draw(_VALUATIONS))
            elif n > 1:  # move, add or drop one edge
                x, y = data.draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
                taken = {(e.x, e.y) for e in edges}
                if (min(x, y), max(x, y)) in taken:
                    edges = [e for e in edges if (e.x, e.y) != (min(x, y), max(x, y))]
                else:
                    edges.append(Edge(x, y))
                    if edges[:-1] and data.draw(st.booleans()):
                        del edges[data.draw(st.integers(0, len(edges) - 2))]
            h = ValuedGraph(n, tuple(edges))
    # The true relabelling, another permutation, or a map that is not one.
    relabel = data.draw(
        st.sampled_from([tuple(perm), tuple(perm)])
        | st.permutations(range(1, n + 1)).map(tuple)
        | st.lists(st.integers(0, n + 1), min_size=n - 1, max_size=n + 1).map(tuple)
    )
    expected = _all_pairs_isomorphism(g, h, relabel)
    assert is_valued_graph_isomorphism(g, h, relabel) == expected

"""Shared fixtures: frequently used quivers and diagram sweeps."""

from __future__ import annotations

import pytest
from hypothesis import strategies as st

from arquiver import ValuedQuiver, canonical_diagram, validate
from arquiver.dynkin import orient, relabel_quiver


def a3_linear() -> ValuedQuiver:
    return validate(3, [(1, 2), (2, 3)])


def g2_quiver() -> ValuedQuiver:
    return validate(2, [(1, 2, (1, 3))])


def a1_quiver() -> ValuedQuiver:
    return validate(1, [])


def e6_example() -> ValuedQuiver:
    """A rank-6 orientation with a non-identity projective-injective pairing."""
    return validate(6, [(1, 2), (2, 3), (3, 4), (3, 5), (6, 5)])


def f4_example() -> ValuedQuiver:
    """A rank-4 orientation around the non-trivially valued middle edge."""
    return validate(4, [(1, 2), (2, 3, (1, 2)), (4, 3)])


def all_diagrams(max_rank: int = 8):
    """Every (family, rank) with rank at most ``max_rank``."""
    out = []
    out += [("A", n) for n in range(1, max_rank + 1)]
    out += [("B", n) for n in range(2, max_rank + 1)]
    out += [("C", n) for n in range(3, max_rank + 1)]
    out += [("D", n) for n in range(4, max_rank + 1)]
    out += [("E", n) for n in (6, 7, 8) if n <= max_rank]
    if max_rank >= 4:
        out.append(("F", 4))
    if max_rank >= 2:
        out.append(("G", 2))
    return out


@st.composite
def relabelled_orientations(draw, max_rank: int = 24):
    """A random orientation and relabelling of a diagram up to ``max_rank``."""
    family, rank = draw(st.sampled_from(all_diagrams(max_rank)))
    g = canonical_diagram(family, rank)
    q = orient(g, draw(st.integers(0, (1 << len(g.edges)) - 1)))
    return relabel_quiver(q, tuple(draw(st.permutations(range(1, rank + 1)))))


@pytest.fixture
def a3():
    return a3_linear()


@pytest.fixture
def g2():
    return g2_quiver()


@pytest.fixture
def a1():
    return a1_quiver()


@pytest.fixture
def e6():
    return e6_example()


@pytest.fixture
def f4():
    return f4_example()


def diagram(family: str, rank: int):
    return canonical_diagram(family, rank)

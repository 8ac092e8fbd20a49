"""Dynkin diagram recognition for valued graphs.

Classification anchors on cheap signatures instead of generic graph
isomorphism: the unique branch vertex and its arm lengths for the simply
laced families, the position and reading of the unique non-trivially
valued edge for the others.  Every candidate relabelling is verified
against the literal canonical diagram before it is returned, so a bug in
the anchoring logic can only produce ``None``, never a wrong class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import NotDynkinError
from .quiver import TRIVIAL, Arrow, Edge, ValuedGraph, ValuedQuiver, swap

FAMILY_RANKS = {
    "A": range(1, 10**9),
    "B": range(2, 10**9),
    "C": range(3, 10**9),
    "D": range(4, 10**9),
    "E": range(6, 9),
    "F": range(4, 5),
    "G": range(2, 3),
}


@dataclass(frozen=True)
class DynkinClass:
    """A recognised type together with a relabelling onto the canonical diagram.

    ``relabel[v - 1]`` is the canonical label of input vertex ``v``; the map
    is a valued-graph isomorphism onto ``canonical_diagram(family, rank)``.
    """

    family: str
    rank: int
    relabel: tuple[int, ...]

    @property
    def name(self) -> str:
        return f"{self.family}{self.rank}"

    def to_canonical(self, v: int) -> int:
        return self.relabel[v - 1]

    def from_canonical(self, c: int) -> int:
        return self.relabel.index(c) + 1


def table_order(dynkin: DynkinClass) -> int:
    """The Coxeter number h: the orientation-independent Coxeter order, per family."""
    n = dynkin.rank
    if dynkin.family == "A":
        return n + 1
    if dynkin.family in ("B", "C"):
        return 2 * n
    if dynkin.family == "D":
        return 2 * (n - 1)
    if dynkin.family == "E":
        return {6: 12, 7: 18, 8: 30}[n]
    if dynkin.family == "F":
        return 12
    return 6  # G2


def canonical_diagram(family: str, rank: int) -> ValuedGraph:
    """The canonical valued tree of the given family and rank."""
    if family not in FAMILY_RANKS or rank not in FAMILY_RANKS[family]:
        raise NotDynkinError(f"no canonical diagram {family}{rank}")
    n = rank
    if family == "A":
        edges = [Edge(i, i + 1) for i in range(1, n)]
    elif family == "B":
        edges = [Edge(1, 2, (1, 2))] + [Edge(i, i + 1) for i in range(2, n)]
    elif family == "C":
        edges = [Edge(1, 2, (2, 1))] + [Edge(i, i + 1) for i in range(2, n)]
    elif family == "D":
        edges = [Edge(1, 3), Edge(2, 3)] + [Edge(i, i + 1) for i in range(3, n)]
    elif family == "E":
        edges = [Edge(1, 2), Edge(2, 3), Edge(3, 4), Edge(3, 5)]
        edges += [Edge(i, i + 1) for i in range(5, n)]
    elif family == "F":
        edges = [Edge(1, 2), Edge(2, 3, (1, 2)), Edge(3, 4)]
    else:  # G
        edges = [Edge(1, 2, (1, 3))]
    return ValuedGraph(n, tuple(edges))


def is_valued_graph_isomorphism(
    g: ValuedGraph, h: ValuedGraph, relabel: tuple[int, ...]
) -> bool:
    """Whether ``v -> relabel[v-1]`` preserves all pairwise valuations.

    Checked in O(E): both graphs have as many edges, and every edge of
    ``g`` lands on an edge of ``h`` with both valuation components equal.
    That is enough.  A bijection of the vertices maps distinct pairs to
    distinct pairs, so the edges of ``g`` land on as many distinct edges
    of ``h``, which are then all of them.  A non-edge of ``g`` therefore
    lands on a non-edge of ``h``, and both read valuation 0 there.
    """
    if g.n != h.n or sorted(relabel) != list(g.vertices()):
        return False
    return len(g.edges) == len(h.edges) and all(
        h.valuation(relabel[e.x - 1], relabel[e.y - 1]) == e.val[0]
        and h.valuation(relabel[e.y - 1], relabel[e.x - 1]) == e.val[1]
        for e in g.edges
    )


def classify_dynkin(g: ValuedGraph) -> DynkinClass | None:
    """Recognise ``g`` as a Dynkin diagram, or return ``None``."""
    if not g.is_tree():
        return None
    nontrivial = [e for e in g.edges if e.val != TRIVIAL]
    if len(nontrivial) > 1:
        return None
    if nontrivial:
        candidates = _valued_candidates(g, nontrivial[0])
    else:
        candidates = _simply_laced_candidates(g)
    for family, rank, relabel in candidates:
        if is_valued_graph_isomorphism(g, canonical_diagram(family, rank), relabel):
            return DynkinClass(family, rank, relabel)
    return None


def _path_order(g: ValuedGraph) -> list[int] | None:
    """Vertices of a path graph in order, starting from its smaller endpoint."""
    if g.n == 1:
        return [1]
    endpoints = [x for x in g.vertices() if g.degree(x) == 1]
    if len(endpoints) != 2 or any(g.degree(x) > 2 for x in g.vertices()):
        return None
    order = [min(endpoints)]
    prev = None
    while len(order) < g.n:
        nxt = [y for y in g.neighbors(order[-1]) if y != prev]
        if len(nxt) != 1:
            return None
        prev = order[-1]
        order.append(nxt[0])
    return order


def _relabel_from_order(order: list[int]) -> tuple[int, ...]:
    relabel = [0] * len(order)
    for canonical, v in enumerate(order, start=1):
        relabel[v - 1] = canonical
    return tuple(relabel)


def _valued_candidates(
    g: ValuedGraph, e: Edge
) -> Iterator[tuple[str, int, tuple[int, ...]]]:
    order = _path_order(g)
    if order is None:
        return
    vals = {e.val, swap(e.val)}
    for direction in (order, order[::-1]):
        relabel = _relabel_from_order(direction)
        if vals == {(1, 3), (3, 1)} and g.n == 2:
            yield ("G", 2, relabel)
        elif vals == {(1, 2), (2, 1)}:
            # B2 and the rank-2 reading of C coincide; report family B.
            if g.n == 2:
                yield ("B", 2, relabel)
            elif g.n >= 3:
                yield ("B", g.n, relabel)
                yield ("C", g.n, relabel)
                if g.n == 4:
                    yield ("F", 4, relabel)


def _arms(g: ValuedGraph, branch: int) -> list[list[int]]:
    """Vertex sequences of the arms hanging off ``branch``, branch excluded."""
    arms = []
    for first in g.neighbors(branch):
        arm = [first]
        prev = branch
        while True:
            nxt = [y for y in g.neighbors(arm[-1]) if y != prev]
            if not nxt:
                break
            if len(nxt) > 1:
                return []  # second branch vertex
            prev = arm[-1]
            arm.append(nxt[0])
        arms.append(arm)
    return arms


def _simply_laced_candidates(
    g: ValuedGraph,
) -> Iterator[tuple[str, int, tuple[int, ...]]]:
    if any(g.degree(x) > 3 for x in g.vertices()):
        return
    branches = [x for x in g.vertices() if g.degree(x) == 3]
    if not branches:
        order = _path_order(g)
        if order is not None:
            yield ("A", g.n, _relabel_from_order(order))
        return
    if len(branches) > 1:
        return
    branch = branches[0]
    arms = _arms(g, branch)
    if len(arms) != 3:
        return
    arms.sort(key=lambda arm: (len(arm), arm[-1]))
    lengths = [len(arm) for arm in arms]
    order: list[int] = []
    if lengths[0] == 1 and lengths[1] == 1:
        # Branch -> 3, the two shortest tips -> 1 and 2, long arm -> 4..n.
        short = sorted([arms[0][0], arms[1][0]])
        long_arm = arms[2]
        order = [short[0], short[1], branch] + long_arm
        family = "D"
    elif lengths == [1, 2, 2] or lengths == [1, 2, 3] or lengths == [1, 2, 4]:
        # Branch -> 3, length-1 tip -> 4, length-2 arm -> (2, 1), rest -> 5..n.
        two = arms[1]
        order = [two[1], two[0], branch, arms[0][0]] + arms[2]
        family = "E"
    else:
        return
    yield (family, g.n, _relabel_from_order(order))


def classify_quiver(q: ValuedQuiver) -> DynkinClass:
    """Classify the underlying graph, raising when it is not Dynkin."""
    dyn = classify_dynkin(q.underlying_graph())
    if dyn is None:
        raise NotDynkinError("underlying valued graph is not a Dynkin diagram")
    return dyn


def relabel_quiver(q: ValuedQuiver, relabel: tuple[int, ...]) -> ValuedQuiver:
    """Apply a vertex relabelling, keeping arrow valuations."""
    return ValuedQuiver(
        q.n,
        tuple(Arrow(relabel[a.src - 1], relabel[a.dst - 1], a.val) for a in q.arrows),
    )


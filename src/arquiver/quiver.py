"""Valued quivers, valued graphs, and reduced walks.

Vertices are labelled ``1..n``.  An arrow carries a pair of positive
integers, its valuation; ``(1, 1)`` is the trivial valuation.  Valued
quivers here never have loops, 2-cycles, or parallel arrows, which is
enforced at construction time.

Walks traverse arrows forwards or backwards.  In a tree there is exactly
one reduced walk between any two vertices; several constructions in this
package reduce to counting the forward and backward steps of that walk.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    BadValuationError,
    DanglingVertexError,
    InvalidQuiverError,
    LoopArrowError,
    MultipleArrowError,
    NotATreeError,
    TwoCycleError,
)

Valuation = tuple[int, int]

TRIVIAL: Valuation = (1, 1)


def swap(val: Valuation) -> Valuation:
    return (val[1], val[0])


class Arrow(NamedTuple):
    src: int
    dst: int
    val: Valuation = TRIVIAL


class Step(NamedTuple):
    """A single walk step: an arrow traversed forwards or backwards."""

    arrow: Arrow
    forward: bool

    @property
    def start(self) -> int:
        return self.arrow.src if self.forward else self.arrow.dst

    @property
    def end(self) -> int:
        return self.arrow.dst if self.forward else self.arrow.src


@dataclass(frozen=True)
class Walk:
    """A walk in a quiver; empty ``steps`` means the trivial walk."""

    start: int
    steps: tuple[Step, ...] = ()

    def __post_init__(self) -> None:
        at = self.start
        for step in self.steps:
            if step.start != at:
                raise InvalidQuiverError(f"walk steps do not compose at {at}")
            at = step.end

    @property
    def end(self) -> int:
        return self.steps[-1].end if self.steps else self.start

    def __len__(self) -> int:
        return len(self.steps)


class Edge(NamedTuple):
    """Graph edge with valuation read from ``x``; stored with ``x < y``."""

    x: int
    y: int
    val: Valuation = TRIVIAL


def _check_vertex(v: object, n: int) -> int:
    if not isinstance(v, int) or isinstance(v, bool) or not 1 <= v <= n:
        raise DanglingVertexError(f"vertex {v!r} is not in 1..{n}")
    return v


def _check_valuation(val: object) -> Valuation:
    if (
        not isinstance(val, tuple)
        or len(val) != 2
        or any(not isinstance(c, int) or isinstance(c, bool) or c < 1 for c in val)
    ):
        raise BadValuationError(f"valuation {val!r} is not a pair of positive integers")
    return val


@dataclass(frozen=True)
class ValuedQuiver:
    """A finite valued quiver without loops, 2-cycles, or parallel arrows."""

    n: int
    arrows: tuple[Arrow, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise InvalidQuiverError(f"vertex count {self.n!r} must be a positive integer")
        seen: dict[tuple[int, int], Arrow] = {}
        for a in self.arrows:
            _check_vertex(a.src, self.n)
            _check_vertex(a.dst, self.n)
            _check_valuation(a.val)
            if a.src == a.dst:
                raise LoopArrowError(f"loop at vertex {a.src}")
            if (a.src, a.dst) in seen:
                raise MultipleArrowError(f"parallel arrows {a.src}->{a.dst}")
            if (a.dst, a.src) in seen:
                raise TwoCycleError(f"2-cycle between {a.src} and {a.dst}")
            seen[(a.src, a.dst)] = a

    def opposite(self) -> "ValuedQuiver":
        """Reverse every arrow and swap its valuation pair."""
        return self._opposite

    def underlying_graph(self) -> "ValuedGraph":
        return ValuedGraph(
            self.n, tuple(Edge(a.src, a.dst, a.val) for a in self.arrows)
        )

    def out_arrows(self, x: int) -> tuple[Arrow, ...]:
        return self._adjacency[0][x]

    def in_arrows(self, x: int) -> tuple[Arrow, ...]:
        return self._adjacency[1][x]

    def vertices(self) -> range:
        return range(1, self.n + 1)

    # -- per-instance tables, built on first use ----------------------------
    # A racing second build computes the same value, so sharing an instance
    # across threads stays safe.

    @cached_property
    def _opposite(self) -> "ValuedQuiver":
        return ValuedQuiver(
            self.n, tuple(Arrow(a.dst, a.src, swap(a.val)) for a in self.arrows)
        )

    @cached_property
    def _adjacency(
        self,
    ) -> tuple[dict[int, tuple[Arrow, ...]], dict[int, tuple[Arrow, ...]]]:
        out: dict[int, list[Arrow]] = {x: [] for x in self.vertices()}
        inn: dict[int, list[Arrow]] = {x: [] for x in self.vertices()}
        for a in self.arrows:
            out[a.src].append(a)
            inn[a.dst].append(a)
        return (
            {x: tuple(v) for x, v in out.items()},
            {x: tuple(v) for x, v in inn.items()},
        )

    @cached_property
    def _mesh_table(self) -> dict[int, tuple[tuple[int, int, int], ...]]:
        """The table behind :func:`arquiver.repetitive.mesh_inputs`."""
        return {
            x: tuple(
                sorted(
                    [(-1, a.dst, a.val[0]) for a in self.out_arrows(x)]
                    + [(0, a.src, a.val[1]) for a in self.in_arrows(x)]
                )
            )
            for x in self.vertices()
        }

    @cached_property
    def _forward_steps(self) -> list[list[int]]:
        """``[x][y]``: forward steps of the reduced walk ``x .. y`` of a tree.

        Row and column 0 are padding.  The backward steps of ``x .. y``
        are the forward steps of ``y .. x``.
        """
        n = self.n
        if len(self.arrows) != n - 1:
            raise NotATreeError(f"{len(self.arrows)} arrows on {n} vertices")
        neighbours: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
        for a in self.arrows:
            neighbours[a.src].append((a.dst, 1))
            neighbours[a.dst].append((a.src, 0))
        table = [[0] * (n + 1)]
        for x in range(1, n + 1):
            row = [-1] * (n + 1)
            row[x] = 0
            stack = [x]
            while stack:
                u = stack.pop()
                for v, forward in neighbours[u]:
                    if row[v] < 0:
                        row[v] = row[u] + forward
                        stack.append(v)
            if -1 in row[1:]:
                raise NotATreeError("underlying graph is disconnected")
            table.append(row)
        return table


@dataclass(frozen=True)
class ValuedGraph:
    """A finite valued graph without loops or multiple edges.

    Edges are normalised to ``x < y`` with the valuation re-read from the
    smaller endpoint, so the two ways of writing an edge compare equal.
    """

    n: int
    edges: tuple[Edge, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise InvalidQuiverError(f"vertex count {self.n!r} must be a positive integer")
        normalised = []
        seen: set[tuple[int, int]] = set()
        for e in self.edges:
            _check_vertex(e.x, self.n)
            _check_vertex(e.y, self.n)
            _check_valuation(e.val)
            if e.x == e.y:
                raise LoopArrowError(f"loop at vertex {e.x}")
            if e.x > e.y:
                e = Edge(e.y, e.x, swap(e.val))
            if (e.x, e.y) in seen:
                raise MultipleArrowError(f"multiple edges between {e.x} and {e.y}")
            seen.add((e.x, e.y))
            normalised.append(e)
        object.__setattr__(self, "edges", tuple(sorted(normalised)))

    def valuation(self, x: int, y: int) -> int:
        """The component ``v_xy``, or 0 when there is no edge."""
        return self._valuations.get((x, y), 0)

    def neighbors(self, x: int) -> tuple[int, ...]:
        return self._neighbors[x]

    def degree(self, x: int) -> int:
        return len(self.neighbors(x))

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def is_connected(self) -> bool:
        if self.n == 1:
            return True
        seen = {1}
        queue = deque([1])
        while queue:
            x = queue.popleft()
            for y in self.neighbors(x):
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        return len(seen) == self.n

    def is_tree(self) -> bool:
        # The edge count first: it is free, while connectivity costs O(n).
        return len(self.edges) == self.n - 1 and self.is_connected()

    @cached_property
    def _valuations(self) -> dict[tuple[int, int], int]:
        table: dict[tuple[int, int], int] = {}
        for e in self.edges:
            table[(e.x, e.y)] = e.val[0]
            table[(e.y, e.x)] = e.val[1]
        return table

    @cached_property
    def _neighbors(self) -> dict[int, tuple[int, ...]]:
        adj: dict[int, list[int]] = {x: [] for x in self.vertices()}
        for e in self.edges:
            adj[e.x].append(e.y)
            adj[e.y].append(e.x)
        return {x: tuple(sorted(v)) for x, v in adj.items()}


def validate(n: int, arrows: Iterable[Sequence]) -> ValuedQuiver:
    """Build a :class:`ValuedQuiver` from raw ``(src, dst[, (a, b)])`` data."""
    normalised = []
    for raw in arrows:
        parts = tuple(raw)
        if len(parts) == 2:
            normalised.append(Arrow(parts[0], parts[1]))
        elif len(parts) == 3:
            val = parts[2]
            normalised.append(Arrow(parts[0], parts[1], tuple(val)))
        else:
            raise InvalidQuiverError(f"arrow {raw!r} is not (src, dst[, valuation])")
    return ValuedQuiver(n, tuple(normalised))


def reduced_walk(q: ValuedQuiver, x: int, y: int) -> Walk:
    """The unique reduced walk between two vertices of a tree quiver."""
    _check_vertex(x, q.n)
    _check_vertex(y, q.n)
    q._forward_steps  # raises NotATreeError unless the underlying graph is a tree
    parent: dict[int, Step] = {}
    stack = [x]
    while stack:
        u = stack.pop()
        steps = [Step(a, True) for a in q.out_arrows(u)]
        steps += [Step(a, False) for a in q.in_arrows(u)]
        for step in steps:
            v = step.end
            if v != x and v not in parent:
                parent[v] = step
                stack.append(v)
    backwards = []
    at = y
    while at != x:
        backwards.append(parent[at])
        at = parent[at].start
    return Walk(x, tuple(reversed(backwards)))


def arrow_counts(q: ValuedQuiver, x: int, y: int) -> tuple[int, int]:
    """Forward and backward step counts of the reduced walk ``x .. y``."""
    _check_vertex(x, q.n)
    _check_vertex(y, q.n)
    forward = q._forward_steps
    return (forward[x][y], forward[y][x])

"""Assembly of the full Auslander-Reiten quiver of a Dynkin ext-quiver.

Position ``(r, i)`` stands for the ``r``-th translate of the ``i``-th
projective; column 0 is the projectives, and orbit ``i`` ends at its
``m(i)``-th translate, which is the injective paired to ``i`` by the
permutation ``rho``.  Both ``m`` and ``rho`` are read off the hammock
knits; the closed forms below recompute them from walk statistics alone
and serve as an independent route.

Dimension vectors are filled from the hammock tables (entry ``k`` of the
vector at ``(r, i)`` is the ``k``-th hammock value there), not by
knitting meshes from the projectives; the mesh recursion lives in the
oracle module as a cross-check.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import NamedTuple

from .coxeter import table_order
from .dynkin import DynkinClass, classify_quiver, relabel_quiver
from .errors import (
    CrossCheckFailedError,
    KnitInconsistentError,
    PositionOutOfRangeError,
)
from .hammock import HammockResult, knit_classified
from .quiver import ValuedQuiver, arrow_counts
from .repetitive import ZArrow, ZVertex, plain_arrow, star_arrow


class PathTable(NamedTuple):
    """The quiver by integer topological position, for path DPs."""

    order: tuple[ZVertex, ...]
    index: dict[ZVertex, int]
    successors: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ARQuiver:
    quiver: ValuedQuiver
    dynkin: DynkinClass
    m: tuple[int, ...]
    rho: tuple[int, ...]
    vertices: tuple[ZVertex, ...]
    arrows: tuple[ZArrow, ...]
    dims: dict[ZVertex, tuple[int, ...]] = field(compare=False)
    hammocks: tuple[HammockResult, ...] = field(compare=False)

    @property
    def n(self) -> int:
        return self.quiver.n

    def m_of(self, i: int) -> int:
        return self.m[i - 1]

    def rho_of(self, i: int) -> int:
        return self.rho[i - 1]

    def rho_inverse(self, l: int) -> int:
        return self.rho.index(l) + 1

    def projective(self, i: int) -> ZVertex:
        return ZVertex(0, i)

    def injective(self, l: int) -> ZVertex:
        """Position of the injective hull of the ``l``-th simple."""
        i = self.rho_inverse(l)
        return ZVertex(self.m_of(i), i)

    # -- path tables, built on first use from ``vertices`` and ``arrows`` ----
    # A racing second build computes the same value, so sharing an instance
    # across threads stays safe.

    @cached_property
    def successors(self) -> dict[ZVertex, tuple[ZVertex, ...]]:
        """Heads of the arrows leaving each vertex, in arrow order."""
        out: dict[ZVertex, list[ZVertex]] = {v: [] for v in self.vertices}
        for za in self.arrows:
            out[za.src].append(za.dst)
        return {v: tuple(heads) for v, heads in out.items()}

    @cached_property
    def topological_order(self) -> tuple[ZVertex, ...]:
        """Vertices ordered so every arrow goes forward."""
        indeg = {v: 0 for v in self.vertices}
        for za in self.arrows:
            indeg[za.dst] += 1
        queue = deque(sorted(v for v in self.vertices if indeg[v] == 0))
        order = []
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in self.successors[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
        if len(order) != len(self.vertices):
            raise CrossCheckFailedError("translation quiver contains an oriented cycle")
        return tuple(order)

    @cached_property
    def path_table(self) -> PathTable:
        """Topological positions, with successor positions in arrow order."""
        order = self.topological_order
        index = {v: k for k, v in enumerate(order)}
        out = self.successors
        return PathTable(
            order, index, tuple(tuple(index[w] for w in out[v]) for v in order)
        )


class Counts(NamedTuple):
    indecomposables: int
    nilpotency: int


def build(q: ValuedQuiver) -> ARQuiver:
    """Knit every hammock and assemble the finite translation quiver."""
    dynkin = classify_quiver(q)
    order = table_order(dynkin)
    results = [knit_classified(q, k, order) for k in q.vertices()]

    m = [-1] * q.n
    rho = [0] * q.n
    for res in results:
        if rho[res.orbit - 1]:
            raise KnitInconsistentError(
                f"orbit {res.orbit} terminates two hammocks ({rho[res.orbit - 1]} and {res.k})"
            )
        m[res.orbit - 1] = res.orbit_index
        rho[res.orbit - 1] = res.k
    if 0 in rho:
        raise KnitInconsistentError("some orbit terminates no hammock")
    for i in q.vertices():
        if rho[rho[i - 1] - 1] != i:
            raise KnitInconsistentError("orbit pairing is not an involution")

    vertices = tuple(
        ZVertex(r, i) for i in q.vertices() for r in range(m[i - 1] + 1)
    )
    in_range = set(vertices)
    arrows: list[ZArrow] = []
    for a in q.opposite().arrows:
        for level in range(0, max(m) + 1):
            for za in (plain_arrow(level, a), star_arrow(level, a)):
                if za.src in in_range and za.dst in in_range:
                    arrows.append(za)
    arrows.sort(key=lambda z: (z.src, z.dst))

    # Terminators sit one level past their orbit, so no vertex is one and a
    # position missing from a table has multiplicity zero.
    columns = [list(map(res.table.get, vertices, repeat(0))) for res in results]
    dims = dict(zip(vertices, zip(*columns)))
    for i in q.vertices():
        if dims[ZVertex(0, i)][i - 1] != 1:
            raise KnitInconsistentError(f"projective {i} misses its own simple top")

    return ARQuiver(
        q, dynkin, tuple(m), tuple(rho), vertices, tuple(arrows), dims, tuple(results)
    )


# -- closed forms ---------------------------------------------------------------

def _closed_form_canonical(qc: ValuedQuiver, dynkin: DynkinClass) -> tuple[list[int], list[int]]:
    """(m, rho) of a canonically labelled quiver, from walk statistics."""
    n = qc.n
    family = dynkin.family

    def aplus(x: int, y: int) -> int:
        return arrow_counts(qc, x, y)[0]

    def aminus(x: int, y: int) -> int:
        return arrow_counts(qc, x, y)[1]

    if family == "A":
        rho = [n + 1 - i for i in qc.vertices()]
        m = [aplus(1, i) + aminus(1, n + 1 - i) for i in qc.vertices()]
    elif family == "E" and n == 6:
        rho = [6, 5, 3, 4, 2, 1]
        m = [5 - aplus(i, 3) + aplus(rho[i - 1], 3) for i in qc.vertices()]
    elif family == "D" and n % 2 == 1:
        rho = [2, 1] + list(range(3, n + 1))
        m = [n - 2] * n
        m[0] = (n - 2) - aplus(1, 3) + aplus(2, 3)
        m[1] = (n - 2) + aplus(1, 3) - aplus(2, 3)
    else:
        rho = list(qc.vertices())
        m = [table_order(dynkin) // 2 - 1] * n
    return m, rho


def closed_form_rho_m(q: ValuedQuiver) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``(m, rho)`` from the orientation-independent case analysis.

    Applied in canonical labels through the classifier's relabelling and
    pulled back to the input labels.
    """
    dynkin = classify_quiver(q)
    qc = relabel_quiver(q, dynkin.relabel)
    mc, rhoc = _closed_form_canonical(qc, dynkin)
    m = tuple(mc[dynkin.to_canonical(x) - 1] for x in q.vertices())
    rho = tuple(
        dynkin.from_canonical(rhoc[dynkin.to_canonical(x) - 1]) for x in q.vertices()
    )
    return m, rho


# -- path statistics -------------------------------------------------------------

def distance(arq: ARQuiver, a: ZVertex, b: ZVertex) -> int | None:
    """Common length of all paths ``a .. b``; ``None`` when unreachable.

    Shortest and longest path lengths are computed separately and must
    agree: parallel paths of different lengths would corrupt every
    distance-based statistic, so disagreement raises.
    """
    for v in (a, b):
        if v not in arq.dims:
            raise PositionOutOfRangeError(f"{v} is not a vertex")
    table = arq.path_table
    start, stop = table.index[a], table.index[b]
    if stop < start:
        return None
    # Lengths by topological position; -1 marks a vertex not reached yet.
    # Arrows only go forward, so nothing past ``b`` can reach it.
    shortest = [-1] * (stop + 1)
    longest = [-1] * (stop + 1)
    shortest[start] = longest[start] = 0
    successors = table.successors
    for v in range(start, stop):
        if shortest[v] < 0:
            continue
        lo, hi = shortest[v] + 1, longest[v] + 1
        for w in successors[v]:
            if w > stop:
                continue
            if shortest[w] < 0:
                shortest[w], longest[w] = lo, hi
            else:
                if lo < shortest[w]:
                    shortest[w] = lo
                if hi > longest[w]:
                    longest[w] = hi
    if shortest[stop] < 0:
        return None
    if shortest[stop] != longest[stop]:
        raise CrossCheckFailedError(
            f"parallel paths {a} .. {b} of lengths {shortest[stop]} and {longest[stop]}"
        )
    return shortest[stop]


def counts_and_nilpotency(arq: ARQuiver, order: int) -> Counts:
    """Indecomposable count and radical nilpotency, doubly computed.

    The count is the total number of vertices and must equal
    ``n * order / 2``; the nilpotency is ``order - 1`` and must equal one
    more than the longest projective-to-injective distance.
    """
    total = sum(mi + 1 for mi in arq.m)
    if 2 * total != arq.n * order:
        raise CrossCheckFailedError(
            f"{total} vertices but n*|C| = {arq.n * order}"
        )
    dists = []
    for i in arq.quiver.vertices():
        inj = arq.injective(i)
        d = distance(arq, arq.projective(i), inj) if inj in arq.dims else None
        if d is None:
            raise CrossCheckFailedError(f"no path from projective {i} to injective {i}")
        dists.append(d)
    if max(dists) + 1 != order - 1:
        raise CrossCheckFailedError(
            f"longest projective-to-injective distance {max(dists)} != |C| - 2"
        )
    return Counts(total, order - 1)


def orbit_index_relation_holds(arq: ARQuiver) -> bool:
    """Whether m(i) - m(j) equals the walk-statistic difference for all pairs.

    The difference of orbit indices must match the difference between the
    forward-step counts of the walks ``rho(i) .. rho(j)`` and ``i .. j``.
    """
    q = arq.quiver
    for i in q.vertices():
        for j in q.vertices():
            lhs = arq.m_of(i) - arq.m_of(j)
            rhs = (
                arrow_counts(q, arq.rho_of(i), arq.rho_of(j))[0]
                - arrow_counts(q, i, j)[0]
            )
            if lhs != rhs:
                return False
    return True

"""Assembly of the full Auslander-Reiten quiver of a Dynkin ext-quiver.

Position ``(r, i)`` stands for the ``r``-th translate of the ``i``-th
projective; column 0 is the projectives, and orbit ``i`` ends at its
``m(i)``-th translate, which is the injective paired to ``i`` by the
permutation ``rho``.  Both ``m`` and ``rho`` are read off the hammock
knits; the closed forms below recompute them from walk statistics alone
and serve as an independent route.

Dimension vectors are read straight off the knitted hammock grids
(entry ``k`` of the vector at ``(r, i)`` is the ``k``-th hammock value
there, level ``r`` of base ``i`` in grid ``k``), not by knitting meshes
from the projectives; the mesh recursion lives in the
oracle module as a cross-check.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, islice, repeat
from operator import itemgetter, ne, sub
from typing import Iterable, NamedTuple

from .coxeter import table_order
from .dynkin import DynkinClass, classify_quiver, relabel_quiver
from .errors import CrossCheckFailedError, KnitInconsistentError, PositionOutOfRangeError
from .hammock import HammockResult, knit_classified
from .quiver import ValuedQuiver, arrow_counts
from .repetitive import ZArrow, ZVertex, path_length


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
        """The level of the injective on base ``i``."""
        if 0 < i <= len(self.m) and i <= self.quiver.n:
            return self.m[i - 1]
        raise PositionOutOfRangeError(f"no injective level for base {i}")

    def rho_of(self, i: int) -> int:
        return self.rho[i - 1]

    def rho_inverse(self, l: int) -> int:
        """The orbit that ends at the injective of ``l``."""
        try:
            return self.rho.index(l) + 1
        except ValueError:
            raise PositionOutOfRangeError(f"no orbit ends at injective {l}") from None

    def projective(self, i: int) -> ZVertex:
        return ZVertex(0, i)

    def injective(self, l: int) -> ZVertex:
        """Position of the injective hull of the ``l``-th simple."""
        i = self.rho_inverse(l)
        return ZVertex(self.m_of(i), i)

    @cached_property
    def path_table(self) -> PathTable:
        """Vertices in topological order, with successor positions in arrow order.

        Kahn's order: the sources sorted, then each vertex once its last
        in-arrow is taken, heads in arrow order.  Built on first use; a
        racing second build computes the same value, so sharing stays safe.
        """
        vertices = self.vertices
        at = {v: k for k, v in enumerate(vertices)}
        heads: list[list[int]] = [[] for _ in vertices]
        indeg = [0] * len(vertices)
        for za in self.arrows:
            w = at[za.dst]
            heads[at[za.src]].append(w)
            indeg[w] += 1
        sources = (k for k, d in enumerate(indeg) if not d)
        queue = deque(sorted(sources, key=vertices.__getitem__))
        ranked = []
        while queue:
            k = queue.popleft()
            ranked.append(k)
            for w in heads[k]:
                indeg[w] -= 1
                if not indeg[w]:
                    queue.append(w)
        if len(ranked) != len(vertices):
            raise CrossCheckFailedError("translation quiver contains an oriented cycle")
        position = {k: t for t, k in enumerate(ranked)}
        order = tuple(vertices[k] for k in ranked)
        return PathTable(
            order,
            dict(zip(order, range(len(order)))),
            tuple(tuple(position[w] for w in heads[k]) for k in ranked),
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

    # Orbit i holds the positions (r, i) for r = 0..m(i).
    orbits = [[ZVertex(r, i) for r in range(m[i - 1] + 1)] for i in q.vertices()]
    vertices = tuple(chain.from_iterable(orbits))
    # Each base arrow x -> y gives plain arrows (s, x) -> (s, y) and star
    # arrows (s, y) -> (s + 1, x), for every level s with both ends in range.
    arrows: list[ZArrow] = []
    for a in q.opposite().arrows:
        x, y = orbits[a.src - 1], orbits[a.dst - 1]
        arrows += [ZArrow(x[s], y[s], a, False) for s in range(min(len(x), len(y)))]
        arrows += [ZArrow(y[s], x[s + 1], a, True) for s in range(min(len(y), len(x) - 1))]
    arrows.sort(key=itemgetter(0, 1))

    # Column k of the dimension vectors is hammock k, read off its grid by
    # orbit.  Terminators sit one level past their orbit, so no vertex is
    # one; levels below the seed section (None) or past the knit are zero.
    columns = []
    for res in results:
        column: list[int] = []
        for i, levels in zip(q.vertices(), m):
            values = res.grid[i][: levels + 1]
            column += [0 if value is None else value for value in values]
            column += repeat(0, levels + 1 - len(values))
        columns.append(column)
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
    return _closed_form_rho_m(q, classify_quiver(q))


def _closed_form_rho_m(
    q: ValuedQuiver, dynkin: DynkinClass
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """:func:`closed_form_rho_m` given the classification of ``q``."""
    qc = relabel_quiver(q, dynkin.relabel)
    mc, rhoc = _closed_form_canonical(qc, dynkin)
    m = tuple(mc[dynkin.to_canonical(x) - 1] for x in q.vertices())
    rho = tuple(
        dynkin.from_canonical(rhoc[dynkin.to_canonical(x) - 1]) for x in q.vertices()
    )
    return m, rho


# -- path statistics -------------------------------------------------------------

def counts_and_nilpotency(arq: ARQuiver, order: int) -> Counts:
    """Indecomposable count and radical nilpotency, doubly computed.

    The count is the total number of vertices and must equal
    ``n * order / 2``; the nilpotency is ``order - 1`` and must equal one
    more than the longest projective-to-injective distance.  Each distance
    is the closed form of :func:`~arquiver.repetitive.path_length` on the
    plane of the opposite quiver: the quiver is a path-closed full
    subquiver of that plane, so its paths are the plane's.
    """
    qop = arq.quiver.opposite()

    def span(i: int) -> tuple[int, int] | None:
        inj = arq.injective(i)
        d = path_length(qop, arq.projective(i), inj) if inj in arq.dims else None
        return None if d is None else (d, d)

    return _count_identity(arq, order, map(span, arq.quiver.vertices()))


def _count_identity(
    arq: ARQuiver, order: int, spans: Iterable[tuple[int, int] | None]
) -> Counts:
    """The checks of :func:`counts_and_nilpotency`, given for each ``i`` the
    shortest and longest path length from projective ``i`` to injective
    ``i``, or ``None`` where no path joins them.  Spans are read in order,
    after the vertex count is checked."""
    total = sum(mi + 1 for mi in arq.m)
    if 2 * total != arq.n * order:
        raise CrossCheckFailedError(
            f"{total} vertices but n*|C| = {arq.n * order}"
        )
    dists = []
    for i, span in zip(arq.quiver.vertices(), spans):
        if span is None:
            raise CrossCheckFailedError(f"no path from projective {i} to injective {i}")
        shortest, longest = span
        if shortest != longest:
            raise CrossCheckFailedError(
                f"parallel paths {arq.projective(i)} .. {arq.injective(i)} "
                f"of lengths {shortest} and {longest}"
            )
        dists.append(shortest)
    if max(dists) + 1 != order - 1:
        raise CrossCheckFailedError(
            f"longest projective-to-injective distance {max(dists)} != |C| - 2"
        )
    return Counts(total, order - 1)


def orbit_index_relation_holds(arq: ARQuiver) -> bool:
    """Whether m(i) - m(j) equals the walk-statistic difference for all pairs.

    The difference of orbit indices must match the difference between the
    forward-step counts of the walks ``rho(i) .. rho(j)`` and ``i .. j``,
    read off rows ``rho(i)`` and ``i`` of the quiver's walk step table.
    ``False`` when ``m`` or ``rho`` does not hold one entry per vertex, or
    ``rho`` names a vertex outside ``1..n``.
    """
    q = arq.quiver
    n, m, rho = q.n, arq.m, arq.rho
    if len(m) != n or len(rho) != n or min(rho) < 1 or max(rho) > n:
        return False
    steps = q._forward_steps
    for i, mi, ri in zip(q.vertices(), m, rho):
        lhs = map(sub, repeat(mi), m)  # m(i) - m(j), for j = 1..n
        across = map(steps[ri].__getitem__, rho)  # steps of rho(i) .. rho(j)
        rhs = map(sub, across, islice(steps[i], 1, None))  # less those of i .. j
        if any(map(ne, lhs, rhs)):
            return False
    return True

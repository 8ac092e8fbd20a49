"""Hammocks: where a given simple composition factor lives.

For a vertex ``k`` of the ext-quiver, the hammock function counts the
multiplicity of the ``k``-th simple in each module.  It is computed on
the translation plane of the opposite quiver: seed the source section of
``(0, k)`` (value 1 at ``(0, k)``, running products of second valuation
components along the section's sectional paths), then extend additively
through the successors of ``(0, k)``.

The decisive fact is the sign pattern of that extension: every value
stays non-negative until a single ``-1`` appears, at ``(m + 1, i)``
where the injective hull of the ``k``-th simple sits at translate ``m``
of the ``i``-th projective.  Knitting therefore stops at the first
negative value, which simultaneously locates the injective, the length
of the orbit, and the pairing of ``k`` with ``i``.

Knitting order: vertices are processed by increasing path length from
``(0, k)``.  Orbit ``i`` is met first at level ``r_i`` (the seed
section), and the vertex ``(r_i + p, i)`` has all paths from ``(0, k)``
of length ``len(walk k..i) + 2p``; every in-arrow source precedes its
target in this order, so all mesh inputs are available when needed.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Mapping

from .coxeter import table_order
from .dynkin import classify_quiver
from .errors import (
    BoundExceededError,
    KnitInconsistentError,
    PositionOutOfRangeError,
)
from .quiver import ValuedQuiver, arrow_counts
from .repetitive import ZVertex, level_offset, mesh_inputs


@dataclass(frozen=True)
class HammockResult:
    """Knitted hammock values for one simple composition factor.

    ``table`` holds every value computed before (and including) the
    terminator; ``terminator`` is the unique vertex with value ``-1``.
    """

    quiver: ValuedQuiver
    k: int
    table: dict[ZVertex, int] = field(compare=False)
    terminator: ZVertex

    @property
    def orbit(self) -> int:
        """Base vertex whose projective orbit ends at the ``k``-th injective."""
        return self.terminator.base

    @property
    def orbit_index(self) -> int:
        """Number of translates: the injective sits at this translate."""
        return self.terminator.level - 1

    @property
    def injective_position(self) -> ZVertex:
        return ZVertex(self.orbit_index, self.orbit)


def _sweep(qop: ValuedQuiver, k: int) -> dict[int, tuple[int, int]]:
    """Sectional paths from ``(0, k)``, one per orbit, in one tree traversal.

    Maps each base vertex ``j`` to ``(level, value)``: the level at which
    the path meets orbit ``j`` and the product of the second valuation
    components of its arrows.  A forward step is a plain arrow ``(a, b)``;
    a backward step is a star arrow ``(b, a)`` one level up.
    """
    found = {k: (0, 1)}
    stack = [k]
    while stack:
        u = stack.pop()
        level, value = found[u]
        for a in qop.out_arrows(u):
            if a.dst not in found:
                found[a.dst] = (level, value * a.val[1])
                stack.append(a.dst)
        for a in qop.in_arrows(u):
            if a.src not in found:
                found[a.src] = (level + 1, value * a.val[0])
                stack.append(a.src)
    return found


def seed_section(qop: ValuedQuiver, k: int) -> dict[ZVertex, int]:
    """Seed values on the source section of ``(0, k)``.

    1 at ``(0, k)``; along each sectional path of the section the running
    product of the second valuation components of its arrows.
    """
    sweep = _sweep(qop, k)
    # The sweep meets each orbit at the level of the source section.
    assert {j: level for j, (level, _) in sweep.items()} == {
        j: level_offset(qop, k, j) for j in qop.vertices()
    }
    return {ZVertex(level, j): value for j, (level, value) in sweep.items()}


def _knit_from_seed(
    qop: ValuedQuiver,
    k: int,
    seeds: Mapping[ZVertex, int],
    bound: int,
) -> tuple[dict[ZVertex, int], ZVertex]:
    """Knit forward from seeded section values until the first negative.

    Returns the table and the terminator.  Raises
    :class:`KnitInconsistentError` when the first negative is not exactly
    ``-1`` or the vertex directly before the terminator is not positive,
    and :class:`BoundExceededError` when no negative shows up within the
    level bound.
    """
    meshes = mesh_inputs(qop)
    table = dict(seeds)
    # Heap keyed by (path length from (0, k), level, base); a seed's path
    # length is that of the reduced walk k .. base.  Table lookups use
    # plain tuples, which hash and compare like the ZVertex keys.
    heap = [
        (sum(arrow_counts(qop, k, v.base)) + 2, v.level + 1, v.base) for v in seeds
    ]
    heapq.heapify(heap)
    while heap:
        length, level, base = heap[0]
        if level > bound:
            raise BoundExceededError(
                f"no negative hammock value within {bound} levels; "
                "input is not of finite type"
            )
        total = 0
        for offset, src, weight in meshes[base]:
            total += weight * table[(level + offset, src)]
        before = table[(level - 1, base)]
        value = total - before
        v = ZVertex(level, base)
        table[v] = value
        if value < 0:
            if value != -1:
                raise KnitInconsistentError(
                    f"first negative value at {v} is {value}, not -1"
                )
            if before <= 0:
                raise KnitInconsistentError(
                    f"value directly before the terminator {v} is not positive"
                )
            return table, v
        heapq.heapreplace(heap, (length + 2, level + 1, base))
    raise BoundExceededError("empty knitting frontier")  # pragma: no cover


def knit_hammock(q: ValuedQuiver, k: int) -> HammockResult:
    """Knit the hammock of vertex ``k`` of a Dynkin ext-quiver ``q``."""
    if not 1 <= k <= q.n:
        raise PositionOutOfRangeError(f"vertex {k} is not in 1..{q.n}")
    return knit_classified(q, k, table_order(classify_quiver(q)))


def knit_classified(q: ValuedQuiver, k: int, order: int) -> HammockResult:
    """Knit the hammock of ``k`` once ``q`` is known to be Dynkin.

    ``order`` is the Coxeter number of its type.  Every projective-to-
    injective distance is ``order - 2``, so the terminator lies at path
    length ``order`` from ``(0, k)``; no vertex knitted before it is
    farther, and none reaches level ``order``.  Knitting stops with an
    error past level ``order + 1``.
    """
    qop = q.opposite()
    table, terminator = _knit_from_seed(qop, k, seed_section(qop, k), order + 1)
    return HammockResult(q, k, table, terminator)


def hammock_vertices(res: HammockResult) -> frozenset[ZVertex]:
    """Positions with positive value between ``(0, k)`` and the injective.

    These are exactly the modules containing the ``k``-th simple as a
    composition factor; the full subquiver they induce is the hammock.
    """
    qop = res.quiver.opposite()
    top = res.injective_position
    # A path v .. top exists exactly when the level gap covers the offset.
    reach = {j: top.level - level_offset(qop, j, top.base) for j in qop.vertices()}
    return frozenset(
        v for v, value in res.table.items() if value > 0 and v.level <= reach[v.base]
    )


def composition_multiplicity(res: HammockResult, pos: ZVertex) -> int:
    """Multiplicity of the ``k``-th simple in the module at ``pos``.

    ``pos`` must be a position of the finite translation quiver (supplied
    by the builder); positions outside the knitted table carry the
    ``k``-th simple zero times.
    """
    if not 1 <= pos.base <= res.quiver.n or pos.level < 0 or pos == res.terminator:
        raise PositionOutOfRangeError(f"{pos} is not a module position")
    return res.table.get(pos, 0)

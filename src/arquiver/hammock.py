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
``(0, k)``, ties by level, then base.  Orbit ``j`` is met first at level
``r_j`` (the seed section), and every path from ``(0, k)`` to a vertex
``(level, j)`` past it has length ``c_j + 2 * level``, where
``c_j = fwd(k..j) - bwd(k..j)`` counts the forward and backward steps of
the walk ``k .. j`` (``r_j`` is its backward count).  So each base
fills a list indexed by level, one entry every other length, and at each
length the bases of its parity take their turn in ``(-c_j, j)`` order;
no heap is needed.  Every in-arrow source precedes its target in this
order, so all mesh inputs are available when needed.

This per-hammock knit serves the hammock tables (``build --hammocks``,
``arquiver hammock -k``) and :attr:`~arquiver.ar_quiver.ARQuiver.hammocks`,
which knits on first read.  ``build`` reads none of this module's
knitting: it knits all ``n`` hammocks at once as dimension vectors,
packed one vector per int with a signed 16-bit lane per entry, seeded
with level 0 of the seed sections, which it sweeps along the plain
arrows alone (:mod:`arquiver.ar_quiver`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import count
from operator import itemgetter
from typing import Mapping

from .coxeter import table_order
from .dynkin import classify_quiver
from .errors import (
    BoundExceededError,
    KnitInconsistentError,
    PositionOutOfRangeError,
)
from .quiver import ValuedQuiver
from .repetitive import ZVertex, mesh_inputs


@dataclass(frozen=True)
class HammockResult:
    """Knitted hammock values for one simple composition factor.

    ``grid`` maps each base vertex to its values by level, as knitted:
    ``None`` below the seed section, then every value computed before (and
    including) the terminator; ``terminator`` is the unique vertex with
    value ``-1``.  ``table`` holds the same values keyed by position.
    """

    quiver: ValuedQuiver
    k: int
    grid: dict[int, list[int | None]] = field(compare=False)
    terminator: ZVertex

    @cached_property
    def table(self) -> dict[ZVertex, int]:
        return {
            ZVertex(level, base): value
            for base, column in self.grid.items()
            for level, value in enumerate(column)
            if value is not None
        }

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
    # The sweep meets each orbit at the level of the source section: the
    # backward steps of the walk k .. j, which are the forward steps of j .. k.
    steps = qop._forward_steps
    for j in qop.vertices():
        offset = steps[j][k]
        level = sweep[j][0] if j in sweep else None
        if level != offset:
            raise KnitInconsistentError(
                f"sweep from {k} meets base {j} at level {level}, not at its level offset {offset}"
            )
    return {ZVertex(level, j): value for j, (level, value) in sweep.items()}


def _knit_from_seed(
    qop: ValuedQuiver,
    k: int,
    seeds: Mapping[ZVertex, int],
    bound: int,
) -> tuple[dict[int, list[int | None]], ZVertex]:
    """Knit forward from seeded section values until the first negative.

    Returns the grid of :class:`HammockResult` and the terminator.  Raises
    :class:`KnitInconsistentError` when the first negative is not exactly
    ``-1`` or the vertex directly before the terminator is not positive,
    and :class:`BoundExceededError` when no negative shows up within the
    level bound.
    """
    meshes = mesh_inputs(qop)
    # Per base, the values by level; levels below the seed hold None, so a
    # mesh input read before it was knitted fails instead of reading 0.
    grid = {v.base: [None] * v.level + [value] for v, value in seeds.items()}
    entries = []
    steps = qop._forward_steps
    forward_from_k = steps[k]
    for v in seeds:
        forward, backward = forward_from_k[v.base], steps[v.base][k]
        # Past the seed, (level, base) lies at path length c + 2 * level.
        c = forward + backward - 2 * v.level
        rows = tuple(
            (offset, grid.get(src), weight) for offset, src, weight in meshes[v.base]
        )
        entries.append((-c, v.base, forward + backward + 2, grid[v.base], rows))
    if not entries:
        raise BoundExceededError("empty knitting frontier")
    entries.sort(key=itemgetter(0, 1))
    # At each length the bases of its parity knit in (-c, base) order.
    schedule = ([e for e in entries if not e[0] & 1], [e for e in entries if e[0] & 1])
    # Each base climbs a level every other length, so the bound ends the loop.
    for length in count(min(start for _, _, start, _, _ in entries)):
        for minus_c, base, start, column, rows in schedule[length & 1]:
            if length < start:
                continue
            level = (length + minus_c) >> 1
            if level > bound:
                raise BoundExceededError(
                    f"no negative hammock value within {bound} levels; "
                    "input is not of finite type"
                )
            total = 0
            try:
                for offset, source, weight in rows:
                    total += weight * source[level + offset]
            except (IndexError, TypeError):
                raise KnitInconsistentError(
                    f"mesh input of {ZVertex(level, base)} read before it was knitted"
                ) from None
            before = column[level - 1]
            value = total - before
            column.append(value)
            if value < 0:
                v = ZVertex(level, base)
                if value != -1:
                    raise KnitInconsistentError(
                        f"first negative value at {v} is {value}, not -1"
                    )
                if before <= 0:
                    raise KnitInconsistentError(
                        f"value directly before the terminator {v} is not positive"
                    )
                return grid, v


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
    grid, terminator = _knit_from_seed(qop, k, seed_section(qop, k), order + 1)
    return HammockResult(q, k, grid, terminator)


def hammock_vertices(res: HammockResult) -> frozenset[ZVertex]:
    """Positions with positive value, all between ``(0, k)`` and the injective.

    These are exactly the modules containing the ``k``-th simple as a
    composition factor; the full subquiver they induce is the hammock.
    Each lies on a path to the injective hull ``I_k`` of that simple:
    ``[X : S_k] = dim Hom(X, I_k)`` is non-zero, and in a Dynkin AR quiver
    a non-zero map between indecomposables is a sum of composites of
    irreducible maps.
    """
    return frozenset(v for v, value in res.table.items() if value > 0)

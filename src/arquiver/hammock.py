"""Hammocks: where a given simple composition factor lives.

For a vertex ``k`` of the ext-quiver, the hammock function counts the
multiplicity of the ``k``-th simple in each module.  The paper knits it
on the translation plane of the opposite quiver: seed the source section
of ``(0, k)``, extend additively through the successors of ``(0, k)``,
and stop at the first negative value, a single ``-1`` at ``(m + 1, i)``
where the injective hull of the ``k``-th simple sits at translate ``m``
of the ``i``-th projective.

:func:`~arquiver.ar_quiver.build` already knits all ``n`` hammocks at
once: entry ``k`` of the dimension vector at ``(r, j)`` is hammock
``k``'s value there.  So this module knits nothing; it reads hammock
``k`` off coordinate row ``k`` of a built quiver, in the shape of the paper's
knit.  That knit meets orbit ``j`` first at level ``r_j``, the backward
steps of the walk ``k .. j`` (the seed section), and every path from
``(0, k)`` to ``(level, j)`` has length ``c_j + 2 * level``, where
``c_j`` is the walk's forward less its backward steps.  Knitting runs by
path length, ties in ``(-c_j, j)`` order, and stops at the terminator,
whose path length is the Coxeter number ``h``: base ``j`` holds the
levels from ``r_j`` up to the last one within length ``h``, less the
one of length ``h`` if it comes after the terminator.  Levels past
``m(j)`` hold 0, as ``Hom(P_k, X[1]) = 0`` before ``P_k[1]``, except the
terminator's ``-1``.  The table lists these values level by level, bases
ascending, which is the order the report and ``arquiver hammock`` print.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, Iterator

from .ar_quiver import ARQuiver, build
from .dynkin import table_order
from .errors import KnitInconsistentError, PositionOutOfRangeError
from .quiver import ValuedQuiver
from .repetitive import ZVertex


@dataclass(frozen=True)
class HammockResult:
    """Hammock values for one simple composition factor.

    ``table`` holds a ``(level, base, value)`` row for every value the
    paper's knit meets before (and including) the terminator, in
    ``(level, base)`` order; ``terminator`` is the unique position with
    value ``-1``.
    """

    quiver: ValuedQuiver
    k: int
    table: tuple[tuple[int, int, int], ...] = field(compare=False)
    terminator: ZVertex

    @property
    def orbit(self) -> int:
        """Base vertex whose projective orbit ends at the ``k``-th injective."""
        return self.terminator.base

    @property
    def orbit_index(self) -> int:
        """Number of translates: the injective sits at this translate."""
        return self.terminator.level - 1


def _reader(arq: ARQuiver) -> Callable[[int], HammockResult]:
    """Reads hammock ``k`` of ``arq`` off entry ``k`` of its vectors.

    Hammock ``k`` is row ``arq.layout[k - 1 :: n]``, base ``j``'s values a
    stretch of it from ``arq.starts[j - 1]``; the rows go out level by
    level, each from the bases whose range of levels holds it.  The read
    raises :class:`KnitInconsistentError` when the terminator does not lie
    at path length ``h`` or the value directly before it is not positive.
    """
    q, layout, m, n, starts = arq.quiver, arq.layout, arq.m, arq.n, arq.starts
    steps = q.opposite()._forward_steps
    h = table_order(arq.dynkin)

    def read(k: int) -> HammockResult:
        c = [steps[k][j] - steps[j][k] for j in range(q.n + 1)]  # entry 0 is padding
        i = arq.rho_inverse(k)
        terminator = ZVertex(m[i - 1] + 1, i)
        if c[i] + 2 * terminator.level != h:
            raise KnitInconsistentError(
                f"terminator {terminator} lies at path length "
                f"{c[i] + 2 * terminator.level}, not at h = {h}"
            )
        if arq.vector(arq.injective(k))[k - 1] == 0:
            raise KnitInconsistentError(
                f"value directly before the terminator {terminator} is not positive"
            )
        row = layout[k - 1 :: n]  # entry k of every vector
        entering: dict[int, list] = {}  # level: each base seeded there, with its values
        leaving: dict[int, list] = {}  # level: each base whose top is the level below
        for j in q.vertices():
            top, last = divmod(h - c[j], 2)
            if not last and (-c[j], j) > (-c[i], i):  # knitted after the terminator
                top -= 1
            seed, start = steps[j][k], starts[j - 1]  # (0, j) is vertex start
            column = list(row[start + seed : start + min(top, m[j - 1]) + 1])
            column += [0] * (top + 1 - seed - len(column))
            if j == i:
                column[-1] = -1
            entering.setdefault(seed, []).append((j, column))
            leaving.setdefault(seed + len(column), []).append(j)
        rows: list[tuple[int, int, int]] = []
        bases: list[int] = []  # those that hold the level, ascending
        values: list[Iterator[int]] = []  # each one's values from the level on
        for level in range(max(leaving)):
            for j, column in entering.get(level, ()):
                p = bisect_left(bases, j)
                bases.insert(p, j)
                values.insert(p, iter(column))
            for j in leaving.get(level, ()):
                p = bisect_left(bases, j)
                del bases[p], values[p]
            rows += zip(repeat(level), bases, map(next, values))
        return HammockResult(q, k, tuple(rows), terminator)

    return read


def hammocks(arq: ARQuiver) -> tuple[HammockResult, ...]:
    """The paper's hammock of every vertex, read off the built quiver."""
    return tuple(map(_reader(arq), arq.quiver.vertices()))


def knit_hammock(q: ValuedQuiver, k: int) -> HammockResult:
    """The hammock of vertex ``k`` of a Dynkin ext-quiver ``q``."""
    if not 1 <= k <= q.n:
        raise PositionOutOfRangeError(f"vertex {k} is not in 1..{q.n}")
    return _reader(build(q))(k)


def hammock_vertices(res: HammockResult) -> frozenset[ZVertex]:
    """Positions with positive value, all between ``(0, k)`` and the injective.

    These are exactly the modules containing the ``k``-th simple as a
    composition factor; the full subquiver they induce is the hammock.
    Each lies on a path to the injective hull ``I_k`` of that simple:
    ``[X : S_k] = dim Hom(X, I_k)`` is non-zero, and in a Dynkin AR quiver
    a non-zero map between indecomposables is a sum of composites of
    irreducible maps.
    """
    return frozenset(ZVertex(level, base) for level, base, value in res.table if value > 0)

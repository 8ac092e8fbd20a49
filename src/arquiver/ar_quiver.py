"""Assembly of the full Auslander-Reiten quiver of a Dynkin ext-quiver.

Position ``(r, i)`` stands for the ``r``-th translate of the ``i``-th
projective; column 0 is the projectives, and orbit ``i`` ends at its
``m(i)``-th translate, which is the injective paired to ``i`` by the
permutation ``rho``.  The closed forms below recompute ``m`` and ``rho``
from walk statistics alone and serve as an independent route.

The dimension vectors are knitted from the projectives, all ``n``
hammocks in lockstep: entry ``k`` of the vector at ``(r, i)`` is hammock
``k``'s value there.  Level 0 holds the projectives: entry ``k`` of
``dim P_j`` is hammock ``k``'s seed at ``(0, j)``, read off the plain
arrows from ``k``.  Past it, ``dim (s, x)`` is the mesh sum of its inputs
less ``dim (s - 1, x)``.  An orbit stops at its first vector with a
negative entry, one level past its injective; that vector is minus the
projective ``P_k`` whose hammock ends there, so ``rho(x) = k``.  The
vectors below the terminators, orbit by orbit, are what :class:`ARQuiver`
stores, with the top level ``m`` of each orbit; the positions and the
arrows are read off ``m``, and the paper's per-hammock tables off the
vectors (:mod:`arquiver.hammock`).  This is the one knit of the
package.  No entry exceeds 6, so every vector fits one byte per entry:
:attr:`ARQuiver.layout` lays them all end to end.

While knitting, each vector is one Python int with entry ``k`` in the
signed 16-bit lane ``k`` (:class:`_Lanes`), so a mesh step is one big-int
multiply-add per input.  The arithmetic is exact: the packed
``sum(f[k] << 16 * k)`` is a true integer for any signed ``f``, linear
in ``f``, and reads faithfully while every ``|f[k]| < 2 ** 15``.  An
entry of a Dynkin dimension vector is at most 6 (E8's highest root) and
the mesh weights into a vertex sum to at most 3, so a mesh step from
vectors within ``±_CAP = ±(3 + 1) * 6`` lands within ``±4 * _CAP``, far
inside a lane; the knit stops at the first vector past ``±_CAP``, before
a lane can overflow.  Each column is written to the layout once, after
knitting: below its terminator every entry lies in ``0.._CAP``, so it is
the low byte of its lane.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import cached_property
from io import BytesIO
from itertools import accumulate, compress, count, islice, repeat
from operator import itemgetter, ne, sub
from typing import Iterable, NamedTuple

from .dynkin import DynkinClass, classify_quiver, relabel_quiver, table_order
from .errors import (
    BoundExceededError,
    CrossCheckFailedError,
    KnitInconsistentError,
    PositionOutOfRangeError,
)
from .quiver import ValuedQuiver, arrow_counts
from .repetitive import ZArrow, ZVertex, mesh_inputs, path_length


@dataclass(frozen=True)
class ARQuiver:
    """The finite translation quiver, held as its knitted vectors.

    Orbit ``i`` holds the dimension vectors of ``(r, i)`` for
    ``r = 0..m(i)``.  ``layout`` lays every vector end to end, orbit by
    orbit and level by level, one byte per entry: the vector at
    ``vertices[p]`` is ``layout[n * p : n * (p + 1)]``, and orbit ``i``
    starts at ``p = starts[i - 1]``.  ``starts``, ``vertices`` and
    ``arrows`` are views of ``m`` and the quiver, built on first read.
    The constructor rejects a quiver whose underlying graph is not a tree
    (:class:`NotATreeError`), a ``layout`` that is not ``bytes``, an ``m``
    that is not a tuple of ``n`` levels (ints from 0), a ``layout`` that is
    not ``n`` bytes per vertex, and a ``rho`` that is not a tuple holding
    each of ``1..n`` once; whether ``rho`` is an involution is left to the
    checks.
    """

    quiver: ValuedQuiver
    dynkin: DynkinClass
    layout: bytes
    m: tuple[int, ...]
    rho: tuple[int, ...]

    def __post_init__(self) -> None:
        # Raises NotATreeError unless the underlying graph is a tree; a
        # build's knit has already made this table.
        self.quiver.opposite()._forward_steps
        n, layout, m = self.quiver.n, self.layout, self.m
        if type(layout) is not bytes:
            raise KnitInconsistentError(f"layout is a {type(layout).__name__}, not bytes")
        if type(m) is not tuple:
            raise KnitInconsistentError(f"m is a {type(m).__name__}, not a tuple")
        if len(m) != n:
            raise KnitInconsistentError(f"m has {len(m)} entries for {n} vertices")
        stray = next((top for top in m if type(top) is not int or top < 0), None)
        if stray is not None:
            raise KnitInconsistentError(f"m names {stray!r}, not a level")
        count = self.starts[-1]
        if len(layout) != n * count:
            raise KnitInconsistentError(
                f"layout has {len(layout)} bytes for {count} vertices of {n} entries"
            )
        rho, bases = self.rho, range(1, n + 1)
        if type(rho) is not tuple:
            raise KnitInconsistentError(f"rho is a {type(rho).__name__}, not a tuple")
        if len(rho) != n:
            raise KnitInconsistentError(f"rho has {len(rho)} entries for {n} vertices")
        stray = next((r for r in rho if type(r) is not int or r not in bases), None)
        if stray is not None:
            raise KnitInconsistentError(f"rho names {stray!r}, not a vertex in 1..{n}")
        if len(set(rho)) != n:
            missing = min(set(bases).difference(rho))
            raise KnitInconsistentError(f"no orbit ends at injective {missing}")

    @property
    def n(self) -> int:
        return self.quiver.n

    @cached_property
    def starts(self) -> tuple[int, ...]:
        """Where each orbit starts in ``vertices``: ``(0, i)`` sits at
        ``starts[i - 1]``, and the last entry is the vertex count."""
        return (0, *accumulate(top + 1 for top in self.m))

    @cached_property
    def vertices(self) -> tuple[ZVertex, ...]:
        """The positions orbit by orbit, each orbit in level order; the
        oracle's path audit numbers a vertex by its place here."""
        pairs = ((r, i) for i, top in enumerate(self.m, 1) for r in range(top + 1))
        return tuple(map(tuple.__new__, repeat(ZVertex), pairs))

    @cached_property
    def arrows(self) -> tuple[ZArrow, ...]:
        """Every plain and star arrow of the plane of the opposite quiver
        with both ends among ``vertices``, sorted by ``(src, dst)``.

        Each base arrow ``x -> y`` of the opposite quiver gives plain arrows
        ``(s, x) -> (s, y)`` and star arrows ``(s, y) -> (s + 1, x)``.  The
        view is generated in its order: level by level, each level's bases
        in order, and each base's plain heads, then its star heads, by head
        base.  Both ends are the ``ZVertex`` objects of ``vertices``.
        """
        qop, m, vertices, start = self.quiver.opposite(), self.m, self.vertices, self.starts
        # Per arrow out of a base at level 0, in (src, dst) order: where its
        # ends sit in ``vertices``, and the top level it is repeated to.
        spans = []
        for x in self.quiver.vertices():
            heads = sorted((a.dst, False, a) for a in qop.out_arrows(x))
            heads += sorted((a.src, True, a) for a in qop.in_arrows(x))  # a level up
            spans += [
                (start[x - 1], start[y - 1] + up, min(m[x - 1], m[y - 1] - up), a, up)
                for y, up, a in heads
            ]
        fields = (
            (vertices[tail + s], vertices[head + s], a, star)
            for s in range(max(m) + 1)
            for tail, head, top, a, star in spans
            if s <= top
        )
        return tuple(map(tuple.__new__, repeat(ZArrow), fields))

    def vector(self, v: ZVertex) -> bytes:
        """The dimension vector at ``v``, one byte per entry."""
        if not 0 <= v.level <= self.m_of(v.base):
            raise PositionOutOfRangeError(f"no level {v.level} on base {v.base}")
        p = self.starts[v.base - 1] + v.level
        return self.layout[self.n * p : self.n * (p + 1)]

    def m_of(self, i: int) -> int:
        """The level of the injective on base ``i``."""
        if 0 < i <= self.n:
            return self.m[i - 1]
        raise PositionOutOfRangeError(f"no injective level for base {i}")

    def rho_of(self, i: int) -> int:
        """The injective that ends orbit ``i``."""
        if 0 < i <= self.n:
            return self.rho[i - 1]
        raise PositionOutOfRangeError(f"no paired injective for base {i}")

    def rho_inverse(self, l: int) -> int:
        """The orbit that ends at the injective of ``l``."""
        try:
            return self.rho.index(l) + 1
        except ValueError:
            raise PositionOutOfRangeError(f"no orbit ends at injective {l}") from None

    def projective(self, i: int) -> ZVertex:
        if 0 < i <= self.n:
            return ZVertex(0, i)
        raise PositionOutOfRangeError(f"no projective for base {i}")

    def injective(self, l: int) -> ZVertex:
        """Position of the injective hull of the ``l``-th simple."""
        i = self.rho_inverse(l)
        return ZVertex(self.m_of(i), i)


# -- the layout's bytes in wide lanes ---------------------------------------------

def _lane_width(weight: int) -> int:
    """The bytes of a lane that holds any sum of bytes whose weights total ``weight``."""
    return ((255 * weight).bit_length() + 7) // 8


def _widen(data: bytes, width: int) -> int:
    """``data`` as one int, byte ``p`` in lane ``p`` of ``width`` bytes: the
    exact ``sum(data[p] << 8 * width * p)``.  Sums and positive multiples of
    widened bytes are the widened sums and multiples, one big-int operation
    for every lane; at ``_lane_width`` of the weights no lane carries, so
    each reads back exactly and two sums differ first in the lowest lane
    of their ``^``."""
    lanes = bytearray(width * len(data))
    lanes[::width] = data
    return int.from_bytes(lanes, "little")


def _lowest_lane(x: int, width: int) -> int:
    """The lowest lane of ``width`` bytes in which ``x != 0`` has a set bit."""
    return ((x & -x).bit_length() - 1) // (8 * width)


class Counts(NamedTuple):
    indecomposables: int
    nilpotency: int


def build(q: ValuedQuiver) -> ARQuiver:
    """Knit every dimension vector and pair each orbit with its injective."""
    dynkin = classify_quiver(q)
    layout, m, ends = _knit_vectors(q, table_order(dynkin) + 1)

    rho = [0] * q.n
    for k, end in sorted(ends.items()):
        if rho[end.base - 1]:
            raise KnitInconsistentError(
                f"orbit {end.base} terminates two hammocks ({rho[end.base - 1]} and {k})"
            )
        rho[end.base - 1] = k
    if 0 in rho:
        raise KnitInconsistentError("some orbit terminates no hammock")
    arq = ARQuiver(q, dynkin, layout, m, tuple(rho))
    for i in q.vertices():
        if rho[rho[i - 1] - 1] != i:
            raise KnitInconsistentError("orbit pairing is not an involution")
        if arq.vector(arq.projective(i))[i - 1] != 1:
            raise KnitInconsistentError(f"projective {i} misses its own simple top")
    return arq


# An entry of a Dynkin dimension vector is at most 6 (E8's highest root), and
# the mesh weights into a vertex sum to at most 3: no mesh step from vectors
# within this bound leaves four times it, which a 16-bit lane holds exactly.
_CAP = (3 + 1) * 6


class _Lanes:
    """Vectors of ``n`` entries packed into one int, entry ``k`` in the
    signed 16-bit lane ``k``: the exact integer ``sum(f[k] << 16 * k)``.

    Sums and integer multiples of packed vectors are the packed sums and
    multiples, and read faithfully while every entry lies in
    ``-2 ** 15 .. 2 ** 15 - 1``.
    """

    def __init__(self, n: int) -> None:
        self.sign = _widen(b"\x80" * n, 2) << 8  # the top bit of every lane
        self.cap = _widen(bytes([_CAP]) * n, 2)

    def pack(self, vector: Iterable[int]) -> int:
        lanes = array("h", vector)
        if sys.byteorder == "big":
            lanes.byteswap()
        return (int.from_bytes(lanes.tobytes(), "little") ^ self.sign) - self.sign

    def nonnegative(self, x: int) -> bool:
        """No entry negative: every lane of ``x + sign`` keeps its top bit."""
        return (x + self.sign) & self.sign == self.sign

    def within_cap(self, x: int) -> bool:
        """Every entry within ``±_CAP``, for an ``x`` whose entries are less
        than ``2 ** 15 - _CAP`` in size: then the lowest negative lane of
        ``cap + x`` or of ``cap - x``, if any, has its top bit set."""
        return not ((self.cap + x) | (self.cap - x)) & self.sign


def _level_zero(qop: ValuedQuiver, k: int) -> dict[int, int]:
    """Level 0 of the seed section of ``(0, k)``: the bases that the plain
    arrows reach from ``k``, each with the product of the arrows' second
    valuation components.

    The section meets every other base above level 0, at its level
    offset, so the reached bases must be exactly those of level offset 0;
    raises :class:`KnitInconsistentError` otherwise.
    """
    found = {k: 1}
    stack = [k]
    while stack:
        u = stack.pop()
        for a in qop.out_arrows(u):
            if a.dst not in found:
                found[a.dst] = found[u] * a.val[1]
                stack.append(a.dst)
    # Entry j: the backward steps of the walk k .. j (entry 0 is padding).
    offsets = list(map(itemgetter(k), qop._forward_steps))
    if offsets.count(0) - 1 != len(found) or any(map(offsets.__getitem__, found)):
        j = next(j for j in qop.vertices() if (j in found) != (offsets[j] == 0))
        met = "meets" if j in found else "misses"
        raise KnitInconsistentError(
            f"sweep from {k} {met} base {j} at level 0; its level offset is {offsets[j]}"
        )
    return found


def _knit_vectors(
    q: ValuedQuiver, bound: int
) -> tuple[bytes, tuple[int, ...], dict[int, ZVertex]]:
    """The layout of the dimension vectors below the terminators, base by
    base and level by level, one byte per entry; the level of each base's
    top; and the terminator of each hammock ``k``: where ``-dim P_k`` is
    knitted.

    Level ``s`` is knitted after level ``s - 1``, its bases in the opposite
    quiver's topological order, so every mesh input is knitted before it
    is read; a terminator stays readable by the neighbouring orbits.
    Raises :class:`KnitInconsistentError` when a mesh input is read before
    it was knitted, a first negative vector is not minus a projective's,
    or the vector directly before it is not a module's (zero, or with a
    negative entry), and :class:`BoundExceededError` when a vector has an
    entry past ``±_CAP`` or an orbit runs past level ``bound``.
    """
    n, qop = q.n, q.opposite()
    lanes = _Lanes(n)
    within_cap, nonnegative = lanes.within_cap, lanes.nonnegative
    projectives = [[0] * n for _ in range(n)]  # entry k of dim P_j: hammock k's seed at (0, j)
    for k in q.vertices():
        for j, value in _level_zero(qop, k).items():
            projectives[j - 1][k - 1] = value
    columns = [[lanes.pack(p)] for p in projectives]
    hammocks_of: dict[int, list[int]] = {}
    for k, column in enumerate(columns, 1):
        if not within_cap(column[0]):
            raise BoundExceededError(f"dimension vector at {ZVertex(0, k)} leaves ±{_CAP}")
        hammocks_of.setdefault(-column[0], []).append(k)
    # Along every arrow of the opposite quiver the forward minus the
    # backward steps from base 1 rise by one: a topological order.
    steps = qop._forward_steps
    live = sorted(q.vertices(), key=lambda x: steps[1][x] - steps[x][1])
    meshes = mesh_inputs(qop)
    rows = {
        x: [(offset, columns[src - 1], weight) for offset, src, weight in meshes[x]]
        for x in live
    }
    ends: dict[int, ZVertex] = {}
    level = 0
    while live:
        level += 1
        if level > bound:
            raise BoundExceededError(
                f"no negative dimension vector within {bound} levels; "
                "input is not of finite type"
            )
        knitting, live = live, []
        for x in knitting:
            column = columns[x - 1]
            before = column[-1]
            total = -before
            try:
                for offset, source, weight in rows[x]:
                    vector = source[level + offset]
                    total += vector if weight == 1 else weight * vector
            except IndexError:
                raise KnitInconsistentError(
                    f"mesh input of {ZVertex(level, x)} read before it was knitted"
                ) from None
            column.append(total)
            if not within_cap(total):
                raise BoundExceededError(f"dimension vector at {ZVertex(level, x)} leaves ±{_CAP}")
            if nonnegative(total):
                live.append(x)
                continue
            v = ZVertex(level, x)
            if total not in hammocks_of:
                raise KnitInconsistentError(
                    f"first negative vector at {v} is not minus a projective's"
                )
            if not nonnegative(before) or not before:
                raise KnitInconsistentError(
                    f"vector directly before the terminator {v} is not a module's"
                )
            for k in hammocks_of[total]:
                ends[k] = v
    del rows
    m = tuple(len(column) - 2 for column in columns)  # each column ends at its terminator
    layout = BytesIO()
    for x, column in enumerate(columns):
        layout.write(b"".join([v.to_bytes(2 * n, "little") for v in column[:-1]])[::2])
        columns[x] = []
    return layout.getvalue(), m, ends


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
    lengths = (
        path_length(qop, arq.projective(i), arq.injective(i)) for i in arq.quiver.vertices()
    )
    return _count_identity(arq, order, lengths)


def _count_identity(arq: ARQuiver, order: int, lengths: Iterable[int | None]) -> Counts:
    """The checks of :func:`counts_and_nilpotency`, given for each ``i`` the
    length of the paths from projective ``i`` to injective ``i``, or
    ``None`` where no path joins them.  Lengths are read in order, after
    the vertex count is checked."""
    total = arq.starts[-1]
    if 2 * total != arq.n * order:
        half, odd = divmod(arq.n * order, 2)
        raise CrossCheckFailedError(
            f"{total} vertices but n*|C|/2 = {half}{'.5' if odd else ''}"
        )
    dists = []
    for i, d in zip(arq.quiver.vertices(), lengths):
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
    forward-step counts of the walks ``rho(i) .. rho(j)`` and ``i .. j``,
    read off rows ``rho(i)`` and ``i`` of the quiver's walk step table.
    """
    return not _orbit_index_witness(arq)


def _orbit_index_witness(arq: ARQuiver) -> str:
    """The first pair ``(i, j)`` that breaks the relation of
    :func:`orbit_index_relation_holds`, or ``""`` when it holds."""
    q = arq.quiver
    m, rho = arq.m, arq.rho
    steps = q._forward_steps
    for i, mi, ri in zip(q.vertices(), m, rho):
        lhs = map(sub, repeat(mi), m)  # m(i) - m(j), for j = 1..n
        across = map(steps[ri].__getitem__, rho)  # steps of rho(i) .. rho(j)
        rhs = map(sub, across, islice(steps[i], 1, None))  # less those of i .. j
        j = next(compress(count(1), map(ne, lhs, rhs)), None)
        if j is not None:
            walks = steps[ri][rho[j - 1]] - steps[i][j]
            return f"m({i}) - m({j}) = {mi - m[j - 1]}, not the walk statistic {walks}"
    return ""

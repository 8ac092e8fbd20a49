"""Test-only references: paths of the translation plane and their covering
map, bounded windows of the plane, the arrow table of a built quiver, its
successor lists and topological order, path lengths by dynamic
programming, reachability by one forward search per pair, the
orbit-index relation one ``arrow_counts`` pair at a time, the all-pairs
path audit, vertex-by-vertex mesh sums, the Coxeter orbits walked one
by one, the first failing check of an oracle report, seed sections and
heap-ordered knitting, hammock tables by position, composition
multiplicities, the dimension vectors by position, vector layouts and
arrows for fault injection, and the derived translation and the cluster
identification one step at a time."""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, replace
from itertools import chain, count, takewhile
from typing import Iterator, Mapping, Sequence

from arquiver.coxeter import _minus
from arquiver.derived import ClusterRep, DerivedVertex, _top
from arquiver.errors import (
    BoundExceededError,
    CrossCheckFailedError,
    KnitInconsistentError,
    PositionOutOfRangeError,
)
from arquiver.hammock import HammockResult
from arquiver.quiver import Arrow, Step, ValuedQuiver, Walk, arrow_counts
from arquiver.repetitive import ZArrow, ZVertex, mesh_inputs


# -- paths and the covering map, the model behind ``repetitive.path_length`` --


def plain_arrow(level: int, arrow: Arrow) -> ZArrow:
    return ZArrow(ZVertex(level, arrow.src), ZVertex(level, arrow.dst), arrow, False)


def star_arrow(level: int, arrow: Arrow) -> ZArrow:
    return ZArrow(ZVertex(level, arrow.dst), ZVertex(level + 1, arrow.src), arrow, True)


@dataclass(frozen=True)
class ZPath:
    start: ZVertex
    arrows: tuple[ZArrow, ...] = ()

    def __post_init__(self) -> None:
        at = self.start
        for a in self.arrows:
            if a.src != at:
                raise ValueError(f"path arrows do not compose at {at}")
            at = a.dst

    @property
    def end(self) -> ZVertex:
        return self.arrows[-1].dst if self.arrows else self.start

    def __len__(self) -> int:
        return len(self.arrows)


def in_arrows(base: ValuedQuiver, v: ZVertex) -> list[ZArrow]:
    """All arrows of the plane ending at ``v``, deterministically ordered."""
    arrows = [plain_arrow(v.level, a) for a in base.in_arrows(v.base)]
    arrows += [star_arrow(v.level - 1, a) for a in base.out_arrows(v.base)]
    arrows.sort(key=lambda z: z.src)
    return arrows


def out_arrows(base: ValuedQuiver, v: ZVertex) -> list[ZArrow]:
    arrows = [plain_arrow(v.level, a) for a in base.out_arrows(v.base)]
    arrows += [star_arrow(v.level, a) for a in base.in_arrows(v.base)]
    arrows.sort(key=lambda z: z.dst)
    return arrows


def covering_map(p: ZPath) -> Walk:
    """Fold a path of the plane onto a walk of the base quiver."""
    return Walk(
        p.start.base, tuple(Step(a.arrow, not a.star) for a in p.arrows)
    )


def is_reduced(walk: Walk) -> bool:
    """Whether no step of ``walk`` undoes the step before it."""
    return all(b != Step(a.arrow, not a.forward) for a, b in zip(walk.steps, walk.steps[1:]))


def is_sectional(p: ZPath) -> bool:
    return is_reduced(covering_map(p))


# -- bounded windows of the plane ------------------------------------------------


def is_successor(base: ValuedQuiver, u: ZVertex, w: ZVertex) -> bool:
    """Whether some path ``u .. w`` exists: the level gap covers the offset."""
    return w.level - u.level >= arrow_counts(base, u.base, w.base)[1]


def window_arrows(base: ValuedQuiver, lo: int, hi: int) -> list[ZArrow]:
    arrows: list[ZArrow] = []
    for s in range(lo, hi + 1):
        for a in base.arrows:
            arrows.append(plain_arrow(s, a))
            if s + 1 <= hi:
                arrows.append(star_arrow(s, a))
    return arrows


def window_paths(
    base: ValuedQuiver, start: ZVertex, lo: int, hi: int, max_length: int
) -> Iterator[ZPath]:
    """All paths from ``start`` staying in the level window, by DFS."""
    stack: list[ZPath] = [ZPath(start)]
    while stack:
        p = stack.pop()
        yield p
        if len(p) >= max_length:
            continue
        for za in out_arrows(base, p.end):
            if lo <= za.dst.level <= hi:
                stack.append(ZPath(p.start, p.arrows + (za,)))


# -- the arrow table, the reference for ``ar_quiver.build`` ------------------------


def reference_arrows(q: ValuedQuiver, m: tuple[int, ...]) -> tuple[ZArrow, ...]:
    """Every plain and star arrow of levels ``0..max(m)`` of the plane of
    ``q``'s opposite with both ends in range, sorted by ``(src, dst)``."""
    in_range = {ZVertex(r, i) for i in q.vertices() for r in range(m[i - 1] + 1)}
    arrows = [
        za
        for a in q.opposite().arrows
        for level in range(max(m) + 1)
        for za in (plain_arrow(level, a), star_arrow(level, a))
        if za.src in in_range and za.dst in in_range
    ]
    return tuple(sorted(arrows, key=lambda za: (za.src, za.dst)))


# -- successor lists, topological order and path lengths of a built quiver -------


def successors(arq) -> dict[ZVertex, tuple[ZVertex, ...]]:
    """Heads of the arrows leaving each vertex, in arrow order."""
    out: dict[ZVertex, list[ZVertex]] = {v: [] for v in arq.vertices}
    for za in arq.arrows:
        out[za.src].append(za.dst)
    return {v: tuple(heads) for v, heads in out.items()}


def topological_order(arq) -> tuple[ZVertex, ...]:
    """Kahn's order over ``ZVertex`` keys: sorted sources first, heads in
    arrow order."""
    out = successors(arq)
    indeg = {v: 0 for v in arq.vertices}
    for za in arq.arrows:
        indeg[za.dst] += 1
    queue = deque(sorted(v for v in arq.vertices if indeg[v] == 0))
    order = []
    while queue:
        v = queue.popleft()
        order.append(v)
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    if len(order) != len(arq.vertices):
        raise CrossCheckFailedError("translation quiver contains an oriented cycle")
    return tuple(order)


def distance(arq, a: ZVertex, b: ZVertex) -> int | None:
    """Common length of all paths ``a .. b``; ``None`` when unreachable.

    Enumerates by one dynamic program over the topological order from
    ``a`` up to ``b``; shortest and longest path lengths are computed
    separately and must agree, so parallel paths of different lengths
    raise.
    """
    for v in (a, b):
        if v not in dims(arq):
            raise PositionOutOfRangeError(f"{v} is not a vertex")
    order, out = topological_order(arq), successors(arq)
    start, stop = order.index(a), order.index(b)
    # Arrows only go forward in the order, so nothing past ``b`` can reach it.
    shortest, longest = {a: 0}, {a: 0}
    for v in order[start:stop]:
        if v not in shortest:
            continue
        for w in out[v]:
            if w not in shortest:
                shortest[w], longest[w] = shortest[v] + 1, longest[v] + 1
            else:
                shortest[w] = min(shortest[w], shortest[v] + 1)
                longest[w] = max(longest[w], longest[v] + 1)
    if b not in shortest:
        return None
    if shortest[b] != longest[b]:
        raise CrossCheckFailedError(
            f"parallel paths {a} .. {b} of lengths {shortest[b]} and {longest[b]}"
        )
    return shortest[b]


def reference_spans(
    arq, phi: list[int], ends: list[tuple[ZVertex, ZVertex]]
) -> list[int | None]:
    """What ``oracle._spans`` returns, by one forward search per pair over
    the topological order from ``a`` up to ``b``: ``phi(b) - phi(a)`` when
    ``b`` is reached, ``None`` otherwise.  ``phi`` is indexed by position
    in ``arq.vertices``."""
    order, out = topological_order(arq), successors(arq)
    rank = {v: t for t, v in enumerate(order)}
    at = {v: k for k, v in enumerate(arq.vertices)}
    spans: list[int | None] = []
    for a, b in ends:
        if a not in rank or b not in rank or rank[b] < rank[a]:
            spans.append(None)
            continue
        reached = {a}
        for v in order[rank[a] : rank[b]]:
            if v in reached:
                reached.update(out[v])
        spans.append(phi[at[b]] - phi[at[a]] if b in reached else None)
    return spans


def reference_orbit_relation(arq) -> bool:
    """What ``ar_quiver.orbit_index_relation_holds`` returns, one
    ``arrow_counts`` pair at a time."""
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


# -- all-pairs path audit, the exact reference for ``oracle.audit_paths`` ----------


def path_statistics(arq) -> tuple[dict[tuple[ZVertex, ZVertex], int], dict, dict]:
    """Path counts and shortest/longest lengths for all ordered pairs."""
    order = topological_order(arq)
    out = successors(arq)
    counts: dict[tuple[ZVertex, ZVertex], int] = {}
    shortest: dict[tuple[ZVertex, ZVertex], int] = {}
    longest: dict[tuple[ZVertex, ZVertex], int] = {}
    for src in order:
        counts[(src, src)] = 1
        shortest[(src, src)] = longest[(src, src)] = 0
        for v in order:
            if (src, v) not in counts:
                continue
            for w in out[v]:
                counts[(src, w)] = counts.get((src, w), 0) + counts[(src, v)]
                step = shortest[(src, v)] + 1
                shortest[(src, w)] = min(shortest.get((src, w), step), step)
                step = longest[(src, v)] + 1
                longest[(src, w)] = max(longest.get((src, w), step), step)
    return counts, shortest, longest


def sectional_paths(arq) -> list[tuple[ZVertex, ZVertex]]:
    """Endpoints of all non-trivial sectional paths, by depth-first search."""
    out = successors(arq)
    found = []
    for start in arq.vertices:
        stack = [[start, w] for w in out[start]]
        while stack:
            path = stack.pop()
            found.append((path[0], path[-1]))
            before, last = path[-2], path[-1]
            for w in out[last]:
                # A hook through the translate of the previous vertex
                # would leave the section.
                if w == before.translate(-1):
                    continue
                stack.append(path + [w])
    return found


def reference_audit_lines(arq) -> list[str]:
    """The two audit lines, from all-pairs tables held in memory at once:
    the first pair whose path lengths differ and the first sectional path
    with a second path beside it, where ``oracle.audit_paths`` names the
    first arrow its certificate cannot vouch for."""
    counts, shortest, longest = path_statistics(arq)
    bad = next((p for p in counts if shortest[p] != longest[p]), None)
    lines = [
        "parallel-path-lengths: PASS"
        if bad is None
        else f"parallel-path-lengths: FAIL (lengths differ between {bad[0]} and {bad[1]})"
    ]
    bad = next((p for p in sectional_paths(arq) if counts.get(p, 0) != 1), None)
    lines.append(
        "sectional-uniqueness: PASS"
        if bad is None
        else f"sectional-uniqueness: FAIL (extra parallel path between {bad[0]} and {bad[1]})"
    )
    return lines


# -- vertex-by-vertex mesh sums, the reference for ``oracle.verify_mesh`` ---------


def reference_mesh_line(arq) -> str:
    """The ``mesh-additivity`` line, one vertex and one input at a time."""
    meshes, vectors = mesh_inputs(arq.quiver.opposite()), dims(arq)
    for v in arq.vertices:
        if v.level == 0:
            continue
        lhs = [a + b for a, b in zip(vectors[v], vectors[v.translate()])]
        rhs = [0] * arq.n
        for offset, src, weight in meshes[v.base]:
            u = ZVertex(v.level + offset, src)
            if u not in vectors:
                return f"mesh-additivity: FAIL (in-arrow source {u} of {v} out of range)"
            rhs = [a + weight * b for a, b in zip(rhs, vectors[u])]
        if lhs != rhs:
            return f"mesh-additivity: FAIL (mesh relation fails at {v})"
    return "mesh-additivity: PASS"


# -- orbit by orbit, the reference for ``coxeter._orbit_lengths`` ----------------


def walk_orbits(
    arq, lower: list[tuple[int, int, int]], upper: list[tuple[int, int, int]]
) -> list[int]:
    """The signed orbit lengths, orbit by orbit: each orbit's ``C * dim``
    steps, then its closure, raising at the first failure.  A signed
    vector is read as the int of its bytes, negated on the partner's orbit."""
    vectors = [[arq.vector(ZVertex(r, i)) for r in range(top + 1)] for i, top in enumerate(arq.m, 1)]
    lengths = []
    for i, orbit in enumerate(vectors, 1):
        for r in range(1, len(orbit)):
            if _minus(lower, orbit[r]) != [-x for x in _minus(upper, orbit[r - 1])]:
                v = ZVertex(r, i)
                raise CrossCheckFailedError(f"coxeter: C * dim {v} != dim {v.translate()}")
        j = arq.injective(i).base
        signed = [int.from_bytes(x, "little") for x in orbit]
        signed += [-int.from_bytes(x, "little") for x in vectors[j - 1]]
        if arq.injective(j).base != i or len(set(signed)) != len(signed):
            raise CrossCheckFailedError(
                f"coxeter: orbit of projective {i} does not close "
                f"after {len(signed)} distinct vectors"
            )
        lengths.append(len(signed))
    return lengths


def first_failure(report):
    """The first failing check of an ``OracleReport``, or ``None``."""
    return next((c for c in report.checks if not c.passed), None)


# -- seed sections and heap-ordered knitting, the reference for the hammock tables --


def seed_section(qop: ValuedQuiver, k: int) -> dict[ZVertex, int]:
    """Seed values on the source section of ``(0, k)``, in one tree traversal.

    1 at ``(0, k)``; along each sectional path of the section the running
    product of the second valuation components of its arrows.  A forward
    step is a plain arrow ``(a, b)``; a backward step is a star arrow
    ``(b, a)`` one level up.
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
    return {ZVertex(level, j): value for j, (level, value) in found.items()}


def reference_knit(
    qop: ValuedQuiver, k: int, seeds: Mapping[ZVertex, int], bound: int
) -> tuple[dict[ZVertex, int], ZVertex]:
    """Knit from the seeds in (path length, level, base) order off a heap."""
    meshes = mesh_inputs(qop)
    table = dict(seeds)
    # A seed's path length is that of the reduced walk k .. base.  Table
    # lookups use plain tuples, which hash and compare like the ZVertex keys.
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
    raise BoundExceededError("empty knitting frontier")


def table_of(res: HammockResult) -> dict[ZVertex, int]:
    """The rows of ``res.table`` as a ``{ZVertex: value}`` dict."""
    return {ZVertex(level, base): value for level, base, value in res.table}


def injective_position(res: HammockResult) -> ZVertex:
    """Where the injective hull of the ``k``-th simple sits."""
    return ZVertex(res.orbit_index, res.orbit)


def composition_multiplicity(res: HammockResult, pos: ZVertex) -> int:
    """Multiplicity of the ``k``-th simple in the module at ``pos``.

    ``pos`` must be a position of the finite translation quiver; positions
    outside the knitted table carry the ``k``-th simple zero times.
    """
    if not 1 <= pos.base <= res.quiver.n or pos.level < 0 or pos == res.terminator:
        raise PositionOutOfRangeError(f"{pos} is not a module position")
    return table_of(res).get(pos, 0)


# -- the dimension vectors by position, and orbit layouts and arrows for fault injection


def dims(arq) -> dict[ZVertex, tuple[int, ...]]:
    """The dimension vector at each position of ``arq``."""
    return dict(zip(arq.vertices, zip(*[iter(arq.layout)] * arq.n)))


def with_arrows(arq, arrows: Sequence[ZArrow], **fields):
    """``replace(arq, **fields)`` whose ``arrows`` view holds ``arrows``
    rather than the arrows of its vectors: the one way to inject arrows."""
    copy = replace(arq, **fields)
    copy.__dict__["arrows"] = tuple(arrows)
    return copy


def _orbits(arq, vectors: Mapping | None, m: Sequence[int] | None) -> list:
    """The vectors of each orbit that :func:`relaid` lays out."""
    vectors = dims(arq) if vectors is None else vectors
    zero = (0,) * arq.n
    orbits = []
    for i in arq.quiver.vertices():
        if m is None:
            levels = takewhile(lambda r: (r, i) in vectors, count())
        else:
            levels = range(m[i - 1] + 1)
        orbits.append([vectors.get((r, i), zero) for r in levels])
    return orbits


def relaid(
    arq,
    vectors: Mapping | None = None,
    m: Sequence[int] | None = None,
    arrows: Sequence[ZArrow] | None = None,
    **fields,
):
    """``replace(arq, layout=..., m=..., **fields)``, orbit ``i`` holding the
    vectors that ``vectors`` (by default ``dims(arq)``) files at levels
    ``0, 1, ..`` of base ``i``: while it files one, or up to level
    ``m[i - 1]`` when ``m`` is given, with the zero vector at the levels it
    lacks.  ``bytes`` lays the vectors out, so an entry that is not an int
    in ``0..255`` raises its ``TypeError`` or ``ValueError``.  The copy's
    ``arrows`` view is that of its own vectors, or ``arrows`` when given
    (through :func:`with_arrows`)."""
    orbits = _orbits(arq, vectors, m)
    fields["layout"] = bytes(chain.from_iterable(chain.from_iterable(orbits)))
    fields["m"] = tuple(len(orbit) - 1 for orbit in orbits)
    if arrows is None:
        return replace(arq, **fields)
    return with_arrows(arq, arrows, **fields)


# What ``bytes`` raises for an int entry outside 0..255.
OUTSIDE_A_BYTE = r"^bytes must be in range\(0, 256\)$"

# What ``bytes`` raises for an entry that is not an int, a float say.
NOT_AN_INT = r"object cannot be interpreted as an integer$"


def fits_a_byte(arq, vectors: Mapping | None = None, m: Sequence[int] | None = None) -> bool:
    """Whether every entry that ``relaid(arq, vectors, m)`` lays out is an
    int in ``0..255``, so that ``bytes`` takes it."""
    entries = chain.from_iterable(chain.from_iterable(_orbits(arq, vectors, m)))
    return all(isinstance(e, int) and 0 <= e <= 255 for e in entries)


# -- one step of the derived translation at a time, the reference for ``derived`` --


def tau_d_inverse(arq, v: DerivedVertex) -> DerivedVertex:
    """One backward step of the derived translation."""
    if v.level < _top(arq, v):
        return DerivedVertex(v.level + 1, v.base, v.shift)
    return DerivedVertex(0, arq.rho_of(v.base), v.shift + 1)


def tau_d(arq, v: DerivedVertex) -> DerivedVertex:
    """One forward step; two-sided inverse of :func:`tau_d_inverse`."""
    _top(arq, v)
    if v.level > 0:
        return DerivedVertex(v.level - 1, v.base, v.shift)
    j = arq.rho_inverse(v.base)
    return DerivedVertex(arq.m_of(j), j, v.shift - 1)


def shift(v: DerivedVertex, s: int = 1) -> DerivedVertex:
    return DerivedVertex(v.level, v.base, v.shift + s)


def orbit_shift(arq, v: DerivedVertex) -> DerivedVertex:
    """The cluster identification: inverse translation after one shift."""
    return tau_d_inverse(arq, shift(v))


def orbit_shift_inverse(arq, v: DerivedVertex) -> DerivedVertex:
    return shift(tau_d(arq, v), -1)


def in_fundamental_domain(v: DerivedVertex) -> bool:
    return v.shift == 0 or (v.shift == 1 and v.level == 0)


def walk_cluster_normalize(arq, order: int, v: DerivedVertex) -> ClusterRep:
    """What ``derived.cluster_normalize`` returns, one identification at a
    time: a power of ``order`` identifications moves a coordinate exactly
    two shifts plus one period up, which gives the coarse reduction; the
    remainder is walked step by step.  A position off the quiver's orbits
    raises ``PositionOutOfRangeError``."""
    _top(arq, v)
    period = order + 2
    coarse = v.shift // period
    power = coarse * order
    v = shift(v, -coarse * period)
    while not in_fundamental_domain(v):
        if v.shift >= 1:
            v = orbit_shift_inverse(arq, v)
            power += 1
        else:
            v = orbit_shift(arq, v)
            power -= 1
    return ClusterRep(v, power)

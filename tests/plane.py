"""Test-only references: paths of the translation plane and their covering
map, bounded windows of the plane, the all-pairs path audit, heap-ordered
knitting and composition multiplicities."""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterator, Mapping

from arquiver.errors import (
    BoundExceededError,
    KnitInconsistentError,
    PositionOutOfRangeError,
)
from arquiver.hammock import HammockResult
from arquiver.quiver import Step, ValuedQuiver, Walk, arrow_counts
from arquiver.repetitive import (
    ZArrow,
    ZVertex,
    level_offset,
    mesh_inputs,
    plain_arrow,
    star_arrow,
)


# -- paths and the covering map, the model behind ``repetitive.path_length`` --


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


def is_sectional(p: ZPath) -> bool:
    return covering_map(p).is_reduced()


# -- bounded windows of the plane ------------------------------------------------


def is_successor(base: ValuedQuiver, u: ZVertex, w: ZVertex) -> bool:
    """Whether some path ``u .. w`` exists: the level gap covers the offset."""
    return w.level - u.level >= level_offset(base, u.base, w.base)


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


# -- all-pairs path audit, the reference for ``oracle.audit_paths`` ----------------


def path_statistics(arq) -> tuple[dict[tuple[ZVertex, ZVertex], int], dict, dict]:
    """Path counts and shortest/longest lengths for all ordered pairs."""
    order = arq.topological_order
    out = arq.successors
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
    out = arq.successors
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
    """The two audit lines, from all-pairs tables held in memory at once."""
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


# -- heap-ordered knitting, the reference for ``hammock._knit_from_seed`` ---------


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


def composition_multiplicity(res: HammockResult, pos: ZVertex) -> int:
    """Multiplicity of the ``k``-th simple in the module at ``pos``.

    ``pos`` must be a position of the finite translation quiver; positions
    outside the knitted table carry the ``k``-th simple zero times.
    """
    if not 1 <= pos.base <= res.quiver.n or pos.level < 0 or pos == res.terminator:
        raise PositionOutOfRangeError(f"{pos} is not a module position")
    return res.table.get(pos, 0)

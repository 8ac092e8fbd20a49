"""Bounded windows of the translation plane, for exhaustive checks in tests."""

from __future__ import annotations

from typing import Iterator

from arquiver.quiver import ValuedQuiver
from arquiver.repetitive import (
    ZArrow,
    ZPath,
    ZVertex,
    level_offset,
    out_arrows,
    plain_arrow,
    star_arrow,
)


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

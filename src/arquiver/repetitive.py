"""The stable translation quiver knitted from an acyclic valued quiver.

For a base quiver ``D`` the translation plane has vertices ``(level, x)``
with ``level`` any integer and ``x`` a base vertex.  Each base arrow
``x -> y`` with valuation ``(a, b)`` contributes, at every level ``s``, a
*plain* arrow ``(s, x) -> (s, y)`` with valuation ``(a, b)`` and a *star*
arrow ``(s, y) -> (s+1, x)`` with valuation ``(b, a)``.  The translation
shifts levels down by one.

Nothing infinite is ever materialised: consumers work inside bounded
level windows, and most questions reduce to the covering map that folds a
path of the plane onto a walk of the base quiver (plain arrows map to
forward steps, star arrows to backward steps).  A path is *sectional*
exactly when its folded walk is reduced, and for tree bases a sectional
path is the unique path between its endpoints while any two parallel
paths share the same length.  This makes the two helpers at the bottom
(`level_offset`, `path_length`) well defined: a path ``(r, x) .. (s, y)``
exists iff ``s - r`` is at least the number of backward steps of the
reduced walk ``x .. y``, and every such path has length
``len(walk) + 2 * (s - r - backward steps)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple

from .errors import WalkNotReducedError, WindowTooLargeError
from .quiver import Arrow, Step, ValuedQuiver, Valuation, Walk, arrow_counts, swap

# Widest level window `knit_additive` explores; the fixed-point sweep costs
# time linear in the window, and no caller needs more than a few periods.
MAX_ADDITIVE_WINDOW = 1000


class ZVertex(NamedTuple):
    level: int
    base: int

    def translate(self, s: int = 1) -> "ZVertex":
        """Apply the translation ``s`` times (level decreases)."""
        return ZVertex(self.level - s, self.base)


class ZArrow(NamedTuple):
    src: ZVertex
    dst: ZVertex
    arrow: Arrow
    star: bool

    @property
    def val(self) -> Valuation:
        return swap(self.arrow.val) if self.star else self.arrow.val


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


def mesh_inputs(base: ValuedQuiver) -> dict[int, tuple[tuple[int, int, int], ...]]:
    """Per base vertex ``x``: ``(level offset, source base, weight)`` of the
    arrows of the plane ending at ``(s, x)``, for any level ``s``.

    Star arrows come from out-arrows one level down, plain arrows from
    in-arrows at the same level; the weight is the arrow's second valuation
    component.  Sorted, so the sources come in the order of :func:`in_arrows`.
    """
    return {
        x: tuple(
            sorted(
                [(-1, a.dst, a.val[0]) for a in base.out_arrows(x)]
                + [(0, a.src, a.val[1]) for a in base.in_arrows(x)]
            )
        )
        for x in base.vertices()
    }


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


def sectional_path_from_walk(base: ValuedQuiver, walk: Walk, start_level: int) -> ZPath:
    """Lift a reduced walk to the sectional path starting at ``start_level``.

    Forward steps stay at the current level, backward steps climb one
    level via the corresponding star arrow.
    """
    if not walk.is_reduced():
        raise WalkNotReducedError("walk has a step followed by its inverse")
    arrows = []
    level = start_level
    for step in walk.steps:
        if step.forward:
            arrows.append(plain_arrow(level, step.arrow))
        else:
            arrows.append(star_arrow(level, step.arrow))
            level += 1
    return ZPath(ZVertex(start_level, walk.start), tuple(arrows))


@dataclass(frozen=True)
class Section:
    """One vertex per base-vertex orbit, plus the arrows joining them."""

    vertices: tuple[ZVertex, ...]
    arrows: tuple[ZArrow, ...]

    def level_of(self, base_vertex: int) -> int:
        for v in self.vertices:
            if v.base == base_vertex:
                return v.level
        raise KeyError(base_vertex)


def _section_arrows(base: ValuedQuiver, levels: dict[int, int]) -> tuple[ZArrow, ...]:
    arrows = []
    for a in base.arrows:
        plain = plain_arrow(levels[a.src], a)
        if plain.dst.level == levels[a.dst]:
            arrows.append(plain)
        else:
            arrows.append(star_arrow(levels[a.dst], a))
    return tuple(sorted(arrows, key=lambda z: (z.src, z.dst)))


def source_section(base: ValuedQuiver, v: ZVertex) -> Section:
    """The section generated by the sectional successors of ``v``.

    Requires a connected tree base; orbit ``j`` is met at level
    ``v.level`` plus the backward-step count of the reduced walk from
    ``v.base`` to ``j``.
    """
    levels = {
        j: v.level + arrow_counts(base, v.base, j)[1] for j in base.vertices()
    }
    vertices = tuple(sorted(ZVertex(levels[j], j) for j in base.vertices()))
    return Section(vertices, _section_arrows(base, levels))


def sink_section(base: ValuedQuiver, v: ZVertex) -> Section:
    """The section generated by the sectional predecessors of ``v``."""
    levels = {
        j: v.level - arrow_counts(base, j, v.base)[1] for j in base.vertices()
    }
    vertices = tuple(sorted(ZVertex(levels[j], j) for j in base.vertices()))
    return Section(vertices, _section_arrows(base, levels))


def level_offset(base: ValuedQuiver, x: int, y: int) -> int:
    """Minimal level gap ``s - r`` admitting a path ``(r, x) .. (s, y)``."""
    return arrow_counts(base, x, y)[1]


def path_length(base: ValuedQuiver, u: ZVertex, w: ZVertex) -> int | None:
    """Common length of all paths ``u .. w``, or ``None`` if there is none."""
    forward, backward = arrow_counts(base, u.base, w.base)
    slack = (w.level - u.level) - backward
    if slack < 0:
        return None
    return forward + backward + 2 * slack


# -- additive functions ---------------------------------------------------------

def knit_additive(
    base: ValuedQuiver,
    values: Mapping[ZVertex, int],
    window: tuple[int, int],
) -> dict[ZVertex, int]:
    """Extend section values to the unique additive function on a window.

    Additivity at a vertex ``x`` with translate ``tx`` reads
    ``f(tx) + f(x) = sum of v' * f(y)`` over the arrows ``y -> x``, where
    ``v'`` is the second valuation component.  The extension is knitted
    sink-first toward lower levels and source-first toward higher levels;
    the result is order independent, a fixed scan order keeps runs
    reproducible.
    """
    lo, hi = window
    if hi - lo > MAX_ADDITIVE_WINDOW:
        raise WindowTooLargeError(f"window {window} exceeds {MAX_ADDITIVE_WINDOW} levels")
    known: dict[ZVertex, int] = {
        v: val for v, val in values.items() if lo <= v.level <= hi
    }
    meshes = mesh_inputs(base)

    def mesh_sum(v: ZVertex) -> int | None:
        total = 0
        for offset, src, weight in meshes[v.base]:
            u = (v.level + offset, src)
            if u not in known:
                return None
            total += weight * known[u]
        return total

    progress = True
    while progress:
        progress = False
        for j in base.vertices():
            for level in range(lo, hi + 1):
                v = ZVertex(level, j)
                if v in known:
                    continue
                # Toward higher levels: translate of v plus all in-arrows known.
                prev = v.translate()
                if prev in known:
                    total = mesh_sum(v)
                    if total is not None:
                        known[v] = total - known[prev]
                        progress = True
                        continue
                # Toward lower levels: v is the translate of nxt.
                nxt = ZVertex(level + 1, j)
                if nxt in known and level + 1 <= hi:
                    total = mesh_sum(nxt)
                    if total is not None:
                        known[v] = total - known[nxt]
                        progress = True
    return known

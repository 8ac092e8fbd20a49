"""The stable translation quiver knitted from an acyclic valued quiver.

For a base quiver ``D`` the translation plane has vertices ``(level, x)``
with ``level`` any integer and ``x`` a base vertex.  Each base arrow
``x -> y`` with valuation ``(a, b)`` contributes, at every level ``s``, a
*plain* arrow ``(s, x) -> (s, y)`` with valuation ``(a, b)`` and a *star*
arrow ``(s, y) -> (s+1, x)`` with valuation ``(b, a)``.  The translation
shifts levels down by one.

Nothing infinite is ever materialised: consumers work inside bounded
level windows, and read the plane through the mesh table and the two
closed forms at the bottom.  Those closed forms rest on the covering map
that folds a path of the plane onto a walk of the base quiver (plain
arrows map to forward steps, star arrows to backward steps).  A path is
*sectional* exactly when its folded walk is reduced, and for tree bases a
sectional path is the unique path between its endpoints while any two
parallel paths share the same length.  This makes `level_offset` and
`path_length` well defined: a path ``(r, x) .. (s, y)`` exists iff
``s - r`` is at least the number of backward steps of the reduced walk
``x .. y``, and every such path has length
``len(walk) + 2 * (s - r - backward steps)``.  The path model itself
(paths, the covering map, window enumeration) lives in ``tests/plane.py``,
where it checks both closed forms.
"""

from __future__ import annotations

from typing import NamedTuple

from .quiver import Arrow, ValuedQuiver, Valuation, arrow_counts, swap


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


def mesh_inputs(base: ValuedQuiver) -> dict[int, tuple[tuple[int, int, int], ...]]:
    """Per base vertex ``x``: ``(level offset, source base, weight)`` of the
    arrows of the plane ending at ``(s, x)``, for any level ``s``.

    Star arrows come from out-arrows one level down, plain arrows from
    in-arrows at the same level; the weight is the arrow's second valuation
    component.  Sorted, so the sources come in ``(level, base)`` order.
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

"""The stable translation quiver knitted from an acyclic valued quiver.

For a base quiver ``D`` the translation plane has vertices ``(level, x)``
with ``level`` any integer and ``x`` a base vertex.  Each base arrow
``x -> y`` with valuation ``(a, b)`` contributes, at every level ``s``, a
*plain* arrow ``(s, x) -> (s, y)`` with valuation ``(a, b)`` and a *star*
arrow ``(s, y) -> (s+1, x)`` with valuation ``(b, a)``.  The translation
shifts levels down by one.

Nothing infinite is ever materialised: consumers work inside bounded
level windows, and read the plane through the mesh table and the closed
form at the bottom.  That closed form rests on the covering map that
folds a path of the plane onto a walk of the base quiver (plain arrows
map to forward steps, star arrows to backward steps).  A path is
*sectional* exactly when its folded walk is reduced, and for tree bases a
sectional path is the unique path between its endpoints while any two
parallel paths share the same length.  This makes `path_length` well
defined: a path ``(r, x) .. (s, y)`` exists iff ``s - r`` is at least the
number of backward steps of the reduced walk ``x .. y``, and every such
path has length ``len(walk) + 2 * (s - r - backward steps)``.  The path
model itself (paths, the covering map, window enumeration) lives in
``tests/plane.py``, where it checks the closed form.
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


def mesh_inputs(base: ValuedQuiver) -> dict[int, tuple[tuple[int, int, int], ...]]:
    """Per base vertex ``x``: ``(level offset, source base, weight)`` of the
    arrows of the plane ending at ``(s, x)``, for any level ``s``.

    Star arrows come from out-arrows one level down, plain arrows from
    in-arrows at the same level; the weight is the arrow's second valuation
    component.  Sorted, so the sources come in ``(level, base)`` order.
    Built once per quiver instance and shared: callers only read it.
    """
    return base._mesh_table


def path_length(base: ValuedQuiver, u: ZVertex, w: ZVertex) -> int | None:
    """Common length of all paths ``u .. w``, or ``None`` if there is none."""
    forward, backward = arrow_counts(base, u.base, w.base)
    slack = (w.level - u.level) - backward
    if slack < 0:
        return None
    return forward + backward + 2 * slack

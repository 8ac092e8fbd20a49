"""Shifted-stalk coordinates for the derived and cluster categories.

A derived vertex ``(r, i, s)`` is the ``s``-fold shift of the module at
position ``(r, i)``.  The derived translation quiver is the full
translation plane of the opposite ext-quiver; nothing infinite is
stored, and nothing walks the translation one step at a time.  Its
backward translate climbs orbit ``i`` and then jumps to the next one:

    (r, i, s) -> (r + 1, i, s)        while r < m(i)
    (m(i), i, s) -> (0, rho(i), s + 1)

so every answer here is read off the orbit lengths ``m`` and the
pairing ``rho``.

``plane_position`` embeds a derived vertex into that plane: orbit ``i``
runs through the shift-0 stalks of orbit ``i``, then the shift-1 stalks
of orbit ``rho(i)``, and repeats two shifts up after one full Coxeter
period.  Distances in the derived quiver then reduce to the closed walk
formula of :mod:`arquiver.repetitive`.

The cluster category identifies a vertex with its image under
``F = tau^-1 [1]``.  In plane coordinates ``F`` sends ``(L, j)`` to
``(L + m(rho(j)) + 2, rho(j))``, so ``F^2`` adds ``order + 2`` levels on
the same base.  A fundamental domain is levels ``0..m(j) + 1`` of each
base ``j``: the shift-0 stalks, then the shifted projective
``(0, rho(j), 1)``.  Orbits hit it exactly once, and `cluster_normalize`
reduces any coordinate to its representative by one division.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .errors import CrossCheckFailedError, PositionOutOfRangeError
from .repetitive import ZVertex, path_length

if TYPE_CHECKING:
    from .ar_quiver import ARQuiver


class DerivedVertex(NamedTuple):
    level: int
    base: int
    shift: int


class ClusterRep(NamedTuple):
    rep: DerivedVertex
    power: int


def _top(arq: "ARQuiver", v: DerivedVertex) -> int:
    """``m(base)`` of ``v``; ``PositionOutOfRangeError`` unless ``v`` lies on
    an orbit of the quiver: ``1 <= base <= n`` and ``0 <= level <= m(base)``."""
    top = arq.m_of(v.base)
    if 0 <= v.level <= top:
        return top
    raise PositionOutOfRangeError(f"no level {v.level} on base {v.base}")


def _paired(arq: "ARQuiver", order: int, b: int) -> int:
    """``rho(b)``; ``CrossCheckFailedError`` if orbits ``b`` and ``rho(b)`` make no period."""
    j = arq.rho_of(b)
    total = arq.m_of(b) + arq.m_of(j) + 2
    if arq.rho_of(j) != b or total != order:
        raise CrossCheckFailedError(
            f"orbits {b} and {j} = rho({b}) make no period of {order}: "
            f"rho({j}) = {arq.rho_of(j)}, m({b}) + m({j}) + 2 = {total}"
        )
    return j


def plane_position(arq: "ARQuiver", order: int, v: DerivedVertex) -> ZVertex:
    """Embed into the translation plane of the opposite ext-quiver; a
    position off the quiver's orbits raises ``PositionOutOfRangeError``,
    and a shifted one on orbits that make no period, as :func:`_paired`."""
    _top(arq, v)
    q, parity = divmod(v.shift, 2)
    i = _paired(arq, order, v.base) if v.shift else v.base  # the partner, on an odd shift
    if parity == 0:
        return ZVertex(q * order + v.level, v.base)
    return ZVertex(q * order + arq.m_of(i) + 1 + v.level, i)


def derived_distance(
    arq: "ARQuiver", order: int, a: DerivedVertex, b: DerivedVertex
) -> int | None:
    """Common length of all derived paths ``a .. b``, or ``None``."""
    qop = arq.quiver.opposite()
    return path_length(
        qop, plane_position(arq, order, a), plane_position(arq, order, b)
    )


def derived_nilpotency(arq: "ARQuiver", order: int) -> int:
    """Radical nilpotency of the derived category: ``order - 1``.

    Cross-checked against the longest chain with non-zero composite:
    every projective-to-injective distance at shift zero must equal
    ``order - 2``, and a full period of backward translation must land
    two shifts up.  The period is taken orbit by orbit: from level 0 of
    orbit ``b`` the translation reaches ``(0, rho(b), s + 1)`` in
    ``m(b) + 1`` steps, so ``order`` steps from ``(0, i, 0)`` jump whole
    orbits while more than ``m(b)`` steps are left, and stop that many
    levels up the last.  It lands home at ``(0, i, 2)`` exactly when
    ``rho(rho(i)) = i`` and ``m(i) + m(rho(i)) + 2 = order``.
    """
    m, rho = arq.m, arq.rho
    for i in arq.quiver.vertices():
        p = DerivedVertex(0, i, 0)
        inj = arq.injective(i)
        d = derived_distance(arq, order, p, DerivedVertex(inj.level, inj.base, 0))
        if d != order - 2:
            raise CrossCheckFailedError(
                f"derived distance projective {i} .. injective {i} is {d}, "
                f"expected {order - 2}"
            )
        left, b, shifts = order, i, 0
        while left > m[b - 1]:
            left -= m[b - 1] + 1
            b, shifts = rho[b - 1], shifts + 1
        if (left, b, shifts) != (0, i, 2):
            raise CrossCheckFailedError(
                f"a full period of backward translation sent {p} to "
                f"{DerivedVertex(left, b, shifts)}"
            )
    return order - 1


# -- cluster category -------------------------------------------------------------

def cluster_normalize(arq: "ARQuiver", order: int, v: DerivedVertex) -> ClusterRep:
    """Reduce to the fundamental-domain representative of the orbit.

    Returns ``(rep, p)`` with ``F^p`` sending ``rep`` to ``v``.  At plane
    position ``(L, j)``, ``F^2`` adds ``order + 2`` levels, so the
    remainder of ``L`` modulo ``order + 2`` lies in one period of base
    ``j``; past the domain's levels ``0..m(j) + 1`` it is one ``F`` step
    from base ``rho(j)``.  A position off the quiver's orbits raises
    ``PositionOutOfRangeError``, and one on orbits that make no period of
    ``order`` raises ``CrossCheckFailedError``, as :func:`_paired`.
    """
    _top(arq, v)
    _paired(arq, order, v.base)
    level, j = plane_position(arq, order, v)
    q, level = divmod(level, order + 2)
    power = 2 * q
    if level > arq.m_of(j) + 1:
        level, j, power = level - arq.m_of(j) - 2, arq.rho_of(j), power + 1
    if level > arq.m_of(j):
        return ClusterRep(DerivedVertex(0, arq.rho_of(j), 1), power)
    return ClusterRep(DerivedVertex(level, j, 0), power)


def cluster_count(arq: "ARQuiver", order: int) -> int:
    """Number of cluster-category objects: domain size, doubly computed."""
    size = sum(arq.m) + 2 * arq.n  # every vertex, and each shifted projective
    if 2 * size != arq.n * (order + 2):
        raise CrossCheckFailedError(
            f"fundamental domain has {size} objects, expected n(|C|+2)/2"
        )
    return size

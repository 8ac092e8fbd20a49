"""Shifted-stalk coordinates for the derived and cluster categories.

A derived vertex ``(r, i, s)`` is the ``s``-fold shift of the module at
position ``(r, i)``.  The derived translation quiver is the full
translation plane of the opposite ext-quiver; nothing infinite is
stored, the translation acts directly on coordinates:

    backward translate: (r, i, s) -> (r + 1, i, s)        while r < m(i)
                        (m(i), i, s) -> (0, rho(i), s + 1)

``plane_position`` embeds a derived vertex into that plane: orbit ``i``
runs through the shift-0 stalks of orbit ``i``, then the shift-1 stalks
of orbit ``rho(i)``, and repeats two shifts up after one full Coxeter
period.  Distances in the derived quiver then reduce to the closed walk
formula of :mod:`arquiver.repetitive`.

The cluster category identifies a vertex with its image under the
composite of inverse translation and shift.  A fundamental domain is the
shift-0 stalks together with the once-shifted projectives; orbits hit it
exactly once, and `cluster_normalize` reduces any coordinate to its
representative.
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


def tau_d_inverse(arq: "ARQuiver", v: DerivedVertex) -> DerivedVertex:
    """One backward step of the derived translation."""
    if v.level < _top(arq, v):
        return DerivedVertex(v.level + 1, v.base, v.shift)
    return DerivedVertex(0, arq.rho_of(v.base), v.shift + 1)


def tau_d(arq: "ARQuiver", v: DerivedVertex) -> DerivedVertex:
    """One forward step; two-sided inverse of :func:`tau_d_inverse`."""
    _top(arq, v)
    if v.level > 0:
        return DerivedVertex(v.level - 1, v.base, v.shift)
    j = arq.rho_inverse(v.base)
    return DerivedVertex(arq.m_of(j), j, v.shift - 1)


def shift(v: DerivedVertex, s: int = 1) -> DerivedVertex:
    return DerivedVertex(v.level, v.base, v.shift + s)


def plane_position(arq: "ARQuiver", order: int, v: DerivedVertex) -> ZVertex:
    """Embed into the translation plane of the opposite ext-quiver; a
    position off the quiver's orbits raises ``PositionOutOfRangeError``."""
    _top(arq, v)
    q, parity = divmod(v.shift, 2)
    if parity == 0:
        return ZVertex(q * order + v.level, v.base)
    i = arq.rho_of(v.base)
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
    two shifts up.  From ``(0, i, 0)`` it climbs orbit ``i`` to
    ``(0, rho(i), 1)`` in ``m(i) + 1`` steps and orbit ``rho(i)`` to
    ``(0, rho(rho(i)), 2)`` in ``m(rho(i)) + 1`` more, so it lands home
    exactly when ``rho(rho(i)) = i`` and those steps add up to ``order``.
    Only otherwise is the period walked, to name where it lands.
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
        j = rho[i - 1]
        if rho[j - 1] == i and m[i - 1] + m[j - 1] + 2 == order:
            continue
        w = p
        for _ in range(order):
            w = tau_d_inverse(arq, w)
        if w != DerivedVertex(0, i, 2):
            raise CrossCheckFailedError(
                f"a full period of backward translation sent {p} to {w}"
            )
    return order - 1


# -- cluster category -------------------------------------------------------------

def orbit_shift(arq: "ARQuiver", v: DerivedVertex) -> DerivedVertex:
    """The cluster identification: inverse translation after one shift."""
    return tau_d_inverse(arq, shift(v))


def orbit_shift_inverse(arq: "ARQuiver", v: DerivedVertex) -> DerivedVertex:
    return shift(tau_d(arq, v), -1)


def in_fundamental_domain(v: DerivedVertex) -> bool:
    return v.shift == 0 or (v.shift == 1 and v.level == 0)


def cluster_normalize(arq: "ARQuiver", order: int, v: DerivedVertex) -> ClusterRep:
    """Reduce to the fundamental-domain representative of the orbit.

    Returns ``(rep, p)`` with ``p`` applications of the identification
    sending ``rep`` to ``v``.  A power of ``order`` identifications moves
    a coordinate exactly two shifts plus one period up, which gives the
    coarse reduction; the remainder is walked step by step.  A position
    off the quiver's orbits raises ``PositionOutOfRangeError``.
    """
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


def cluster_count(arq: "ARQuiver", order: int) -> int:
    """Number of cluster-category objects: domain size, doubly computed."""
    size = sum(arq.m) + 2 * arq.n  # every vertex, and each shifted projective
    if 2 * size != arq.n * (order + 2):
        raise CrossCheckFailedError(
            f"fundamental domain has {size} objects, expected n(|C|+2)/2"
        )
    return size

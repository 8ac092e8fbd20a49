"""Coxeter transformation on the Grothendieck group, and its order.

The transformation ``C`` sends each projective dimension vector to minus
the matching injective one.  Both inverse matrices are read off the
ext-quiver: the inverse Cartan matrix of a hereditary algebra is
``E - A`` (its Euler form; ``A`` holds the first valuation component of
each arrow ``i -> j`` in row ``j``, column ``i``), and the inverse of the
injective matrix is ``E - B`` (``B`` holds the second component in row
``i``, column ``j``).  Both are certified on the knitted modules, one
sparse product per vector, before ``C = -Inj * (E - A)`` is formed column
by column.  All arithmetic uses Python integers, so no overflow is
possible.

The order is read off the knitted translation orbits, not off matrix
powers.  On a non-projective ``v``, ``C * dim v = dim tau v``, checked
at every vertex as ``(E - A) * dim v = -(E - B) * dim tau v``; on a
projective, ``C * P_i = -I_i``.  So ``C`` walks ``P_i`` down the orbit
of ``j = rho(i)`` with the sign flipped, on to ``I_j`` and down the orbit
of ``i`` back to ``P_i``: the orbit of ``P_i`` is the ``m(i) + m(j) + 2``
signed vectors ``dim (r, i)`` and ``-dim (r, j)``, and when they are
pairwise distinct no smaller power fixes ``P_i``.  The projectives form a basis, so the
order of ``C`` is the least common multiple of the orbit lengths.  It
depends only on the underlying diagram, never on the orientation, and
must equal the per-family value of ``table_order`` (the Coxeter number
h); `order_identity_check` ties it to the orbit-length identity again.

The orbit checks run on the ``n`` coordinate rows of all the vectors at
once (:func:`_orbit_lengths`); only when they do not all pass are the
orbits walked one by one (:func:`_walk_orbits`), to name the first
failure.  A row is one int with entry ``p`` in lane ``p``: the exact
integer ``sum(x[p] << bits * p)``.  Sums and multiples of rows are the
rows of the sums and multiples, and every lane of a row sum reads
faithfully once biased by half a lane, as the lanes are wide enough for
the largest sum that entries in ``0..255`` can give.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain
from math import lcm
from typing import TYPE_CHECKING

from .dynkin import DynkinClass
from .errors import CrossCheckFailedError, OrderBoundExceededError, SingularCartanError
from .repetitive import ZVertex

if TYPE_CHECKING:
    from .ar_quiver import ARQuiver

Matrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class CoxeterData:
    cartan: Matrix  # column i is the dimension vector of the i-th projective
    inj: Matrix  # column i is the dimension vector of the i-th injective
    matrix: Matrix  # sends column i of cartan to minus column i of inj
    order: int


def _minus(terms: list[tuple[int, int, int]], x: tuple[int, ...]) -> list[int]:
    """``x - M x`` for the sparse ``M`` given as ``(row, column, entry)`` terms."""
    y = list(x)
    for r, s, w in terms:
        y[r] -= w * x[s]
    return y


def coxeter_matrix(arq: "ARQuiver") -> CoxeterData:
    """Form the transformation exactly and certify its tabled order."""
    n, orbits = arq.n, arq.orbits
    proj = [orbit[0] for orbit in orbits]
    inj = [orbits[v.base - 1][v.level] for v in map(arq.injective, range(1, n + 1))]
    lower = [(a.dst - 1, a.src - 1, a.val[0]) for a in arq.quiver.arrows]  # A
    upper = [(a.src - 1, a.dst - 1, a.val[1]) for a in arq.quiver.arrows]  # B
    units = [[int(i == j) for i in range(n)] for j in range(n)]

    for j in range(n):
        if _minus(lower, proj[j]) != units[j]:
            raise SingularCartanError(
                f"projective {j + 1} disagrees with the ext-quiver: "
                "E - A does not invert the Cartan matrix"
            )
        if _minus(upper, inj[j]) != units[j]:
            raise SingularCartanError(
                f"injective {j + 1} disagrees with the ext-quiver: "
                "E - B does not invert the injective matrix"
            )
    # Column j of C is -I_j plus val[0] * I_d for each arrow j -> d.
    columns = [[-x for x in column] for column in inj]
    for d, j, w in lower:
        columns[j] = [c + w * x for c, x in zip(columns[j], inj[d])]

    lengths = _orbit_lengths(arq, lower, upper)
    if lengths is None:
        lengths = _walk_orbits(arq, lower, upper)  # raises with the witness
    order, h = lcm(*lengths), table_order(arq.dynkin)
    where = f"for {arq.dynkin.name} (h = {h})"
    if h % order:
        raise OrderBoundExceededError(f"coxeter: C^{h} != I {where}")
    if order < h:
        # C^(h/p) = I exactly when p divides h / order; name the least such p.
        p = next(p for p in range(2, h + 1) if h // order % p == 0)
        raise OrderBoundExceededError(f"coxeter: C^{h // p} = I {where}")
    return CoxeterData(tuple(zip(*proj)), tuple(zip(*inj)), tuple(zip(*columns)), order)


def _orbit_lengths(
    arq: "ARQuiver", lower: list[tuple[int, int, int]], upper: list[tuple[int, int, int]]
) -> list[int] | None:
    """The signed orbit lengths when every orbit passes :func:`_walk_orbits`,
    read off the coordinate rows; ``None`` when any orbit may fail.

    The vectors are laid end to end as ``bytes``, orbit by orbit, and each
    coordinate row is cut out by striding into one int, entry ``p`` in
    lane ``p`` (see the module docstring).  So ``(E - A) * dim v +
    (E - B) * dim tau v`` is formed for every vertex at once, one big-int
    multiply-add per arrow term, and must vanish in every lane that does
    not start an orbit.  A signed orbit ``dim (r, i)``, ``-dim (r, rho^-1(i))``
    is distinct when all vectors are distinct, non-zero and non-negative:
    no such vector is the negative of another.  An entry outside
    ``0..255``, or not an int, leaves the orbits to the walk.
    """
    n, rho = arq.n, arq.rho
    sizes = list(map(len, arq.orbits))
    try:
        vectors = list(map(bytes, chain.from_iterable(arq.orbits)))
    except (TypeError, ValueError):
        return None
    distinct = set(vectors)
    if len(distinct) != len(vectors) or bytes(n) in distinct:
        return None
    count, data = len(vectors), b"".join(vectors)
    del vectors, distinct
    # The terms of row r: (column, weight) of A and of B.
    terms: list[tuple[list, list]] = [([], []) for _ in range(n)]
    for r, s, w in lower:
        terms[r][0].append((s, w))
    for r, s, w in upper:
        terms[r][1].append((s, w))
    # A lane of a row sum is at most 255 * (2 + the row's weights) in size;
    # a lane of `width` bytes holds it signed.
    reach = 255 * max(2 + sum(abs(w) for _, w in a + b) for a, b in terms)
    width = reach.bit_length() // 8 + 1
    rows = []
    for c in range(n):
        lanes = bytearray(width * count)
        lanes[::width] = data[c::n]
        rows.append(int.from_bytes(lanes, "little"))
    # Lane p of a sum is row r of (E - A) * x_p plus (E - B) * x_(p-1), for
    # p = 0..count; the lanes that start an orbit or lie past the last
    # vector are not checked.  Biased by the top bit of every lane, a sum
    # passes when each checked lane reads as that bit alone.
    sign = int.from_bytes((bytes(width - 1) + b"\x80") * (count + 1), "little")
    checked = bytearray(b"\xff" * (width * (count + 1)))
    for p in chain([0], accumulate(sizes)):  # the orbit starts, then the top lane
        checked[p * width : (p + 1) * width] = bytes(width)
    mask = int.from_bytes(checked, "little")
    zero = sign & mask
    for r, (a, b) in enumerate(terms):
        now = back = rows[r]
        for s, w in a:
            now -= w * rows[s]
        for s, w in b:
            back -= w * rows[s]
        if (now + (back << 8 * width) + sign) & mask != zero:
            return None

    partner = [0] * (n + 1)  # partner[i] = rho^-1(i)
    for i, j in enumerate(rho, 1):
        partner[j] = i
    if any(partner[partner[i]] != i for i in range(1, n + 1)):
        return None
    return [sizes[i - 1] + sizes[partner[i] - 1] for i in range(1, n + 1)]


def _walk_orbits(
    arq: "ARQuiver", lower: list[tuple[int, int, int]], upper: list[tuple[int, int, int]]
) -> list[int]:
    """The signed orbit lengths, orbit by orbit: each orbit's ``C * dim``
    steps, then its closure, raising at the first failure."""
    lengths = []
    for i, orbit in enumerate(map(list, arq.orbits), 1):
        for r in range(1, len(orbit)):
            if _minus(lower, orbit[r]) != [-x for x in _minus(upper, orbit[r - 1])]:
                v = ZVertex(r, i)
                raise CrossCheckFailedError(f"coxeter: C * dim {v} != dim {v.translate()}")
        j = arq.injective(i).base
        orbit += [tuple(-x for x in vector) for vector in arq.orbits[j - 1]]
        if arq.injective(j).base != i or len(set(orbit)) != len(orbit):
            raise CrossCheckFailedError(
                f"coxeter: orbit of projective {i} does not close "
                f"after {len(orbit)} distinct vectors"
            )
        lengths.append(len(orbit))
    return lengths


def table_order(dynkin: DynkinClass) -> int:
    """Orientation-independent order of the transformation, per family."""
    n = dynkin.rank
    if dynkin.family == "A":
        return n + 1
    if dynkin.family in ("B", "C"):
        return 2 * n
    if dynkin.family == "D":
        return 2 * (n - 1)
    if dynkin.family == "E":
        return {6: 12, 7: 18, 8: 30}[n]
    if dynkin.family == "F":
        return 12
    return 6  # G2


def order_identity_check(arq: "ARQuiver", cd: CoxeterData) -> bool:
    """Order equals the table value and every paired orbit-length sum."""
    return not _order_identity_witness(arq, cd)


def _order_identity_witness(arq: "ARQuiver", cd: CoxeterData) -> str:
    """Why :func:`order_identity_check` fails, or ``""`` when it holds:
    an order off the table value, else the first ``i`` in ``1..n`` whose
    orbit-length sum is off."""
    h = table_order(arq.dynkin)
    if cd.order != h:
        return f"order {cd.order} is not h = {h} for {arq.dynkin.name}"
    for i in arq.quiver.vertices():
        total = arq.m_of(i) + arq.m_of(arq.rho_of(i)) + 2
        if total != cd.order:
            return f"m({i}) + m(rho({i})) + 2 = {total}, not |C| = {cd.order}"
    return ""

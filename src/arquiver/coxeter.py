"""Coxeter transformation on the Grothendieck group, and its order.

The transformation ``C`` sends each projective dimension vector to minus
the matching injective one.  Both inverse matrices are read off the
ext-quiver: the inverse Cartan matrix of a hereditary algebra is
``E - A`` (its Euler form; ``A`` holds the first valuation component of
each arrow ``i -> j`` in row ``j``, column ``i``), and the inverse of the
injective matrix is ``E - B`` (``B`` holds the second component in row
``i``, column ``j``).  Both are certified on the knitted modules, one
sparse product per vector, before ``C = -Inj * (E - A)`` is formed
column by column; the same test decides ``check``'s two recursion lines,
as ``P_i = e_i + sum a * P_j`` over the arrows ``i -> j`` says
``P * (E - A) = E``, and ``E - A`` is unitriangular in a topological
order.  All arithmetic uses Python integers, so no overflow is possible.

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
must equal the Coxeter number h of the type, :func:`~arquiver.dynkin.table_order`;
`order_identity_check` ties it to the orbit-length identity again.

The orbit checks run on the ``n`` coordinate rows of all the vectors at
once (:func:`_orbit_lengths`), which names the first orbit that fails
from its failing lanes: each row is widened into one int, vertex ``p``
in lane ``p`` (:func:`~arquiver.ar_quiver._widen`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .ar_quiver import ARQuiver, _lane_width, _lowest_lane, _widen
from .dynkin import table_order
from .errors import CrossCheckFailedError, OrderBoundExceededError, SingularCartanError
from .repetitive import ZVertex

Matrix = tuple[tuple[int, ...], ...]
Terms = list[tuple[int, int, int]]  # a sparse matrix as (row, column, entry)


@dataclass(frozen=True)
class CoxeterData:
    cartan: Matrix  # column i is the dimension vector of the i-th projective
    inj: Matrix  # column i is the dimension vector of the i-th injective
    matrix: Matrix  # sends column i of cartan to minus column i of inj
    order: int


def _minus(terms: Terms, x: tuple[int, ...]) -> list[int]:
    """``x - M x`` for the sparse ``M`` given as ``(row, column, entry)`` terms."""
    y = list(x)
    for r, s, w in terms:
        y[r] -= w * x[s]
    return y


def _terms(arq: ARQuiver) -> tuple[Terms, Terms]:
    """The terms of ``A`` and of ``B``, the ext-quiver's two valuation sides."""
    lower = [(a.dst - 1, a.src - 1, a.val[0]) for a in arq.quiver.arrows]  # A
    upper = [(a.src - 1, a.dst - 1, a.val[1]) for a in arq.quiver.arrows]  # B
    return lower, upper


def _uninverted(terms: Terms, vectors: list[bytes]) -> int:
    """The first ``j`` in ``1..n`` with ``(E - M) x_j != e_j``, or 0."""
    for j, x in enumerate(vectors, start=1):
        y = _minus(terms, x)
        y[j - 1] -= 1
        if any(y):
            return j
    return 0


def coxeter_matrix(arq: ARQuiver) -> CoxeterData:
    """Form the transformation exactly and certify its tabled order."""
    n = arq.n
    proj = [arq.vector(arq.projective(i)) for i in range(1, n + 1)]
    inj = [arq.vector(arq.injective(l)) for l in range(1, n + 1)]
    lower, upper = _terms(arq)
    p, i = _uninverted(lower, proj), _uninverted(upper, inj)
    if p and not 0 < i < p:  # projective j is certified before injective j
        raise SingularCartanError(
            f"projective {p} disagrees with the ext-quiver: "
            "E - A does not invert the Cartan matrix"
        )
    if i:
        raise SingularCartanError(
            f"injective {i} disagrees with the ext-quiver: "
            "E - B does not invert the injective matrix"
        )
    # Column j of C is -I_j plus val[0] * I_d for each arrow j -> d.
    columns = [[-x for x in column] for column in inj]
    for d, j, w in lower:
        columns[j] = [c + w * x for c, x in zip(columns[j], inj[d])]

    order, h = lcm(*_orbit_lengths(arq, lower, upper)), table_order(arq.dynkin)
    where = f"for {arq.dynkin.name} (h = {h})"
    if h % order:
        raise OrderBoundExceededError(f"coxeter: C^{h} != I {where}")
    if order < h:
        # C^(h/p) = I exactly when p divides h / order; name the least such p.
        p = next(p for p in range(2, h + 1) if h // order % p == 0)
        raise OrderBoundExceededError(f"coxeter: C^{h // p} = I {where}")
    return CoxeterData(tuple(zip(*proj)), tuple(zip(*inj)), tuple(zip(*columns)), order)


def _orbit_lengths(arq: ARQuiver, lower: Terms, upper: Terms) -> list[int]:
    """The signed orbit lengths, read off the coordinate rows; raises
    :class:`CrossCheckFailedError` at the first orbit, in base order, with
    a ``C * dim`` step that fails (its lowest such vertex), else that does
    not close.

    Coordinate row ``c``, ``arq.layout[c::n]``, is widened into one int,
    vertex ``p`` in lane ``p``.  So ``dim v + dim tau v`` and
    ``A * dim v + B * dim tau v`` are formed for every vertex at once, one
    big-int multiply-add per arrow term, and must agree in every lane that
    does not start an orbit; a row is held only from the first to the last
    row sum that reads it.  The signed orbit of ``P_i``,
    ``dim (r, i)`` and ``-dim (r, j)`` for ``j = rho^-1(i)``, closes when
    ``rho^-1(j) = i`` and both orbits hold distinct vectors, not both the
    zero vector: no entry is negative, so ``x = -y`` only when both are zero.
    """
    n, data, starts = arq.n, arq.layout, arq.starts
    count = starts[-1]
    # The terms of row r: (column, weight) of A and of B.
    terms: list[tuple[list, list]] = [([], []) for _ in range(n)]
    for r, s, w in lower:
        terms[r][0].append((s, w))
    for r, s, w in upper:
        terms[r][1].append((s, w))
    last = list(range(n))  # the last row sum that reads each row
    for r, s, _ in lower + upper:
        last[s] = max(last[s], r)
    width = _lane_width(max([2, *(sum(w for _, w in a + b) for a, b in terms)]))
    # Lane p of a sum is row r of x_p + x_(p-1), or of A * x_p + B * x_(p-1),
    # for p = 0..count; the lanes that start an orbit or lie past the last
    # vector are not checked.
    checked = bytearray(b"\x01") * (count + 1)
    for p in starts:  # the orbit starts, then the top lane
        checked[p] = 0
    mask = _widen(checked, width) * ((1 << 8 * width) - 1)
    rows: dict[int, int] = {}
    failing = 0  # the checked lanes where any row's two sums differ
    for r, (a, b) in enumerate(terms):
        for c in (r, *(s for s, _ in a + b)):
            if c not in rows:
                rows[c] = _widen(data[c::n], width)
        now = back = 0
        for s, w in a:
            now += w * rows[s]
        for s, w in b:
            back += w * rows[s]
        failing |= ((rows[r] + (rows[r] << 8 * width)) ^ (now + (back << 8 * width))) & mask
        for c in [c for c in rows if last[c] <= r]:
            del rows[c]

    p = _lowest_lane(failing, width) if failing else count
    distinct, zeros = [], []  # whether each orbit's vectors are distinct, and one is zero
    for i in range(n):
        orbit = {data[n * q : n * (q + 1)] for q in range(starts[i], starts[i + 1])}
        distinct.append(len(orbit) == starts[i + 1] - starts[i])
        zeros.append(bytes(n) in orbit)
    lengths = []
    for i in range(1, n + 1):
        if p < starts[i]:  # the lowest failing lane is in orbit i
            v = ZVertex(p - starts[i - 1], i)
            raise CrossCheckFailedError(f"coxeter: C * dim {v} != dim {v.translate()}")
        j = arq.rho_inverse(i)
        lengths.append(starts[i] - starts[i - 1] + starts[j] - starts[j - 1])
        if arq.rho_inverse(j) != i or not distinct[i - 1] or not distinct[j - 1] or (
            zeros[i - 1] and zeros[j - 1]
        ):
            raise CrossCheckFailedError(
                f"coxeter: orbit of projective {i} does not close "
                f"after {lengths[-1]} distinct vectors"
            )
    return lengths


def order_identity_check(arq: ARQuiver, cd: CoxeterData) -> bool:
    """Order equals the table value and every paired orbit-length sum."""
    return not _order_identity_witness(arq, cd.order)


def _order_identity_witness(arq: ARQuiver, order: int) -> str:
    """Why :func:`order_identity_check` fails for ``order``, or ``""``: an
    order off the table value, else the first ``i`` whose orbit-length sum is off."""
    h = table_order(arq.dynkin)
    if order != h:
        return f"order {order} is not h = {h} for {arq.dynkin.name}"
    for i in arq.quiver.vertices():
        total = arq.m_of(i) + arq.m_of(arq.rho_of(i)) + 2
        if total != order:
            return f"m({i}) + m(rho({i})) + 2 = {total}, not |C| = {order}"
    return ""

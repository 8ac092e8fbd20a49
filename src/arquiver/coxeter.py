"""Coxeter transformation on the Grothendieck group, and its order.

The transformation is pinned down by sending each projective dimension
vector to minus the matching injective one.  Solving ``C * Cartan =
-Inj`` is done exactly over the integers: the inverse Cartan matrix of a
hereditary algebra is ``E - A``, read off the ext-quiver (its Euler
form; ``A`` holds the first valuation component of each arrow ``i -> j``
in row ``j``, column ``i``), and it is certified on the knitted
projectives before ``C = -Inj * (E - A)`` is formed.  All arithmetic
uses Python integers, so no overflow is possible.

The order of the transformation depends only on the underlying diagram,
never on the orientation; ``table_order`` holds the per-family values
(the Coxeter number h).  The solve certifies that the matrix has exactly
that order, ``C^h = I`` and ``C^(h/p) != I`` for each prime ``p``
dividing ``h``, by repeated squaring, and `order_identity_check` ties the
order to the orbit-length identity ``m(i) + m(rho(i)) + 2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import TYPE_CHECKING, Iterable

from .errors import OrderBoundExceededError, SingularCartanError
from .dynkin import DynkinClass

if TYPE_CHECKING:
    from .ar_quiver import ARQuiver
    from .derived import DerivedVertex

Matrix = tuple[tuple[int, ...], ...]


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    columns = tuple(zip(*b))
    return tuple(
        tuple(sum(map(mul, row, col)) for col in columns) for row in a
    )


def mat_vec(a: Matrix, v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in a)


def mat_neg(a: Matrix) -> Matrix:
    return tuple(tuple(-x for x in row) for row in a)


def mat_pow(a: Matrix, t: int) -> Matrix:
    """``a`` to the power ``t >= 0``, by repeated squaring."""
    result = identity_matrix(len(a))
    while t:
        if t & 1:
            result = mat_mul(result, a)
        t >>= 1
        if t:
            a = mat_mul(a, a)
    return result


def _prime_factors(h: int) -> list[int]:
    primes, p = [], 2
    while p * p <= h:
        if h % p == 0:
            primes.append(p)
            while h % p == 0:
                h //= p
        p += 1
    if h > 1:
        primes.append(h)
    return primes


@dataclass(frozen=True)
class CoxeterData:
    cartan: Matrix  # column i is the dimension vector of the i-th projective
    inj: Matrix  # column i is the dimension vector of the i-th injective
    matrix: Matrix  # sends column i of cartan to minus column i of inj
    order: int


def coxeter_matrix(arq: "ARQuiver") -> CoxeterData:
    """Solve for the transformation exactly and certify its tabled order."""
    n = arq.n
    cartan = tuple(
        tuple(arq.dims[arq.projective(j + 1)][i] for j in range(n)) for i in range(n)
    )
    inj = tuple(
        tuple(arq.dims[arq.injective(j + 1)][i] for j in range(n)) for i in range(n)
    )

    # Euler form E - A: the first valuation component of arrow i -> j at (j, i).
    below = {(a.dst - 1, a.src - 1): a.val[0] for a in arq.quiver.arrows}
    cartan_inv = tuple(
        tuple(int(i == j) - below.get((i, j), 0) for j in range(n)) for i in range(n)
    )
    ident = identity_matrix(n)
    for j, column in enumerate(zip(*mat_mul(cartan_inv, cartan))):
        if column != ident[j]:
            raise SingularCartanError(
                f"projective {j + 1} disagrees with the ext-quiver: "
                "E - A does not invert the Cartan matrix"
            )
    # (E - A) * Cartan = I, so C * Cartan = -Inj holds by construction.
    matrix = mat_mul(mat_neg(inj), cartan_inv)

    order = table_order(arq.dynkin)
    where = f"for {arq.dynkin.name} (h = {order})"
    if mat_pow(matrix, order) != ident:
        raise OrderBoundExceededError(f"coxeter: C^{order} != I {where}")
    for p in _prime_factors(order):
        if mat_pow(matrix, order // p) == ident:
            raise OrderBoundExceededError(f"coxeter: C^{order // p} = I {where}")
    return CoxeterData(cartan, inj, matrix, order)


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
    if cd.order != table_order(arq.dynkin):
        return False
    return all(
        arq.m_of(i) + arq.m_of(arq.rho_of(i)) + 2 == cd.order
        for i in arq.quiver.vertices()
    )


def signed_dim(arq: "ARQuiver", v: "DerivedVertex") -> tuple[int, ...]:
    """Dimension vector of a shifted stalk: the sign alternates with the shift."""
    base = arq.dims[v.position]
    sign = -1 if v.shift % 2 else 1
    return tuple(sign * x for x in base)


def derived_dim_check(
    arq: "ARQuiver",
    cd: CoxeterData,
    samples: Iterable[tuple["DerivedVertex", int]],
) -> bool:
    """Translate-then-measure equals measure-then-transform, on samples.

    For each ``(vertex, t)``: apply the derived translation ``t`` times
    (backwards for negative ``t``) and compare the signed dimension
    vector with the ``t``-th matrix power applied to the original one.
    """
    from .derived import tau_d, tau_d_inverse

    inverse = mat_pow(cd.matrix, cd.order - 1)
    for v, t in samples:
        w = v
        for _ in range(abs(t)):
            w = tau_d(arq, w) if t > 0 else tau_d_inverse(arq, w)
        step = cd.matrix if t > 0 else inverse
        vec = signed_dim(arq, v)
        for _ in range(abs(t)):
            vec = mat_vec(step, vec)
        if vec != signed_dim(arq, w):
            return False
    return True

"""Independent brute-force validation of a built translation quiver.

Everything here recomputes by a different route what the builder derived
from hammocks: projective and injective dimension vectors by direct
recursion over the ext-quiver, mesh additivity at every vertex, and the
path statistics of the quiver itself.  The projective-side recursion
multiplies by the *first* valuation component, the injective-side one by
the *second*; on non-simply-laced input these differ, so the
dimension-vector agreement checks pin the convention.

Each check that reads the whole quiver takes its verdict on packed
arrays, and the pass that takes it names its first witness: the mesh
relations on orbits of ``arq.layout`` widened into ints
(:func:`_mesh_witness`); the path audit, an O(V + E) certificate
(:func:`_certify`), on each arrow's ends numbered by position in
``arq.vertices``: when it holds, parallel paths share one length and a
sectional path is the only path between its ends.  No entry is
negative: ``ARQuiver`` holds one byte per entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, chain, count, repeat
from operator import add, attrgetter, mul, ne, sub
from typing import Callable, Iterator

from .ar_quiver import ARQuiver, _closed_form_rho_m, _count_identity, _orbit_index_witness
from .derived import cluster_count, derived_nilpotency
from .errors import ArquiverError, CrossCheckFailedError
from .quiver import ValuedQuiver
from .repetitive import ZVertex, mesh_inputs


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        suffix = f" ({self.detail})" if self.detail and not self.passed else ""
        return f"{self.name}: {status}{suffix}"


@dataclass
class OracleReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(CheckResult(name, passed, detail))


def _unit(n: int, i: int) -> tuple[int, ...]:
    return (0,) * (i - 1) + (1,) + (0,) * (n - i)


def _add(u: tuple[int, ...], v: tuple[int, ...], scale: int) -> tuple[int, ...]:
    return tuple(map(add, u, v if scale == 1 else map(mul, v, repeat(scale))))


def recursive_projective_dims(q: ValuedQuiver) -> dict[int, tuple[int, ...]]:
    """Projective dimension vectors by recursion from the sinks.

    The vector at ``i`` is the unit vector plus, for every arrow
    ``i -> j`` with valuation ``(a, b)``, ``a`` times the vector at ``j``.
    """
    dims: dict[int, tuple[int, ...]] = {}

    def compute(i: int) -> tuple[int, ...]:
        if i not in dims:
            vec = _unit(q.n, i)
            for a in q.out_arrows(i):
                vec = _add(vec, compute(a.dst), a.val[0])
            dims[i] = vec
        return dims[i]

    for i in q.vertices():
        compute(i)
    return dims


def recursive_injective_dims(q: ValuedQuiver) -> dict[int, tuple[int, ...]]:
    """Injective dimension vectors by recursion from the sources.

    The vector at ``l`` is the unit vector plus, for every arrow
    ``j -> l`` with valuation ``(a, b)``, ``b`` times the vector at ``j``:
    the projective recursion on the opposite quiver, where that arrow is
    ``l -> j`` with valuation ``(b, a)``.
    """
    return recursive_projective_dims(q.opposite())


def verify_mesh(arq: ARQuiver) -> OracleReport:
    """Check every mesh relation, with the first failure named by
    :func:`_mesh_witness`, and both boundary recursions."""
    report = OracleReport()
    witness = _mesh_witness(arq)
    report.add("mesh-additivity", not witness, witness)

    vertices = arq.quiver.vertices()
    for name, position, recursive in (
        ("projective-recursion", arq.projective, recursive_projective_dims(arq.quiver)),
        ("injective-recursion", arq.injective, recursive_injective_dims(arq.quiver)),
    ):
        pairs = zip(vertices, map(position, vertices))  # the first, in 1..n, whose vector differs
        bad = next((p for i, p in pairs if any(map(ne, arq.vector(p), recursive[i]))), None)
        detail = "" if bad is None else f"dimension vectors differ at {bad}"
        report.add(name, bad is None, detail)
    return report


def _mesh_witness(arq: ARQuiver) -> str:
    """Where the first mesh relation in ``arq.vertices`` order fails, or
    ``""``: at the first failing vertex past level 0, its first mesh input
    in mesh-table order past the top of its orbit, else the vertex itself.

    Each orbit's stretch of ``arq.layout`` is widened into one int, entry
    ``p`` in lane ``p``, each lane wide enough for any mesh sum of bytes
    under the table's weights.  Orbit ``b``'s levels ``1..m(b)`` plus its
    levels ``0..m(b) - 1`` must equal the sum of ``w`` times levels
    ``1 + offset .. m(b) + offset`` of each input ``(offset, src, w)``:
    one shift and mask per input, one ``==`` per orbit.  An orbit is held
    packed only while a base whose mesh reads it is to come.  No lane
    carries, so the lowest bit where the sides differ lies in the first
    level that fails; an input leaves its orbit from level
    ``m(src) - offset + 1`` on.
    """
    m, layout, n = arq.m, arq.layout, arq.n
    meshes = mesh_inputs(arq.quiver.opposite())
    reach = 255 * max([2, *(sum(w for *_, w in inputs) for inputs in meshes.values())])
    width = (reach.bit_length() + 7) // 8
    bits = 8 * width * n  # one level of an orbit
    starts = [0, *accumulate(n * (top + 1) for top in m)]  # of each orbit's bytes
    packed: dict[int, int] = {}
    for base in range(1, n + 1):
        read = [base, *(src for _, src, _ in meshes[base])]
        for x in read:
            if x not in packed:
                data = layout[starts[x - 1] : starts[x]]
                lanes = bytearray(width * len(data))
                lanes[::width] = data
                packed[x] = int.from_bytes(lanes, "little")
        top = m[base - 1]
        mask, sums, in_range = (1 << bits * top) - 1, 0, True
        for offset, src, w in meshes[base]:
            in_range &= top + offset <= m[src - 1]
            sums += w * (packed[src] >> bits * (1 + offset) & mask)
        lhs = (packed[base] >> bits) + (packed[base] & mask)
        if lhs != sums or not in_range:
            diff = lhs ^ sums
            level = ((diff & -diff).bit_length() - 1) // bits + 1 if diff else top + 1
            leaves = [(m[src - 1] - offset + 1, offset, src) for offset, src, _ in meshes[base]]
            first, offset, src = min(leaves, default=(top + 1, 0, 0))
            if first <= level:
                u, v = ZVertex(first + offset, src), ZVertex(first, base)
                return f"in-arrow source {u} of {v} out of range"
            return f"mesh relation fails at {ZVertex(level, base)}"
        for x in read:  # no later base reads x
            if max([x, *(src for _, src, _ in meshes[x])]) <= base:
                del packed[x]
    return ""


def _reason(exc: Exception) -> str:
    """The detail of a check that ``exc`` stopped."""
    if isinstance(exc, ArquiverError):
        return str(exc)
    return f"{type(exc).__name__}: {exc}"


def _numbering(arq: ARQuiver) -> tuple[Callable[[ZVertex], int], list[int], list[int]]:
    """Where a vertex sits in ``arq.vertices``, and where each arrow's tail
    and head sit, in arrow order.

    Raises ``KeyError(v)`` for the first arrow end ``v`` off the orbits,
    each arrow's head before its tail.
    """
    position = dict(zip(arq.vertices, count())).__getitem__
    try:
        tails = list(map(position, map(attrgetter("src"), arq.arrows)))
        return position, tails, list(map(position, map(attrgetter("dst"), arq.arrows)))
    except KeyError:
        for za in arq.arrows:  # name the first loose end
            position(za.dst), position(za.src)
        raise


def _certify(arq: ARQuiver, tails: list[int], heads: list[int]) -> list[int]:
    """A potential proving the path audit passes.

    The potential is indexed by position in ``arq.vertices``, as ``tails``
    and ``heads`` are: phi(v) = 2 * level(v) + c(base(v)), where c(x) is
    the forward less the backward steps of the walk ``1 .. x`` in the
    opposite quiver.  Whole arrays check, in O(V + E):

    (a) phi(dst) = phi(src) + 1 on every arrow;
    (b) phi(v) - 2 * level(v) depends only on the base of ``v``, which
        holds by construction;
    (c) every arrow joins two bases adjacent in the ext-quiver, a tree;
    (d) no vertex has the same head twice.

    When they fail, the arrows are walked to raise :class:`CrossCheckFailedError`
    naming the first arrow that breaks (d), (a) or (c), tails in
    ``arq.vertices`` order and each tail's heads in arrow order, a doubled
    head before the others.

    Why it suffices (the covering argument of Bongartz-Gabriel, "Covering
    spaces in representation theory", Invent. Math. 1982).  By (a) every
    path ``u .. w`` has length phi(w) - phi(u), so parallel paths share
    one length, and no path is an oriented cycle.  By (a)-(c) an arrow
    out of ``(s, x)`` to base ``y`` is the plane's plain arrow to ``(s, y)``
    or its star arrow to ``(s + 1, y)``, whichever raises phi by one, and
    by (d) it is the only arrow between its ends; so a path is determined
    by its start and the walk it folds onto in the tree.  Two arrows
    there and back raise phi by two on one base, so they climb exactly
    one level: a hook (``w`` the inverse translate of the vertex two
    before it) is exactly a backtrack of that walk.  A sectional path
    therefore folds onto a reduced walk, which in a tree is the unique
    geodesic between its ends.  Any other path between the same ends has
    the same length, so its walk has the geodesic's length and is that
    geodesic, and the two paths coincide.
    """
    vertices, q = arq.vertices, arq.quiver
    steps = q.opposite()._forward_steps
    adjacent = {(a.src, a.dst) for a in q.arrows}
    adjacent |= {(y, x) for x, y in adjacent}
    sizes = [top + 1 for top in arq.m]
    c = [steps[1][x] - steps[x][1] for x in q.vertices()]
    bases = list(chain.from_iterable(map(repeat, q.vertices(), sizes)))
    tops = map(add, c, map(add, sizes, sizes))  # past the top of each orbit
    phi = list(chain.from_iterable(map(range, c, tops, repeat(2))))
    if _certified(tails, heads, phi, bases, adjacent):
        return phi
    successors: list[list[int]] = [[] for _ in vertices]
    for v, w in zip(tails, heads):
        successors[v].append(w)
    for v, out in enumerate(successors):
        x, rise = bases[v], phi[v] + 1
        if len(set(out)) != len(out):  # (d)
            w = next(w for k, w in enumerate(out) if w in out[:k])
            raise _uncertified(vertices[v], vertices[w], "is doubled")
        for w in out:
            if phi[w] != rise:  # (a)
                why = "does not raise 2 * level + c(base) by one"
                raise _uncertified(vertices[v], vertices[w], why)
            if (x, bases[w]) not in adjacent:  # (c)
                why = f"joins bases {x} and {bases[w]}, which are not adjacent"
                raise _uncertified(vertices[v], vertices[w], why)
    return phi


def _certified(
    tails: list[int], heads: list[int], phi: list[int], bases: list[int], adjacent: set
) -> bool:
    """Conditions (a), (c) and (d) of :func:`_certify`, on whole arrays."""
    rises = set(map(sub, map(phi.__getitem__, heads), map(phi.__getitem__, tails)))
    joined = zip(map(bases.__getitem__, tails), map(bases.__getitem__, heads))
    doubled = len(set(zip(tails, heads))) != len(heads)
    return rises <= {1} and adjacent.issuperset(joined) and not doubled


def _uncertified(u: ZVertex, w: ZVertex, why: str) -> CrossCheckFailedError:
    """The error naming the arrow ``u -> w`` that breaks the certificate."""
    return CrossCheckFailedError(f"no path certificate: arrow {u} -> {w} {why}")


def _spans(
    position: Callable[[ZVertex], int],
    tails: list[int],
    heads: list[int],
    phi: list[int],
    ends: list[tuple[ZVertex, ZVertex]],
) -> list[int | None]:
    """The length of the paths from ``a`` to ``b`` for each pair of
    ``ends``, or ``None`` where no path joins the pair.

    Under the certificate every such path is phi(b) - phi(a) long; one
    sweep over the arrows in decreasing phi of their tails decides
    reachability for every pair at once.  Vertex ``v`` carries a bitmask
    with bit ``k`` set when ``v`` is the ``b`` of pair ``k`` or a successor
    of ``v`` carries bit ``k``, that is, when a path leads from ``v`` to
    that ``b``; phi rises by one along every arrow, so a head's arrows are
    swept before those into it.
    """
    located = [(position(a), position(b)) for a, b in ends]
    reach = [0] * len(phi)
    for k, (_, stop) in enumerate(located):
        reach[stop] |= 1 << k
    tail_phi = list(map(phi.__getitem__, tails))
    swept = sorted(range(len(tails)), key=tail_phi.__getitem__, reverse=True)
    for v, w in zip(map(tails.__getitem__, swept), map(heads.__getitem__, swept)):
        reach[v] |= reach[w]
    return [
        phi[stop] - phi[start] if reach[start] >> k & 1 else None
        for k, (start, stop) in enumerate(located)
    ]


def _path_audit(
    arq: ARQuiver, ends: list[tuple[ZVertex, ZVertex]]
) -> tuple[OracleReport, list[int | None]]:
    """Both audit lines, passed, and the :func:`_spans` of ``ends``,
    decided on the arrays of :func:`_numbering`; the arrows are walked
    only to name the witness of a failure.

    Raises :class:`CrossCheckFailedError` from :func:`_certify`, and
    ``KeyError(v)`` for an arrow end ``v`` off the orbits.
    """
    position, tails, heads = _numbering(arq)
    phi = _certify(arq, tails, heads)
    report = OracleReport()
    report.add("parallel-path-lengths", True)
    report.add("sectional-uniqueness", True)
    return report, _spans(position, tails, heads, phi, ends)


def audit_paths(arq: ARQuiver) -> OracleReport:
    """Parallel-path and sectional-uniqueness audit.

    All parallel paths must share one length, and the endpoints of a
    sectional path must be joined by no other path.  The O(V + E)
    certificate of :func:`_certify` proves both, so the report passes;
    when the certificate fails, :class:`CrossCheckFailedError` names the
    first uncertified arrow.
    """
    return _path_audit(arq, [])[0]


def _vectors(arq: ARQuiver) -> Iterator[bytes]:
    """The vectors in ``arq.vertices`` order, as slices of the layout."""
    n, layout = arq.n, arq.layout
    return (layout[p : p + n] for p in range(0, len(layout), n))


def _repeated_vector(arq: ARQuiver) -> str:
    """The first vertex, in ``arq.vertices`` order, whose vector an earlier one holds."""
    first: dict[bytes, ZVertex] = {}
    pairs = zip(arq.vertices, _vectors(arq))
    v, u = next((v, u) for v, x in pairs if (u := first.setdefault(x, v)) is not v)
    return f"{v} repeats the vector of {u}"


def _non_positive_vector(arq: ARQuiver) -> str:
    """The first vertex, in ``arq.vertices`` order, with a zero vector."""
    pairs = zip(arq.vertices, _vectors(arq))
    return f"zero vector at {next(v for v, x in pairs if not any(x))}"


def _distance_witness(lengths: list[int | None], order: int) -> str:
    """The first ``i`` whose paths from projective ``i`` to injective ``i``
    are not ``order - 2`` long, or that has none, or ``""``."""
    for i, d in enumerate(lengths, start=1):
        if d is None:
            return f"no path from projective {i} to injective {i}"
        if d != order - 2:
            return (
                f"projective {i} to injective {i}: shortest path {d}, "
                f"longest {d}, not |C| - 2 = {order - 2}"
            )
    return ""


def _closed_form_witness(arq: ARQuiver, m: tuple[int, ...], rho: tuple[int, ...]) -> str:
    """The first base whose knitted ``(m, rho)`` differs from the closed
    form's ``(m, rho)``."""
    pairs = enumerate(zip(zip(arq.m, arq.rho), zip(m, rho)), start=1)
    i, (knitted, closed) = next((i, pair) for i, pair in pairs if pair[0] != pair[1])
    return f"base {i}: knitted (m, rho) = {knitted}, closed form {closed}"


def run_all(arq: ARQuiver, order: int) -> OracleReport:
    """Full oracle suite plus the global counting identities.

    Each verdict over the whole quiver is taken on packed arrays; only a
    failing one reads further, to name its witness.  The path audit and the
    projective-to-injective lengths come from the certificate of
    :func:`_certify`; when it fails, every check that reads paths fails
    with the first uncertified arrow.  Both ``count-identity`` and
    ``projective-injective-distance`` read those lengths.
    """
    ends = [(arq.projective(i), arq.injective(i)) for i in arq.quiver.vertices()]
    unread = ""  # why the paths could not be read, if they could not
    try:
        audit, lengths = _path_audit(arq, ends)
    except (CrossCheckFailedError, KeyError) as exc:  # an uncertified or a loose arrow
        unread, audit = _reason(exc), OracleReport()
        audit.add("parallel-path-lengths", False, unread)
        audit.add("sectional-uniqueness", False, unread)
    report = verify_mesh(arq)
    report.checks += audit.checks

    def guarded(name: str, fn, reason: str = "") -> None:
        """Run ``fn`` unless ``reason`` says why it cannot run."""
        if reason:
            report.add(name, False, reason)
            return
        try:
            fn()
        except CrossCheckFailedError as exc:
            report.add(name, False, str(exc))
        else:
            report.add(name, True)

    guarded("count-identity", lambda: _count_identity(arq, order, lengths), unread)
    guarded("derived-period", lambda: derived_nilpotency(arq, order))
    guarded("cluster-count", lambda: cluster_count(arq, order))
    witness = _orbit_index_witness(arq)
    report.add("orbit-index-relation", not witness, witness)

    # Read from the path audit, independently of the closed form that
    # ``counts_and_nilpotency`` reads.
    reason = unread or _distance_witness(lengths, order)
    report.add("projective-injective-distance", not reason, reason)

    n, layout = arq.n, arq.layout
    vectors = {layout[p : p + n] for p in range(0, len(layout), n)}
    ok = len(vectors) == len(arq.vertices)
    report.add("distinct-dimension-vectors", ok, "" if ok else _repeated_vector(arq))
    # No entry is negative (see ``ARQuiver``), so positive is no zero vector.
    why = _non_positive_vector(arq) if bytes(n) in vectors else ""
    report.add("positive-dimension-vectors", not why, why)
    # The build's classification, so the quiver is classified once per check.
    closed_form = _closed_form_rho_m(arq.quiver, arq.dynkin)
    ok = (arq.m, arq.rho) == closed_form
    report.add("closed-form-orbits", ok, "" if ok else _closed_form_witness(arq, *closed_form))
    return report

"""Independent brute-force validation of a built translation quiver.

Everything here recomputes by a different route what the builder derived
from hammocks: projective and injective dimension vectors by direct
recursion over the ext-quiver, mesh additivity at every vertex, and the
path statistics of the quiver itself.  The projective-side recursion
multiplies by the *first* valuation component, the injective-side one by
the *second*; on non-simply-laced input these differ, so the
dimension-vector agreement checks pin the convention.

The path audit runs a linear-time certificate first (see
:func:`_certify`): when it holds, every parallel pair of paths shares one
length and every sectional path is the only path between its ends.  Only
when it fails does the exhaustive per-source dynamic program run, to name
a witness; only that fallback computes a topological order.  Both read
one numbering of the vertices, their positions in ``arq.vertices``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, compress, count, repeat
from operator import add, mul, sub
from typing import Callable

from .ar_quiver import ARQuiver, _closed_form_rho_m, _count_identity, _orbit_index_witness
from .derived import cluster_count, derived_nilpotency
from .errors import ArquiverError, CrossCheckFailedError, NotATreeError
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
    """Check every mesh relation, by :func:`_mesh_witness`, and both
    boundary recursions."""
    report = OracleReport()
    witness = _mesh_witness(arq, mesh_inputs(arq.quiver.opposite()))
    report.add("mesh-additivity", not witness, witness)

    orbits, vertices = arq.orbits, arq.quiver.vertices()
    for name, position, recursive in (
        ("projective-recursion", arq.projective, recursive_projective_dims(arq.quiver)),
        ("injective-recursion", arq.injective, recursive_injective_dims(arq.quiver)),
    ):
        pairs = zip(vertices, map(position, vertices))  # the first, in 1..n, whose vector differs
        bad = next((p for i, p in pairs if orbits[p.base - 1][p.level] != recursive[i]), None)
        detail = "" if bad is None else f"dimension vectors differ at {bad}"
        report.add(name, bad is None, detail)
    return report


def _mesh_witness(arq: ARQuiver, meshes: dict[int, tuple[tuple[int, int, int], ...]]) -> str:
    """Where the first mesh relation in ``arq.vertices`` order fails, or
    ``""`` when all hold.

    Orbit ``b`` is checked as one run over its levels ``1..top`` whose mesh
    inputs are all in range: an input ``(offset, src, w)`` stays in range
    up to level ``m(src) - offset``.  The run's vectors laid end to end,
    plus those one level down, less ``w`` times each input's run, are the
    per-vertex mesh sums laid end to end, each summed by one ``map``; the
    first non-zero entry names its vertex.  When ``top`` stops short of
    ``m(b)``, the first input in mesh-table order that is out of range one
    level up is named.
    """
    orbits, n = arq.orbits, arq.n
    flat = chain.from_iterable
    for base, orbit in enumerate(orbits, start=1):
        inputs = meshes[base]
        top = min([len(orbit), *(len(orbits[src - 1]) - offset for offset, src, _ in inputs)]) - 1
        sums = map(add, flat(orbit[1 : top + 1]), flat(orbit[:top]))  # plus the translates
        for offset, src, weight in inputs:
            column = flat(orbits[src - 1][1 + offset : top + 1 + offset])
            sums = map(sub, sums, column if weight == 1 else map(mul, column, repeat(weight)))
        bad = next(compress(count(), sums), None)
        if bad is not None:
            return f"mesh relation fails at {ZVertex(1 + bad // n, base)}"
        if top < len(orbit) - 1:  # some input is out of range one level up
            v = ZVertex(top + 1, base)
            for offset, src, _ in inputs:
                if v.level + offset >= len(orbits[src - 1]):
                    return f"in-arrow source {ZVertex(v.level + offset, src)} of {v} out of range"
    return ""


def _reason(exc: Exception) -> str:
    """The detail of a check that ``exc`` stopped."""
    if isinstance(exc, ArquiverError):
        return str(exc)
    return f"{type(exc).__name__}: {exc}"


def _positions(arq: ARQuiver) -> Callable[[ZVertex], int]:
    """Where a vertex sits in ``arq.vertices``; raises ``KeyError(v)`` for
    a ``v`` off the orbits."""
    return {v: k for k, v in enumerate(arq.vertices)}.__getitem__


def _successors(arq: ARQuiver) -> list[list[int]]:
    """The heads of each vertex's arrows, in arrow order, every vertex by
    its position in ``arq.vertices``.

    Raises ``KeyError(v)`` for an arrow end ``v`` off the orbits.
    """
    position = _positions(arq)
    successors: list[list[int]] = [[] for _ in arq.vertices]
    for za in arq.arrows:
        head = position(za.dst)  # checked before the tail
        successors[position(za.src)].append(head)
    return successors


def _topological_order(arq: ARQuiver, successors: list[list[int]]) -> list[int]:
    """Kahn's order of the positions: the sources sorted by vertex, then
    each vertex once its last in-arrow is taken, heads in arrow order.

    Raises :class:`CrossCheckFailedError` on an oriented cycle.
    """
    indegree = [0] * len(successors)
    for w in chain.from_iterable(successors):
        indegree[w] += 1
    order = sorted((v for v, d in enumerate(indegree) if not d), key=arq.vertices.__getitem__)
    for v in order:  # grows while it is read: first in, first out
        for w in successors[v]:
            indegree[w] -= 1
            if not indegree[w]:
                order.append(w)
    if len(order) != len(successors):
        raise CrossCheckFailedError("translation quiver contains an oriented cycle")
    return order


def _audit(
    arq: ARQuiver, successors: list[list[int]], ends: list[tuple[ZVertex, ZVertex]]
) -> tuple[OracleReport, list[tuple[int, int] | None]]:
    """Parallel-path and sectional-uniqueness audit, one source at a time.

    Each source gets one DP over the vertices after it in
    :func:`_topological_order`, whose path counts and shortest/longest
    lengths are dropped once the source's sectional paths have been
    checked against them, so memory stays linear in the quiver.  Besides
    the report, returns the shortest and longest length from ``a`` to
    ``b`` for each pair of ``ends``, or ``None`` where no path joins them.
    """
    vertices, position = arq.vertices, _positions(arq)
    order = _topological_order(arq, successors)
    size = len(order)
    wanted: dict[int, list[tuple[int, int]]] = {}
    for k, (a, b) in enumerate(ends):
        wanted.setdefault(position(a), []).append((k, position(b)))
    lengths: list[tuple[int, int] | None] = [None] * len(ends)
    # A sectional path never continues through the inverse translate of the
    # vertex before its last one: that would be a hook and leave the section.
    hook = [k + 1 if v.level < arq.m[v.base - 1] else None for k, v in enumerate(vertices)]

    # Witnesses: the first bad pair with sources in topological order, and
    # the first bad sectional path with starts in ``arq.vertices`` order.
    parallel: tuple[int, int] | None = None
    sectional: tuple[int, int] | None = None
    for t, src in enumerate(order):
        later = order[t:]
        count = [0] * size
        shortest = [-1] * size
        longest = [-1] * size
        count[src], shortest[src], longest[src] = 1, 0, 0
        for v in later:
            c = count[v]
            if not c:
                continue
            lo, hi = shortest[v] + 1, longest[v] + 1
            for w in successors[v]:
                if count[w]:
                    count[w] += c
                    if lo < shortest[w]:
                        shortest[w] = lo
                    if hi > longest[w]:
                        longest[w] = hi
                else:
                    count[w], shortest[w], longest[w] = c, lo, hi

        for k, stop in wanted.get(src, ()):
            if count[stop]:
                lengths[k] = (shortest[stop], longest[stop])
        if parallel is None and shortest != longest:
            parallel = (src, _first_discovered(successors, shortest, longest, later))

        # The hook rule needs only the last two vertices of a path, so the
        # stack holds (before, last) pairs, popped in the order a search
        # over whole paths would pop them.
        if sectional is not None and sectional[0] < src:
            continue  # an earlier start already has a witness
        stack = [(src, w) for w in successors[src]]
        while stack:
            before, last = stack.pop()
            if count[last] != 1:
                sectional = (src, last)
                break
            skip = hook[before]
            stack.extend((last, w) for w in successors[last] if w != skip)

    report = OracleReport()
    for name, what, witness in (
        ("parallel-path-lengths", "lengths differ", parallel),
        ("sectional-uniqueness", "extra parallel path", sectional),
    ):
        if witness is None:
            report.add(name, True)
        else:
            a, b = map(vertices.__getitem__, witness)
            report.add(name, False, f"{what} between {a} and {b}")
    return report, lengths


def _first_discovered(
    successors: list[list[int]], shortest: list[int], longest: list[int], later: list[int]
) -> int:
    """The first target reached from ``later[0]`` whose path lengths
    differ, ``later`` being the topological order from there on."""
    seen = {later[0]}
    for v in later:
        if shortest[v] >= 0:
            for w in successors[v]:
                if w not in seen:
                    seen.add(w)
                    if shortest[w] != longest[w]:
                        return w
    raise AssertionError("no target with unequal path lengths")


def _certify(arq: ARQuiver, successors: list[list[int]]) -> list[int] | None:
    """A potential proving the path audit passes, or ``None``.

    The potential is indexed by position in ``arq.vertices``, as
    ``successors`` is: phi(v) = 2 * level(v) + c(base(v)), where c(x) is
    the forward less the backward steps of the walk ``1 .. x`` in the
    opposite quiver.  One pass over the arrows checks, in O(V + E):

    (a) phi(dst) = phi(src) + 1 on every arrow;
    (b) phi(v) - 2 * level(v) depends only on the base of ``v``, which
        holds by construction;
    (c) every arrow joins two bases adjacent in the ext-quiver, a tree;
    (d) no vertex has the same head twice.

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
    try:
        steps = q.opposite()._forward_steps
    except NotATreeError:
        return None
    adjacent = {(a.src, a.dst) for a in q.arrows}
    adjacent |= {(y, x) for x, y in adjacent}
    c = [0, *(steps[1][x] - steps[x][1] for x in q.vertices())]
    bases = [v.base for v in vertices]
    phi = [2 * level + c[base] for level, base in vertices]
    for v, heads in enumerate(successors):
        x, rise = bases[v], phi[v] + 1
        if len(set(heads)) != len(heads):
            return None  # (d)
        for w in heads:
            if phi[w] != rise or (x, bases[w]) not in adjacent:
                return None  # (a), (c)
    return phi


def _spans(
    arq: ARQuiver,
    successors: list[list[int]],
    phi: list[int],
    ends: list[tuple[ZVertex, ZVertex]],
) -> list[tuple[int, int] | None]:
    """``(shortest, longest)`` from ``a`` to ``b`` for each pair of ``ends``.

    Under the certificate both are phi(b) - phi(a) when ``b`` is
    reachable; one sweep over the vertices in decreasing phi decides that
    for every pair at once.  Vertex ``v`` carries a bitmask with bit ``k``
    set when ``v`` is the ``b`` of pair ``k`` or a successor of ``v``
    carries bit ``k``, that is, when a path leads from ``v`` to that
    ``b``; phi rises by one along every arrow, so successors are done
    first.  ``None`` where no path joins the pair.
    """
    position = _positions(arq)
    located = [(position(a), position(b)) for a, b in ends]
    reach = [0] * len(successors)
    for k, (_, stop) in enumerate(located):
        reach[stop] |= 1 << k
    for v in sorted(range(len(successors)), key=phi.__getitem__, reverse=True):
        for w in successors[v]:
            reach[v] |= reach[w]
    return [
        (phi[stop] - phi[start],) * 2 if reach[start] >> k & 1 else None
        for k, (start, stop) in enumerate(located)
    ]


def _path_audit(
    arq: ARQuiver, ends: list[tuple[ZVertex, ZVertex]]
) -> tuple[OracleReport, list[tuple[int, int] | None]]:
    """What :func:`_audit` returns, from the certificate whenever it holds."""
    successors = _successors(arq)
    phi = _certify(arq, successors)
    if phi is None:
        return _audit(arq, successors, ends)
    report = OracleReport()
    report.add("parallel-path-lengths", True)
    report.add("sectional-uniqueness", True)
    return report, _spans(arq, successors, phi, ends)


def audit_paths(arq: ARQuiver) -> OracleReport:
    """Parallel-path and sectional-uniqueness audit.

    All parallel paths must share one length, and the endpoints of a
    sectional path must be joined by no other path.  The linear-time
    certificate of :func:`_certify` decides a pass; when it fails, the
    exhaustive per-source audit runs over every reachable pair, in memory
    linear in the quiver, and names the first witness.
    """
    return _path_audit(arq, [])[0]


def _repeated_vector(arq: ARQuiver, vectors: list[tuple[int, ...]]) -> str:
    """The first vertex, in ``arq.vertices`` order, whose vector an earlier one holds."""
    first: dict[tuple[int, ...], ZVertex] = {}
    v, u = next(
        (v, u) for v, x in zip(arq.vertices, vectors) if (u := first.setdefault(x, v)) is not v
    )
    return f"{v} repeats the vector of {u}"


def _non_positive_vector(arq: ARQuiver, vectors: list[tuple[int, ...]]) -> str:
    """The first vertex, in ``arq.vertices`` order, with a zero vector or a negative entry."""
    v, x = next((v, x) for v, x in zip(arq.vertices, vectors) if not any(x) or min(x) < 0)
    return f"{'negative entry' if any(x) else 'zero vector'} at {v}"


def _distance_witness(lengths: list[tuple[int, int] | None], order: int) -> str:
    """The first ``i`` whose shortest and longest path from projective
    ``i`` to injective ``i`` are not both ``order - 2``, or ``""``."""
    expected = (order - 2, order - 2)
    for i, span in enumerate(lengths, start=1):
        if span is None:
            return f"no path from projective {i} to injective {i}"
        if span != expected:
            return (
                f"projective {i} to injective {i}: shortest path {span[0]}, "
                f"longest {span[1]}, not |C| - 2 = {order - 2}"
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

    The path audit and the projective-to-injective lengths come from the
    certificate of :func:`_certify`; only when it fails does the
    exhaustive audit run, to name a witness.  Both ``count-identity`` and
    ``projective-injective-distance`` read those lengths, so each pair is
    walked once.
    """
    ends = [(arq.projective(i), arq.injective(i)) for i in arq.quiver.vertices()]
    unread = ""  # why the path table could not be read, if it could not
    try:
        audit, lengths = _path_audit(arq, ends)
    except (CrossCheckFailedError, KeyError) as exc:  # an oriented cycle or a loose arrow
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

    vectors = list(chain.from_iterable(arq.orbits))
    ok = len(set(vectors)) == len(vectors)
    report.add("distinct-dimension-vectors", ok, "" if ok else _repeated_vector(arq, vectors))
    # Every vector non-zero, then no entry negative: a vector's minimum.
    ok = all(map(any, vectors)) and min(map(min, vectors)) >= 0
    report.add("positive-dimension-vectors", ok, "" if ok else _non_positive_vector(arq, vectors))
    # The build's classification, so the quiver is classified once per check.
    closed_form = _closed_form_rho_m(arq.quiver, arq.dynkin)
    ok = (arq.m, arq.rho) == closed_form
    report.add("closed-form-orbits", ok, "" if ok else _closed_form_witness(arq, *closed_form))
    return report

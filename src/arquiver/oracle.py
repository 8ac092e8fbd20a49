"""Independent brute-force validation of a built translation quiver.

Everything here recomputes by a different route what the builder derived
from hammocks: projective and injective dimension vectors by direct
recursion over the ext-quiver, mesh additivity at every vertex, and
exhaustive path statistics by dynamic programming.  The projective-side
recursion multiplies by the *first* valuation component, the
injective-side one by the *second*; on non-simply-laced input these
differ, so the dimension-vector agreement checks pin the convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ar_quiver import (
    ARQuiver,
    counts_and_nilpotency,
    distance,
    orbit_index_relation_holds,
)
from .derived import cluster_count, derived_nilpotency
from .errors import CrossCheckFailedError
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

    def first_failure(self) -> CheckResult | None:
        return next((c for c in self.checks if not c.passed), None)

    def merge(self, other: "OracleReport") -> "OracleReport":
        return OracleReport(self.checks + other.checks)


def _unit(n: int, i: int) -> tuple[int, ...]:
    return tuple(int(j == i) for j in range(1, n + 1))


def _add(u: tuple[int, ...], v: tuple[int, ...], scale: int) -> tuple[int, ...]:
    return tuple(a + scale * b for a, b in zip(u, v))


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
    ``j -> l`` with valuation ``(a, b)``, ``b`` times the vector at ``j``.
    """
    dims: dict[int, tuple[int, ...]] = {}

    def compute(l: int) -> tuple[int, ...]:
        if l not in dims:
            vec = _unit(q.n, l)
            for a in q.in_arrows(l):
                vec = _add(vec, compute(a.src), a.val[1])
            dims[l] = vec
        return dims[l]

    for l in q.vertices():
        compute(l)
    return dims


def verify_mesh(arq: ARQuiver) -> OracleReport:
    """Check every mesh relation and both boundary recursions."""
    report = OracleReport()
    meshes = mesh_inputs(arq.quiver.opposite())

    ok, detail = True, ""
    for v in arq.vertices:
        if v.level == 0:
            continue
        lhs = tuple(
            a + b for a, b in zip(arq.dims[v], arq.dims[v.translate()])
        )
        rhs = (0,) * arq.n
        for offset, src, weight in meshes[v.base]:
            u = ZVertex(v.level + offset, src)
            if u not in arq.dims:
                ok, detail = False, f"in-arrow source {u} of {v} out of range"
                break
            rhs = _add(rhs, arq.dims[u], weight)
        if not ok or lhs != rhs:
            ok, detail = False, detail or f"mesh relation fails at {v}"
            break
    report.add("mesh-additivity", ok, detail)

    proj = recursive_projective_dims(arq.quiver)
    ok = all(arq.dims[arq.projective(i)] == proj[i] for i in arq.quiver.vertices())
    report.add("projective-recursion", ok, "" if ok else "dimension vectors differ")

    inj = recursive_injective_dims(arq.quiver)
    ok = all(arq.dims[arq.injective(l)] == inj[l] for l in arq.quiver.vertices())
    report.add("injective-recursion", ok, "" if ok else "dimension vectors differ")
    return report


def _path_statistics(
    arq: ARQuiver,
) -> tuple[dict[tuple[ZVertex, ZVertex], int], dict, dict]:
    """Path counts and shortest/longest lengths for all ordered pairs."""
    order = arq.topological_order
    out = arq.successors
    counts: dict[tuple[ZVertex, ZVertex], int] = {}
    shortest: dict[tuple[ZVertex, ZVertex], int] = {}
    longest: dict[tuple[ZVertex, ZVertex], int] = {}
    for src in order:
        counts[(src, src)] = 1
        shortest[(src, src)] = longest[(src, src)] = 0
        for v in order:
            if (src, v) not in counts:
                continue
            for w in out[v]:
                counts[(src, w)] = counts.get((src, w), 0) + counts[(src, v)]
                step = shortest[(src, v)] + 1
                shortest[(src, w)] = min(shortest.get((src, w), step), step)
                step = longest[(src, v)] + 1
                longest[(src, w)] = max(longest.get((src, w), step), step)
    return counts, shortest, longest


def _sectional_paths(arq: ARQuiver) -> list[tuple[ZVertex, ZVertex]]:
    """Endpoints of all non-trivial sectional paths, by depth-first search."""
    out = arq.successors
    found = []
    for start in arq.vertices:
        stack = [[start, w] for w in out[start]]
        while stack:
            path = stack.pop()
            found.append((path[0], path[-1]))
            before, last = path[-2], path[-1]
            for w in out[last]:
                # A hook through the translate of the previous vertex
                # would leave the section.
                if w == before.translate(-1):
                    continue
                stack.append(path + [w])
    return found


def audit_paths(arq: ARQuiver) -> OracleReport:
    """Exhaustive parallel-path and sectional-uniqueness audit.

    All parallel paths must share one length, and the endpoints of a
    sectional path must be joined by no other path.
    """
    report = OracleReport()
    counts, shortest, longest = _path_statistics(arq)

    bad = next((p for p in counts if shortest[p] != longest[p]), None)
    report.add(
        "parallel-path-lengths",
        bad is None,
        "" if bad is None else f"lengths differ between {bad[0]} and {bad[1]}",
    )

    bad = next((p for p in _sectional_paths(arq) if counts.get(p, 0) != 1), None)
    report.add(
        "sectional-uniqueness",
        bad is None,
        "" if bad is None else f"extra parallel path between {bad[0]} and {bad[1]}",
    )
    return report


def run_all(arq: ARQuiver, order: int) -> OracleReport:
    """Full oracle suite plus the global counting identities."""
    report = verify_mesh(arq).merge(audit_paths(arq))

    def guarded(name: str, fn) -> None:
        try:
            fn()
        except CrossCheckFailedError as exc:
            report.add(name, False, str(exc))
        else:
            report.add(name, True)

    guarded("count-identity", lambda: counts_and_nilpotency(arq, order))
    guarded("derived-period", lambda: derived_nilpotency(arq, order))
    guarded("cluster-count", lambda: cluster_count(arq, order))
    report.add("orbit-index-relation", orbit_index_relation_holds(arq))

    ok = all(
        distance(arq, arq.projective(i), arq.injective(i)) == order - 2
        for i in arq.quiver.vertices()
    )
    report.add("projective-injective-distance", ok)

    dims = list(arq.dims.values())
    report.add("distinct-dimension-vectors", len(set(dims)) == len(dims))
    report.add(
        "positive-dimension-vectors",
        all(all(x >= 0 for x in d) and any(d) for d in dims),
    )
    return report

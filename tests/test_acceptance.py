"""Acceptance criteria, one test per criterion.

Each test prints a single ``ACCEPTANCE <nn> <name>: PASS|FAIL`` line
(run with ``pytest -s`` to see them on success).  Criterion 1 builds a
shared sweep of five seeded random orientations of every diagram in the
family list and asserts its total runtime.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from dataclasses import dataclass

from arquiver import (
    ARQuiver,
    CoxeterData,
    DerivedVertex,
    arrow_counts,
    build,
    closed_form_rho_m,
    cluster_count,
    counts_and_nilpotency,
    coxeter_matrix,
    derived_nilpotency,
    table_order,
    validate,
)
from arquiver.dynkin import all_orientations, canonical_diagram, random_orientation
from arquiver.oracle import audit_paths, verify_mesh
from conftest import all_diagrams, e6_example, f4_example
from plane import dims, distance, first_failure, tau_d_inverse

FAMILY_LIST = all_diagrams(8)  # A1..A8, B2..B8, C3..C8, D4..D8, E6-8, F4, G2
ORIENTATIONS_PER_DIAGRAM = 5

_POSITIVE_ROOT_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}


@dataclass(frozen=True)
class SweepEntry:
    family: str
    rank: int
    arq: ARQuiver
    cd: CoxeterData


_sweep: list[SweepEntry] | None = None
_sweep_seconds: float | None = None


def sweep() -> list[SweepEntry]:
    global _sweep, _sweep_seconds
    if _sweep is None:
        rng = random.Random(20260810)
        start = time.monotonic()
        entries = []
        for family, rank in FAMILY_LIST:
            g = canonical_diagram(family, rank)
            for _ in range(ORIENTATIONS_PER_DIAGRAM):
                arq = build(random_orientation(g, rng))
                entries.append(SweepEntry(family, rank, arq, coxeter_matrix(arq)))
        _sweep_seconds = time.monotonic() - start
        _sweep = entries
    return _sweep


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def test_criterion_01_coxeter_order_table():
    with criterion(1, "coxeter-order-table"):
        entries = sweep()
        assert len(entries) == len(FAMILY_LIST) * ORIENTATIONS_PER_DIAGRAM
        for e in entries:
            assert e.cd.order == table_order(e.arq.dynkin), (e.family, e.rank)
        assert _sweep_seconds is not None and _sweep_seconds < 5.0


def test_criterion_02_indecomposable_counts():
    with criterion(2, "indecomposable-counts"):
        for e in sweep():
            total = sum(mi + 1 for mi in e.arq.m)
            assert 2 * total == e.arq.n * e.cd.order
            assert total == _POSITIVE_ROOT_COUNTS[e.family](e.rank)


def test_criterion_03_reference_orientations():
    with criterion(3, "reference-orientations"):
        arq = build(e6_example())
        assert arq.rho == (6, 5, 3, 4, 2, 1)
        assert arq.m == (4, 4, 5, 5, 6, 6)
        arq = build(f4_example())
        assert arq.rho == (1, 2, 3, 4)
        assert arq.m == (5, 5, 5, 5)


def test_criterion_04_injective_location():
    with criterion(4, "injective-location"):
        rng = random.Random(41)
        for _ in range(10):
            n = rng.randrange(2, 9)
            q = random_orientation(canonical_diagram("A", n), rng)
            arq = build(q)
            assert arq.rho_of(n) == 1
            assert arq.m_of(n) == arrow_counts(q, 1, n)[0]
        for _ in range(10):
            n = rng.choice([4, 6, 8])
            q = random_orientation(canonical_diagram("D", n), rng)
            arq = build(q)
            assert arq.rho_of(1) == 1
            assert arq.m_of(1) == n - 2
        for _ in range(10):
            n = rng.choice([5, 7])
            q = random_orientation(canonical_diagram("D", n), rng)
            arq = build(q)
            assert arq.rho_of(2) == 1
            assert arq.m_of(2) == n - 3 + arrow_counts(q, 1, 2)[0]
        for _ in range(10):
            q = random_orientation(canonical_diagram("E", 6), rng)
            arq = build(q)
            assert arq.rho_of(6) == 1
            assert arq.m_of(6) == arrow_counts(q, 1, 6)[0] + 3


def test_criterion_05_closed_form_vs_knit():
    with criterion(5, "closed-form-vs-knit"):
        for family, rank in all_diagrams(5):
            for q in all_orientations(canonical_diagram(family, rank)):
                arq = build(q)
                assert (arq.m, arq.rho) == closed_form_rho_m(q), (family, rank)
        high = [e for e in sweep() if e.rank >= 6]
        assert len(high) >= 50
        for e in high:
            assert (e.arq.m, e.arq.rho) == closed_form_rho_m(e.arq.quiver)


def test_criterion_06_order_identity():
    with criterion(6, "order-identity"):
        for e in sweep():
            for i in e.arq.quiver.vertices():
                assert e.arq.m_of(i) + e.arq.m_of(e.arq.rho_of(i)) + 2 == e.cd.order
                v = DerivedVertex(0, i, 0)
                for _ in range(e.cd.order):
                    v = tau_d_inverse(e.arq, v)
                assert v == DerivedVertex(0, i, 2)


def test_criterion_07_nilpotencies():
    with criterion(7, "nilpotencies"):
        for e in sweep():
            order = e.cd.order
            counts = counts_and_nilpotency(e.arq, order)
            assert counts.nilpotency == order - 1
            assert derived_nilpotency(e.arq, order) == order - 1
            # Cluster radical nilpotency coincides with the derived one.
            assert order - 1 == counts.nilpotency
            for i in e.arq.quiver.vertices():
                d = distance(e.arq, e.arq.projective(i), e.arq.injective(i))
                assert d == order - 2


def test_criterion_08_cluster_count():
    with criterion(8, "cluster-count"):
        for e in sweep():
            assert cluster_count(e.arq, e.cd.order) == e.arq.n * (e.cd.order + 2) // 2
        a3 = build(validate(3, [(1, 2), (2, 3)]))
        assert cluster_count(a3, coxeter_matrix(a3).order) == 9


def test_criterion_09_oracle_suite():
    with criterion(9, "oracle-suite"):
        for e in sweep():
            report = verify_mesh(e.arq)
            assert report.ok, (e.family, e.rank, first_failure(report))
            if e.rank <= 6:
                report = audit_paths(e.arq)
                assert report.ok, (e.family, e.rank, first_failure(report))


def test_criterion_10_g2_dimension_vectors():
    with criterion(10, "g2-dimension-vectors"):
        arq = build(validate(2, [(1, 2, (1, 3))]))
        assert set(dims(arq).values()) == {
            (1, 0),
            (0, 1),
            (1, 1),
            (2, 1),
            (3, 1),
            (3, 2),
        }

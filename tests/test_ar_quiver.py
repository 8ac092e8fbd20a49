"""Assembled translation quivers: build, closed forms, distances, counts."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arquiver import (
    Counts,
    CrossCheckFailedError,
    PositionOutOfRangeError,
    ZVertex,
    build,
    closed_form_rho_m,
    counts_and_nilpotency,
    coxeter_matrix,
    distance,
    orbit_index_relation_holds,
    validate,
)
from arquiver.dynkin import (
    all_orientations,
    canonical_diagram,
    random_orientation,
    relabel_quiver,
)
from conftest import (
    a1_quiver,
    a3_linear,
    all_diagrams,
    e6_example,
    f4_example,
    g2_quiver,
    relabelled_orientations,
)
from plane import path_statistics, window_arrows, window_paths

G2_POSITIVE_ROOTS = {(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)}


def test_build_a3():
    arq = build(a3_linear())
    assert arq.m == (0, 1, 2)
    assert arq.rho == (3, 2, 1)
    assert len(arq.vertices) == 6


def test_build_a1():
    arq = build(a1_quiver())
    assert arq.vertices == (ZVertex(0, 1),)
    assert arq.m == (0,)


def test_build_g2_dimension_vectors_are_positive_roots():
    arq = build(g2_quiver())
    assert arq.m == (2, 2)
    assert arq.rho == (1, 2)
    assert set(arq.dims.values()) == G2_POSITIVE_ROOTS


def test_closed_form_e6_example(e6):
    m, rho = closed_form_rho_m(e6)
    assert rho == (6, 5, 3, 4, 2, 1)
    assert m == (4, 4, 5, 5, 6, 6)


def test_build_matches_closed_form_on_e6_example(e6):
    arq = build(e6)
    assert (arq.m, arq.rho) == closed_form_rho_m(e6)


def test_closed_form_f4_example(f4):
    m, rho = closed_form_rho_m(f4)
    assert rho == (1, 2, 3, 4)
    assert m == (5, 5, 5, 5)


def test_closed_form_linear_a_n():
    for n in range(1, 7):
        q = validate(n, [(i, i + 1) for i in range(1, n)])
        m, rho = closed_form_rho_m(q)
        assert m == tuple(i - 1 for i in range(1, n + 1))
        assert rho == tuple(n + 1 - i for i in range(1, n + 1))


@pytest.mark.parametrize("family,rank", all_diagrams(5))
def test_closed_form_matches_knit_exhaustively_small(family, rank):
    for q in all_orientations(canonical_diagram(family, rank)):
        arq = build(q)
        assert (arq.m, arq.rho) == closed_form_rho_m(q)


@settings(max_examples=40, deadline=None)
@given(relabelled_orientations(), st.data())
def test_build_is_equivariant_under_relabelling(q, data):
    pi = tuple(data.draw(st.permutations(range(1, q.n + 1))))
    arq, moved = build(q), build(relabel_quiver(q, pi))
    assert (moved.dynkin.family, moved.dynkin.rank) == (arq.dynkin.family, arq.dynkin.rank)
    for i in q.vertices():
        assert moved.m_of(pi[i - 1]) == arq.m_of(i)
        assert moved.rho_of(pi[i - 1]) == pi[arq.rho_of(i) - 1]
    assert len(moved.dims) == len(arq.dims)
    for v, dims in arq.dims.items():
        transported = [0] * q.n
        for j, d in zip(pi, dims):
            transported[j - 1] = d
        assert moved.dims[ZVertex(v.level, pi[v.base - 1])] == tuple(transported)


def test_dim_vector_examples():
    a3 = build(a3_linear())
    assert a3.dims[ZVertex(1, 2)] == (1, 1, 0)
    assert a3.dims[ZVertex(0, 3)] == (0, 0, 1)
    g2 = build(g2_quiver())
    assert g2.dims[ZVertex(1, 1)] == (2, 1)
    assert ZVertex(3, 3) not in a3.dims


def test_distance_examples():
    arq = build(a3_linear())
    assert distance(arq, ZVertex(0, 3), ZVertex(0, 1)) == 2
    assert distance(arq, ZVertex(1, 2), ZVertex(1, 2)) == 0
    assert distance(arq, ZVertex(0, 1), ZVertex(0, 3)) is None
    with pytest.raises(PositionOutOfRangeError):
        distance(arq, ZVertex(3, 3), ZVertex(0, 1))


def test_counts_examples():
    a3 = build(a3_linear())
    assert counts_and_nilpotency(a3, coxeter_matrix(a3).order) == Counts(6, 3)
    g2 = build(g2_quiver())
    assert counts_and_nilpotency(g2, coxeter_matrix(g2).order) == Counts(6, 5)
    e8 = build(
        validate(8, [(i, i + 1) for i in (1, 2)] + [(3, 4), (3, 5), (5, 6), (6, 7), (7, 8)])
    )
    assert counts_and_nilpotency(e8, coxeter_matrix(e8).order) == Counts(120, 29)


def test_orbit_index_relation():
    assert orbit_index_relation_holds(build(e6_example()))
    assert orbit_index_relation_holds(build(a1_quiver()))
    corrupted = replace(build(e6_example()), m=(4, 4, 5, 5, 6, 5))
    assert not orbit_index_relation_holds(corrupted)


def test_projective_injective_distances_all_equal():
    for q in (a3_linear(), g2_quiver(), f4_example(), e6_example()):
        arq = build(q)
        order = coxeter_matrix(arq).order
        for i in q.vertices():
            assert distance(arq, arq.projective(i), arq.injective(i)) == order - 2


def test_dimension_vectors_are_distinct():
    for q in (a3_linear(), g2_quiver(), e6_example()):
        arq = build(q)
        assert len(set(arq.dims.values())) == len(arq.vertices)


def test_pairing_is_involution_and_identity_families():
    rng = random.Random(99)
    identity_families = {("A", 1), ("G", 2), ("F", 4), ("E", 7), ("E", 8)}
    for family, rank in all_diagrams(8):
        q = random_orientation(canonical_diagram(family, rank), rng)
        arq = build(q)
        n = q.n
        assert all(arq.rho_of(arq.rho_of(i)) == i for i in q.vertices())
        expect_identity = (
            (family, rank) in identity_families
            or family in ("B", "C")
            or (family == "D" and rank % 2 == 0)
        )
        is_identity = arq.rho == tuple(q.vertices())
        assert is_identity == expect_identity


def test_vertex_set_is_convex_in_the_plane():
    for q in (a3_linear(), g2_quiver(), f4_example()):
        arq = build(q)
        members = set(arq.vertices)
        qop = q.opposite()
        hi = max(arq.m) + 2
        for start in arq.vertices:
            for path in window_paths(qop, start, -1, hi, 10):
                if path.end in members:
                    assert all(za.src in members for za in path.arrows)


def test_build_stores_one_hammock_per_vertex():
    from arquiver import knit_hammock

    q = e6_example()
    arq = build(q)
    assert [res.k for res in arq.hammocks] == list(q.vertices())
    for res in arq.hammocks:
        assert res.terminator == knit_hammock(q, res.k).terminator


def test_build_rejects_non_dynkin_input():
    from arquiver import NotDynkinError

    with pytest.raises(NotDynkinError):
        build(validate(2, [(1, 2, (2, 2))]))


def test_counts_cross_check_rejects_corrupted_orbit_lengths():
    arq = build(a3_linear())
    with pytest.raises(CrossCheckFailedError):
        counts_and_nilpotency(replace(arq, m=(0, 1, 3)), 4)


def test_distance_cross_check_rejects_unequal_parallel_paths():
    arq = build(a3_linear())
    from arquiver.repetitive import ZArrow
    from arquiver.quiver import Arrow

    # A fabricated shortcut creates parallel paths of lengths 1 and 2.
    fake = ZArrow(ZVertex(0, 1), ZVertex(2, 3), Arrow(3, 1), True)
    corrupted = replace(arq, arrows=arq.arrows + (fake,))
    with pytest.raises(CrossCheckFailedError):
        distance(corrupted, ZVertex(0, 1), ZVertex(2, 3))


def test_fuzz_random_valued_trees():
    # Random trees with occasional non-trivial valuations: everything the
    # classifier accepts must build and survive the full oracle suite.
    from arquiver import classify_dynkin, coxeter_matrix
    from arquiver.oracle import run_all

    rng = random.Random(2718)
    valuations = [(1, 1)] * 6 + [(1, 2), (2, 1), (1, 3), (3, 1), (2, 2)]
    accepted = 0
    for _ in range(60):
        n = rng.randrange(1, 9)
        arrows = []
        for v in range(2, n + 1):
            # Mostly chain growth, so Dynkin shapes come up often enough.
            u = v - 1 if rng.random() < 0.75 else rng.randrange(1, v)
            val = rng.choice(valuations)
            arrows.append((u, v, val) if rng.random() < 0.5 else (v, u, val))
        q = validate(n, arrows)
        if classify_dynkin(q.underlying_graph()) is None:
            continue
        accepted += 1
        arq = build(q)
        report = run_all(arq, coxeter_matrix(arq).order)
        assert report.ok, (q.arrows, report.first_failure())
    assert accepted >= 20  # the seed must exercise real builds


def test_arrows_match_plane_restriction():
    arq = build(e6_example())
    members = set(arq.vertices)
    qop = e6_example().opposite()
    expected = {
        za
        for za in window_arrows(qop, 0, max(arq.m) + 1)
        if za.src in members and za.dst in members
    }
    assert set(arq.arrows) == expected


def test_build_classifies_once(monkeypatch):
    from arquiver import dynkin

    calls = []
    original = dynkin.classify_dynkin

    def counting(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(dynkin, "classify_dynkin", counting)
    build(e6_example())
    assert len(calls) == 1


def test_opposite_and_walk_tables_live_on_the_instance():
    q = e6_example()
    assert q.opposite() is q.opposite()
    assert q.opposite() == validate(6, [(2, 1), (3, 2), (4, 3), (5, 3), (5, 6)])
    # Equal quivers built separately agree without sharing any table.
    other = e6_example()
    assert other.opposite() is not q.opposite()
    assert [res.table for res in build(other).hammocks] == [
        res.table for res in build(q).hammocks
    ]


def test_threads_sharing_one_quiver_build_equal_results():
    import sys
    import threading

    from arquiver import coxeter_matrix
    from arquiver.report import build_report, report_to_json

    q = random_orientation(canonical_diagram("D", 9), random.Random(31))
    expected = report_to_json(build_report(build(q), 16, include_hammocks=True))
    fresh = validate(q.n, q.arrows)  # no table built yet
    results: list[str] = []

    def work() -> None:
        arq = build(fresh)
        order = coxeter_matrix(arq).order
        results.append(report_to_json(build_report(arq, order, include_hammocks=True)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected] * len(threads)


def test_path_tables_are_built_once_per_instance():
    from arquiver.quiver import Arrow
    from arquiver.repetitive import ZArrow

    arq = build(a3_linear())
    assert arq.successors is arq.successors
    assert arq.topological_order is arq.topological_order
    assert arq.successors[ZVertex(0, 2)] == (ZVertex(0, 1), ZVertex(1, 3))
    assert distance(arq, ZVertex(0, 1), ZVertex(2, 3)) == 2
    # A copy with a back arrow gets its own tables, and they see the cycle.
    back = ZArrow(ZVertex(2, 3), ZVertex(0, 1), Arrow(3, 1), False)
    cyclic = replace(arq, arrows=arq.arrows + (back,))
    with pytest.raises(CrossCheckFailedError, match="oriented cycle"):
        distance(cyclic, ZVertex(0, 1), ZVertex(2, 3))
    assert distance(arq, ZVertex(0, 1), ZVertex(2, 3)) == 2


@pytest.mark.parametrize(
    "q",
    [
        a3_linear(),
        validate(4, [(1, 2), (3, 2), (3, 4)]),
        validate(5, [(1, 3), (3, 2), (4, 3), (4, 5)]),
        validate(3, [(1, 2, (1, 2)), (3, 2)]),
        g2_quiver(),
        e6_example(),
    ],
    ids=["A3", "A4", "D5", "B3", "G2", "E6"],
)
def test_distance_matches_all_pairs_reference(q):
    arq = build(q)
    _, shortest, _ = path_statistics(arq)
    for a in arq.vertices:
        for b in arq.vertices:
            assert distance(arq, a, b) == shortest.get((a, b)), (a, b)

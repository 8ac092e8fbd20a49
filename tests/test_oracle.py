"""Independent recomputation: recursions, meshes, path audits."""

from __future__ import annotations

import random
import tracemalloc
from dataclasses import replace

import pytest

from arquiver import (
    ArquiverError,
    ZVertex,
    build,
    coxeter_matrix,
    distance,
    recursive_injective_dims,
    recursive_projective_dims,
    validate,
    verify_mesh,
)
from arquiver.dynkin import canonical_diagram, random_orientation
from arquiver.oracle import _audit, audit_paths, run_all
from arquiver.quiver import Arrow
from arquiver.repetitive import ZArrow
from conftest import a1_quiver, a3_linear, all_diagrams, e6_example, f4_example, g2_quiver
from plane import reference_audit_lines


def test_recursive_dims_g2():
    q = g2_quiver()
    assert recursive_projective_dims(q) == {1: (1, 1), 2: (0, 1)}
    assert recursive_injective_dims(q) == {1: (1, 0), 2: (3, 1)}


def test_recursive_dims_sink_is_simple():
    q = f4_example()
    assert recursive_projective_dims(q)[3] == (0, 0, 1, 0)


def test_recursive_dims_a3():
    assert recursive_projective_dims(a3_linear())[1] == (1, 1, 1)


def test_verify_mesh_passes():
    for q in (a3_linear(), g2_quiver(), e6_example(), f4_example()):
        report = verify_mesh(build(q))
        assert report.ok, report.first_failure()


def test_verify_mesh_catches_corruption():
    arq = build(a3_linear())
    dims = dict(arq.dims)
    v = ZVertex(1, 2)
    dims[v] = tuple(x + 1 for x in dims[v])
    corrupted = replace(arq, dims=dims)
    report = verify_mesh(corrupted)
    assert not report.ok
    assert report.first_failure().name == "mesh-additivity"


def test_audit_paths_a3():
    report = audit_paths(build(a3_linear()))
    assert report.ok


def test_audit_paths_a1_vacuous():
    assert audit_paths(build(a1_quiver())).ok


def test_audit_paths_e6_longest_path():
    arq = build(e6_example())
    assert audit_paths(arq).ok
    longest = max(
        distance(arq, arq.projective(i), arq.injective(i))
        for i in arq.quiver.vertices()
    )
    assert longest == 12 - 2


def test_run_all_reports_every_check():
    arq = build(g2_quiver())
    order = coxeter_matrix(arq).order
    report = run_all(arq, order)
    assert report.ok
    names = {c.name for c in report.checks}
    assert {
        "mesh-additivity",
        "projective-recursion",
        "injective-recursion",
        "parallel-path-lengths",
        "sectional-uniqueness",
        "count-identity",
        "derived-period",
        "cluster-count",
        "orbit-index-relation",
        "projective-injective-distance",
        "distinct-dimension-vectors",
        "positive-dimension-vectors",
        "closed-form-orbits",
    } <= names


def test_projective_recursion_discriminates_valuation_side():
    # Swapping the roles of the valuation components in the projective
    # recursion is detectable on any non-simply-laced input.
    q = g2_quiver()
    wrong = {1: (1, 3), 2: (0, 1)}  # would follow from the second component
    assert recursive_projective_dims(q) != wrong
    arq = build(q)
    assert arq.dims[arq.projective(1)] == recursive_projective_dims(q)[1]


def test_recursions_match_hammock_dims_on_b_and_c_types():
    for arrows, n in (
        ([(1, 2, (1, 2)), (2, 3)], 3),  # B3 orientation
        ([(1, 2, (2, 1)), (3, 2)], 3),  # C3 orientation
    ):
        q = validate(n, arrows)
        arq = build(q)
        proj = recursive_projective_dims(q)
        inj = recursive_injective_dims(q)
        for i in q.vertices():
            assert arq.dims[arq.projective(i)] == proj[i]
            assert arq.dims[arq.injective(i)] == inj[i]


def _other_component_meshes(base):
    """Mesh inputs weighted by the wrong valuation component."""
    return {
        x: tuple(
            sorted(
                [(-1, a.dst, a.val[1]) for a in base.out_arrows(x)]
                + [(0, a.src, a.val[0]) for a in base.in_arrows(x)]
            )
        )
        for x in base.vertices()
    }


@pytest.mark.parametrize(
    "q",
    [
        g2_quiver(),
        validate(3, [(1, 2, (1, 2)), (3, 2)]),
        validate(3, [(2, 1, (1, 2)), (2, 3)]),
        f4_example(),
    ],
    ids=["G2", "B3", "C3", "F4"],
)
def test_shared_mesh_table_with_wrong_convention_is_caught(monkeypatch, q):
    # The knitter and verify_mesh share one table, so a wrong convention in
    # it must be caught by the build's own checks or the boundary recursions.
    from arquiver import hammock, oracle

    monkeypatch.setattr(hammock, "mesh_inputs", _other_component_meshes)
    monkeypatch.setattr(oracle, "mesh_inputs", _other_component_meshes)
    try:
        arq = build(q)
    except ArquiverError:
        return
    assert not run_all(arq, coxeter_matrix(arq).order).ok


def _with_extra_arrows(arq, *pairs):
    """A copy of ``arq`` with one fabricated arrow per ``(src, dst)`` pair."""
    extra = tuple(ZArrow(src, dst, Arrow(1, 2), False) for src, dst in pairs)
    return replace(arq, arrows=arq.arrows + extra)


def test_audit_paths_names_unequal_parallel_paths():
    # A shortcut (0, 1) -> (2, 3) beside the path (0, 1) -> (1, 2) -> (2, 3).
    arq = _with_extra_arrows(build(a3_linear()), (ZVertex(0, 1), ZVertex(2, 3)))
    assert [c.line() for c in audit_paths(arq).checks] == [
        "parallel-path-lengths: FAIL (lengths differ between "
        "ZVertex(level=0, base=3) and ZVertex(level=2, base=3))",
        "sectional-uniqueness: FAIL (extra parallel path between "
        "ZVertex(level=0, base=1) and ZVertex(level=2, base=3))",
    ]


def test_audit_paths_names_second_path_along_a_sectional_path():
    # Doubling the last arrow of the sectional path
    # (0, 1) -> (1, 2) -> (1, 3) -> (2, 4) adds a parallel path of equal length.
    arq = build(validate(4, [(1, 2), (3, 2), (3, 4)]))
    arq = _with_extra_arrows(arq, (ZVertex(1, 3), ZVertex(2, 4)))
    assert [c.line() for c in audit_paths(arq).checks] == [
        "parallel-path-lengths: PASS",
        "sectional-uniqueness: FAIL (extra parallel path between "
        "ZVertex(level=0, base=1) and ZVertex(level=2, base=4))",
    ]


def _forward_arrow_corruptions(arq, rng, count):
    """Copies of ``arq`` with one random arrow that keeps it acyclic."""
    order = arq.topological_order
    for _ in range(count):
        i = rng.randrange(len(order) - 1)
        j = rng.randrange(i + 1, len(order))
        yield _with_extra_arrows(arq, (order[i], order[j]))


_CORRUPTED_DIAGRAMS = [
    (family, rank)
    for family, rank in all_diagrams(8)
    if (family in "ABCD" and rank >= 2) or (family, rank) in (("E", 6), ("F", 4), ("G", 2))
]


@pytest.mark.parametrize(
    "family, rank", _CORRUPTED_DIAGRAMS, ids=[f + str(r) for f, r in _CORRUPTED_DIAGRAMS]
)
def test_audit_paths_matches_all_pairs_reference_on_corrupted_quivers(family, rank):
    rng = random.Random(f"{family}{rank}")
    arq = build(random_orientation(canonical_diagram(family, rank), rng))
    assert [c.line() for c in audit_paths(arq).checks] == reference_audit_lines(arq)
    failures = 0
    for corrupted in _forward_arrow_corruptions(arq, rng, 8):
        lines = [c.line() for c in audit_paths(corrupted).checks]
        assert lines == reference_audit_lines(corrupted)
        failures += any("FAIL" in line for line in lines)
    assert failures


def test_run_all_reports_corrupted_paths_without_raising():
    arq = build(a3_linear())
    order = coxeter_matrix(arq).order
    corrupted = _with_extra_arrows(arq, (ZVertex(0, 1), ZVertex(2, 3)))
    failed = [c.name for c in run_all(corrupted, order).checks if not c.passed]
    assert failed == [
        "parallel-path-lengths",
        "sectional-uniqueness",
        "count-identity",
        "projective-injective-distance",
    ]


def test_run_all_checks_orbit_data_against_closed_forms():
    arq = build(e6_example())
    order = coxeter_matrix(arq).order
    assert run_all(arq, order).checks[-1].line() == "closed-form-orbits: PASS"
    wrong = replace(arq, rho=tuple(arq.quiver.vertices()))
    result = {c.name: c.passed for c in run_all(wrong, order).checks}
    assert result["closed-form-orbits"] is False


@pytest.mark.parametrize("family, rank", all_diagrams(8))
def test_audit_lengths_agree_with_distance(family, rank):
    rng = random.Random(f"{family}{rank}")
    arq = build(random_orientation(canonical_diagram(family, rank), rng))
    ends = [(arq.projective(i), arq.injective(i)) for i in arq.quiver.vertices()]
    _, lengths = _audit(arq, ends)
    assert lengths == [(distance(arq, a, b),) * 2 for a, b in ends]


def test_audit_paths_memory_is_linear_in_the_quiver():
    # A30 has 465 vertices; all-pairs tables of counts and lengths peak
    # near 19 MB here, three lists per source stay far below 1 MB.
    arq = build(validate(30, [(i, i + 1) if i % 3 else (i + 1, i) for i in range(1, 30)]))
    tracemalloc.start()
    try:
        report = audit_paths(arq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 2**20


def test_audit_paths_passes_on_a40():
    arq = build(validate(40, [(i, i + 1) if i % 3 else (i + 1, i) for i in range(1, 40)]))
    assert len(arq.vertices) == 820
    assert audit_paths(arq).ok

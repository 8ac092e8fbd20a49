"""Independent recomputation: recursions, meshes, path audits."""

from __future__ import annotations

from dataclasses import replace

import pytest

from arquiver import (
    ArquiverError,
    ZVertex,
    build,
    coxeter_matrix,
    recursive_injective_dims,
    recursive_projective_dims,
    validate,
    verify_mesh,
)
from arquiver.oracle import audit_paths, run_all
from conftest import a1_quiver, a3_linear, e6_example, f4_example, g2_quiver


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
    from arquiver import distance

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

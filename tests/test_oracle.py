"""Independent recomputation: recursions, meshes, path audits."""

from __future__ import annotations

import random
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arquiver import (
    ArquiverError,
    CrossCheckFailedError,
    KnitInconsistentError,
    NotATreeError,
    ZVertex,
    build,
    coxeter_matrix,
    recursive_injective_dims,
    recursive_projective_dims,
    table_order,
    validate,
    verify_mesh,
)
from arquiver import oracle
from arquiver.dynkin import canonical_diagram, orient, random_orientation
from arquiver.oracle import _certify, _numbering, _path_audit, _spans, audit_paths, run_all
from arquiver.quiver import Arrow, ValuedQuiver, reduced_walk
from arquiver.repetitive import ZArrow
from conftest import a1_quiver, a3_linear, all_diagrams, e6_example, f4_example, g2_quiver
from plane import (
    NOT_AN_INT,
    OUTSIDE_A_BYTE,
    dims,
    distance,
    first_failure,
    fits_a_byte,
    reference_audit_lines,
    reference_mesh_line,
    reference_spans,
    relaid,
    successors,
    topological_order,
    with_arrows,
)


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
        assert report.ok, first_failure(report)


def test_verify_mesh_catches_corruption():
    arq = build(a3_linear())
    v = ZVertex(1, 2)
    corrupted = relaid(arq, {**dims(arq), v: tuple(x + 1 for x in dims(arq)[v])})
    report = verify_mesh(corrupted)
    assert not report.ok
    assert first_failure(report).name == "mesh-additivity"


def test_verify_mesh_names_the_corrupted_vertex():
    arq = build(a3_linear())
    v = ZVertex(1, 2)
    corrupted = relaid(arq, {**dims(arq), v: tuple(x + 1 for x in dims(arq)[v])})
    line = verify_mesh(corrupted).checks[0].line()
    assert line == "mesh-additivity: FAIL (mesh relation fails at ZVertex(level=1, base=2))"


def test_recursion_checks_name_the_first_vertex_that_differs():
    # Linear A3: P_2, P_3 sit at (0, 2), (0, 3) and I_1, I_2 at (2, 3), (1, 2).
    # Each check names the first of 1..n, not the first in vertex order.
    arq = build(a3_linear())
    vectors = dims(arq)
    for v in (ZVertex(0, 2), ZVertex(0, 3), ZVertex(1, 2), ZVertex(2, 3)):
        vectors[v] = tuple(x + 1 for x in vectors[v])
    lines = [check.line() for check in verify_mesh(relaid(arq, vectors)).checks[1:]]
    assert lines == [
        "projective-recursion: FAIL (dimension vectors differ at ZVertex(level=0, base=2))",
        "injective-recursion: FAIL (dimension vectors differ at ZVertex(level=2, base=3))",
    ]


def _bumped(arq, rng):
    """A copy of ``dims(arq)`` with one or two vectors bumped in one entry,
    by -1, 1 or 2; an entry 0 bumped by -1 lands on 1, as no layout holds
    a negative entry."""
    vectors = dims(arq)
    for _ in range(rng.randrange(1, 3)):
        v = rng.choice(arq.vertices)
        bumped = list(vectors[v])
        k = rng.randrange(arq.n)
        bumped[k] = abs(bumped[k] + rng.choice((-1, 1, 2)))
        vectors[v] = tuple(bumped)
    return vectors


def _mesh_corruptions(arq, rng):
    """Copies of ``arq`` with dimension vectors bumped, or with one or two
    orbits cut a level short (a top is a mesh input of neighbouring orbits),
    or with one orbit run a level on (a copy of its top, or zero), each also
    with vectors bumped: the first witness is then the earlier of the two."""
    yield arq
    for _ in range(3):
        yield relaid(arq, _bumped(arq, rng))
    tops = [v for v in arq.vertices if v.level == arq.m_of(v.base) > 0]
    for cut in (rng.sample(tops, k) for k in (1, 2) if k <= len(tops)):
        m = [mi - (ZVertex(mi, i) in cut) for i, mi in enumerate(arq.m, start=1)]
        yield relaid(arq, m=m)
        yield relaid(arq, _bumped(arq, rng), m=m)
    b = rng.randrange(1, arq.n + 1)
    top = ZVertex(arq.m_of(b), b)
    yield relaid(arq, {**dims(arq), top.translate(-1): dims(arq)[top]})
    yield relaid(arq, {**_bumped(arq, rng), top.translate(-1): dims(arq)[top]})
    yield relaid(arq, m=[mi + (i == b) for i, mi in enumerate(arq.m, start=1)])


@pytest.mark.parametrize("family, rank", all_diagrams(7))
def test_verify_mesh_names_the_first_failure_like_the_vertex_loop(family, rank):
    rng = random.Random(f"mesh {family}{rank}")
    kinds = set()
    for _ in range(4):
        arq = build(random_orientation(canonical_diagram(family, rank), rng))
        for corrupted in _mesh_corruptions(arq, rng):
            line = verify_mesh(corrupted).checks[0].line()
            assert line == reference_mesh_line(corrupted)
            kinds.add("out of range" if "out of range" in line else line.split(" (")[0])
    expected = {"mesh-additivity: PASS", "mesh-additivity: FAIL", "out of range"}
    assert kinds == expected if rank > 1 else kinds <= expected


@pytest.mark.parametrize("family, rank", all_diagrams(8))
def test_mesh_runs_hold_on_every_small_diagram(family, rank):
    rng = random.Random(f"mesh runs {family}{rank}")
    for _ in range(3):
        report = verify_mesh(build(random_orientation(canonical_diagram(family, rank), rng)))
        assert report.ok, first_failure(report)


@pytest.mark.parametrize("family", "ABCD")
def test_mesh_runs_hold_on_random_orientations_to_rank_40(family):
    rng = random.Random(f"mesh runs {family}")
    lowest = {"A": 1, "B": 2, "C": 3, "D": 4}[family]
    for rank in range(lowest, 41):
        report = verify_mesh(build(random_orientation(canonical_diagram(family, rank), rng)))
        assert report.ok, first_failure(report)


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
    assert dims(arq)[arq.projective(1)] == recursive_projective_dims(q)[1]


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
            assert dims(arq)[arq.projective(i)] == proj[i]
            assert dims(arq)[arq.injective(i)] == inj[i]


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
    from arquiver import ar_quiver, oracle

    monkeypatch.setattr(ar_quiver, "mesh_inputs", _other_component_meshes)
    monkeypatch.setattr(oracle, "mesh_inputs", _other_component_meshes)
    try:
        arq = build(q)
    except ArquiverError:
        return
    assert not run_all(arq, coxeter_matrix(arq).order).ok


def _with_extra_arrows(arq, *pairs):
    """A copy of ``arq`` with one fabricated arrow per ``(src, dst)`` pair."""
    extra = tuple(ZArrow(src, dst, Arrow(1, 2), False) for src, dst in pairs)
    return with_arrows(arq, arq.arrows + extra)


def _uncertified(arq):
    """The message of the error with which :func:`audit_paths` refuses ``arq``."""
    with pytest.raises(CrossCheckFailedError) as caught:
        audit_paths(arq)
    return str(caught.value)


_NO_RISE = "does not raise 2 * level + c(base) by one"


def test_audit_paths_names_unequal_parallel_paths():
    # A shortcut (0, 1) -> (2, 3) beside the path (0, 1) -> (1, 2) -> (2, 3).
    arq = _with_extra_arrows(build(a3_linear()), (ZVertex(0, 1), ZVertex(2, 3)))
    assert reference_audit_lines(arq) == [
        "parallel-path-lengths: FAIL (lengths differ between "
        "ZVertex(level=0, base=3) and ZVertex(level=2, base=3))",
        "sectional-uniqueness: FAIL (extra parallel path between "
        "ZVertex(level=0, base=1) and ZVertex(level=2, base=3))",
    ]
    assert _uncertified(arq) == (
        f"no path certificate: arrow ZVertex(level=0, base=1) -> ZVertex(level=2, base=3) {_NO_RISE}"
    )


def test_audit_paths_names_second_path_along_a_sectional_path():
    # Doubling the last arrow of the sectional path
    # (0, 1) -> (1, 2) -> (1, 3) -> (2, 4) adds a parallel path of equal length.
    arq = build(validate(4, [(1, 2), (3, 2), (3, 4)]))
    arq = _with_extra_arrows(arq, (ZVertex(1, 3), ZVertex(2, 4)))
    assert reference_audit_lines(arq) == [
        "parallel-path-lengths: PASS",
        "sectional-uniqueness: FAIL (extra parallel path between "
        "ZVertex(level=0, base=1) and ZVertex(level=2, base=4))",
    ]
    assert _uncertified(arq) == (
        "no path certificate: arrow ZVertex(level=1, base=3) -> ZVertex(level=2, base=4) is doubled"
    )


def _corrupted(arq, kind, pick):
    """A copy of ``arq`` with one arrow of ``kind``: a ``forward`` arrow that
    keeps it acyclic, or one of its arrows ``doubled``, ``deleted`` or
    ``reversed``.  ``pick(lo, hi)`` chooses an index in ``lo..hi``."""
    if kind == "forward":
        order = topological_order(arq)
        i = pick(0, len(order) - 2)
        return _with_extra_arrows(arq, (order[i], order[pick(i + 1, len(order) - 1)]))
    k = pick(0, len(arq.arrows) - 1)
    kept = arq.arrows[:k] + arq.arrows[k + 1 :]
    if kind == "doubled":
        return with_arrows(arq, arq.arrows + arq.arrows[k : k + 1])
    if kind == "deleted":
        return with_arrows(arq, kept)
    return _with_extra_arrows(with_arrows(arq, kept), (arq.arrows[k].dst, arq.arrows[k].src))


def _assert_sound(arq):
    """Every FAIL of the all-pairs reference is a FAIL of ``audit_paths``
    and of ``run_all``, with the certificate's reason; where the
    certificate holds, both give the reference's lines.  Returns whether
    it holds."""
    expected = reference_audit_lines(arq)
    audited = _lines(arq)[3:5]
    try:
        lines = [c.line() for c in audit_paths(arq).checks]
    except CrossCheckFailedError as exc:
        assert audited == [f"{line.split(':')[0]}: FAIL ({exc})" for line in expected]
        return False
    assert lines == audited == expected
    return True


_CORRUPTED_DIAGRAMS = [
    (family, rank)
    for family, rank in all_diagrams(8)
    if (family in "ABCD" and rank >= 2) or (family, rank) in (("E", 6), ("F", 4), ("G", 2))
]


@pytest.mark.parametrize(
    "family, rank", _CORRUPTED_DIAGRAMS, ids=[f + str(r) for f, r in _CORRUPTED_DIAGRAMS]
)
def test_audit_paths_matches_all_pairs_reference_on_corrupted_quivers(family, rank):
    # The soundness of the certificate, on two random orientations per kind
    # of corruption: a pass proves both path properties.
    rng = random.Random(f"{family}{rank}")
    held = {_assert_sound(build(random_orientation(canonical_diagram(family, rank), rng)))}
    for kind in ("forward", "doubled", "deleted", "reversed"):
        for _ in range(2):
            arq = build(random_orientation(canonical_diagram(family, rank), rng))
            held.add(_assert_sound(_corrupted(arq, kind, rng.randint)))
    assert held == {True, False}


def test_run_all_reports_corrupted_paths_without_raising():
    arq = build(a3_linear())
    order = coxeter_matrix(arq).order
    corrupted = _with_extra_arrows(arq, (ZVertex(0, 1), ZVertex(2, 3)))
    failed = [c.line() for c in run_all(corrupted, order).checks if not c.passed]
    reason = (
        f"no path certificate: arrow ZVertex(level=0, base=1) -> ZVertex(level=2, base=3) {_NO_RISE}"
    )
    assert failed == [
        f"{name}: FAIL ({reason})"
        for name in (
            "parallel-path-lengths",
            "sectional-uniqueness",
            "count-identity",
            "projective-injective-distance",
        )
    ]
    unjoined = {c.name: c.line() for c in run_all(with_arrows(arq, ()), order).checks}
    assert unjoined["projective-injective-distance"] == (
        "projective-injective-distance: FAIL (no path from projective 1 to injective 1)"
    )


def test_run_all_checks_orbit_data_against_closed_forms():
    arq = build(e6_example())
    order = coxeter_matrix(arq).order
    assert run_all(arq, order).checks[-1].line() == "closed-form-orbits: PASS"
    wrong = replace(arq, rho=tuple(arq.quiver.vertices()))
    result = {c.name: c.line() for c in run_all(wrong, order).checks}
    assert result["closed-form-orbits"] == (
        "closed-form-orbits: FAIL (base 1: knitted (m, rho) = (4, 1), closed form (4, 6))"
    )
    assert result["orbit-index-relation"] == (
        "orbit-index-relation: FAIL (m(1) - m(3) = -1, not the walk statistic 0)"
    )
    # A longer rho never reaches the checks: the constructor names it.
    with pytest.raises(KnitInconsistentError) as caught:
        replace(arq, rho=arq.rho + (1,))
    assert str(caught.value) == "rho has 7 entries for 6 vertices"


@pytest.mark.parametrize("family, rank", all_diagrams(8))
def test_audit_lengths_agree_with_distance(family, rank):
    rng = random.Random(f"{family}{rank}")
    arq = build(random_orientation(canonical_diagram(family, rank), rng))
    ends = [(arq.projective(i), arq.injective(i)) for i in arq.quiver.vertices()]
    _, lengths = _path_audit(arq, ends)
    assert lengths == [distance(arq, a, b) for a, b in ends]


def test_audit_paths_memory_is_linear_in_the_quiver():
    # A30 has 465 vertices; all-pairs tables of counts and lengths peak
    # near 19 MB here, the certificate's per-vertex lists far below 1 MB.
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


# -- the linear-time certificate ----------------------------------------------------


def _edited(arq, add=(), drop=()):
    """A copy of ``arq`` without the ``drop`` arrows and with the ``add`` ones."""
    dropped = set(drop)
    kept = tuple(za for za in arq.arrows if (za.src, za.dst) not in dropped)
    return _with_extra_arrows(with_arrows(arq, kept), *add)


def _failed_conditions(arq):
    """The certificate's conditions (a)-(d) that fail, checked on vertices.

    (b) is stated in terms of the potential of (a), so it is checked only
    when (a) holds.
    """
    edges = {frozenset((a.src, a.dst)) for a in arq.quiver.arrows}
    failed = set()
    if any(frozenset((za.src.base, za.dst.base)) not in edges for za in arq.arrows):
        failed.add("c")
    if any(len({w.base for w in heads}) != len(heads) for heads in successors(arq).values()):
        failed.add("d")
    neighbours = {v: [] for v in arq.vertices}
    for za in arq.arrows:
        neighbours[za.src].append((za.dst, 1))
        neighbours[za.dst].append((za.src, -1))
    phi, component = {}, {}
    for root in arq.vertices:
        if root in phi:
            continue
        phi[root], component[root] = 0, root
        stack = [root]
        while stack:
            v = stack.pop()
            for w, step in neighbours[v]:
                if w not in phi:
                    phi[w], component[w] = phi[v] + step, root
                    stack.append(w)
                elif phi[w] != phi[v] + step:
                    failed.add("a")
    if "a" not in failed:
        shifts = {(component[v], v.base, phi[v] - 2 * v.level) for v in arq.vertices}
        if len(shifts) != len({(c, b) for c, b, _ in shifts}):
            failed.add("b")
    return failed


def _assert_only_condition_rejects(arq, condition, lines, arrow, why):
    # The reference's witness shows the quiver is broken; the certificate
    # names the first arrow that breaks it.
    assert _failed_conditions(arq) == {condition}
    assert reference_audit_lines(arq) == lines
    assert _uncertified(arq) == f"no path certificate: arrow {arrow[0]} -> {arrow[1]} {why}"


def test_certificate_condition_a_rejects_a_reversed_arrow():
    # Reversing (1, 3) -> (1, 2) keeps bases adjacent and successor bases
    # distinct, but beside (0, 2) -> (1, 3) it opens the path
    # (0, 2) -> (1, 1) -> (1, 2) -> (1, 3), two arrows longer.
    arq = _edited(
        build(validate(3, [(2, 1), (2, 3)])),
        add=[(ZVertex(1, 2), ZVertex(1, 3))],
        drop=[(ZVertex(1, 3), ZVertex(1, 2))],
    )
    _assert_only_condition_rejects(arq, "a", [
        "parallel-path-lengths: FAIL (lengths differ between "
        "ZVertex(level=0, base=1) and ZVertex(level=1, base=3))",
        "sectional-uniqueness: FAIL (extra parallel path between "
        "ZVertex(level=0, base=1) and ZVertex(level=1, base=3))",
    ], (ZVertex(1, 2), ZVertex(1, 3)), _NO_RISE)


def test_certificate_condition_b_rejects_a_base_at_two_shifts():
    # Three arrows moved: every arrow still raises a potential by one and
    # joins adjacent bases, but base 2 now sits at two values of
    # phi - 2 * level.  So (0, 2) -> (1, 3) -> (2, 2) folds onto the
    # backtrack 2 -> 3 -> 2 yet climbs two levels, escapes the hook rule,
    # and has (0, 2) -> (0, 1) -> (2, 2) beside it.  The plane's potential
    # holds (b) by construction, so a moved arrow breaks (a) for it.
    arq = _edited(
        build(validate(4, [(1, 2), (3, 2), (3, 4)])),
        add=[(ZVertex(0, 1), ZVertex(2, 2)), (ZVertex(0, 2), ZVertex(1, 3))],
        drop=[
            (ZVertex(0, 1), ZVertex(1, 2)),
            (ZVertex(0, 2), ZVertex(0, 3)),
            (ZVertex(0, 3), ZVertex(1, 4)),
        ],
    )
    _assert_only_condition_rejects(arq, "b", [
        "parallel-path-lengths: PASS",
        "sectional-uniqueness: FAIL (extra parallel path between "
        "ZVertex(level=0, base=2) and ZVertex(level=2, base=2))",
    ], (ZVertex(0, 1), ZVertex(2, 2)), _NO_RISE)


def test_certificate_condition_c_rejects_an_arrow_between_distant_bases():
    # (0, 1) -> (2, 4) raises the potential by one, but bases 1 and 4 are
    # three edges apart: a sectional path now has a second path beside it.
    arq = _edited(
        build(validate(4, [(1, 2), (2, 3), (3, 4)])), add=[(ZVertex(0, 1), ZVertex(2, 4))]
    )
    _assert_only_condition_rejects(arq, "c", [
        "parallel-path-lengths: PASS",
        "sectional-uniqueness: FAIL (extra parallel path between "
        "ZVertex(level=0, base=1) and ZVertex(level=2, base=3))",
    ], (ZVertex(0, 1), ZVertex(2, 4)), "joins bases 1 and 4, which are not adjacent")


def test_certificate_condition_d_rejects_a_doubled_arrow():
    arq = _edited(
        build(validate(4, [(1, 2), (3, 2), (3, 4)])), add=[(ZVertex(1, 3), ZVertex(2, 4))]
    )
    _assert_only_condition_rejects(arq, "d", [
        "parallel-path-lengths: PASS",
        "sectional-uniqueness: FAIL (extra parallel path between "
        "ZVertex(level=0, base=1) and ZVertex(level=2, base=4))",
    ], (ZVertex(1, 3), ZVertex(2, 4)), "is doubled")


def test_certificate_rejects_the_a3_shortcut():
    # Bases 1 and 3 are not adjacent, and the shortcut skips a level:
    # (a) is checked first.
    arq = _with_extra_arrows(build(a3_linear()), (ZVertex(0, 1), ZVertex(2, 3)))
    assert _failed_conditions(arq) == {"a", "c"}
    with pytest.raises(CrossCheckFailedError) as caught:
        _certify(arq, *_numbering(arq)[1:])
    assert str(caught.value) == (
        f"no path certificate: arrow ZVertex(level=0, base=1) -> ZVertex(level=2, base=3) {_NO_RISE}"
    )


def test_certificate_needs_one_shift_per_base_across_components():
    # With every arrow between bases 1 and 2 gone, each vertex of base 1 is
    # a component of its own but (0, 1), which (0, 1) -> (0, 2) joins to the
    # rest one step below (0, 2): a shift per component would pass, and
    # both path properties hold, but the plane's potential drops along that
    # arrow, so every check that reads paths fails on it.
    arq = build(validate(3, [(1, 2), (2, 3)]))
    order = coxeter_matrix(arq).order
    arq = _edited(
        arq,
        add=[(ZVertex(0, 1), ZVertex(0, 2))],
        drop=[(za.src, za.dst) for za in arq.arrows if {za.src.base, za.dst.base} == {1, 2}],
    )
    assert reference_audit_lines(arq) == [
        "parallel-path-lengths: PASS",
        "sectional-uniqueness: PASS",
    ]
    reason = (
        f"no path certificate: arrow ZVertex(level=0, base=1) -> ZVertex(level=0, base=2) {_NO_RISE}"
    )
    assert _uncertified(arq) == reason
    assert [c.line() for c in run_all(arq, order).checks] == [
        f"{name}: FAIL ({reason})" if name in _PATH_CHECKS else f"{name}: PASS"
        for name in _CHECK_NAMES
    ]


def _assert_certified(arq):
    # The potential is 2 * level + c(base), c(x) the forward less the
    # backward steps of the walk 1 .. x in the opposite quiver, and it
    # rises by one along every arrow.
    qop = arq.quiver.opposite()
    walks = {x: reduced_walk(qop, 1, x).steps for x in qop.vertices()}
    c = {x: sum(1 if step.forward else -1 for step in steps) for x, steps in walks.items()}
    phi = dict(zip(arq.vertices, _certify(arq, *_numbering(arq)[1:])))
    assert phi == {v: 2 * v.level + c[v.base] for v in arq.vertices}
    assert all(phi[za.dst] == phi[za.src] + 1 for za in arq.arrows)
    order = table_order(arq.dynkin)
    assert all(c.passed for c in run_all(arq, order).checks)
    assert audit_paths(arq).ok
    ends = [(arq.projective(i), arq.injective(i)) for i in arq.quiver.vertices()]
    assert _path_audit(arq, ends)[1] == [distance(arq, a, b) for a, b in ends]


@pytest.mark.parametrize("family, rank", all_diagrams(8))
def test_certificate_holds_on_every_small_diagram(family, rank):
    rng = random.Random(f"{family}{rank}")
    _assert_certified(build(random_orientation(canonical_diagram(family, rank), rng)))


@pytest.mark.parametrize("family", "ABCD")
def test_certificate_holds_on_random_orientations_to_rank_40(family):
    rng = random.Random(family)
    lowest = {"A": 1, "B": 2, "C": 3, "D": 4}[family]
    for rank in range(lowest, 41):
        arq = build(random_orientation(canonical_diagram(family, rank), rng))
        _assert_certified(arq)


def test_certificate_holds_on_linear_a100():
    _assert_certified(build(validate(100, [(i, i + 1) for i in range(1, 100)])))


def _span_ends(arq, rng):
    """Every projective-injective pair, then random pairs of vertices: some
    equal, some backwards in the topological order, some not joined."""
    ends = [(arq.projective(i), arq.injective(i)) for i in arq.quiver.vertices()]
    ends += [(rng.choice(arq.vertices), rng.choice(arq.vertices)) for _ in range(20)]
    ends += [(v, v) for v in rng.sample(arq.vertices, min(3, len(arq.vertices)))]
    return ends


def test_spans_of_a_projective_that_is_its_own_injective():
    arq = build(a1_quiver())
    position, tails, heads = _numbering(arq)
    phi = _certify(arq, tails, heads)
    assert _spans(position, tails, heads, phi, [(ZVertex(0, 1), ZVertex(0, 1))]) == [0]


@pytest.mark.parametrize(
    "family, rank", _CORRUPTED_DIAGRAMS, ids=[f + str(r) for f, r in _CORRUPTED_DIAGRAMS]
)
def test_spans_sweep_matches_the_per_pair_search(family, rank):
    # A deleted arrow keeps the certificate but leaves pairs unjoined.
    rng = random.Random(f"spans {family}{rank}")
    arq = build(random_orientation(canonical_diagram(family, rank), rng))
    unjoined = 0
    for k in [None] + rng.sample(range(len(arq.arrows)), min(6, len(arq.arrows))):
        corrupted = arq if k is None else with_arrows(arq, arq.arrows[:k] + arq.arrows[k + 1 :])
        position, tails, heads = _numbering(corrupted)
        phi = _certify(corrupted, tails, heads)
        ends = _span_ends(corrupted, rng)
        spans = _spans(position, tails, heads, phi, ends)
        assert spans == reference_spans(corrupted, phi, ends)
        unjoined += spans.count(None)
    assert unjoined


# -- run_all on broken quivers: a FAIL line per check, never an exception --------

_CHECK_NAMES = [
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
]
# The checks that read the path table.
_PATH_CHECKS = {
    "parallel-path-lengths",
    "sectional-uniqueness",
    "count-identity",
    "projective-injective-distance",
}


@st.composite
def _broken_quivers(draw, max_rank=5):
    """A random orientation up to ``max_rank`` with one arrow of
    :func:`_corrupted`, or one whose successor lists cannot be built, or
    whose orbit data are redrawn."""
    family, rank = draw(st.sampled_from(all_diagrams(max_rank)[1:]))  # A1 has no arrow
    g = canonical_diagram(family, rank)
    arq = build(orient(g, draw(st.integers(0, (1 << len(g.edges)) - 1))))
    kind = draw(st.sampled_from(["arrows", "backward", "cut", "orbits"]))
    if kind == "arrows":
        kinds = st.sampled_from(["forward", "doubled", "deleted", "reversed"])
        return _corrupted(arq, draw(kinds), lambda lo, hi: draw(st.integers(lo, hi)))
    za = draw(st.sampled_from(arq.arrows))
    if kind == "backward":  # closes an oriented cycle
        return _with_extra_arrows(arq, (za.dst, za.src))
    if kind == "cut":  # leaves an arrow into a vertex past the top of its orbit
        past = ZVertex(arq.m_of(za.dst.base) + 1, za.dst.base)
        return _with_extra_arrows(arq, (za.src, past))
    # Orbits of any length, and rho any permutation of the bases.
    m = draw(st.lists(st.integers(0, 2 * rank + 1), min_size=rank, max_size=rank))
    rho = draw(st.permutations(arq.rho))
    return relaid(arq, m=m, rho=tuple(rho), arrows=arq.arrows)


@settings(max_examples=200, deadline=None)
@given(_broken_quivers())
def test_run_all_reports_broken_quivers_line_by_line(arq):
    checks = run_all(arq, table_order(arq.dynkin)).checks
    assert [c.name for c in checks] == _CHECK_NAMES


def _lines(arq):
    return [c.line() for c in run_all(arq, table_order(arq.dynkin)).checks]


def test_an_oriented_cycle_fails_every_check_that_reads_paths():
    arq = build(a3_linear())
    za = arq.arrows[0]
    reason = f"no path certificate: arrow {za.dst} -> {za.src} {_NO_RISE}"
    assert _lines(_with_extra_arrows(arq, (za.dst, za.src))) == [
        f"{name}: FAIL ({reason})" if name in _PATH_CHECKS else f"{name}: PASS"
        for name in _CHECK_NAMES
    ]


def test_an_arrow_into_a_cut_vertex_fails_every_check_that_reads_paths():
    arq = build(a3_linear())
    gone = arq.arrows[0].dst  # the top of orbit 2
    lines = _lines(relaid(arq, m=(0, 0, 2), arrows=arq.arrows))
    reason = f"KeyError: {gone}"
    for name, line in zip(_CHECK_NAMES, lines):
        if name in _PATH_CHECKS:
            assert line == f"{name}: FAIL ({reason})"
    assert lines[7] == (
        "cluster-count: FAIL (fundamental domain has 8 objects, expected n(|C|+2)/2)"
    )


@pytest.mark.parametrize("q", [a3_linear(), g2_quiver(), e6_example()], ids=["A3", "G2", "E6"])
def test_every_back_arrow_makes_the_path_audit_name_an_oriented_cycle(q):
    # The certificate names the arrow that closes the cycle, whatever the
    # arrows before it; the original quiver is untouched.
    arq = build(q)
    for za in arq.arrows:
        cyclic = _with_extra_arrows(arq, (za.dst, za.src))
        reason = f"no path certificate: arrow {za.dst} -> {za.src} {_NO_RISE}"
        assert _uncertified(cyclic) == reason
        assert _lines(cyclic)[3:5] == [
            f"parallel-path-lengths: FAIL ({reason})",
            f"sectional-uniqueness: FAIL ({reason})",
        ]
    assert audit_paths(arq).ok


@pytest.mark.parametrize(
    "src, dst, named",
    [
        (ZVertex(0, 2), ZVertex(2, 2), ZVertex(2, 2)),  # past the top of orbit 2
        (ZVertex(1, 1), ZVertex(1, 2), ZVertex(1, 1)),  # past the top of orbit 1
        (ZVertex(-1, 3), ZVertex(0, 3), ZVertex(-1, 3)),  # below level 0
        (ZVertex(0, 2), ZVertex(0, 0), ZVertex(0, 0)),  # no base 0
        (ZVertex(1, 1), ZVertex(0, 4), ZVertex(0, 4)),  # both ends off: the head is named
    ],
    ids=["head", "tail", "negative", "base-0", "both"],
)
def test_an_arrow_end_off_the_orbits_fails_every_check_that_reads_paths(src, dst, named):
    arq = _with_extra_arrows(build(a3_linear()), (src, dst))  # m = (0, 1, 2)
    with pytest.raises(KeyError) as caught:
        audit_paths(arq)
    assert caught.value.args == (named,)
    reason = f"KeyError: {named}"
    assert _lines(arq) == [
        f"{name}: FAIL ({reason})" if name in _PATH_CHECKS else f"{name}: PASS"
        for name in _CHECK_NAMES
    ]


def test_a_quiver_that_is_no_tree_is_refused_at_construction():
    # No check reads such a quiver: the constructor refuses it, as the
    # walk step table of its opposite cannot be built.
    arq = build(a3_linear())
    for arrows, reason in (
        ((Arrow(1, 2), Arrow(2, 3), Arrow(1, 3)), "3 arrows on 3 vertices"),
        ((Arrow(1, 2),), "1 arrows on 3 vertices"),
    ):
        with pytest.raises(NotATreeError) as caught:
            replace(arq, quiver=ValuedQuiver(3, arrows))
        assert str(caught.value) == reason


@pytest.mark.parametrize(
    "rho, reason",
    [
        ((1, 1, 1), "no orbit ends at injective 2"),
        ((0, 2, 1), "rho names 0, not a vertex in 1..3"),
    ],
    ids=["repeated", "zero"],
)
def test_a_rho_that_is_no_permutation_fails_every_check_that_reads_an_injective(rho, reason):
    # No check reads such a rho: the constructor refuses it, naming why.
    with pytest.raises(KnitInconsistentError) as caught:
        replace(build(a3_linear()), rho=rho)
    assert str(caught.value) == reason


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_run_all_reports_any_rho_line_by_line(data):
    # Any permutation reaches every check; one that is no involution fails
    # derived-period, whose full period cannot land home.
    family, rank = data.draw(st.sampled_from(all_diagrams(5)))
    g = canonical_diagram(family, rank)
    arq = build(orient(g, data.draw(st.integers(0, (1 << len(g.edges)) - 1))))
    rho = tuple(data.draw(st.permutations(range(1, rank + 1))))
    lines = _lines(replace(arq, rho=rho))
    assert [line.split(":")[0] for line in lines] == _CHECK_NAMES
    involutive = all(rho[r - 1] == i for i, r in enumerate(rho, 1))
    period = lines[_CHECK_NAMES.index("derived-period")]
    assert involutive or period.startswith("derived-period: FAIL (")
    assert (rho == arq.rho) == (lines[-1] == "closed-form-orbits: PASS")


@pytest.mark.parametrize(
    "change, line",
    [
        (lambda d: d, "PASS"),
        (lambda d: (0,) * len(d), "FAIL (zero vector at {v})"),
        (lambda d: (-1,) + d[1:], None),
        (lambda d: (-1,) + (2,) * (len(d) - 1), None),
    ],
    ids=["unchanged", "zero", "negative", "negative-and-non-zero"],
)
def test_positive_dimension_vectors_are_non_zero_and_non_negative(change, line):
    # Two vectors changed alike, and the earlier is named.  A zero vector
    # fails the check; a negative entry never reaches it, as no layout
    # holds it (``line`` None).
    arq = build(e6_example())
    v, w = arq.vertices[7], arq.vertices[20]
    vectors = {**dims(arq), v: change(dims(arq)[v]), w: change(dims(arq)[w])}
    if line is None:
        with pytest.raises(ValueError, match=OUTSIDE_A_BYTE):
            relaid(arq, vectors)
        return
    checks = run_all(relaid(arq, vectors), table_order(arq.dynkin)).checks
    check = next(c for c in checks if c.name == "positive-dimension-vectors")
    assert check.line() == f"positive-dimension-vectors: {line.format(v=v)}"


def _a60():
    return validate(60, [(i, i + 1) for i in range(1, 60)])


@pytest.mark.parametrize(
    "quiver, src, dst",
    [
        pytest.param(e6_example, 3, 7, id="3-7"),
        pytest.param(e6_example, 7, 3, id="7-3"),
        pytest.param(e6_example, 0, 1, id="0-1"),
        pytest.param(e6_example, 12, 30, id="12-30"),
        # The last two of the 1,830 vertices, the top of orbit 60 and its translate.
        pytest.param(_a60, 1828, 1829, id="a60-last-orbit"),
    ],
)
def test_distinct_dimension_vectors_name_the_first_repeat(quiver, src, dst):
    # Vertex dst takes the vector of vertex src; the later of the two repeats the earlier.
    arq = build(quiver())
    u, v = arq.vertices[src], arq.vertices[dst]
    corrupted = relaid(arq, {**dims(arq), v: dims(arq)[u]})
    checks = run_all(corrupted, table_order(arq.dynkin)).checks
    first, later = sorted((src, dst))
    assert next(c for c in checks if c.name == "distinct-dimension-vectors").line() == (
        "distinct-dimension-vectors: FAIL "
        f"({arq.vertices[later]} repeats the vector of {arq.vertices[first]})"
    )


# -- packed verdicts name the witnesses that the walks name ----------------------


def _walk_only_lines(arq):
    """The lines of ``run_all`` with the path certificate failed, so that
    its arrows are walked, and the mesh line of the vertex-by-vertex
    reference."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_certified", lambda *arrays: False)
        return [reference_mesh_line(arq), *_lines(arq)[1:]]


@st.composite
def _walked_quivers(draw):
    """A quiver of :func:`_broken_quivers` with no vectors to lay out, or a
    random orientation up to rank 5 with vectors that have one to three
    entries changed, some past a byte."""
    if draw(st.booleans()):
        return draw(_broken_quivers()), None
    family, rank = draw(st.sampled_from(all_diagrams(5)))
    g = canonical_diagram(family, rank)
    arq = build(orient(g, draw(st.integers(0, (1 << len(g.edges)) - 1))))
    vectors = dims(arq)
    for _ in range(draw(st.integers(1, 3))):
        v, k = draw(st.sampled_from(arq.vertices)), draw(st.integers(0, rank - 1))
        entry = draw(st.sampled_from([-1, 0, 1, 2, 3, 255, 256]))
        vectors[v] = vectors[v][:k] + (entry,) + vectors[v][k + 1 :]
    return arq, vectors


@settings(max_examples=200, deadline=None)
@given(_walked_quivers())
def test_packed_verdicts_match_the_walks_on_corrupted_quivers(case):
    # Changed vectors, wrong m and rho, and doubled, reversed, dropped and
    # stray arrows: the packed arrays and the walks give the same lines.
    # Vectors with an entry past a byte cannot be laid out.
    arq, vectors = case
    if vectors is not None:
        if not fits_a_byte(arq, vectors):
            with pytest.raises(ValueError, match=OUTSIDE_A_BYTE):
                relaid(arq, vectors)
            return
        arq = relaid(arq, vectors)
    assert _lines(arq) == _walk_only_lines(arq)


_CHANGES = {
    "256": (lambda d: (256,) + d[1:], ValueError, OUTSIDE_A_BYTE),
    "minus-1": (lambda d: (-1,) + d[1:], ValueError, OUTSIDE_A_BYTE),
    "half": (lambda d: (d[0] + 0.5,) + d[1:], TypeError, NOT_AN_INT),
    "integral-floats": (lambda d: tuple(map(float, d)), TypeError, NOT_AN_INT),
}


@pytest.mark.parametrize("change", _CHANGES.values(), ids=_CHANGES)
def test_entries_outside_a_byte_are_left_to_the_walks(change):
    # An entry outside a byte reaches neither the packed checks nor the
    # reference walks: an interior vector of E6 changed cannot be laid
    # out.  A repeated such vector is refused the same way in
    # test_entries_outside_a_byte_are_refused_at_construction.
    change, error, message = change
    arq = build(e6_example())
    v = ZVertex(1, 1)
    vectors = {**dims(arq), v: change(dims(arq)[v])}
    assert not fits_a_byte(arq, vectors)
    with pytest.raises(error, match=message):
        relaid(arq, vectors)


@pytest.mark.parametrize(
    "weight, orbits, line",
    [
        # dim (1, 2) + dim (0, 2) = 7 dim (0, 1) and dim (1, 1) + dim (0, 1) = dim (1, 2).
        (7, (((10, 20), (55, 20)), ((5, 100), (65, 40))), "mesh-additivity: PASS"),
        # 300 * 219 = 65,700 is 164 in a 16-bit lane with 1 carried into the next one,
        # where the left side holds 1: only lanes wide enough for 255 * 300 tell them apart.
        (300, (((219, 0),), ((100, 1), (64, 0))),
         "mesh-additivity: FAIL (mesh relation fails at ZVertex(level=1, base=2))"),
    ],
    ids=["weight-7", "weight-300"],
)
def test_mesh_lanes_are_as_wide_as_the_weights_need(weight, orbits, line):
    # An in-memory quiver 1 -> 2 valued (1, weight): its mesh weights sum
    # past 3, and the packed verdict is exact.
    vectors = {ZVertex(r, i): x for i, orbit in enumerate(orbits, 1) for r, x in enumerate(orbit)}
    arq = relaid(build(g2_quiver()), vectors, quiver=ValuedQuiver(2, (Arrow(1, 2, (1, weight)),)))
    assert verify_mesh(arq).checks[0].line() == line == reference_mesh_line(arq)


def test_meshes_out_of_range_fail_where_every_sum_vanishes():
    # Every vector zero: each mesh sum vanishes, and only an input past the
    # top of its orbit fails the relation.
    arq = relaid(build(a3_linear()), {}, m=(0, 0, 2))
    assert verify_mesh(arq).checks[0].line() == reference_mesh_line(arq) == (
        "mesh-additivity: FAIL (in-arrow source ZVertex(level=1, base=2) of "
        "ZVertex(level=2, base=3) out of range)"
    )


def test_mesh_verdict_holds_few_orbits_packed_at_once():
    # On linear A60 numbered along the line an orbit is read by its own
    # base and its two neighbours, so a few of the 60 orbits are packed at
    # a time: all of them would take 2 bytes per entry.
    arq = build(validate(60, [(i, i + 1) for i in range(1, 60)]))
    tracemalloc.start()
    try:
        witness = oracle._mesh_witness(arq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert witness == ""
    assert peak < 2 * len(arq.vertices) * arq.n / 2

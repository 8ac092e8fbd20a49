"""Assembled translation quivers: build, closed forms, distances, counts."""

from __future__ import annotations

import random
from dataclasses import FrozenInstanceError, fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arquiver import (
    ARQuiver,
    Counts,
    CrossCheckFailedError,
    KnitInconsistentError,
    PositionOutOfRangeError,
    ZVertex,
    build,
    closed_form_rho_m,
    counts_and_nilpotency,
    coxeter_matrix,
    hammocks,
    orbit_index_relation_holds,
    table_order,
    validate,
)
from arquiver.ar_quiver import _lane_width, _lowest_lane, _widen
from arquiver.dynkin import canonical_diagram, relabel_quiver
from arquiver.oracle import _numbering
from conftest import (
    a1_quiver,
    a3_linear,
    all_diagrams,
    all_orientations,
    e6_example,
    f4_example,
    g2_quiver,
    orient,
    random_orientation,
    relabelled_orientations,
)
from plane import (
    NOT_AN_INT,
    OUTSIDE_A_BYTE,
    dims,
    distance,
    first_failure,
    fits_a_byte,
    path_statistics,
    reference_arrows,
    reference_knit,
    reference_orbit_relation,
    relaid,
    seed_section,
    successors,
    window_arrows,
    window_paths,
    with_arrows,
)

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
    assert set(dims(arq).values()) == G2_POSITIVE_ROOTS


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
    moved_vectors = dims(moved)
    assert len(moved_vectors) == len(arq.vertices)
    for v, vectors in dims(arq).items():
        transported = [0] * q.n
        for j, d in zip(pi, vectors):
            transported[j - 1] = d
        assert moved_vectors[ZVertex(v.level, pi[v.base - 1])] == tuple(transported)


def test_the_knitted_orbits_are_the_only_vector_field():
    assert [f.name for f in fields(ARQuiver)] == ["quiver", "dynkin", "layout", "m", "rho"]
    arq = build(a3_linear())
    assert arq.layout == bytes((1, 1, 1, 0, 1, 1, 1, 1, 0, 0, 0, 1, 0, 1, 0, 1, 0, 0))
    assert arq.m == (0, 1, 2)
    assert arq.vertices == tuple(ZVertex(r, i) for i in (1, 2, 3) for r in range(i))
    assert arq.vector(ZVertex(1, 2)) == bytes((1, 1, 0))
    with pytest.raises(PositionOutOfRangeError, match=r"^no level 2 on base 2$"):
        arq.vector(ZVertex(2, 2))
    assert not hasattr(arq, "orbits")
    assert not hasattr(arq, "dims")  # vectors by position are plane.dims, for the tests
    with pytest.raises(TypeError):
        replace(arq, orbits=())
    for name in ("layout", "m", "vertices", "arrows"):
        with pytest.raises(FrozenInstanceError):
            setattr(arq, name, getattr(arq, name))


@pytest.mark.parametrize(
    "layout, m, message",
    [
        (None, (0, 1), "m has 2 entries for 3 vertices"),
        (None, (0, -1, 2), "m names -1, not a level"),
        (bytes(11), (0, 0, 1), "layout has 11 bytes for 4 vertices of 3 entries"),
        (bytearray(18), None, "layout is a bytearray, not bytes"),
        (None, [0, 1, 2], "m is a list, not a tuple"),
        (None, (0, 1.0, 2), "m names 1.0, not a level"),
    ],
    ids=["short", "empty", "vector", "list", "m-list", "m-float"],
)
def test_a_layout_without_one_orbit_of_n_tuples_per_vertex_is_rejected(layout, m, message):
    # The layout must frame one orbit of n-entry vectors per vertex: an m
    # of n levels (an orbit of level -1 would be empty), and n bytes for
    # each of the sum(m) + n vertices, held as bytes.
    arq = build(a3_linear())
    with pytest.raises(KnitInconsistentError) as caught:
        replace(arq, layout=arq.layout if layout is None else layout, m=arq.m if m is None else m)
    assert str(caught.value) == message


_OUTSIDE_A_BYTE = {
    "256": (lambda x: 256, ValueError, OUTSIDE_A_BYTE),
    "minus-1": (lambda x: -1, ValueError, OUTSIDE_A_BYTE),
    "half": (lambda x: x + 0.5, TypeError, NOT_AN_INT),
    "integral-float": (float, TypeError, NOT_AN_INT),
}


@pytest.mark.parametrize(
    "name, repeated",
    [(name, repeated) for name in _OUTSIDE_A_BYTE for repeated in (False, True)],
    ids=[name + "-repeated" * repeated for name in _OUTSIDE_A_BYTE for repeated in (False, True)],
)
def test_entries_outside_a_byte_are_refused_at_construction(name, repeated):
    # Entry 3 of two E6 vectors changed to one that is not an int in
    # 0..255, and the second vector a copy of the first when ``repeated``:
    # no layout holds it, as bytes() refuses it before any check sees the
    # repeat.  Every reader of the vectors (the mesh pass, the Coxeter
    # rows, the report) therefore sees byte entries only.
    entry, error, message = _OUTSIDE_A_BYTE[name]
    arq = build(e6_example())
    vectors = dims(arq)
    u, v = arq.vertices[12], arq.vertices[30]
    for x in (u, v):
        vectors[x] = vectors[x][:2] + (entry(vectors[x][2]),) + vectors[x][3:]
    if repeated:
        vectors[v] = vectors[u]
    assert not fits_a_byte(arq, vectors)
    with pytest.raises(error, match=message):
        relaid(arq, vectors)
    if name == "integral-float" and not repeated:
        # The same values as ints lay the quiver out again, and it passes.
        again = relaid(arq, {x: tuple(map(int, d)) for x, d in vectors.items()})
        assert again == arq
        assert coxeter_matrix(again).order == table_order(arq.dynkin)


def _rho_reason(rho: tuple, n: int) -> str:
    """Why ``rho`` is no permutation of ``1..n``, or ``""``: its length,
    else its first entry off the bases, else the least base it misses."""
    if len(rho) != n:
        return f"rho has {len(rho)} entries for {n} vertices"
    stray = [r for r in rho if not 1 <= r <= n]
    if stray:
        return f"rho names {stray[0]}, not a vertex in 1..{n}"
    missing = [l for l in range(1, n + 1) if l not in rho]
    return f"no orbit ends at injective {missing[0]}" if missing else ""


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_rho_constructs_exactly_when_it_is_a_permutation(data):
    family, rank = data.draw(st.sampled_from(all_diagrams(6)))
    g = canonical_diagram(family, rank)
    arq = build(orient(g, data.draw(st.integers(0, (1 << len(g.edges)) - 1))))
    rho = tuple(
        data.draw(
            st.permutations(range(1, rank + 1))
            | st.lists(st.integers(-1, rank + 2), max_size=rank + 2)
        )
    )
    reason = _rho_reason(rho, rank)
    if reason:
        with pytest.raises(KnitInconsistentError) as caught:
            replace(arq, rho=rho)
        assert str(caught.value) == reason
    else:  # involutive or not: whether rho pairs orbits is left to the checks
        assert replace(arq, rho=rho).rho == rho


@pytest.mark.parametrize(
    "rho, message",
    [
        ((6, 5, 3, 4, 2, 1, 1), "rho has 7 entries for 6 vertices"),
        ((6, 5, 3, 7, 2, 1), "rho names 7, not a vertex in 1..6"),
        ((6, 5, 3, 6, 2, 1), "no orbit ends at injective 4"),
        ([6, 5, 3, 4, 2, 1], "rho is a list, not a tuple"),
        ((6, 5, 3.0, 4, 2, 1), "rho names 3.0, not a vertex in 1..6"),
        ((6, 5, 3, True, 2, 1), "rho names True, not a vertex in 1..6"),
    ],
    ids=["long", "stray", "missing", "list", "float", "bool"],
)
def test_a_rho_that_is_no_permutation_is_named_at_construction(rho, message):
    arq = build(e6_example())
    with pytest.raises(KnitInconsistentError) as caught:
        replace(arq, rho=rho)
    assert str(caught.value) == message


def test_build_and_check_read_no_position_keyed_vectors():
    # What `arquiver build` and `arquiver check` run reads the layout: the
    # only views built are `vertices`, `arrows` and the orbit index
    # `starts`, none keyed by position (`starts` is keyed by base).
    from arquiver import build_report, order_identity_check, report_to_json, to_dot
    from arquiver.oracle import run_all

    for q in (a3_linear(), g2_quiver(), e6_example()):
        arq = build(q)
        cd = coxeter_matrix(arq)
        report_to_json(build_report(arq, cd.order, include_hammocks=True))
        to_dot(arq)
        assert run_all(arq, cd.order).ok and order_identity_check(arq, cd)
        views = {"vertices", "arrows", "starts"}
        assert set(vars(arq)) <= {f.name for f in fields(ARQuiver)} | views


@settings(max_examples=60, deadline=None)
@given(relabelled_orientations())
def test_starts_index_each_orbit_of_the_vertices_and_the_layout(q):
    arq = build(q)
    n, starts, vertices = arq.n, arq.starts, arq.vertices
    assert starts[-1] == len(vertices) and len(starts) == n + 1
    for i in arq.quiver.vertices():
        assert vertices[starts[i - 1]] == (0, i)
    for p, v in enumerate(vertices):
        assert arq.vector(v) == arq.layout[n * p : n * (p + 1)]


@settings(max_examples=300, deadline=None)
@given(st.binary(min_size=1, max_size=40), st.integers(1, 3), st.data())
def test_the_lowest_lane_names_where_two_widened_strings_first_differ(a, width, data):
    k = data.draw(st.integers(0, len(a) - 1))  # a shared prefix
    b = a[:k] + data.draw(st.binary(min_size=len(a) - k, max_size=len(a) - k))
    diff = _widen(a, width) ^ _widen(b, width)
    first = next((p for p, (x, y) in enumerate(zip(a, b)) if x != y), None)
    assert (_lowest_lane(diff, width) if diff else None) == first


def _lanes(x: int, width: int, size: int) -> list[int]:
    """Lanes ``0..size - 1`` of ``x``; ``OverflowError`` if ``x`` needs more."""
    data = x.to_bytes(width * size, "little")
    return [int.from_bytes(data[width * p : width * (p + 1)], "little") for p in range(size)]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 30), st.data())
def test_weighted_sums_of_widened_bytes_read_back_lane_by_lane(size, data):
    term = st.tuples(st.integers(1, 300), st.binary(min_size=size, max_size=size))
    terms = data.draw(st.lists(term, min_size=1, max_size=4))
    width = _lane_width(sum(w for w, _ in terms))
    total = sum(w * _widen(x, width) for w, x in terms)
    assert _lanes(total, width, size) == [sum(w * x[p] for w, x in terms) for p in range(size)]


@pytest.mark.parametrize("weight, width", [(1, 1), (2, 2), (257, 2), (258, 3)])
def test_the_lane_width_is_the_least_that_holds_every_weighted_sum(weight, width):
    # 255 fits one byte, as no sum is negative; 255 * 257 = 65535 is the
    # most two bytes hold.
    assert _lane_width(weight) == width
    top = 255 * weight
    assert _lanes(weight * _widen(b"\xff\x00\xff", width), width, 3) == [top, 0, top]
    assert top >= 1 << 8 * (width - 1)


def test_dim_vector_examples():

    a3 = build(a3_linear())
    assert dims(a3)[ZVertex(1, 2)] == (1, 1, 0)
    assert dims(a3)[ZVertex(0, 3)] == (0, 0, 1)
    g2 = build(g2_quiver())
    assert dims(g2)[ZVertex(1, 1)] == (2, 1)
    assert ZVertex(3, 3) not in dims(a3)


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
    corrupted = relaid(build(e6_example()), m=(4, 4, 5, 5, 6, 5))
    assert not orbit_index_relation_holds(corrupted)


@st.composite
def _orbit_data(draw, max_rank=8):
    """A built quiver with ``m`` kept, shifted or redrawn, and ``rho`` kept
    or redrawn as any permutation of the bases."""
    family, rank = draw(st.sampled_from(all_diagrams(max_rank)))
    g = canonical_diagram(family, rank)
    arq = build(orient(g, draw(st.integers(0, (1 << len(g.edges)) - 1))))
    kind = draw(st.sampled_from(["kept", "shifted", "drawn"]))
    if kind == "kept":
        m = arq.m
    elif kind == "shifted":  # the relation reads only differences of m
        c = draw(st.integers(-min(arq.m), 3))
        m = tuple(x + c for x in arq.m)
    else:
        m = tuple(draw(st.lists(st.integers(0, 2 * rank), min_size=rank, max_size=rank)))
    rho = draw(st.just(arq.rho) | st.permutations(arq.rho).map(tuple))
    return relaid(arq, m=m, rho=rho)


@settings(max_examples=300, deadline=None)
@given(_orbit_data())
def test_orbit_index_relation_matches_the_arrow_counts_loop(arq):
    assert orbit_index_relation_holds(arq) == reference_orbit_relation(arq)


def test_projective_injective_distances_all_equal():
    for q in (a3_linear(), g2_quiver(), f4_example(), e6_example()):
        arq = build(q)
        order = coxeter_matrix(arq).order
        for i in q.vertices():
            assert distance(arq, arq.projective(i), arq.injective(i)) == order - 2


def test_dimension_vectors_are_distinct():
    for q in (a3_linear(), g2_quiver(), e6_example()):
        arq = build(q)
        assert len(set(dims(arq).values())) == len(arq.vertices)


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
    assert [res.k for res in hammocks(arq)] == list(q.vertices())
    for res in hammocks(arq):
        assert res.terminator == knit_hammock(q, res.k).terminator


def test_build_rejects_non_dynkin_input():
    from arquiver import NotDynkinError

    with pytest.raises(NotDynkinError):
        build(validate(2, [(1, 2, (2, 2))]))


def test_counts_cross_check_rejects_corrupted_orbit_lengths():
    arq = build(a3_linear())
    with pytest.raises(CrossCheckFailedError):
        counts_and_nilpotency(relaid(arq, m=(0, 1, 3)), 4)


def test_distance_cross_check_rejects_unequal_parallel_paths():
    arq = build(a3_linear())
    from arquiver.repetitive import ZArrow
    from arquiver.quiver import Arrow

    # A fabricated shortcut creates parallel paths of lengths 1 and 2.
    fake = ZArrow(ZVertex(0, 1), ZVertex(2, 3), Arrow(3, 1), True)
    corrupted = with_arrows(arq, arq.arrows + (fake,))
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
        assert report.ok, (q.arrows, first_failure(report))
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


@pytest.mark.parametrize("family, rank", all_diagrams(8))
def test_arrows_are_the_plane_arrows_in_range_on_every_orientation(family, rank):
    for q in all_orientations(canonical_diagram(family, rank)):
        arq = build(q)
        assert arq.arrows == reference_arrows(q, arq.m)


@settings(max_examples=60, deadline=None)
@given(relabelled_orientations())
def test_arrows_are_the_plane_arrows_in_range_on_relabelled_orientations(q):
    arq = build(q)
    assert arq.arrows == reference_arrows(q, arq.m)


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
    assert [res.table for res in hammocks(build(other))] == [
        res.table for res in hammocks(build(q))
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


# -- one path length in the library, checked by enumeration ---------------------


def _enumerated_counts(arq, order):
    """``counts_and_nilpotency`` with each distance enumerated on a window of
    the plane, all bases at levels ``0..max(m)``: its result, or the message
    it fails with.  A path never descends a level, so the window holds every
    path between its vertices."""
    total = sum(mi + 1 for mi in arq.m)
    if 2 * total != arq.n * order:
        half, odd = divmod(arq.n * order, 2)
        return f"{total} vertices but n*|C|/2 = {half}{'.5' if odd else ''}"
    top = (max(arq.m),) * arq.n
    window = relaid(arq, m=top, arrows=reference_arrows(arq.quiver, top))
    dists = []
    for i in arq.quiver.vertices():
        try:
            d = distance(window, arq.projective(i), arq.injective(i))
        except CrossCheckFailedError as exc:
            return str(exc)
        if d is None:
            return f"no path from projective {i} to injective {i}"
        dists.append(d)
    if max(dists) + 1 != order - 1:
        return f"longest projective-to-injective distance {max(dists)} != |C| - 2"
    return Counts(total, order - 1)


def _closed_form_counts(arq, order):
    try:
        return counts_and_nilpotency(arq, order)
    except CrossCheckFailedError as exc:
        return str(exc)


def test_counts_on_permuted_orbit_lengths_name_the_missing_path():
    # Orbit 3 of linear A3 cut to one level: the injective of 1 sits below
    # the level that projective 1 reaches it from.
    a3 = build(a3_linear())
    with pytest.raises(CrossCheckFailedError, match="^no path from projective 1 to injective 1$"):
        counts_and_nilpotency(relaid(a3, m=(0, 2, 1)), 4)
    a4 = build(validate(4, [(1, 2), (3, 2), (3, 4)]))
    with pytest.raises(CrossCheckFailedError, match="^no path from projective 1 to injective 1$"):
        counts_and_nilpotency(relaid(a4, m=(1, 2, 2, 1)), 5)


@pytest.mark.parametrize(
    "q",
    [
        a3_linear(),
        validate(4, [(1, 2), (3, 2), (3, 4)]),
        random_orientation(canonical_diagram("D", 5), random.Random("counts D5")),
        random_orientation(canonical_diagram("B", 4), random.Random("counts B4")),
        random_orientation(canonical_diagram("F", 4), random.Random("counts F4")),
    ],
    ids=["A3", "A4", "D5", "B4", "F4"],
)
def test_counts_on_permuted_orbit_data_match_the_enumeration(q):
    from itertools import permutations

    arq = build(q)
    order = coxeter_matrix(arq).order
    outcomes = set()
    for m in sorted(set(permutations(arq.m))):
        for rho in (arq.rho, arq.rho[::-1]):
            copy = relaid(arq, m=m, rho=rho)
            expected = _enumerated_counts(copy, order)
            assert _closed_form_counts(copy, order) == expected, (m, rho)
            outcomes.add(type(expected))
    assert outcomes == {Counts, str}


@pytest.mark.parametrize("family, rank", all_diagrams(8))
def test_path_table_matches_the_reference_kahn_order_on_every_orientation(family, rank):
    # The oracle numbers each arrow's ends by their positions in
    # ``arq.vertices``; the reference successor lists key a vertex by itself.
    for q in all_orientations(canonical_diagram(family, rank)):
        arq = build(q)
        vertices, (_, tails, heads) = arq.vertices, _numbering(arq)
        out: dict = {v: () for v in vertices}
        for v, w in zip(map(vertices.__getitem__, tails), map(vertices.__getitem__, heads)):
            out[v] += (w,)
        assert out == successors(arq)


def test_count_identity_names_half_of_n_times_the_order():
    # Three orbits of four on linear A3: 12 vertices against n*|C| = 12,
    # and the count must equal half of that.
    a3 = build(a3_linear())
    with pytest.raises(CrossCheckFailedError, match=r"^12 vertices but n\*\|C\|/2 = 6$"):
        counts_and_nilpotency(relaid(a3, m=(3, 3, 3)), 4)


# -- the vector knit: dimension vectors are the scalar hammocks, column by column ---


def _assert_columns_are_the_hammocks(q):
    arq = build(q)
    qop, bound = q.opposite(), table_order(arq.dynkin) + 1
    vectors = list(dims(arq).values())
    for k in q.vertices():
        table, terminator = reference_knit(qop, k, seed_section(qop, k), bound)
        # Nothing below the seed section or past the terminator: zero there.
        assert [table.get(v, 0) for v in arq.vertices] == [x[k - 1] for x in vectors], k
        x = terminator.base
        assert terminator == ZVertex(arq.m_of(x) + 1, x), k
        assert arq.rho_of(x) == k


@pytest.mark.parametrize("family, rank", all_diagrams(8))
def test_vector_columns_are_the_scalar_hammocks_on_every_orientation(family, rank):
    for q in all_orientations(canonical_diagram(family, rank)):
        _assert_columns_are_the_hammocks(q)


@settings(max_examples=60, deadline=None)
@given(relabelled_orientations())
def test_vector_columns_are_the_scalar_hammocks_on_relabelled_orientations(q):
    _assert_columns_are_the_hammocks(q)


def _seeding(monkeypatch, *projectives):
    """Seed the vector knit with these projective dimension vectors."""
    from arquiver import ar_quiver

    def seeds(qop, k):
        return {j: p[k - 1] for j, p in enumerate(projectives, 1) if p[k - 1]}

    monkeypatch.setattr(ar_quiver, "_level_zero", seeds)


A2 = validate(2, [(1, 2)])  # dim P_1 = (1, 1), dim P_2 = (0, 1)


@pytest.mark.parametrize(
    "q, projectives, message",
    [
        # P_1 = P_2: the translate of P_2 is zero, right below -dim P_1.
        (
            A2,
            [(1, 1), (1, 1)],
            r"^vector directly before the terminator ZVertex\(level=2, base=2\) is not a module's$",
        ),
        # The terminator -dim P_2 sits right above P_1, which has a negative entry.
        (
            A2,
            [(2, -1), (1, -1)],
            r"^vector directly before the terminator ZVertex\(level=1, base=1\) is not a module's$",
        ),
        # P_2 = (2, 1) outgrows P_1: the translate (-1, 0) of P_2 is no -dim P.
        (
            A2,
            [(1, 1), (2, 1)],
            r"^first negative vector at ZVertex\(level=1, base=2\) is not minus a projective's$",
        ),
        # P_2 = P_3: orbit 2 ends at minus both.
        (
            a3_linear(),
            [(1, 1, 1), (0, 1, 1), (0, 1, 1)],
            r"^orbit 2 terminates two hammocks \(2 and 3\)$",
        ),
        # Orbits 1 and 3 both end at -dim P_1 (read off 3 -> 2 -> 1).
        (
            validate(3, [(2, 1), (3, 2)]),
            [(1, 0, 0), (2, 1, 1), (1, 1, 1)],
            r"^some orbit terminates no hammock$",
        ),
        # Column 1 doubled: every vector knits consistently but P_1's top.
        (A2, [(2, 1), (0, 1)], r"^projective 1 misses its own simple top$"),
    ],
    ids=["zero-before", "negative-before", "not-a-projective", "two-hammocks", "no-hammock", "top"],
)
def test_vector_knit_rejects_inconsistent_seeds(monkeypatch, q, projectives, message):
    from arquiver import KnitInconsistentError

    _seeding(monkeypatch, *projectives)
    with pytest.raises(KnitInconsistentError, match=message):
        build(q)


@pytest.mark.parametrize("family, rank", all_diagrams(8))
def test_level_zero_seeds_are_level_zero_of_the_seed_sections(family, rank):
    from arquiver.ar_quiver import _level_zero

    for q in all_orientations(canonical_diagram(family, rank)):
        qop = q.opposite()
        for k in q.vertices():
            section = seed_section(qop, k)
            assert _level_zero(qop, k) == {v.base: x for v, x in section.items() if not v.level}


@pytest.mark.parametrize(
    "x, k, offset, message",
    [
        # Linear A3: the plain arrows of the opposite quiver run 3 -> 2 -> 1.
        (1, 3, 1, r"^sweep from 3 meets base 1 at level 0; its level offset is 1$"),
        (2, 1, 0, r"^sweep from 1 misses base 2 at level 0; its level offset is 0$"),
    ],
    ids=["meets", "misses"],
)
def test_level_zero_sweep_must_meet_the_level_offsets(x, k, offset, message):
    q = a3_linear()
    qop = q.opposite()
    steps = [list(row) for row in qop._forward_steps]
    steps[x][k] = offset  # the backward steps of the walk k .. x, misread
    qop.__dict__["_forward_steps"] = steps
    with pytest.raises(KnitInconsistentError, match=message):
        build(q)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 64).flatmap(
        lambda n: st.tuples(*[st.integers(-23, 23)] * n)  # inside +-_CAP = +-24
    )
)
def test_packed_lanes_round_trip(vector):
    from arquiver.ar_quiver import _CAP, _Lanes

    n = len(vector)
    lanes = _Lanes(n)
    packed = lanes.pack(vector)
    assert packed == sum(x << 16 * k for k, x in enumerate(vector))
    assert lanes.nonnegative(packed) == (min(vector) >= 0)
    assert lanes.within_cap(packed)
    assert lanes.within_cap(2 * packed) == (max(map(abs, vector)) <= _CAP // 2)


@pytest.mark.parametrize("weight", [25, 1000])
def test_vector_knit_stops_at_an_entry_past_the_cap(monkeypatch, weight):
    from arquiver import BoundExceededError, ar_quiver

    meshes = ar_quiver.mesh_inputs

    def heavy(base):  # dim (1, 2) = weight * dim P_1 - dim P_2 = (weight, weight - 1)
        return {x: tuple((o, s, weight * w) for o, s, w in ins) for x, ins in meshes(base).items()}

    monkeypatch.setattr(ar_quiver, "mesh_inputs", heavy)
    with pytest.raises(
        BoundExceededError, match=r"^dimension vector at ZVertex\(level=1, base=2\) leaves ±24$"
    ):
        build(A2)


def test_vertex_view_holds_the_arrows_own_endpoints():
    arq = build(e6_example())
    view = set(map(id, arq.vertices))
    assert all(id(za.src) in view and id(za.dst) in view for za in arq.arrows)
    copy = replace(arq)  # a copy builds its view afresh, from its own m
    assert copy.vertices == arq.vertices and copy.vertices is not arq.vertices


def test_vector_knit_rejects_a_pairing_that_is_not_an_involution(monkeypatch):
    from arquiver import KnitInconsistentError, ar_quiver

    knit = ar_quiver._knit_vectors

    def swapped(q, bound):  # rho (3, 2, 1) becomes the 3-cycle (2, 3, 1)
        layout, m, ends = knit(q, bound)
        return layout, m, {1: ends[1], 2: ends[3], 3: ends[2]}

    monkeypatch.setattr(ar_quiver, "_knit_vectors", swapped)
    with pytest.raises(KnitInconsistentError, match="^orbit pairing is not an involution$"):
        build(a3_linear())


def test_vector_knit_reads_no_mesh_input_before_it_is_knitted(monkeypatch):
    from arquiver import KnitInconsistentError, ar_quiver

    meshes = ar_quiver.mesh_inputs

    def ahead(base):  # star inputs read a level up, where nothing is knitted yet
        return {x: tuple((0, s, w) for _, s, w in rows) for x, rows in meshes(base).items()}

    monkeypatch.setattr(ar_quiver, "mesh_inputs", ahead)
    with pytest.raises(
        KnitInconsistentError,
        match=r"^mesh input of ZVertex\(level=1, base=2\) read before it was knitted$",
    ):
        build(A2)


def test_vector_knit_stops_past_level_h_plus_one(monkeypatch):
    from arquiver import BoundExceededError, ar_quiver

    # Claiming h = 1 bounds the knit at level 2; linear A3 ends orbit 3 at level 3.
    monkeypatch.setattr(ar_quiver, "table_order", lambda dynkin: 1)
    with pytest.raises(BoundExceededError, match="within 2 levels"):
        build(a3_linear())

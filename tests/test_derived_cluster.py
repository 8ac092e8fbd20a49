"""Derived translation coordinates and the cluster fundamental domain."""

from __future__ import annotations

import random
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arquiver import (
    CrossCheckFailedError,
    DerivedVertex,
    KnitInconsistentError,
    PositionOutOfRangeError,
    build,
    cluster_count,
    cluster_normalize,
    coxeter_matrix,
    derived_distance,
    derived_nilpotency,
    validate,
)
from arquiver.derived import plane_position
from arquiver.dynkin import all_orientations, canonical_diagram
from conftest import a1_quiver, a3_linear, e6_example, g2_quiver
from plane import (
    in_fundamental_domain,
    orbit_shift,
    relaid,
    tau_d,
    tau_d_inverse,
    walk_cluster_normalize,
    window_paths,
)


def _with_order(q):
    arq = build(q)
    return arq, coxeter_matrix(arq).order


def test_tau_d_inverse_at_orbit_boundary():
    arq, _ = _with_order(a3_linear())
    # (2,3) is the injective paired with 1; next comes the shifted projective.
    assert tau_d_inverse(arq, DerivedVertex(2, 3, 0)) == DerivedVertex(0, 1, 1)


def test_tau_d_inverse_interior_step():
    arq, _ = _with_order(a3_linear())
    assert tau_d_inverse(arq, DerivedVertex(0, 2, 0)) == DerivedVertex(1, 2, 0)


def test_full_period_shifts_twice():
    for q in (a3_linear(), g2_quiver(), e6_example()):
        arq, order = _with_order(q)
        for i in arq.quiver.vertices():
            v = DerivedVertex(0, i, 0)
            for _ in range(order):
                v = tau_d_inverse(arq, v)
            assert v == DerivedVertex(0, i, 2)


def test_tau_d_inverts_tau_d_inverse():
    arq, _ = _with_order(g2_quiver())
    for i in arq.quiver.vertices():
        for r in range(arq.m_of(i) + 1):
            for s in range(-3, 4):
                v = DerivedVertex(r, i, s)
                assert tau_d(arq, tau_d_inverse(arq, v)) == v
                assert tau_d_inverse(arq, tau_d(arq, v)) == v


def test_derived_distance_examples():
    arq, order = _with_order(a3_linear())
    p1 = DerivedVertex(0, 1, 0)
    assert derived_distance(arq, order, p1, p1) == 0
    assert derived_distance(arq, order, p1, DerivedVertex(0, 1, 1)) == 4
    assert derived_distance(arq, order, p1, DerivedVertex(0, 1, 2)) == 8 == 2 * order
    inj = arq.injective(1)
    mod_dist = derived_distance(
        arq, order, p1, DerivedVertex(inj.level, inj.base, 0)
    )
    assert derived_distance(arq, order, p1, DerivedVertex(0, 1, 1)) == mod_dist + 2


def test_derived_distance_matches_window_enumeration():
    arq, order = _with_order(g2_quiver())
    qop = arq.quiver.opposite()
    start = plane_position(arq, order, DerivedVertex(0, 1, 0))
    by_end = defaultdict(set)
    for path in window_paths(qop, start, 0, 4, 9):
        by_end[path.end].add(len(path))
    for end, lengths in by_end.items():
        assert len(lengths) == 1  # parallel derived paths share length
    for s in (0, 1):
        for i in (1, 2):
            for r in range(arq.m_of(i) + 1):
                target = plane_position(arq, order, DerivedVertex(r, i, s))
                if target in by_end:
                    assert derived_distance(
                        arq, order, DerivedVertex(0, 1, 0), DerivedVertex(r, i, s)
                    ) == by_end[target].pop()


def test_derived_nilpotency_values():
    for q, expected in ((a3_linear(), 3), (a1_quiver(), 1), (e6_example(), 11)):
        arq, order = _with_order(q)
        assert derived_nilpotency(arq, order) == expected


def test_cluster_normalize_fixed_points():
    arq, order = _with_order(a3_linear())
    for v in (DerivedVertex(0, 3, 1), DerivedVertex(1, 2, 0), DerivedVertex(0, 1, 0)):
        rep, power = cluster_normalize(arq, order, v)
        assert rep == v and power == 0


def test_cluster_normalize_shifted_stalk():
    # (1,2,2) is one identification step after the shifted projective (0,2,1).
    arq, order = _with_order(a3_linear())
    assert orbit_shift(arq, DerivedVertex(0, 2, 1)) == DerivedVertex(1, 2, 2)
    rep, power = cluster_normalize(arq, order, DerivedVertex(1, 2, 2))
    assert rep == DerivedVertex(0, 2, 1) and power == 1


def test_cluster_normalize_constant_on_orbits_and_idempotent():
    rng = random.Random(6)
    arq, order = _with_order(g2_quiver())
    for _ in range(20):
        i = rng.randrange(1, 3)
        v = DerivedVertex(rng.randrange(0, arq.m_of(i) + 1), i, rng.randrange(-5, 6))
        rep, power = cluster_normalize(arq, order, v)
        assert in_fundamental_domain(rep)
        assert cluster_normalize(arq, order, rep) == (rep, 0)
        w = orbit_shift(arq, v)
        assert cluster_normalize(arq, order, w) == (rep, power + 1)
        # Walk back from the representative to the input.
        check = rep
        for _ in range(abs(power)):
            check = orbit_shift(arq, check)
        if power >= 0:
            assert check == v


def test_orbit_freeness():
    arq, order = _with_order(a3_linear())
    for i in arq.quiver.vertices():
        for r in range(arq.m_of(i) + 1):
            v = DerivedVertex(r, i, 0)
            w = v
            for p in range(1, 2 * (order + 2)):
                w = orbit_shift(arq, w)
                assert w != v


def test_cluster_counts():
    assert cluster_count(*_with_order(a3_linear())) == 9
    assert cluster_count(*_with_order(a1_quiver())) == 2
    e8 = validate(
        8, [(1, 2), (2, 3), (3, 4), (3, 5), (5, 6), (6, 7), (7, 8)]
    )
    assert cluster_count(*_with_order(e8)) == 128


def test_fundamental_domain_size_formula():
    a60 = validate(60, [(i, i + 1) for i in range(1, 60)])
    for q in (a3_linear(), g2_quiver(), e6_example(), a60):
        arq, order = _with_order(q)
        domain = [DerivedVertex(v.level, v.base, 0) for v in arq.vertices]
        domain += [DerivedVertex(0, i, 1) for i in arq.quiver.vertices()]
        assert len(domain) == arq.n * (order + 2) // 2 == cluster_count(arq, order)
        reps = {cluster_normalize(arq, order, v) for v in domain}
        assert all(p == 0 for _, p in reps)
        assert len(reps) == len(domain)
        # Every vertex at shifts -3..3 names exactly the objects of C_H.
        reps = {
            cluster_normalize(arq, order, DerivedVertex(v.level, v.base, s)).rep
            for v in arq.vertices
            for s in range(-3, 4)
        }
        assert len(reps) == cluster_count(arq, order)


_DIAGRAMS = [
    q
    for family, rank in (
        ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("B", 2), ("B", 3),
        ("B", 4), ("C", 3), ("D", 4), ("D", 5), ("E", 6), ("F", 4), ("G", 2),
    )
    for q in all_orientations(canonical_diagram(family, rank))
]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_cluster_normalize_matches_the_identification_walk(data):
    arq, order = _with_order(data.draw(st.sampled_from(_DIAGRAMS)))
    v = data.draw(st.sampled_from(arq.vertices))
    bound = 3 * (order + 2)
    w = DerivedVertex(v.level, v.base, data.draw(st.integers(-bound, bound)))
    assert cluster_normalize(arq, order, w) == walk_cluster_normalize(arq, order, w)


_A3_PAIR = "orbits 3 and 1 = rho(3) make no period of {}: rho(1) = 3, m(3) + m(1) + 2 = 4"


@pytest.mark.parametrize(
    "rho, order, v, message",
    [
        # Linear A3's own rho pairs orbit 3 with orbit 1 into a period of
        # 4; at any other order the division would run over the wrong period.
        ((3, 2, 1), 6, (2, 3, 7), _A3_PAIR.format(6)),
        ((3, 2, 1), 0, (2, 3, 7), _A3_PAIR.format(0)),
        ((3, 2, 1), -2, (2, 3, 7), _A3_PAIR.format(-2)),
        # rho = (2, 3, 1) is no involution: orbit 1 climbs into orbit 2, and
        # orbit 2 into orbit 3, not back into orbit 1.
        (
            (2, 3, 1),
            4,
            (0, 1, 0),
            "orbits 1 and 2 = rho(1) make no period of 4: rho(2) = 3, m(1) + m(2) + 2 = 3",
        ),
    ],
    ids=["order-6", "order-0", "order-minus-2", "rho-231"],
)
def test_orbits_that_make_no_period_of_the_order_are_refused(rho, order, v, message):
    arq = relaid(build(a3_linear()), rho=rho)
    with pytest.raises(CrossCheckFailedError) as caught:
        cluster_normalize(arq, order, DerivedVertex(*v))
    assert str(caught.value) == message


def test_a_shifted_position_needs_orbits_that_make_a_period():
    # One backward step takes (2, 3, 0) to (0, 1, 1), so the real A3 puts
    # them 2 apart.  Under rho = (2, 3, 1) orbits 1 and 2 make no period,
    # and a shifted position cannot be placed; shift 0 reads no rho.
    arq, order = _with_order(a3_linear())
    a, b = DerivedVertex(2, 3, 0), DerivedVertex(0, 1, 1)
    assert tau_d_inverse(arq, a) == b
    assert derived_distance(arq, order, a, b) == 2
    bad = relaid(arq, rho=(2, 3, 1))
    assert plane_position(bad, order, a) == plane_position(arq, order, a)
    for call in (lambda: plane_position(bad, order, b), lambda: derived_distance(bad, order, a, b)):
        with pytest.raises(CrossCheckFailedError) as caught:
            call()
        assert str(caught.value) == (
            "orbits 1 and 2 = rho(1) make no period of 4: rho(2) = 3, m(1) + m(2) + 2 = 3"
        )


@pytest.mark.parametrize(
    "m, rho, order, landing",
    [
        # rho = (2, 3, 1): the injective paired with 1 is unchanged, so the
        # distance check passes, but the period climbs orbit 1 into orbit 2
        # and orbit 2 into orbit 3.
        ((0, 1, 2), (2, 3, 1), 4, "level=1, base=3, shift=2"),
        # A period of 3, one short of h, with rho = (3, 1, 2): injective 1
        # ends orbit 2, one arrow from P_1 as the distance check asks, but
        # the period leaves orbit 1 at once and stops two levels up orbit 3.
        ((0, 1, 2), (3, 1, 2), 3, "level=2, base=3, shift=1"),
    ],
)
def test_a_period_that_misses_home_is_named_with_where_it_lands(m, rho, order, landing):
    arq, _ = _with_order(a3_linear())
    message = (
        r"^a full period of backward translation sent "
        rf"DerivedVertex\(level=0, base=1, shift=0\) to DerivedVertex\({landing}\)$"
    )
    with pytest.raises(CrossCheckFailedError, match=message):
        derived_nilpotency(relaid(arq, m=m, rho=rho), order)


def test_a_pairing_that_is_no_permutation_never_reaches_the_period():
    # rho = (3, 1, 1) ends no orbit at injective 2: the constructor names it.
    arq, _ = _with_order(a3_linear())
    with pytest.raises(KnitInconsistentError) as caught:
        relaid(arq, m=(0, 1, 2), rho=(3, 1, 1))
    assert str(caught.value) == "no orbit ends at injective 2"


def _reference_derived_nilpotency(arq, order):
    """The distance check, then a walk of one full period from each projective."""
    for i in arq.quiver.vertices():
        p = DerivedVertex(0, i, 0)
        inj = arq.injective(i)
        d = derived_distance(arq, order, p, DerivedVertex(inj.level, inj.base, 0))
        if d != order - 2:
            raise CrossCheckFailedError(
                f"derived distance projective {i} .. injective {i} is {d}, "
                f"expected {order - 2}"
            )
        w = p
        for _ in range(order):
            w = tau_d_inverse(arq, w)
        if w != DerivedVertex(0, i, 2):
            raise CrossCheckFailedError(
                f"a full period of backward translation sent {p} to {w}"
            )
    return order - 1


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the type and text are what is compared
        return type(exc), str(exc)


_SMALL = [
    q
    for family, rank in (("A", 3), ("A", 4), ("D", 4), ("B", 3))
    for q in all_orientations(canonical_diagram(family, rank))
]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_derived_nilpotency_matches_the_period_walk_on_corrupted_orbits(data):
    q = data.draw(st.sampled_from(_SMALL))
    arq, order = _with_order(q)
    n = arq.n
    # rho redrawn as any permutation, involutive or not; m edited anywhere,
    # an orbit holding at least its projective.
    rho, m = data.draw(st.just(arq.rho) | st.permutations(arq.rho)), list(arq.m)
    for _ in range(data.draw(st.integers(0, 2))):
        m[data.draw(st.integers(0, n - 1))] = data.draw(st.integers(0, n + 1))
    order = data.draw(st.sampled_from([order, order, order + 2, order - 1, 0]))
    arq = relaid(arq, m=m, rho=tuple(rho))
    expected = _outcome(_reference_derived_nilpotency, arq, order)
    assert _outcome(derived_nilpotency, arq, order) == expected


@pytest.mark.parametrize("base", [0, -1, 4])
def test_a_base_outside_the_quiver_has_no_derived_position(base):
    # Linear A3 has bases 1..3; rho[base - 1] would read rho[-1] at base 0.
    arq, order = _with_order(a3_linear())
    with pytest.raises(PositionOutOfRangeError, match=rf"^no paired injective for base {base}$"):
        arq.rho_of(base)
    with pytest.raises(PositionOutOfRangeError, match=rf"^no projective for base {base}$"):
        arq.projective(base)
    for shift in (0, 1, 2, -1):
        v = DerivedVertex(0, base, shift)
        with pytest.raises(PositionOutOfRangeError):
            plane_position(arq, order, v)
        with pytest.raises(PositionOutOfRangeError):
            derived_distance(arq, order, v, DerivedVertex(0, 1, 2))
        with pytest.raises(PositionOutOfRangeError):
            derived_distance(arq, order, DerivedVertex(0, 1, 0), v)
        with pytest.raises(PositionOutOfRangeError):
            tau_d_inverse(arq, v)


@pytest.mark.parametrize(
    "call, v",
    [
        (tau_d, DerivedVertex(2, 0, 0)),  # base 0
        (tau_d, DerivedVertex(7, 1, 0)),  # m(1) = 0
        (tau_d_inverse, DerivedVertex(9, 1, 0)),
        (tau_d_inverse, DerivedVertex(-1, 2, 0)),
        (plane_position, DerivedVertex(2, 2, 1)),  # m(2) = 1
        (plane_position, DerivedVertex(-1, 3, 0)),
        (cluster_normalize, DerivedVertex(0, 9, 0)),
        (cluster_normalize, DerivedVertex(3, 3, 5)),  # m(3) = 2
    ],
    ids=["tau-base-0", "tau-past-m", "tau-inverse-past-m", "tau-inverse-negative",
         "plane-past-m", "plane-negative", "cluster-base-9", "cluster-past-m"],
)
def test_a_position_off_the_orbits_is_rejected(call, v):
    # Linear A3: m = (0, 1, 2); every coordinate lies on base 1..3 at level 0..m(base).
    arq, order = _with_order(a3_linear())
    assert arq.m == (0, 1, 2)
    args = (arq, v) if call in (tau_d, tau_d_inverse) else (arq, order, v)
    with pytest.raises(PositionOutOfRangeError):
        call(*args)


def test_every_position_on_the_orbits_is_accepted():
    arq, order = _with_order(a3_linear())
    for i, top in enumerate(arq.m, 1):
        for r in range(top + 1):
            for s in (-3, 0, 1, 4):
                v = DerivedVertex(r, i, s)
                assert tau_d_inverse(arq, tau_d(arq, v)) == v
                plane_position(arq, order, v)
                cluster_normalize(arq, order, v)

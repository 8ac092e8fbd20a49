"""Coxeter matrix: exact solve, finite order, identities."""

from __future__ import annotations

import random
import tracemalloc
from dataclasses import replace
from operator import mul
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arquiver import (
    CrossCheckFailedError,
    DerivedVertex,
    KnitInconsistentError,
    SingularCartanError,
    ZVertex,
    build,
    coxeter_matrix,
    order_identity_check,
    table_order,
    validate,
)
from arquiver.coxeter import _order_identity_witness, _terms
from arquiver.dynkin import DynkinClass, canonical_diagram
from conftest import (
    a1_quiver,
    a3_linear,
    all_diagrams,
    all_orientations,
    e6_example,
    g2_quiver,
    orient,
    random_orientation,
    relabelled_orientations,
)
from plane import (
    NOT_AN_INT,
    OUTSIDE_A_BYTE,
    dims,
    fits_a_byte,
    relaid,
    tau_d,
    tau_d_inverse,
    walk_orbits,
)

# -- dense reference arithmetic, for checking the sparse certificate ------------


def identity_matrix(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_mul(a, b):
    columns = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in columns) for row in a)


def mat_vec(a, v):
    return tuple(sum(map(mul, row, v)) for row in a)


def mat_neg(a):
    return tuple(tuple(-x for x in row) for row in a)


def signed_dim(arq, v):
    """Dimension vector of a shifted stalk: the sign alternates with the shift."""
    sign = -1 if v.shift % 2 else 1
    return tuple(sign * x for x in arq.vector(ZVertex(v.level, v.base)))


def derived_dim_check(arq, cd, samples):
    """Translate-then-measure equals measure-then-transform, on samples.

    For each ``(vertex, t)``: apply the derived translation ``t`` times
    (backwards for negative ``t``) and compare the signed dimension
    vector with the ``t``-th matrix power applied to the original one.
    """
    inverse = identity_matrix(arq.n)
    for _ in range(cd.order - 1):
        inverse = mat_mul(inverse, cd.matrix)
    for v, t in samples:
        w = v
        for _ in range(abs(t)):
            w = tau_d(arq, w) if t > 0 else tau_d_inverse(arq, w)
        step = cd.matrix if t > 0 else inverse
        vec = signed_dim(arq, v)
        for _ in range(abs(t)):
            vec = mat_vec(step, vec)
        if vec != signed_dim(arq, w):
            return False
    return True


def test_a3_matrix_action():
    cd = coxeter_matrix(build(a3_linear()))
    assert mat_vec(cd.matrix, (1, 1, 1)) == (-1, 0, 0)
    assert mat_vec(cd.matrix, (0, 1, 1)) == (-1, -1, 0)
    assert mat_vec(cd.matrix, (0, 0, 1)) == (-1, -1, -1)
    assert cd.order == 4


def test_a1_matrix_is_minus_one():
    cd = coxeter_matrix(build(a1_quiver()))
    assert cd.matrix == ((-1,),)
    assert cd.order == 2


def test_g2_order():
    assert coxeter_matrix(build(g2_quiver())).order == 6


def test_defining_identity_is_exact():
    from conftest import all_diagrams

    quivers = [a3_linear(), g2_quiver(), e6_example()]
    for family, rank in all_diagrams(6):
        quivers += all_orientations(canonical_diagram(family, rank))
    for q in quivers:
        cd = coxeter_matrix(build(q))
        assert mat_mul(cd.matrix, cd.cartan) == mat_neg(cd.inj), q.arrows


def test_cartan_determinant_is_unimodular():
    # Unitriangularity in topological order makes det = +-1; check by
    # integrality of the inverse instead: C * Cartan = -Inj has an exact
    # integer solution, and a full order power returns to the identity.
    for q in (a3_linear(), g2_quiver(), e6_example()):
        cd = coxeter_matrix(build(q))
        power = identity_matrix(len(cd.matrix))
        for _ in range(cd.order):
            power = mat_mul(power, cd.matrix)
        assert power == identity_matrix(len(cd.matrix))


def test_order_is_minimal():
    for q in (a3_linear(), g2_quiver(), e6_example()):
        cd = coxeter_matrix(build(q))
        n = len(cd.matrix)
        power = identity_matrix(n)
        for t in range(1, cd.order):
            power = mat_mul(power, cd.matrix)
            assert power != identity_matrix(n)


def test_table_order_values():
    assert table_order(DynkinClass("D", 6, tuple(range(1, 7)))) == 10
    assert table_order(DynkinClass("A", 1, (1,))) == 2
    assert table_order(DynkinClass("E", 8, tuple(range(1, 9)))) == 30
    assert table_order(DynkinClass("B", 5, tuple(range(1, 6)))) == 10
    assert table_order(DynkinClass("C", 4, tuple(range(1, 5)))) == 8
    assert table_order(DynkinClass("F", 4, tuple(range(1, 5)))) == 12
    assert table_order(DynkinClass("G", 2, (1, 2))) == 6


def test_order_identity_check_examples():
    e6 = build(e6_example())
    cd = coxeter_matrix(e6)
    assert e6.m_of(1) + e6.m_of(e6.rho_of(1)) + 2 == 12
    assert order_identity_check(e6, cd)
    a3 = build(a3_linear())
    assert order_identity_check(a3, coxeter_matrix(a3))
    corrupted = relaid(e6, m=(4, 4, 5, 5, 6, 5))
    assert not order_identity_check(corrupted, cd)
    # The witness of each failure.
    assert _order_identity_witness(e6, cd.order) == ""
    assert _order_identity_witness(e6, 2 * cd.order) == "order 24 is not h = 12 for E6"
    assert _order_identity_witness(corrupted, cd.order) == (
        "m(1) + m(rho(1)) + 2 = 11, not |C| = 12"
    )
    # A rho entry off the vertices never reaches the check: the constructor names it.
    with pytest.raises(KnitInconsistentError) as caught:
        replace(e6, rho=(6, 5, 3, 7, 2, 1))
    assert str(caught.value) == "rho names 7, not a vertex in 1..6"


def test_a_short_rho_never_reaches_the_order_identity_check():
    # The witness reads rho(i) for every base, so a rho one entry short is
    # refused before any check can run.
    e6 = build(e6_example())
    with pytest.raises(KnitInconsistentError) as caught:
        replace(e6, rho=e6.rho[:-1])
    assert str(caught.value) == "rho has 5 entries for 6 vertices"


def test_order_independent_of_orientation_sample():
    rng = random.Random(4)
    for family, rank in [("A", 5), ("B", 4), ("D", 6), ("F", 4)]:
        g = canonical_diagram(family, rank)
        orders = set()
        for _ in range(5):
            arq = build(random_orientation(g, rng))
            orders.add(coxeter_matrix(arq).order)
        assert len(orders) == 1


def test_order_table_exhaustive_up_to_rank_six():
    from conftest import all_diagrams

    for family, rank in all_diagrams(6):
        g = canonical_diagram(family, rank)
        expected = None
        for q in all_orientations(g):
            arq = build(q)
            cd = coxeter_matrix(arq)
            expected = expected or table_order(arq.dynkin)
            assert cd.order == expected, (family, rank, q.arrows)


def test_corrupted_dims_fail_unitriangularity():
    arq = build(a3_linear())
    corrupted = relaid(arq, {**dims(arq), arq.projective(1): (0, 1, 1)})  # kills the unit diagonal
    with pytest.raises(SingularCartanError):
        coxeter_matrix(corrupted)


def test_projectives_that_disagree_with_the_ext_quiver_are_named():
    # Projective 1 of the E6 fixture has dimension vector (1, 1, 1, 1, 1, 0).
    # Adding the sixth simple keeps the Cartan matrix unimodular, so only the
    # Euler form E - A read off the arrows tells it apart from a real one.
    arq = build(e6_example())
    corrupted = relaid(arq, {**dims(arq), arq.projective(1): (1, 1, 1, 1, 1, 1)})
    with pytest.raises(SingularCartanError, match=r"projective 1\b"):
        coxeter_matrix(corrupted)


def test_derived_dim_check_examples():
    a3 = build(a3_linear())
    cd = coxeter_matrix(a3)
    samples = [
        (DerivedVertex(0, 1, 0), 0),  # identity
        (DerivedVertex(0, 1, 0), -4),  # full backward period lands at shift 2
        (DerivedVertex(0, 1, 0), -1),  # off the projective edge
        (DerivedVertex(1, 2, 0), 2),
        (DerivedVertex(0, 3, 1), -3),
    ]
    assert derived_dim_check(a3, cd, samples)


def test_derived_dim_check_random_samples():
    rng = random.Random(12)
    for q in (g2_quiver(), e6_example()):
        arq = build(q)
        cd = coxeter_matrix(arq)
        samples = []
        for _ in range(20):
            i = rng.randrange(1, arq.n + 1)
            r = rng.randrange(0, arq.m_of(i) + 1)
            samples.append(
                (DerivedVertex(r, i, rng.randrange(-2, 3)), rng.randrange(-6, 7))
            )
        assert derived_dim_check(arq, cd, samples)


def test_order_certification_names_stage_type_and_power():
    from arquiver import OrderBoundExceededError

    a3 = build(a3_linear())  # order 4
    # h = 6 for B3: C^6 = C^2 is not the identity.
    with pytest.raises(OrderBoundExceededError, match=r"coxeter: C\^6 != I for B3 \(h = 6\)"):
        coxeter_matrix(replace(a3, dynkin=DynkinClass("B", 3, (1, 2, 3))))
    # h = 8 for A7: C^8 = I, but already C^4 = I, so 8 is not the order.
    with pytest.raises(OrderBoundExceededError, match=r"coxeter: C\^4 = I for A7 \(h = 8\)"):
        coxeter_matrix(replace(a3, dynkin=DynkinClass("A", 7, tuple(range(1, 8)))))


@pytest.mark.parametrize(
    "dynkin, message",
    [
        # h / order = 6: C^12 = I names the least prime 2, not 3 (C^8 = I).
        (DynkinClass("B", 12, tuple(range(1, 13))), r"C\^12 = I for B12 \(h = 24\)"),
        # h / order = 3: C^6 != I, so the first power that is I is C^4.
        (DynkinClass("E", 6, tuple(range(1, 7))), r"C\^4 = I for E6 \(h = 12\)"),
    ],
)
def test_order_certification_names_the_least_prime_of_the_excess(dynkin, message):
    from arquiver import OrderBoundExceededError

    a3 = build(a3_linear())  # order 4
    with pytest.raises(OrderBoundExceededError, match=rf"coxeter: {message}"):
        coxeter_matrix(replace(a3, dynkin=dynkin))


def test_truncated_orbit_misplaces_an_injective():
    # Dropping the top of orbit 1 moves the injective hull of simple rho(1)
    # onto a module that E - B does not send to its unit vector.
    arq = build(e6_example())
    truncated = relaid(arq, m=(arq.m_of(1) - 1,) + arq.m[1:])
    with pytest.raises(SingularCartanError, match=rf"injective {arq.rho_of(1)} disagrees"):
        coxeter_matrix(truncated)


def test_corrupted_interior_dimension_vector_is_named():
    # Unitriangularity and the order both survive this corruption; only
    # tau-equivariance at the vertex itself tells it apart.
    arq = build(e6_example())
    v = ZVertex(1, 1)
    corrupted = relaid(arq, {**dims(arq), v: tuple(x + 1 for x in dims(arq)[v])})
    message = (
        r"coxeter: C \* dim ZVertex\(level=1, base=1\) "
        r"!= dim ZVertex\(level=0, base=1\)"
    )
    with pytest.raises(CrossCheckFailedError, match=message):
        coxeter_matrix(corrupted)


def test_orbit_with_a_repeated_vector_is_rejected():
    # A1 stretched to three translates that alternate in sign: every step is
    # tau-equivariant, yet the signed orbit 1, -1, 1, -1, 1, -1 would return
    # early.  No layout holds its entry -1, so no orbit with it is read.
    vectors = {ZVertex(0, 1): (1,), ZVertex(1, 1): (-1,), ZVertex(2, 1): (1,)}
    with pytest.raises(ValueError, match=OUTSIDE_A_BYTE):
        relaid(build(a1_quiver()), vectors)


@settings(max_examples=60, deadline=None)
@given(relabelled_orientations())
def test_certified_order_is_the_table_order_and_the_dense_period(q):
    arq = build(q)
    cd = coxeter_matrix(arq)
    assert cd.order == table_order(arq.dynkin)
    if q.n <= 12:
        powers = [cd.matrix]
        while len(powers) < cd.order:
            powers.append(mat_mul(powers[-1], cd.matrix))
        identity = identity_matrix(q.n)
        assert [t for t, power in enumerate(powers, 1) if power == identity] == [cd.order]
        assert mat_mul(cd.matrix, cd.cartan) == mat_neg(cd.inj)


# -- witnesses: which failure is named, and in what order ----------------------


def test_non_involutive_pairing_leaves_the_orbit_of_projective_1_open():
    # A3 with rho = (3, 1, 2): each orbit still ends at the injective the
    # pairing asks for, and orbit 1 (a single vertex) needs no C * dim check,
    # but the orbit of rho^-1(1) = 2 ends at I_1 and hands over to orbit 3.
    arq = build(a3_linear())
    vectors = dims(arq)
    vectors[ZVertex(1, 2)], vectors[ZVertex(2, 3)] = vectors[ZVertex(2, 3)], vectors[ZVertex(1, 2)]
    with pytest.raises(
        CrossCheckFailedError,
        match=r"^coxeter: orbit of projective 1 does not close after 3 distinct vectors$",
    ):
        coxeter_matrix(relaid(arq, vectors, rho=(3, 1, 2)))


def test_an_orbit_that_does_not_close_is_named_before_a_later_orbit_fails():
    # A3 paired by rho = (3, 1, 2) as in the test above: orbit 1 (a single
    # vertex) needs no C * dim check, so only its closure fails, while
    # orbit 3 carries a corrupted interior vector that fails C * dim.
    arq = build(a3_linear())
    vectors = dims(arq)
    vectors[ZVertex(1, 2)], vectors[ZVertex(2, 3)] = vectors[ZVertex(2, 3)], vectors[ZVertex(1, 2)]
    v = ZVertex(1, 3)
    vectors[v] = tuple(x + 1 for x in vectors[v])
    with pytest.raises(
        CrossCheckFailedError,
        match=r"^coxeter: orbit of projective 1 does not close after 3 distinct vectors$",
    ):
        coxeter_matrix(relaid(arq, vectors, rho=(3, 1, 2)))
    # Orbit 3 alone is named once orbit 1 is restored.
    vectors = {**dims(arq), v: vectors[v]}
    with pytest.raises(CrossCheckFailedError, match=r"dim ZVertex\(level=1, base=3\) "):
        coxeter_matrix(relaid(arq, vectors))


def test_corrupted_vector_in_the_last_orbit_is_named_by_its_position():
    arq = build(e6_example())
    n = arq.n
    v = ZVertex(arq.m_of(n) - 1, n)
    corrupted = relaid(arq, {**dims(arq), v: tuple(x + 1 for x in dims(arq)[v])})
    message = (
        rf"^coxeter: C \* dim ZVertex\(level={v.level}, base={n}\) "
        rf"!= dim ZVertex\(level={v.level - 1}, base={n}\)$"
    )
    with pytest.raises(CrossCheckFailedError, match=message):
        coxeter_matrix(corrupted)


# -- the row certificate against the orbit walk ---------------------------------


def _outcome(arq):
    try:
        return coxeter_matrix(arq)
    except Exception as exc:  # the type and text are what is compared
        return type(exc), str(exc)


def _walked_outcome(arq):
    """What :func:`coxeter_matrix` gives when the reference walks every orbit."""
    from arquiver import coxeter

    with patch.object(coxeter, "_orbit_lengths", walk_orbits):
        return _outcome(arq)


@st.composite
def _corrupted_orbits(draw):
    """A small build with one orbit datum changed: a vector, ``rho``, an
    orbit cut or run on by one level, or run a full period past its injective."""
    family, rank = draw(st.sampled_from(all_diagrams(6)))
    g = canonical_diagram(family, rank)
    arq = build(orient(g, draw(st.integers(0, (1 << len(g.edges)) - 1))))
    vectors, m, rho = dims(arq), None, arq.rho
    v = draw(st.sampled_from(arq.vertices))
    w = draw(st.sampled_from(arq.vertices))
    kinds = ["bump", "swap", "negate", "zero", "copy", "rho", "cut", "extend", "period"]
    kind = draw(st.sampled_from(kinds))
    if kind == "bump":
        k = draw(st.integers(0, arq.n - 1))
        x = vectors[v]
        vectors[v] = x[:k] + (x[k] + draw(st.sampled_from([-1, 1, 2])),) + x[k + 1 :]
    elif kind == "swap":
        vectors[v], vectors[w] = vectors[w], vectors[v]
    elif kind == "negate":
        vectors[v] = tuple(-x for x in vectors[v])
    elif kind == "zero":
        vectors[v] = (0,) * arq.n
    elif kind == "copy":
        vectors[v] = vectors[w]
    elif kind == "rho":
        rho = tuple(draw(st.permutations(rho)))
    elif kind in ("cut", "extend"):  # an orbit of one level runs on; a new top is zero
        step = -1 if kind == "cut" and arq.m_of(v.base) else 1
        m = [mi + step * (i == v.base) for i, mi in enumerate(arq.m, 1)]
    else:  # run orbit i a full period past its injective
        i = v.base
        j = arq.rho_of(i)
        own = [vectors[ZVertex(r, i)] for r in range(arq.m_of(i) + 1)]
        other = [tuple(-x for x in vectors[ZVertex(r, j)]) for r in range(arq.m_of(j) + 1)]
        vectors.update((ZVertex(r, i), d) for r, d in enumerate(own + other + own))
    return arq, vectors, m, rho


@settings(max_examples=300, deadline=None)
@given(_corrupted_orbits())
def test_row_certificate_names_what_the_orbit_walk_names(case):
    # A negative entry (a bump by -1, a negated vector, a period through the
    # partner's negatives) cannot be laid out.
    arq, vectors, m, rho = case
    if not fits_a_byte(arq, vectors, m):
        with pytest.raises(ValueError, match=OUTSIDE_A_BYTE):
            relaid(arq, vectors, m, rho=rho)
        return
    corrupted = relaid(arq, vectors, m, rho=rho)
    assert _outcome(corrupted) == _walked_outcome(corrupted)


@pytest.mark.parametrize("family, rank", all_diagrams(8))
def test_row_certificate_needs_no_walk_on_every_orientation(family, rank):
    # The rows alone certify the table order on every orientation: no
    # orbit is walked to name a failure.
    for q in all_orientations(canonical_diagram(family, rank)):
        arq = build(q)
        assert coxeter_matrix(arq).order == table_order(arq.dynkin)


@pytest.mark.parametrize("family, rank", all_diagrams(8))
def test_row_certificate_returns_the_walked_lengths_on_every_orientation(family, rank):
    from arquiver.coxeter import _orbit_lengths

    for q in all_orientations(canonical_diagram(family, rank)):
        arq = build(q)
        lower, upper = _terms(arq)
        assert _orbit_lengths(arq, lower, upper) == walk_orbits(arq, lower, upper)


@pytest.mark.parametrize(
    "entry, error, message",
    [
        (lambda x: 256, ValueError, OUTSIDE_A_BYTE),
        (lambda x: -1, ValueError, OUTSIDE_A_BYTE),
        (lambda x: x + 0.5, TypeError, NOT_AN_INT),
    ],
    ids=["256", "minus-1", "float"],
)
def test_entries_outside_a_byte_are_left_to_the_walk(entry, error, message):
    # An entry outside a byte reaches neither the row sums nor the
    # reference walk: an interior vector of E6 with entry 0 changed cannot
    # be laid out.  A broken C * dim step of byte entries is named in
    # test_corrupted_interior_dimension_vector_is_named.
    arq = build(e6_example())
    v = ZVertex(1, 1)
    vectors = {**dims(arq), v: (entry(dims(arq)[v][0]),) + dims(arq)[v][1:]}
    assert not fits_a_byte(arq, vectors)
    with pytest.raises(error, match=message):
        relaid(arq, vectors)


def test_integral_floats_are_left_to_the_walk_which_passes_them():
    # Integral floats are refused too: no layout holds an entry that is
    # not an int.  The same values as ints lay out the quiver again, and
    # both the row sums and the reference walk pass it.
    arq = build(e6_example())
    v = ZVertex(1, 1)
    with pytest.raises(TypeError, match=NOT_AN_INT):
        relaid(arq, {**dims(arq), v: tuple(map(float, dims(arq)[v]))})
    again = relaid(arq, {**dims(arq), v: tuple(map(int, map(float, dims(arq)[v])))})
    assert again == arq
    assert coxeter_matrix(again).order == table_order(arq.dynkin)
    lower, upper = _terms(again)
    from arquiver.coxeter import _orbit_lengths

    assert _orbit_lengths(again, lower, upper) == walk_orbits(again, lower, upper)


def test_row_sums_hold_few_rows_at_once():
    # On linear A60 numbered along the line row r is read by row sums
    # r - 1, r and r + 1, so a few of the 60 rows are held at a time: all
    # of them would take 2 bytes per entry, twice the layout.
    from arquiver.coxeter import _orbit_lengths

    q = validate(60, [(i, i + 1) for i in range(1, 60)])
    arq = build(q)
    tracemalloc.start()
    try:
        lengths = _orbit_lengths(arq, *_terms(arq))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lengths == [61] * 60
    assert peak < len(arq.layout)


@pytest.mark.parametrize(
    "q, orbits, rho, lower",
    [
        # The signed orbit 1, -1, -1, 1 would repeat, but no layout holds
        # the entry -1 (``lower`` None).
        (a1_quiver(), [[(1,), (-1,)]], (1,), None),
        # The signed orbit 0, -0 repeats.
        (a1_quiver(), [[(0,)]], (1,), []),
        # With A = (2), C * dim = dim tau is dim v = dim tau v.
        (a1_quiver(), [[(1,), (1,)]], (1,), [(0, 0, 2)]),
        # rho^-1(1) = 3 but rho^-1(3) = 2: orbit 1 does not close.
        (a3_linear(), [[(1, 0, 0)], [(0, 1, 0)], [(0, 0, 1)]], (2, 3, 1), []),
        # Orbit 1 holds one vector, but its partner, orbit 2, repeats one.
        (a3_linear(), [[(1, 0, 0)], [(0, 1, 0), (0, 1, 0)], [(0, 0, 1)]], (2, 1, 3), [(1, 1, 2)]),
    ],
    ids=["negative", "zero", "repeated", "non-involutive", "partner-repeated"],
)
def test_row_certificate_leaves_open_orbits_to_the_walk(q, orbits, rho, lower):
    # Fed straight to the orbit checks, with sparse terms of their own: the
    # unit checks on projectives and injectives would stop each case first.
    # Every C * dim step holds, yet a signed orbit repeats or does not close,
    # and the rows name it as the reference walk does.
    from arquiver.coxeter import _orbit_lengths

    vectors = {ZVertex(r, i): x for i, orbit in enumerate(orbits, 1) for r, x in enumerate(orbit)}
    if lower is None:
        with pytest.raises(ValueError, match=OUTSIDE_A_BYTE):
            relaid(build(q), vectors, rho=rho)
        return
    arq = relaid(build(q), vectors, rho=rho)
    texts = []
    for orbit_lengths in (_orbit_lengths, walk_orbits):
        with pytest.raises(CrossCheckFailedError) as caught:
            orbit_lengths(arq, lower, [])
        texts.append(str(caught.value))
    assert texts[0] == texts[1]
    assert texts[0].startswith("coxeter: orbit of projective 1 does not close")

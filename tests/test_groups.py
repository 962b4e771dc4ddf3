import gc
import random
import weakref
from array import array

import pytest

from pgs.constructions import (
    LieBCHGroup,
    SemidirectGroup,
    central_quotient,
    make_B2,
    make_Dc,
    make_Mc,
    make_cyclic,
    make_homocyclic,
    make_partb_indecomposable,
    make_second_example,
)
from pgs.errors import InternalInconsistency, NotInGroup, NotNormal, ResourceLimit
from pgs.groups import (
    DirectProductGroup,
    EnumeratedSubgroup,
    QuotientGroup,
    SubgroupGroup,
    _position,
    center,
    commutator,
    direct_factor_search,
    direct_product,
    element_order,
    enumerate_group,
    generated_by_order_p,
    is_pth_power,
    omega1_subgroup,
    order_p_elements,
    quotient_group,
    subgroup_closure,
)
from pgs.series import nilpotence_class, spectrum, upper_central_series
from test_properties import ReferenceQuotient, reference_order_p_elements, reference_sieve_center, same_objects
from test_series import make_s3


def assert_group_axioms(G, seed=0, triples=1000):
    E = enumerate_group(G)
    elems = E.elements
    rng = random.Random(seed)
    identity = G.identity
    for _, g in G.generators:
        assert G.multiply(identity, g) == g
        assert G.multiply(g, identity) == g
        assert G.multiply(g, G.invert(g)) == identity
    for _ in range(triples):
        a = elems[rng.randrange(len(elems))]
        b = elems[rng.randrange(len(elems))]
        c = elems[rng.randrange(len(elems))]
        assert G.multiply(G.multiply(a, b), c) == G.multiply(a, G.multiply(b, c))
        assert G.multiply(a, G.invert(a)) == identity


@pytest.mark.parametrize(
    "G",
    [make_Dc(3, 2), make_Mc(3, 3), make_Mc(2, 3), make_B2(3, 2), make_cyclic(3, 2)],
    ids=repr,
)
def test_group_axioms_sampled(G):
    assert_group_axioms(G)
    assert len(enumerate_group(G)) == G.known_order


def test_element_order():
    D = make_Dc(3, 2)
    assert element_order(D, D.identity) == 1
    assert element_order(D, D.named_elements["x"]) == 9
    M = make_Mc(3, 3)
    assert element_order(M, M.named_elements["s1"]) == 9


def test_element_order_divides_group_order():
    M = make_Mc(3, 3)
    E = enumerate_group(M)
    for g in E.elements:
        o = element_order(M, g)
        assert len(E) % o == 0
        if o > 1:
            assert element_order(M, M.power(g, 3)) == o // 3


def test_commutator():
    D = make_Dc(3, 2)
    x, y = D.named_elements["x"], D.named_elements["y"]
    assert commutator(D, x, x) == D.identity
    assert commutator(D, x, y) == D.power(x, 3)
    M = make_Mc(3, 3)
    assert commutator(M, M.named_elements["s1"], M.named_elements["a"]) == M.named_elements["s2"]


@pytest.mark.parametrize(
    "build",
    [lambda: make_Mc(3, 3), lambda: direct_product([make_Dc(3, 2), make_B2(3, 2)]), lambda: make_second_example(3, 2, 2)],
    ids=["Mc(3,3)", "Dc(3,2)xB2(3,2)", "second_example(3,2,2)"],
)
def test_commutator_with_one_invert_is_the_definition(build):
    """(yx)^-1 (xy) equals x^-1 y^-1 x y on a native group, a product and a
    quotient, for every x against every generator and its inverse."""
    G = build()
    mult, invert = G.multiply, G.invert
    ys = [h for _, g in G.generators for h in (g, invert(g))]
    for x in enumerate_group(G).elements:
        for y in ys:
            assert commutator(G, x, y) == mult(mult(invert(x), invert(y)), mult(x, y))


def test_subgroup_closure():
    D = make_Dc(3, 2)
    assert len(subgroup_closure(D, [])) == 1
    assert len(subgroup_closure(D, [D.named_elements["x"]])) == 9
    M = make_Mc(3, 3)
    Z2 = upper_central_series(M).terms[2]
    closed = subgroup_closure(M, [M.named_elements["s2"], M.named_elements["s3"]])
    assert len(closed) == 9
    assert closed.as_set == Z2.as_set


def test_subgroup_closure_resource_limit():
    # each factor has 81 elements, within its bound; the product's 6561 are not
    P = direct_product([make_Dc(3, 2, max_order=100), make_Dc(3, 2, max_order=100)])
    assert P.max_order == 100
    with pytest.raises(ResourceLimit, match="closure exceeded 100 elements"):
        subgroup_closure(P, [g for _, g in P.generators])
    with pytest.raises(ResourceLimit, match="more than 100 elements"):
        enumerate_group(P)


def counting_multiply(G):
    """Count G's multiplies from here on; return the list the calls append to."""
    calls = []
    real = G.multiply
    G.multiply = lambda a, b: calls.append(1) or real(a, b)
    return calls


def test_closure_cost_grows_with_the_subgroup():
    # 1,466 order-p seeds generate all 3^7 elements; a closure that multiplies
    # every element by every seed makes 3,206,142 multiplies
    G = make_Mc(3, 6)
    seeds = order_p_elements(G)
    E = enumerate_group(G)
    calls = counting_multiply(G)
    assert subgroup_closure(G, seeds).as_set == E.as_set
    assert len(calls) <= len(E) * (7 + 1)


def test_closure_bound_while_a_new_seed_multiplies_old_elements():
    # <a> has 3 elements; a new seed b multiplies them, and the 5th element
    # crosses the bound before any new element is extended
    P = direct_product([make_cyclic(3, 1, max_order=4), make_cyclic(3, 1, max_order=4)])
    a, b = (g for _, g in P.generators)
    calls = counting_multiply(P)
    with pytest.raises(ResourceLimit, match="closure exceeded 4 elements"):
        subgroup_closure(P, [a, b])
    assert len(calls) == 3 + 2  # closing <a>, then two of the three old elements times b


def test_closure_bound_while_new_elements_are_extended():
    # one seed of order 9 under a bound of 3: the identity times the seed is
    # the only old-element multiply, so the bound is crossed extending powers
    P = direct_product([make_cyclic(3, 1, max_order=3), make_cyclic(3, 2, max_order=9)])
    assert P.max_order == 3
    seed = P.multiply(*(g for _, g in P.generators))
    calls = counting_multiply(P)
    with pytest.raises(ResourceLimit, match="closure exceeded 3 elements"):
        subgroup_closure(P, [seed])
    assert len(calls) == 1 + 2  # seed, then seed^2 and seed^3


def test_enumerate_orders():
    assert len(enumerate_group(make_Mc(3, 2))) == 27
    assert len(enumerate_group(make_Dc(3, 2))) == 81


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_B2(7, 3),
        lambda: make_Dc(3, 5),
        lambda: make_Mc(3, 7),
        lambda: make_homocyclic(5, 3, 2, 1),
        lambda: make_partb_indecomposable(3, [3], 4),
    ],
    ids=["B2(7,3)", "Dc(3,5)", "Mc(3,7)", "homocyclic(5,3,2,1)", "partb(3,[3],4)"],
)
def test_native_carrier_is_its_coordinate_box(native_multiplies, monkeypatch, build):
    # the closure of the generators made 84,035 multiplies on B2(7,3); a
    # SubgroupGroup's carrier is its parent's box cut by its congruences
    G = build()
    subgroup_multiplies = []
    monkeypatch.setattr(SubgroupGroup, "multiply", lambda self, a, b: subgroup_multiplies.append(1))
    native_multiplies.clear()
    E = enumerate_group(G)
    assert native_multiplies == [] and subgroup_multiplies == []
    assert len(E) == G.known_order and E.elements[0] == G.identity


def test_native_carrier_checks_its_order_before_the_box():
    with pytest.raises(ResourceLimit, match="more than 20 elements"):
        enumerate_group(LieBCHGroup(3, 2, max_order=20))
    with pytest.raises(ResourceLimit, match="more than 20 elements"):
        enumerate_group(SemidirectGroup(3, 3, (9,), ((4,),), [("x", (0, 1)), ("y", (1, 0))], max_order=20))


def test_subgroup_group_checks_its_known_order():
    # in Dc(3,2), coordinates (t, v) mod 9, <x, y^3> is cut out by t = 0 mod 3
    D = make_Dc(3, 2)
    x, y = D.named_elements["x"], D.named_elements["y"]
    H = SubgroupGroup(D, [y], [("x", x), ("yp", D.power(y, 3))])
    assert H.known_order == 27 and H.identity == (0, 0)
    assert enumerate_group(H).elements == subgroup_closure(D, [x, D.power(y, 3)]).elements
    assert len(enumerate_group(SubgroupGroup(D, [y, x], [("x3", D.power(x, 3)), ("y3", D.power(y, 3))]))) == 9
    # dependent rows claim index 9 but cut index 3
    with pytest.raises(InternalInconsistency):
        enumerate_group(SubgroupGroup(D, [y, D.power(y, 2)], [("x", x)]))
    with pytest.raises(ResourceLimit):
        enumerate_group(SubgroupGroup(make_Dc(3, 2, max_order=20), [y], [("x", x)]))


def test_center():
    C = make_cyclic(3, 2)
    assert len(center(C)) == 9
    assert len(center(make_Dc(3, 2))) == 9
    assert len(center(make_Mc(3, 3))) == 3


def test_quotient_by_trivial():
    D = make_Dc(3, 2)
    triv = subgroup_closure(D, [])
    Q = quotient_group(D, triv)
    assert len(enumerate_group(Q)) == 81
    assert [g for _, g in Q.generators] == [g for _, g in D.generators]


def test_quotient_center_quotients():
    M = make_Mc(3, 3)
    Q = quotient_group(M, center(M))
    assert len(enumerate_group(Q)) == 27
    assert nilpotence_class(Q) == 2

    D8 = make_Mc(2, 2)
    Q8 = quotient_group(D8, center(D8))
    E = enumerate_group(Q8)
    assert len(E) == 4
    assert all(Q8.multiply(g, g) == Q8.identity for g in E)


def test_quotient_rejects_non_normal():
    D8 = make_Mc(2, 2)
    refl = subgroup_closure(D8, [D8.named_elements["a"]])
    with pytest.raises(NotNormal):
        quotient_group(D8, refl)


def test_quotient_rejects_a_kernel_that_is_not_a_subgroup():
    # z is central of order 3: {1, z} is closed under conjugation but not
    # under products, and {z} lacks the identity
    D = make_Dc(3, 2)
    z = D.power(D.named_elements["x"], 3)
    assert z in center(D) and element_order(D, z) == 3
    for kernel in ([D.identity, z], [z]):
        with pytest.raises(NotNormal):
            quotient_group(D, EnumeratedSubgroup(kernel))
        # unchecked, the cosets do not partition the group
        with pytest.raises(InternalInconsistency):
            QuotientGroup(D, EnumeratedSubgroup(kernel))


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_Mc(3, 4),
        lambda: make_homocyclic(3, 2, 2, 1),
        lambda: direct_product([make_Mc(3, 2), make_Dc(3, 2)]),
    ],
    ids=["Mc(3,4)", "homocyclic(3,2,2,1)", "Mc(3,2)xDc(3,2)"],
)
def test_quotient_map_is_keyed_by_the_carriers_own_tuples(build):
    G = build()
    elements = enumerate_group(G).elements
    Q = QuotientGroup(G, center(G))
    reps = enumerate_group(Q).elements
    own = {id(g) for g in elements}
    # every parent element projects to a representative, the parent
    # carrier's own tuple, and each representative to itself
    assert all(id(Q.project(g)) in own for g in elements)
    assert all(Q.project(r) is r for r in reps)
    # one coset number per parent carrier position, in an array, with no
    # dict over the parent's carrier; the coset minima are the parent's
    # indices over a product, and over a parent that scans on tuples the
    # carrier's own tuples
    assert isinstance(Q._down, array) and len(Q._down) == len(elements)
    assert not any(isinstance(v, dict) and len(v) >= len(elements) for v in vars(Q).values())
    if isinstance(G, DirectProductGroup):
        assert isinstance(Q._up, array)
    else:
        assert same_objects(Q._up, reps)
    assert same_objects(Q._reps, reps)
    # the quotient's arithmetic, on tuples and on coset numbers, is the
    # tuple-only reference quotient's on all pairs
    R = ReferenceQuotient(G, center(G))
    assert list(Q._down) == list(R._down.values())
    assert all(Q.project(g) is R.project(g) for g in elements)
    assert all(Q.multiply(a, b) is R.multiply(a, b) for a in reps for b in reps)
    assert all(reps[Q._index_product(i, j)] is R.multiply(a, b) for i, a in enumerate(reps) for j, b in enumerate(reps))
    assert all(Q.invert(a) is R.invert(a) for a in reps)


@pytest.mark.parametrize(
    "build, outside",
    [
        # off the congruence v_1 = 0 mod 3, coded as the identity's position
        (lambda: make_homocyclic(3, 2, 2, 1), (0, 1, 0)),
        # a negative coordinate reads its coordinate's last term
        (lambda: make_Mc(3, 4), (0, 0, -1)),
        (lambda: make_Mc(3, 4), (0, 0, 81)),
        (lambda: make_Mc(3, 4), (0, 0)),
        (lambda: make_Mc(3, 4), [0, 0, 0]),
        (lambda: direct_product([make_Mc(3, 2), make_Dc(3, 2)]), (0, 0, 0, 0, 9)),
    ],
    ids=["off-congruence", "negative", "too-large", "short", "list", "product"],
)
def test_quotient_rejects_tuples_outside_its_parent(build, outside):
    G = build()
    Q = QuotientGroup(G, center(G))
    with pytest.raises(NotInGroup):
        Q.project(outside)
    assert Q.project(G.identity) is enumerate_group(Q).elements[0]


def center_quotient(G):
    return QuotientGroup(G, center(G))


@pytest.mark.parametrize(
    "build, outside",
    [
        (lambda: center_quotient(make_homocyclic(3, 2, 2, 1)), (0, 1, 0)),
        (lambda: center_quotient(make_Mc(3, 4)), (0, 0, -1)),
        (lambda: center_quotient(make_Mc(3, 4)), (0, 0)),
        (lambda: center_quotient(direct_product([make_Mc(3, 2), make_Dc(3, 2)])), (0, 0, 0, 0, 9)),
        # a too-large coordinate, which the parent's native multiply and
        # invert reduce, on G/Z(G) and on the span of a central element
        (lambda: center_quotient(make_Mc(3, 4)), (0, 0, 81)),
        (lambda: central_quotient(make_Mc(3, 4), (0, 3, 6)), (0, 0, 81)),
    ],
    ids=["off-congruence", "negative", "short", "product", "too-large", "central-element"],
)
def test_quotient_arithmetic_rejects_tuples_outside_its_parent(build, outside):
    Q = build()
    identity = Q.identity
    for call in (lambda: Q.multiply(outside, identity), lambda: Q.multiply(identity, outside), lambda: Q.invert(outside)):
        with pytest.raises(NotInGroup):
            call()
    g = Q.generators[0][1]
    assert Q.multiply(g, Q.invert(g)) is enumerate_group(Q).elements[0]


def test_position_coder_is_no_element_test():
    # the coder trusts its input: these tuples lie outside the carriers
    H, M = make_homocyclic(3, 2, 2, 1), make_Mc(3, 4)
    assert _position(H)((0, 1, 0)) == _position(H)(H.identity) == 0
    last = M.coordinate_moduli[-1] - 1
    assert _position(M)((0, 0, -1)) == _position(M)((0, 0, last))


def test_position_coders_hold_no_reference_to_their_group():
    """A box's coder and a dict numbering (a group with its own carrier)
    close over plain data: dropping the group frees it with the cyclic GC
    disabled, and the coder still works."""
    gc.disable()
    try:
        D = make_Dc(3, 2)
        H = make_homocyclic(3, 2, 2, 1)
        Q = QuotientGroup(D, center(D))
        coders = [_position(G) for G in (D, H, Q)]
        assert [_position(G) for G in (D, H, Q)] == coders
        refs = [weakref.ref(G) for G in (D, H, Q)]
        del D, H, Q
        assert [r() for r in refs] == [None, None, None]
        assert [at((0, 1)) for at in (coders[0], coders[2])] == [1, 1]
    finally:
        gc.enable()


def test_quotient_projection_is_homomorphism():
    # exhaustive over all pairs for orders <= 3^6
    for G in [make_Mc(3, 3), make_Mc(2, 2)]:
        Q = quotient_group(G, center(G))
        E = enumerate_group(G)
        for a in E.elements:
            for b in E.elements:
                assert Q.project(G.multiply(a, b)) == Q.multiply(Q.project(a), Q.project(b))


def test_quotient_reps_are_coset_minima():
    M = make_Mc(3, 3)
    Z = center(M)
    Q = quotient_group(M, Z)
    for g in enumerate_group(M).elements:
        coset = sorted(M.multiply(g, n) for n in Z)
        assert Q.project(g) == coset[0]


def test_direct_product_basics():
    D, M = make_Dc(3, 2), make_Mc(3, 2)
    P = direct_product([D, M])
    assert len(enumerate_group(P)) == 81 * 27
    assert P.generators[0][0] == "f0.x"
    zp = center(P).as_set
    want = {
        P.embed(0, a) for a in center(D)
    } and {
        tuple(a) + tuple(b) for a in center(D) for b in center(M)
    }
    assert zp == want


def test_product_of_enumerated_factors_multiplies_nothing(monkeypatch):
    D, M, C = make_Dc(3, 2), make_Mc(3, 2), make_cyclic(3, 2)
    for f in (D, M, C):
        enumerate_group(f)
    calls = []
    real = DirectProductGroup.multiply

    def counting(self, a, b):
        calls.append(1)
        return real(self, a, b)

    monkeypatch.setattr(DirectProductGroup, "multiply", counting)
    nested = direct_product([direct_product([D, M]), C])
    assert len(enumerate_group(nested)) == 81 * 27 * 9
    assert order_p_elements(nested) and is_pth_power(nested, nested.identity)
    assert calls == []


def test_is_pth_power():
    D = make_Dc(3, 2)
    C = make_cyclic(3, 2)
    P = direct_product([D, C])
    assert is_pth_power(P, P.identity)
    x3d3 = P.multiply(
        P.embed(0, D.power(D.named_elements["x"], 3)),
        P.embed(1, C.power(C.named_elements["d"], 3)),
    )
    assert is_pth_power(P, x3d3)

    B = make_B2(3, 2)
    PB = direct_product([D, B])
    d = commutator(B, B.named_elements["t"], B.named_elements["s"])
    z = tuple(D.power(D.named_elements["x"], 3)) + d
    assert not is_pth_power(PB, z)


def test_is_pth_power_after_spectrum_multiplies_nothing(monkeypatch):
    calls = []
    real = SemidirectGroup.multiply

    def counting(self, a, b):
        calls.append(1)
        return real(self, a, b)

    monkeypatch.setattr(SemidirectGroup, "multiply", counting)
    D = make_Dc(3, 2)
    C = make_cyclic(3, 2)
    P = direct_product([D, C])
    x3d3 = D.power(D.named_elements["x"], 3) + C.power(C.named_elements["d"], 3)
    d = P.embed(1, C.named_elements["d"])
    spectrum(P)
    assert calls
    calls.clear()
    assert is_pth_power(P, x3d3) and not is_pth_power(P, d)
    assert calls == []


def test_is_pth_power_matches_image_set():
    M = make_Mc(3, 2)
    E = enumerate_group(M)
    image = {M.power(g, 3) for g in E}
    for g in E.elements:
        assert is_pth_power(M, g) == (g in image)


def test_omega1():
    D = make_Dc(3, 2)
    om = omega1_subgroup(D)
    assert om.as_set == center(D).as_set
    assert len(om) == 9
    assert len(omega1_subgroup(make_Mc(3, 2))) == 27
    assert len(omega1_subgroup(make_cyclic(3, 2))) == 3


def test_generated_by_order_p():
    ea = direct_product([make_cyclic(3, 1), make_cyclic(3, 1)])
    assert generated_by_order_p(ea)
    for c in (2, 3, 4):
        assert generated_by_order_p(make_Mc(3, c))
    assert not generated_by_order_p(make_Dc(3, 2))


def test_direct_factor_search_none_on_cyclic():
    assert direct_factor_search(make_cyclic(3, 1)) is None
    assert direct_factor_search(make_cyclic(2, 3)) is None


def test_direct_factor_search_finds_construction():
    P = direct_product([make_Dc(3, 2), make_Mc(3, 2)])
    split = direct_factor_search(P)
    assert split is not None
    A, B = split
    n = len(enumerate_group(P))
    assert len(A) * len(B) == n
    assert A.as_set & B.as_set == {P.identity}
    for piece in (A, B):
        for g in piece:
            for _, h in P.generators:
                assert P.conjugate(g, h) in piece


def test_direct_factor_search_more_products():
    for factors in [
        [make_Mc(2, 2), make_Mc(2, 2)],
        [make_cyclic(3, 1), make_cyclic(3, 2)],
        [make_B2(3, 2), make_cyclic(3, 1)],
    ]:
        P = direct_product(factors)
        split = direct_factor_search(P)
        assert split is not None
        A, B = split
        assert len(A) * len(B) == len(enumerate_group(P))
        assert A.as_set & B.as_set == {P.identity}


def test_direct_factor_search_bound():
    with pytest.raises(ResourceLimit):
        direct_factor_search(make_Dc(3, 2), decompose_bound=10)


def test_enumerating_a_product_fills_no_table_entry(native_multiplies):
    D, B, C = make_Dc(3, 2), make_B2(3, 2), make_cyclic(3, 2)
    for f in (D, B, C):
        enumerate_group(f)
    calls = native_multiplies
    calls.clear()
    inner = direct_product([D, B])
    nested = direct_product([inner, C])
    E = enumerate_group(nested)
    assert len(E) == 81 * 27 * 9 and calls == []
    assert E.elements == tuple(sorted(E.as_set))
    for G in (D, B, C, inner, nested):
        t = G._table
        assert t.products is None or set(t.products) == {-1}
    assert inner._table.products is None  # 2,187 elements: above the table bound
    assert len(D._table.products) == 81 * 81


def test_tabled_product_fills_each_factor_entry_once(native_multiplies):
    D, C = make_Dc(3, 2), make_cyclic(3, 2)
    P = direct_product([D, C])
    elems = enumerate_group(P).elements
    calls = native_multiplies
    calls.clear()
    a, b = elems[100], elems[200]
    ab = P.multiply(a, b)
    assert len(calls) == 2  # one miss in each factor's table
    assert P.multiply(a, b) == ab and len(calls) == 2
    assert sum(x >= 0 for x in D._table.products) == 1
    parts = [F.multiply(P.project(i, a), P.project(i, b)) for i, F in enumerate((D, C))]
    assert ab == parts[0] + parts[1]


def test_order_p_scan_walks_each_cyclic_subgroup_once(native_multiplies):
    # B2(7,3) has exponent 7: one walk of 6 multiplies classifies the 6
    # generators of each cyclic subgroup, so |G| - 1 in all, where taking
    # each g^7 separately makes 100,836
    G = make_B2(7, 3)
    E = enumerate_group(G)
    native_multiplies.clear()
    assert len(order_p_elements(G)) == len(E) - 1
    assert len(native_multiplies) <= len(E) - 1 == 16_806
    assert G._pth_powers == {G.identity}


@pytest.mark.parametrize(
    "build, count, set_count",
    [
        (lambda: make_Dc(3, 5), 78_408, 88_088),
        (lambda: make_Mc(3, 7), 7_236, 7_574),
        (lambda: make_homocyclic(3, 2, 2, 1), 984, 1_016),
        (lambda: make_B2(7, 3), 16_806, 16_806),
    ],
    ids=["Dc(3,5)", "Mc(3,7)", "homocyclic(3,2,2,1)", "B2(7,3)"],
)
def test_order_p_walk_multiply_count(native_multiplies, build, count, set_count):
    # the walk classifies every element of each <g> it walks, so no smaller
    # cyclic subgroup is walked again; the set walk classified only the
    # generators of <g>, and its counts stay pinned on the reference (B2 has
    # exponent 7, so every nonidentity <g> is walked either way)
    G = build()
    enumerate_group(G)
    native_multiplies.clear()
    order_p_elements(G)
    assert len(native_multiplies) == count
    native_multiplies.clear()
    reference_order_p_elements(G)
    assert len(native_multiplies) == set_count


TUPLE_SCAN_PINS = [
    (lambda: make_Dc(3, 5), 65_776, (105_709, 59_049)),
    (lambda: make_B2(7, 3), 17_168, (17_567, 16_807)),
    (lambda: make_Mc(3, 7), 8_754, (13_125, 6_561)),
    (lambda: make_homocyclic(3, 2, 2, 1), 798, (1_031, 729)),
]


@pytest.mark.parametrize(
    "build, count, set_counts", TUPLE_SCAN_PINS, ids=["Dc(3,5)", "B2(7,3)", "Mc(3,7)", "homocyclic(3,2,2,1)"]
)
def test_tuple_scans_multiply_as_the_set_scans(native_multiplies, build, count, set_counts):
    # the center's coset scan numbers the cosets of Z(G) that G/Z(G) takes
    # over, with no multiply of its own; the set scans, kept as references,
    # sieve the center and then number the cosets again, one multiply per
    # element.  The scan makes fewer than the set sieve alone: it tests the
    # same generators, numbers each element once, skips g·1, and completes
    # the cosets numbered before the center grew by one lookup per coset
    # and power of the new central g (Dc(3,5): 13,288 generator tests,
    # 12,960 + 26,240 numbering, 13,280 lookups, 8 for the powers and the
    # kernel; the order-p walk's are in test_order_p_walk_multiply_count)
    G = build()
    enumerate_group(G)
    native_multiplies.clear()
    Z = center(G)
    made = len(native_multiplies)
    Q = QuotientGroup(G, Z)
    assert (made, len(native_multiplies)) == (count, count)
    assert Q._down is not None and G._cosets is None
    gens = [g for _, g in G.generators]
    native_multiplies.clear()
    assert reference_sieve_center(G.multiply, enumerate_group(G).elements, G.identity, gens, G.max_order) == list(Z)
    made = len(native_multiplies)
    native_multiplies.clear()
    ReferenceQuotient(G, Z)
    assert (made, len(native_multiplies)) == set_counts


def make_s3_x_c3():
    """S3 x C3 as one native group: C3 acted on by inversion through a top
    of order 6, so the top's C3 part acts trivially."""
    return SemidirectGroup(3, 6, (3,), ((2,),), [("r", (0, 1)), ("f", (1, 0))], description="S3xC3")


@pytest.mark.parametrize(
    "build",
    [
        make_s3,
        make_s3_x_c3,
        lambda: direct_product([make_s3(), make_cyclic(3, 1)]),
        lambda: SubgroupGroup(
            direct_product([make_s3(), make_cyclic(3, 1)]),
            [],
            [("r", (0, 1, 0, 0)), ("f", (1, 0, 0, 0)), ("d", (0, 0, 0, 1))],
        ),
    ],
    ids=["S3", "S3xC3", "S3xC3 product", "S3xC3 product walked"],
)
def test_order_p_walk_outside_p_groups(build):
    # cyclic subgroups of order 2 (gcd(3, 2) = 1: every element is a cube)
    # and of order 6 (its cubes are the multiples of 3, its order-3
    # elements the multiples of 2), which no p-group reaches
    G = build()
    small, powers = reference_order_p_elements(G)
    assert same_objects(order_p_elements(G), small)
    assert G._pth_powers == powers
    assert len(small) == (2 if len(enumerate_group(G)) == 6 else 8)


def test_dropping_a_product_frees_it_and_its_factors():
    """Index tables hold plain data: no reference cycle keeps a group alive."""
    gc.disable()
    try:
        M, B, C = make_Mc(2, 2), make_Mc(2, 2), make_cyclic(2, 1)
        small = direct_product([M, B])
        P = direct_product([small, C])
        spectrum(P)
        assert direct_factor_search(P) is not None
        g = P.generators[-1][1]
        assert P.multiply(P.invert(g), g) == P.identity
        Q = quotient_group(P, center(P))
        spectrum(Q)
        refs = [weakref.ref(G) for G in (M, B, C, small, P, Q)]
        del M, B, C, small, P, Q
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_dropping_a_searched_group_frees_it():
    """The search holds no reference cycle back to its group: not on the
    index path (a quotient) nor through the tuple path's memo closure (a
    ``SubgroupGroup``)."""
    gc.disable()
    try:
        Q = make_second_example(3, 2, 2)
        S = make_partb_indecomposable(2, [2], 3)
        assert isinstance(S, SubgroupGroup)
        assert direct_factor_search(Q) is None and direct_factor_search(S) is None
        refs = [weakref.ref(G) for G in (Q, S)]
        del Q, S
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_direct_factor_search_fills_part_of_the_table(native_multiplies, quotient_index_products, tuple_multiplies):
    """The search multiplies a quotient's indices by its ``_index_product``
    and builds no table for it.  When it multiplied through an index table
    of Q, it read that table 55,861 times and filled 21,332 of its 531,441
    entries by ``QuotientGroup.multiply``."""
    Q = make_second_example(3, 2, 2)
    center(Q), order_p_elements(Q)  # cached analyses the search reads
    native_multiplies.clear()
    quotient_index_products.clear()
    tuple_multiplies.clear()
    assert direct_factor_search(Q) is None
    assert Q._table is None
    assert len(native_multiplies) == 396  # the parent product's factor-table fills
    assert len(quotient_index_products) <= 56_000  # 55,488
    assert tuple_multiplies == []


def test_direct_factor_search_on_a_product_fills_no_entry_of_its_table(monkeypatch, tuple_multiplies):
    """On a product the search multiplies by ``_index_product``, which reads
    the factors' tables only, and inverts the generators alone.  The
    product's own table has no ``products`` array: only an enclosing
    product would read one."""
    P = direct_product([make_Mc(3, 3), make_cyclic(3, 1)])
    enumerate_group(P)
    inverted = []
    real = DirectProductGroup.invert
    monkeypatch.setattr(DirectProductGroup, "invert", lambda self, a: inverted.append(a) or real(self, a))
    assert direct_factor_search(P) is not None
    assert P._table.products is None
    assert tuple_multiplies == [] and len(inverted) <= len(P.generators)


def test_a_product_gets_its_products_array_as_a_factor():
    """A product's table gets its n^2 array from ``_index_table`` when an
    enclosing product takes it as a factor, and the array fills on use."""
    inner = direct_product([make_Mc(3, 3), make_cyclic(3, 1)])
    enumerate_group(inner)
    assert inner._table.products is None
    C = make_cyclic(3, 1)
    outer = direct_product([inner, C])
    elems = enumerate_group(outer).elements
    prods = inner._table.products
    assert len(prods) == 243 * 243 and set(prods) == {-1}
    assert outer._table.products is None
    a, b = elems[500], elems[700]
    ab = outer.multiply(a, b)
    assert sum(x >= 0 for x in prods) == 1
    parts = [F.multiply(outer.project(i, a), outer.project(i, b)) for i, F in enumerate((inner, C))]
    assert ab == parts[0] + parts[1]


def test_center_sieves_cosets(native_multiplies):
    # B2(7,3) has 16,807 elements and a center of 49: testing every element
    # against both generators makes 34,300 multiplies, the sieve made
    # 17,567 and the coset scan, which also numbers G/Z(G), 17,168
    G = make_B2(7, 3)
    enumerate_group(G)
    native_multiplies.clear()
    assert len(center(G)) == 49
    assert len(native_multiplies) <= 18_000


PRODUCT_PINS = [
    (lambda: direct_product([make_Mc(3, 3), make_B2(3, 2), make_cyclic(3, 1)]), 592),
    (lambda: make_second_example(3, 2, 2), 252),
]
PRODUCT_IDS = ["Mc(3,3)xB2(3,2)xC3", "second_example(3,2,2)"]


@pytest.mark.parametrize("build, count", PRODUCT_PINS, ids=PRODUCT_IDS)
def test_product_center_index_products_are_generator_tests_and_powers(index_products, build, count):
    # a product's center scan, and that of a quotient of one, numbers each
    # coset by one row and completes the cosets numbered before the center
    # grew by one row of the new central g's powers, so the product's own
    # index multiplies left are the generator tests' and those powers':
    # 586 + 6 on the product and 248 + 4 on second_example, where the sieve
    # made 782 + 102 and 480 + 21 (its closures) and marking by one
    # _index_product per element made 8,138 and 1,461
    G = build()
    enumerate_group(G)
    index_products.clear()
    center(G)
    assert len(index_products) == count


@pytest.mark.parametrize("build", [build for build, _ in PRODUCT_PINS], ids=PRODUCT_IDS)
def test_product_quotient_scan_makes_no_index_products(index_products, build):
    # a fixed-kernel coset scan reads each coset gZ as one row: numbering
    # the cosets one _index_product per element made 6,561 and 729 calls
    # (G/Z(G) itself takes the center scan's numbering, with no scan)
    G = build()
    Z = EnumeratedSubgroup(center(G).elements)
    index_products.clear()
    Q = QuotientGroup(G, Z)
    assert index_products == []
    assert len(Q._up) * len(Z) == len(enumerate_group(G))


def test_search_prunes_subgroups_containing_the_center(quotient_index_products):
    # through index tables, the unpruned search read the tables of
    # second_example 4,177,012 times to prove it indecomposable, the pruned
    # one 415,063, and the pruned one that forms each join of S once 56,181;
    # it now makes 55,488 of the quotient's index multiplies
    Q = make_second_example(3, 2, 2)
    enumerate_group(Q)
    quotient_index_products.clear()
    assert direct_factor_search(Q) is None
    assert len(quotient_index_products) <= 60_000


def test_direct_factor_search_outside_p_groups():
    # Z(S3) = 1, so S3 x C3 splits with Z(G) = C3 inside a factor: the center
    # prune holds for p-groups only
    split = direct_factor_search(direct_product([make_s3(), make_cyclic(3, 1)]))
    assert split is not None
    assert [len(H) for H in split] == [3, 6]

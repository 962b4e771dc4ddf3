import gc
import random
import weakref

import pytest

from pgs.constructions import (
    LieBCHGroup,
    SemidirectGroup,
    make_B2,
    make_Dc,
    make_Mc,
    make_cyclic,
    make_homocyclic,
    make_second_example,
)
from pgs.errors import InternalInconsistency, NotNormal, ResourceLimit
from pgs.groups import (
    DirectProductGroup,
    EnumeratedSubgroup,
    QuotientGroup,
    SubgroupGroup,
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
from test_properties import ReferenceQuotient
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
    "build", [lambda: make_B2(7, 3), lambda: make_Dc(3, 5), lambda: make_Mc(3, 7)], ids=["B2(7,3)", "Dc(3,5)", "Mc(3,7)"]
)
def test_native_carrier_is_its_coordinate_box(native_multiplies, build):
    # the closure of the generators made 84,035 multiplies on B2(7,3)
    G = build()
    native_multiplies.clear()
    E = enumerate_group(G)
    assert native_multiplies == []
    assert len(E) == G.known_order and E.elements[0] == G.identity


def test_native_carrier_checks_its_order_before_the_box():
    with pytest.raises(ResourceLimit, match="more than 20 elements"):
        enumerate_group(LieBCHGroup(3, 2, max_order=20))
    with pytest.raises(ResourceLimit, match="more than 20 elements"):
        enumerate_group(SemidirectGroup(3, 3, (9,), ((4,),), [("x", (0, 1)), ("y", (1, 0))], max_order=20))


def test_subgroup_group_checks_its_known_order():
    D = make_Dc(3, 2)
    x = D.named_elements["x"]
    H = SubgroupGroup(D, 9, [("x", x)])
    assert enumerate_group(H).as_set == subgroup_closure(D, [x]).as_set
    with pytest.raises(InternalInconsistency):
        enumerate_group(SubgroupGroup(D, 27, [("x", x)]))
    with pytest.raises(ResourceLimit):
        enumerate_group(SubgroupGroup(make_Dc(3, 2, max_order=20), 27, [("x", x)]))


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
    # one coset number per parent element, in carrier order: over a parent
    # that scans on tuples, a dict keyed by the carrier's own tuples; over
    # a product, an array and no dict over the parent's carrier
    assert len(Q._down) == len(elements)
    if isinstance(G, DirectProductGroup):
        assert not any(isinstance(v, dict) and len(v) >= len(elements) for v in vars(Q).values())
        numbers = list(Q._down)
    else:
        assert all(k is g for k, g in zip(Q._down, elements))
        numbers = list(Q._down.values())
    # the quotient's arithmetic, on tuples and on coset numbers, is the
    # tuple-only reference quotient's on all pairs
    R = ReferenceQuotient(G, center(G))
    assert numbers == list(R._down.values())
    assert all(Q.project(g) is R.project(g) for g in elements)
    assert all(Q.multiply(a, b) is R.multiply(a, b) for a in reps for b in reps)
    assert all(reps[Q._index_product(i, j)] is R.multiply(a, b) for i, a in enumerate(reps) for j, b in enumerate(reps))
    assert all(Q.invert(a) is R.invert(a) for a in reps)


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
        assert set(t.inverses) == {-1}
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


def test_direct_factor_search_fills_part_of_the_table(monkeypatch):
    Q = make_second_example(3, 2, 2)
    n = len(enumerate_group(Q))
    calls = []
    real = QuotientGroup.multiply

    def counting(self, a, b):
        if self is Q:
            calls.append(1)
        return real(self, a, b)

    center(Q), order_p_elements(Q)  # cached analyses the search reads; they fill no table entry
    monkeypatch.setattr(QuotientGroup, "multiply", counting)
    assert direct_factor_search(Q) is None
    filled = sum(x >= 0 for x in Q._table.products)
    assert len(calls) == filled < n * n // 2


def test_center_sieves_cosets(native_multiplies):
    # B2(7,3) has 16,807 elements and a center of 49: testing every element
    # against both generators makes 34,300 multiplies, the sieve 17,567
    G = make_B2(7, 3)
    enumerate_group(G)
    native_multiplies.clear()
    assert len(center(G)) == 49
    assert len(native_multiplies) <= 18_000


def test_search_prunes_subgroups_containing_the_center(table_reads):
    # the unpruned search reads the tables of second_example 4,177,012 times
    # to prove it indecomposable, the pruned one 494,086
    Q = make_second_example(3, 2, 2)
    enumerate_group(Q)
    table_reads.clear()
    assert direct_factor_search(Q) is None
    assert len(table_reads) <= 2_000_000


def test_direct_factor_search_outside_p_groups():
    # Z(S3) = 1, so S3 x C3 splits with Z(G) = C3 inside a factor: the center
    # prune holds for p-groups only
    split = direct_factor_search(direct_product([make_s3(), make_cyclic(3, 1)]))
    assert split is not None
    assert [len(H) for H in split] == [3, 6]

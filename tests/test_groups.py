import random

import pytest

from pgs.constructions import SemidirectGroup, make_B2, make_Dc, make_Mc, make_cyclic
from pgs.errors import NotNormal, ResourceLimit
from pgs.groups import (
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

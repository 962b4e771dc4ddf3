"""Property tests for the per-group caches and the paper's identities.

Each cached analysis (order-p elements, p-th powers, the upper central
series, the spectrum's layer-2 witness) and the incremental subgroup closure
are compared with a plain reference scan, on seeded random recipes with a
small order cap and on every family the suite builds.
"""

import random
from collections import deque

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pgs.constructions import build_from_description
from pgs.groups import (
    commutator,
    direct_product,
    enumerate_group,
    is_pth_power,
    order_p_elements,
    subgroup_closure,
)
from pgs.series import lower_central_series, spectrum, upper_central_series
from pgs.verify import _recipe_pool, random_recipes, verify_lemma2

ORDER_CAP = 3000

SUITE_FAMILIES = (
    [{"family": "Dc", "p": p, "c": c} for p, c in [(3, 2), (3, 3), (5, 2), (2, 3), (2, 4)]]
    + [{"family": "Mc", "p": p, "c": c} for p, c in [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (5, 2)]]
    + [{"family": "B2", "p": 3, "k": 2}, {"family": "B2", "p": 5, "k": 2}]
    + [{"family": "homocyclic", "p": 3, "k": 2, "e": 1, "s": 0}]
    + [{"family": "second_example", "p": 3, "k": 2, "c": 2}]
    + [{"family": "cyclic", "p": 3, "e": 2}, {"family": "cyclic", "p": 2, "e": 3}]
)

recipes = st.integers(0, 2**32 - 1).map(lambda seed: random_recipes(seed, 1, ORDER_CAP)[0])


def reference_order_p(G):
    identity = G.identity
    return tuple(
        g for g in enumerate_group(G).elements if g != identity and G.power(g, G.prime) == identity
    )


def reference_ucs(G):
    """Z_(i+1) = {g : [g, x] in Z_i for every generator x}, with no quotients."""
    elems = enumerate_group(G).elements
    gens = [x for _, x in G.generators]
    terms = [frozenset([G.identity])]
    while len(terms[-1]) < len(elems):
        below = terms[-1]
        terms.append(frozenset(g for g in elems if all(commutator(G, g, x) in below for x in gens)))
        assert len(terms[-1]) > len(below)
    return terms


def reference_closure(G, elements):
    """Breadth-first closure multiplying every element by every distinct seed."""
    gens = []
    seen = {G.identity}
    for g in elements:
        t = tuple(g)
        if t not in seen:
            seen.add(t)
            gens.append(t)
    visited = set(seen)
    frontier = deque(visited)
    while frontier:
        x = frontier.popleft()
        for g in gens:
            y = G.multiply(x, g)
            if y not in visited:
                visited.add(y)
                frontier.append(y)
    return visited


def check_closures(desc, seed):
    """subgroup_closure equals the reference on four kinds of seed list."""
    G = build_from_description(desc)
    elems = enumerate_group(G).elements
    gens = [g for _, g in G.generators]
    rng = random.Random(seed)
    seed_lists = [
        gens,
        order_p_elements(G),
        sorted({commutator(G, x, g) for x in elems for g in gens}),
        rng.sample(elems, rng.randint(1, min(6, len(elems)))),
    ]
    for seeds in seed_lists:
        assert subgroup_closure(G, seeds).as_set == reference_closure(G, seeds)


def check_shared_paths(desc):
    G = build_from_description(desc)
    assert order_p_elements(G) == reference_order_p(G)
    assert order_p_elements(G) is order_p_elements(G)

    chain = upper_central_series(G)
    assert upper_central_series(G).terms is chain.terms
    z = reference_ucs(G)
    assert [t.as_set for t in chain.terms] == z
    rebuilt = build_from_description(desc)
    assert rebuilt is not G and upper_central_series(rebuilt) == chain

    # the spectrum's layer-2 witness is the old lemma-2 scan of Z_2 \ Z_1
    old = None
    if len(z) > 2:
        old = next((g for g in reference_order_p(G) if g in z[2] and g not in z[1]), None)
    assert spectrum(G).witnesses.get(2) == old
    lemma2 = verify_lemma2(G)
    if lemma2["applicable"]:
        assert lemma2["witness"] == old


def check_identities(desc):
    G = build_from_description(desc)
    n = len(enumerate_group(G))
    ucs = upper_central_series(G)
    assert all(n % len(t) == 0 for t in ucs.terms)
    assert len(ucs) == len(lower_central_series(G))


@pytest.mark.parametrize("desc", SUITE_FAMILIES, ids=lambda d: ",".join(f"{k}={v}" for k, v in d.items()))
def test_suite_families_shared_paths(desc):
    check_shared_paths(desc)
    check_identities(desc)
    check_closures(desc, seed=0)


@settings(max_examples=30)
@given(recipes, st.integers(0, 2**32 - 1))
def test_recipes_closure_matches_reference(desc, seed):
    check_closures(desc, seed)


@settings(max_examples=40)
@given(recipes)
def test_recipes_shared_paths(desc):
    check_shared_paths(desc)


@settings(max_examples=40)
@given(recipes)
def test_recipes_identities(desc):
    check_identities(desc)


@settings(max_examples=40)
@given(recipes)
def test_recipes_pth_powers(desc):
    """is_pth_power agrees with the plain scan {g^p}, and after the order-p
    scan it answers without multiplying."""
    G = build_from_description(desc)
    elems = enumerate_group(G).elements
    image = {G.power(g, G.prime) for g in elems}
    order_p_elements(G)
    calls = []
    real = G.multiply
    G.multiply = lambda a, b: calls.append(1) or real(a, b)
    assert is_pth_power(G, G.identity) and calls == []
    assert [g for g in elems if is_pth_power(G, g)] == [g for g in elems if g in image]
    assert calls == []


@st.composite
def factor_pairs(draw):
    pool = _recipe_pool(draw(st.sampled_from((2, 3, 5))))
    (d1, o1, _), (d2, o2, _) = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=2))
    assume(o1 * o2 <= ORDER_CAP)
    return d1, d2


@settings(max_examples=20)
@given(factor_pairs())
def test_product_layers_multiply(pair):
    """|Z_i(G x H)| = |Z_i(G)| * |Z_i(H)|, each series held at its top, and
    the spectrum does not depend on the order of the factors."""
    G, H = (build_from_description(d) for d in pair)
    GH = direct_product([G, H])
    zg, zh = upper_central_series(G).orders(), upper_central_series(H).orders()
    zp = upper_central_series(GH).orders()
    assert len(zp) == max(len(zg), len(zh))
    for i, order in enumerate(zp):
        assert order == zg[min(i, len(zg) - 1)] * zh[min(i, len(zh) - 1)]
    straight, swapped = spectrum(GH), spectrum(direct_product([H, G]))
    assert (swapped.spectrum, swapped.klass, swapped.layer_orders) == (
        straight.spectrum,
        straight.klass,
        straight.layer_orders,
    )


@settings(max_examples=40)
@given(recipes, st.integers(0, 10**6))
def test_recipes_carry_their_bound(desc, extra):
    """A recipe built under b >= |G| carries b, as do its quotient's parent
    and every factor of its product."""
    quotient = desc["op"] == "central_quotient"
    b = len(enumerate_group(build_from_description(desc["group"] if quotient else desc))) + extra
    G = build_from_description(desc, b)
    P = G.parent if quotient else G
    assert len(enumerate_group(G)) <= b
    assert [H.max_order for H in (G, P, *P.factors)] == [b] * (2 + len(P.factors))

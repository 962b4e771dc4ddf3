"""Property tests for the per-group caches and the paper's identities.

Each cached analysis (order-p elements and p-th powers from the cyclic
walk, the upper central series by recursion on G/Z(G), the spectrum's
layer-2 witness, the question witness), the center by a coset sieve, the
lower central series by normal closure, the incremental subgroup closure, a
native family's carrier enumerated as its coordinate box, a
direct product's carrier and order-p scan read from its factors, its
arithmetic on index tables, the center, order-p scan and ucs quotients of a
product and of every quotient on indices, the lazily tabled direct-factor
search with its center prunes and the generators-only ucs characterization
are compared with a plain reference scan, on seeded random recipes with a
small order cap and on every family and product the suite builds.  B2's
straight-line product kernels are compared with the BCH series evaluated
through a bracket read from flat structure constants, which is itself
compared with a table of Hall-basis brackets; the rank-1 semidirect product
is compared with the matrix-row product.
"""

import json
import random
from array import array
from collections import deque
from functools import partial
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pgs.constructions import (
    _HALL_DIMS,
    LieBCHGroup,
    SemidirectGroup,
    build_from_description,
    central_quotient,
    make_B2,
    make_Dc,
    make_Mc,
    make_cyclic,
    make_homocyclic,
    make_partb_decomposable,
    make_partb_indecomposable,
    make_second_example,
)
from pgs.errors import ResourceLimit
from pgs.groups import (
    _TABLE_BOUND,
    DEFAULT_DECOMPOSE_BOUND,
    DEFAULT_MAX_ORDER,
    DirectProductGroup,
    EnumeratedSubgroup,
    FiniteGroup,
    QuotientGroup,
    _arithmetic,
    _canonical,
    _close,
    _conjugacy_classes_idx,
    _index_table,
    _sieve_center,
    center,
    commutator,
    direct_factor_search,
    direct_product,
    enumerate_group,
    is_pth_power,
    order_p_elements,
    subgroup_closure,
)
from pgs.series import (
    CentralSeriesChain,
    SpectrumReport,
    _layers,
    is_central_series,
    layer_index,
    lower_central_series,
    satisfies_ucs_characterization,
    spectrum,
    upper_central_series,
)
from pgs.verify import (
    DEFAULT_SEED,
    _recipe_pool,
    _sublemma_holds,
    _suite_checks,
    find_question_witness,
    random_recipes,
    verify_lemma2,
)

ORDER_CAP = 3000
SUITE_PRODUCT_CAP = 20_000
NATIVE_CAP = 20_000
# the index-path reference multiplies componentwise: about 1 s per 20,000-element group
INDEX_PATH_CAP = 10_000

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


def reference_question_witness(G):
    """The question scan over every pair of order-p elements, central or not."""
    elems = reference_order_p(G)
    for x in elems:
        for y in elems:
            xy = G.multiply(x, y)
            if xy != G.multiply(y, x) and G.power(xy, G.prime) == G.identity:
                return (x, y)
    return None


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


def reference_spectrum(G):
    """The spectrum by ``layer_index`` on each order-p element, over the
    terms of ``reference_ucs``: the scan before the layer labelling."""
    chain = CentralSeriesChain(G, tuple(map(EnumeratedSubgroup, reference_ucs(G))))
    occupied = {}
    for g in order_p_elements(G):  # ascending: first hit per layer is the witness
        occupied.setdefault(layer_index(chain, g), g)
    return SpectrumReport(G.prime, chain.length, tuple(sorted(occupied)), occupied, chain.orders())


def check_layers(G):
    """Each element's label is its layer in ``reference_ucs``, and the
    spectrum read from the labels is ``reference_spectrum``."""
    terms = reference_ucs(G)
    assert list(_layers(G)) == [
        next(i for i, t in enumerate(terms) if g in t) for g in enumerate_group(G).elements
    ]
    assert spectrum(G).as_dict() == reference_spectrum(G).as_dict()


def reference_center(G):
    """Every element tested against every generator."""
    mult = G.multiply
    gens = [g for _, g in G.generators]
    return frozenset(g for g in enumerate_group(G).as_set if all(mult(g, s) == mult(s, g) for s in gens))


def check_center(desc):
    """The sieved center equals the reference on G and on G/Z_i for each
    proper term Z_i of its upper central series."""
    G = build_from_description(desc)
    assert center(G).as_set == reference_center(G)
    for term in upper_central_series(G).terms[1:-1]:
        Q = QuotientGroup(G, term)
        assert center(Q).as_set == reference_center(Q)


def reference_lcs(G):
    """gamma_(k+1) closed from the |gamma_k|·d commutators [x, g], x over all
    of gamma_k and g over G's generators; descending, as sets."""
    gens = [g for _, g in G.generators]
    terms = [enumerate_group(G).as_set]
    while len(terms[-1]) > 1:
        comms = {commutator(G, x, g) for x in terms[-1] for g in gens}
        terms.append(subgroup_closure(G, comms).as_set)
        assert len(terms[-1]) < len(terms[-2])
    return terms


def check_lcs(desc):
    G = build_from_description(desc)
    chain = lower_central_series(G)
    assert [t.as_set for t in reversed(chain.terms)] == reference_lcs(G)


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


def check_native_carrier(G):
    """A native family's carrier, its coordinate box, is the closure of its
    generators, in canonical order: the generators generate the whole box,
    which every analysis reading only the generators relies on."""
    assert isinstance(G, (SemidirectGroup, LieBCHGroup))
    E = enumerate_group(G)
    assert E.as_set == reference_closure(G, [g for _, g in G.generators])
    assert E.elements == tuple(sorted(E.as_set))


def check_product_paths(P):
    """A product's carrier, order-p elements and p-th powers, read from its
    factors, equal the closure of its generators and a G.power scan."""
    assert isinstance(P, DirectProductGroup)
    E = enumerate_group(P)
    assert E.as_set == reference_closure(P, [g for _, g in P.generators])
    assert order_p_elements(P) == reference_order_p(P)
    assert P._pth_powers == {P.power(g, P.prime) for g in E.elements}


def reference_multiply(G, a, b):
    """Componentwise product in the factors' own ``multiply``, through
    nested products and quotients: the arithmetic before index tables."""
    if isinstance(G, DirectProductGroup):
        parts = [reference_multiply(f, G.project(i, a), G.project(i, b)) for i, f in enumerate(G.factors)]
        return tuple(x for part in parts for x in part)
    if isinstance(G, QuotientGroup):
        return G.project(reference_multiply(G.parent, a, b))
    return G.multiply(a, b)


class ReferenceQuotient(FiniteGroup):
    """G/N on tuples only, the quotient before index space: one coset scan
    of G's carrier multiplies by ``reference_multiply``, a dict keyed by
    G's carrier tuples numbers the cosets, and ``multiply``, ``invert`` and
    ``project`` read the minimum at a coset's number."""

    def __init__(self, G, N):
        E = enumerate_group(G)
        down = dict.fromkeys(E.elements)
        reps = []
        for g in E.elements:
            if down[g] is not None:
                continue
            for n in N.elements:
                down[reference_multiply(G, g, n)] = len(reps)
            reps.append(g)
        assert len(reps) * len(N) == len(E)
        self.parent, self.kernel, self._down, self._reps = G, N, down, tuple(reps)
        self._init_group(
            G.prime,
            self.project(G.identity),
            G.coordinate_moduli,
            [(name, self.project(g)) for name, g in G.generators],
            named={name: self.project(g) for name, g in G.named_elements.items()},
            known_order=len(reps),
            description=f"{G!r}/N{len(N)}",
            max_order=G.max_order,
        )

    def project(self, g):
        return self._reps[self._down[g]]

    def multiply(self, a, b):
        return self.project(reference_multiply(self.parent, a, b))

    def invert(self, a):
        return self.project(reference_invert(self.parent, a))

    def _carrier(self):
        return _canonical(self._reps)


def reference_tuple_center(G):
    """The coset sieve on tuples, multiplying by ``reference_multiply``."""
    gens = [g for _, g in G.generators]
    mult = partial(reference_multiply, G)
    return tuple(_sieve_center(mult, enumerate_group(G).elements, G.identity, gens, G.max_order))


def reference_walk(G):
    """The cyclic walk on tuples, multiplying by ``reference_multiply``: the
    order-p elements (as the carrier's own tuples) and the p-th powers."""
    p, identity = G.prime, G.identity
    elements = enumerate_group(G).elements
    small, powers, done = set(), {identity}, {identity}
    for g in elements:
        if g in done:
            continue
        walk = [identity, g]
        x = reference_multiply(G, g, g)
        while x != identity:
            walk.append(x)
            x = reference_multiply(G, x, g)
        n = len(walk)
        for j in range(1, n):
            if gcd(j, n) == 1:
                done.add(walk[j])
                powers.add(walk[p * j % n])
        if n == p:
            small.update(walk[1:])
    return tuple(g for g in elements if g in small), frozenset(powers)


def same_objects(xs, ys):
    xs, ys = list(xs), list(ys)
    return len(xs) == len(ys) and all(x is y for x, y in zip(xs, ys))


def check_index_paths(G, T=None):
    """G, a product or a quotient, scans on indices, and the tuple path on
    its twin T gives exactly what G's index path gives.

    T is G itself for a product, else a ``ReferenceQuotient`` of G's parent
    by G's kernel, with G's representatives, coset numbers (in the parent's
    carrier order) and projections of the parent's elements the same.  G's
    products of indices, on seeded pairs, decode to T's tuple products.
    G's center, order-p elements, p-th powers and ucs terms equal the tuple
    path's on T, as the carrier's own tuples; the ucs terms above the center
    are the preimages of G/Z(G)'s, checked the same way against
    ``ReferenceQuotient(T, Z)``.  Returns the ucs terms.
    """
    if T is None:
        T = G if isinstance(G, DirectProductGroup) else ReferenceQuotient(G.parent, G.kernel)
    E = enumerate_group(G)
    assert isinstance(_arithmetic(G)[1], range)
    if T is not G:
        parent = enumerate_group(G.parent).elements
        down = G._down.values() if isinstance(G._down, dict) else G._down
        assert same_objects(E.elements, enumerate_group(T).elements)
        assert list(down) == list(T._down.values())
        assert same_objects(map(G.project, parent), map(T.project, parent))
    rng = random.Random(len(E))
    elems = E.elements
    for i, j in [(rng.randrange(len(E)), rng.randrange(len(E))) for _ in range(100)]:
        assert elems[G._index_product(i, j)] == reference_multiply(T, elems[i], elems[j])
    own = {id(g) for g in E.elements}
    Z = center(G)
    assert same_objects(Z.elements, reference_tuple_center(T))
    small, powers = reference_walk(T)
    assert same_objects(order_p_elements(G), small)
    assert G._pth_powers == powers and all(id(g) in own for g in G._pth_powers)
    if len(Z) == len(E):
        expected = [E.elements] if len(E) == 1 else [(G.identity,), E.elements]
    else:
        R = ReferenceQuotient(T, Z)
        upper = check_index_paths(QuotientGroup(G, Z), R)
        preimages = [tuple(g for g in E.elements if R.project(g) in t) for t in map(set, upper[1:-1])]
        expected = [(G.identity,), Z.elements, *preimages, E.elements]
    terms = upper_central_series(G).terms
    assert [t.elements for t in terms] == expected
    assert all(id(g) in own for t in terms[1:] for g in t.elements)
    return expected


def reference_invert(G, a):
    if isinstance(G, DirectProductGroup):
        return tuple(x for i, f in enumerate(G.factors) for x in reference_invert(f, G.project(i, a)))
    if isinstance(G, QuotientGroup):
        return G.project(reference_invert(G.parent, a))
    return G.invert(a)


def check_tabled_arithmetic(G, seed=0, pairs=200):
    """G's multiply and invert, tabled wherever a product is enumerated,
    equal the componentwise reference on the identity, every generator and
    seeded random elements."""
    elems = enumerate_group(G).elements
    rng = random.Random(seed)
    special = [G.identity] + [g for _, g in G.generators]
    drawn = [(rng.choice(elems), rng.choice(elems)) for _ in range(pairs)]
    for a, b in [(a, b) for a in special for b in special] + drawn:
        assert G.multiply(a, b) == reference_multiply(G, a, b)
    for a in special + [a for a, _ in drawn]:
        assert G.invert(a) == reference_invert(G, a)


def eager_table(G):
    """Fill G's index table up front by G.multiply, as direct_factor_search
    once did with a private n x n table; returns the table."""
    t = _index_table(G)
    idx = t.index
    t.products[:] = array("h", [idx[G.multiply(a, b)] for a in t.elements for b in t.elements])
    return t


def reference_direct_factor_search(G, decompose_bound=DEFAULT_DECOMPOSE_BOUND):
    """The join-closure search with no center prune: every normal subgroup
    found is queued, whatever it contains."""
    E = enumerate_group(G)
    n = len(E)
    if n > decompose_bound:
        raise AssertionError("reference search above its bound")
    if n == 1:
        return None
    table = _index_table(G)
    elems = table.elements
    idx = table.index
    id_idx = idx[G.identity]
    identity_mask = 1 << id_idx
    if table.products is not None:

        def mul(i, j):
            return table.product(G, i, j)

    else:
        cache = {}

        def mul(i, j):
            key = i * n + j
            if key not in cache:
                cache[key] = idx[G.multiply(elems[i], elems[j])]
            return cache[key]

    inv_of = [table.inverse(G, i) for i in range(n)]
    gen_idx = sorted({idx[g] for _, g in G.generators if g != G.identity})
    atoms = {}
    for cls in _conjugacy_classes_idx(n, mul, inv_of, gen_idx):
        if cls != [id_idx]:
            members = sorted(_close(mul, id_idx, cls, n)[0])
            atoms.setdefault(sum(1 << i for i in members), members)
    subgroups, by_order, queue = {}, {}, deque()

    def register(mask, members):
        order = len(members)
        if 1 < order < n and n % order == 0:
            for other in by_order.get(n // order, ()):
                if other & mask == identity_mask:
                    pair = sorted([(order, mask, members), (n // order, other, subgroups[other])])
                    return tuple(EnumeratedSubgroup([elems[i] for i in m]) for _, _, m in pair)
        subgroups[mask] = members
        by_order.setdefault(order, []).append(mask)
        queue.append(mask)
        return None

    for mask, members in atoms.items():
        if hit := register(mask, members):
            return hit
    while queue:
        smask = queue.popleft()
        smembers = subgroups[smask]
        for amask, amembers in atoms.items():
            if amask | smask == smask:
                continue
            res_mask, res = smask, list(smembers)
            for b in amembers:
                if not (res_mask >> b) & 1:
                    for a in smembers:
                        y = mul(a, b)
                        if not (res_mask >> y) & 1:
                            res_mask |= 1 << y
                            res.append(y)
            if res_mask not in subgroups and (hit := register(res_mask, sorted(res))):
                return hit
    return None


def as_sets(split):
    return None if split is None else [H.as_set for H in split]


def check_lazy_search(build):
    """The search on a lazily filled table returns the pair (or None) that
    it returns on an eagerly filled one and that the unpruned reference
    returns, and every entry it filled agrees.  A search the center settles
    before any table is built fills none."""
    lazy_G, eager_G, reference_G = build(), build(), build()
    lazy = direct_factor_search(lazy_G)
    eager_products = eager_table(eager_G).products
    eager = direct_factor_search(eager_G)
    assert as_sets(lazy) == as_sets(eager) == as_sets(reference_direct_factor_search(reference_G))
    filled = () if lazy_G._table is None else lazy_G._table.products
    assert all(x < 0 or x == y for x, y in zip(filled, eager_products))
    return lazy


def check_search_premise(G, split):
    """Neither factor of a returned pair contains Z(G), and their meets with
    Z(G) are complementary in it."""
    if split is None:
        return
    Z = center(G).as_set
    A, B = (H.as_set for H in split)
    assert not Z <= A and not Z <= B
    assert len(A & Z) * len(B & Z) == len(Z)


def reference_ucs_characterization(G, chain):
    """The all-y scan: each x in G_m \\ G_(m-1) has some y in G with
    [x, y] in G_(m-1) \\ G_(m-2)."""
    elems = enumerate_group(G).elements
    terms = chain.terms
    for m in range(2, len(terms)):
        mid, low = terms[m - 1].as_set, terms[m - 2].as_set
        for x in terms[m].as_set - mid:
            if not any((c := commutator(G, x, y)) in mid and c not in low for y in elems):
                return False
    return True


def central_chains(G):
    """The upper and lower central series, and each refinement of the ucs
    by one term <Z_i, z> strictly between Z_i and Z_(i+1)."""
    ucs = upper_central_series(G)
    chains = [ucs, lower_central_series(G)]
    terms = ucs.terms
    for i in range(len(terms) - 1):
        lo, hi = terms[i], terms[i + 1]
        z = next(g for g in hi.elements if g not in lo)
        between = subgroup_closure(G, [z, *lo.elements])
        if len(between) < len(hi):
            chains.append(CentralSeriesChain(G, terms[: i + 1] + (between,) + terms[i + 1 :]))
    return chains


def check_ucs_characterization(desc):
    """Both scans agree on every chain, and hold exactly on the ucs."""
    G = build_from_description(desc)
    ucs = upper_central_series(G)
    for chain in central_chains(G):
        assert is_central_series(G, chain)
        verdict = satisfies_ucs_characterization(G, chain)
        assert verdict == reference_ucs_characterization(G, chain) == (chain == ucs)


def product_under(G):
    """G itself if it is a product, else the product G is a quotient of."""
    return G if isinstance(G, DirectProductGroup) else G.parent


def suite_product_descs():
    """Every direct product the paper suite builds, by itself or as the
    parent of a quotient, with at most SUITE_PRODUCT_CAP elements."""
    descs = []
    for name, params, _ in _suite_checks(DEFAULT_MAX_ORDER, DEFAULT_DECOMPOSE_BOUND, DEFAULT_SEED, 50):
        if name == "theorem_part1_random":
            recipe = params["recipe"]
            descs.append(recipe["group"] if recipe["op"] == "central_quotient" else recipe)
        elif name == "product_spectrum":
            descs.append({"op": "product", "factors": [params["left"], params["right"]]})
    dc, mc = {"family": "Dc"}, {"family": "Mc"}
    fixed = [  # built by the suite's thunks from make_* calls, not from descriptions
        [dict(dc, p=3, c=2), {"family": "B2", "p": 3, "k": 2}],  # second_example
        [dict(dc, p=3, c=3), {"family": "B2", "p": 3, "k": 2}],  # prop_same
        [dict(dc, p=3, c=2), {"family": "cyclic", "p": 3, "e": 2}],  # prop_same_example_k
        [dict(mc, p=2, c=2), dict(dc, p=2, c=3)],  # partb (2,[2],3), partb_decompose
        [dict(mc, p=2, c=2), dict(mc, p=2, c=3), dict(dc, p=2, c=4)],  # partb (2,[2,3],4)
        [dict(mc, p=3, c=3), dict(dc, p=3, c=4)],  # partb (3,[3],4)
    ]
    descs += [{"op": "product", "factors": f} for f in fixed]
    unique = {json.dumps(d, sort_keys=True): d for d in descs}
    return [d for d in unique.values() if build_from_description(d).known_order <= SUITE_PRODUCT_CAP]


def suite_quotient_descs():
    """Every central quotient of a product among the suite's recipes."""
    return [
        params["recipe"]
        for name, params, _ in _suite_checks(DEFAULT_MAX_ORDER, DEFAULT_DECOMPOSE_BOUND, DEFAULT_SEED, 50)
        if name == "theorem_part1_random" and params["recipe"]["op"] == "central_quotient"
    ]


def check_shared_paths(desc):
    G = build_from_description(desc)
    assert order_p_elements(G) == reference_order_p(G)
    assert order_p_elements(G) is order_p_elements(G)
    if not isinstance(G, DirectProductGroup):  # the cyclic walk's p-th powers
        assert G._pth_powers == {G.power(g, G.prime) for g in enumerate_group(G).elements}

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
    """|Z_i| divides |G|, ucs and lcs have the same length, and every ucs
    term (formed with no normality scan) is normal."""
    G = build_from_description(desc)
    n = len(enumerate_group(G))
    ucs = upper_central_series(G)
    assert all(n % len(t) == 0 for t in ucs.terms)
    assert len(ucs) == len(lower_central_series(G))
    gens = [g for _, g in G.generators]
    for term in ucs.terms:
        assert all(G.conjugate(x, g) in term for x in term.as_set for g in gens)


@pytest.mark.parametrize("desc", SUITE_FAMILIES, ids=lambda d: ",".join(f"{k}={v}" for k, v in d.items()))
def test_suite_families_shared_paths(desc):
    check_shared_paths(desc)
    check_identities(desc)
    check_closures(desc, seed=0)
    G = build_from_description(desc)
    assert find_question_witness(G) == reference_question_witness(G)


def test_deep_ucs_matches_reference():
    # Mc(3,7) has class 7, so the recursion runs six levels deep: each
    # quotient is formed from the one before
    G = build_from_description({"family": "Mc", "p": 3, "c": 7})
    assert [t.as_set for t in upper_central_series(G).terms] == reference_ucs(G)
    check_layers(G)


# a quotient of a native group: its coset map is a dict keyed by the native
# parent's tuples, and its own ucs quotients number their cosets in arrays
NATIVE_QUOTIENT = {"op": "central_quotient", "group": {"family": "Mc", "p": 3, "c": 4}, "word": "s4"}


@pytest.mark.parametrize(
    "desc", SUITE_FAMILIES + [NATIVE_QUOTIENT], ids=lambda d: ",".join(f"{k}={v}" for k, v in d.items())
)
def test_suite_families_layers(desc):
    G = build_from_description(desc)
    if desc is NATIVE_QUOTIENT:
        assert isinstance(G._down, dict) and isinstance(QuotientGroup(G, center(G))._down, array)
    check_layers(G)


@settings(max_examples=30)
@given(recipes)
def test_recipes_layers(desc):
    """A recipe's labels, and for a quotient of a product also those of its
    twin on tuples, ``ReferenceQuotient``, whose own ucs quotients are
    formed over a parent that scans on tuples."""
    G = build_from_description(desc)
    check_layers(G)
    if isinstance(G, QuotientGroup):
        check_layers(ReferenceQuotient(G.parent, G.kernel))


def reference_sublemma(Q, chains, g):
    """prop_same's layer sub-lemma at g in P, one n at a time: Q's image of
    g lies in Z_n(Q) iff both coordinates of g lie in Z_n, for n = 1 up to
    the longest chain."""
    chain_q, chain_1, chain_2 = chains
    depth = max(len(chain_q.terms), len(chain_1.terms), len(chain_2.terms))

    def z_term(chain, n):
        return chain.terms[min(n, len(chain.terms) - 1)].as_set

    w1 = len(Q.parent.factors[0].identity)
    x1, x2 = g[:w1], g[w1:]
    img = Q.project(g)
    return all(
        (img in z_term(chain_q, n)) == (x1 in z_term(chain_1, n) and x2 in z_term(chain_2, n))
        for n in range(1, depth)
    )


@pytest.mark.parametrize(
    "right, z2, failures",
    [
        (lambda: make_B2(3, 2), lambda G: commutator(G, G.named_elements["t"], G.named_elements["s"]), 0),
        (lambda: make_cyclic(3, 2), lambda G: G.identity, 6480),
    ],
    ids=["Dc(3,3)xB2(3,2)/<x^9[t,s]>", "Dc(3,3)xC9/<(x^9,1)>"],
)
def test_sublemma_equation_matches_the_loop(right, z2, failures):
    # the first is the suite's prop_same quotient; in the second z has a
    # trivial coordinate and the sub-lemma fails almost everywhere
    G1, G2 = make_Dc(3, 3), right()
    P = direct_product([G1, G2])
    Q = central_quotient(P, G1.power(G1.named_elements["x"], 9) + z2(G2))
    chains = tuple(upper_central_series(H) for H in (Q, G1, G2))
    verdicts = [_sublemma_holds(Q, g) for g in enumerate_group(P).elements]
    assert verdicts == [reference_sublemma(Q, chains, g) for g in enumerate_group(P).elements]
    assert verdicts.count(False) == failures


NATIVE_DESCS = [d for d in SUITE_FAMILIES if d["family"] != "second_example"] + [
    {"family": "B2", "p": 7, "k": 3},
    {"family": "Mc", "p": 3, "c": 7},
    {"family": "Dc", "p": 3, "c": 5},
]


@pytest.mark.parametrize("desc", NATIVE_DESCS, ids=lambda d: ",".join(f"{k}={v}" for k, v in d.items()))
def test_native_carrier_is_the_generators_closure(desc):
    check_native_carrier(build_from_description(desc))


@st.composite
def small_native_descs(draw):
    """Dc and Mc with p in {2, 3, 5} and small c, B2 with k < p, homocyclic
    with s = 0, and cyclic; some are above NATIVE_CAP."""
    family = draw(st.sampled_from(["Dc", "Mc", "B2", "homocyclic", "cyclic"]))
    if family == "B2":
        p = draw(st.sampled_from([3, 5, 7]))
        return {"family": "B2", "p": p, "k": draw(st.integers(2, min(p - 1, 3)))}
    p = draw(st.sampled_from([2, 3, 5]))
    if family == "Dc":
        return {"family": "Dc", "p": p, "c": draw(st.integers(3 if p == 2 else 2, {2: 7, 3: 4, 5: 3}[p]))}
    if family == "Mc":
        return {"family": "Mc", "p": p, "c": draw(st.integers(2, {2: 9, 3: 7, 5: 5}[p]))}
    if family == "homocyclic":
        return {"family": "homocyclic", "p": p, "k": draw(st.integers(1, p - 1)), "e": draw(st.integers(1, 3)), "s": 0}
    return {"family": "cyclic", "p": p, "e": draw(st.integers(1, 8))}


@settings(max_examples=60)
@given(small_native_descs())
def test_drawn_native_carrier_is_the_generators_closure(desc):
    try:
        G = build_from_description(desc, max_order=NATIVE_CAP)
        enumerate_group(G)
    except ResourceLimit:
        assume(False)
    check_native_carrier(G)


def test_suite_products_read_their_factors():
    descs = suite_product_descs()
    assert len(descs) >= 40
    for desc in descs:
        check_product_paths(build_from_description(desc))


def test_suite_products_and_quotients_index_paths():
    """Every product the suite builds and every central quotient of one
    among its recipes, up to INDEX_PATH_CAP elements (and, through the
    recursion, their ucs quotients), second_example (3,2,2), and the
    centers' quotients of a native group and of a ``SubgroupGroup``."""
    groups = [build_from_description(d) for d in suite_product_descs() + suite_quotient_descs()]
    small = [G for G in groups if G.known_order <= INDEX_PATH_CAP]
    assert sum(isinstance(G, QuotientGroup) for G in small) >= 10 and len(small) >= 40
    over_tuples = [QuotientGroup(H, center(H)) for H in (make_Mc(3, 4), make_homocyclic(3, 2, 2, 1))]
    for G in small + [make_second_example(3, 2, 2)] + over_tuples:
        check_index_paths(G)


@settings(max_examples=30)
@given(recipes)
def test_recipes_index_paths(desc):
    check_index_paths(build_from_description(desc))


def test_suite_products_tabled_arithmetic():
    for k, desc in enumerate(suite_product_descs()):
        P = build_from_description(desc)
        check_tabled_arithmetic(P, seed=k)
        assert P._table is not None


@pytest.mark.parametrize("desc", SUITE_FAMILIES, ids=lambda d: ",".join(f"{k}={v}" for k, v in d.items()))
def test_suite_families_ucs_characterization(desc):
    check_ucs_characterization(desc)


@pytest.mark.parametrize("desc", SUITE_FAMILIES, ids=lambda d: ",".join(f"{k}={v}" for k, v in d.items()))
def test_suite_families_lcs_matches_reference(desc):
    check_lcs(desc)


@pytest.mark.parametrize("desc", SUITE_FAMILIES, ids=lambda d: ",".join(f"{k}={v}" for k, v in d.items()))
def test_suite_families_center_matches_reference(desc):
    check_center(desc)


def test_lazy_search_on_suite_decompositions():
    """Every group the suite decomposes: second_example and partb_decompose."""
    assert check_lazy_search(lambda: make_second_example(3, 2, 2)) is None
    assert check_lazy_search(lambda: make_partb_decomposable(2, [2], 3)) is not None
    assert check_lazy_search(lambda: make_partb_indecomposable(2, [2], 3)) is None


def test_lazy_search_on_small_recipes():
    descs = random_recipes(DEFAULT_SEED, 12, _TABLE_BOUND)
    splits = [check_lazy_search(lambda d=d: build_from_description(d)) for d in descs]
    assert any(s is None for s in splits) and any(s is not None for s in splits)


@settings(max_examples=30)
@given(st.integers(0, 2**32 - 1).map(lambda seed: random_recipes(seed, 1, _TABLE_BOUND)[0]))
def test_recipes_search_matches_reference(desc):
    """The pruned search returns the reference's pair, and the pair meets
    the premise of the prune."""
    G = build_from_description(desc)
    split = direct_factor_search(G)
    assert as_sets(split) == as_sets(reference_direct_factor_search(build_from_description(desc)))
    check_search_premise(G, split)


@st.composite
def nested_products(draw):
    """A product whose first factor is a random recipe (itself a product or
    a central quotient of one) and whose second is a family of the same
    prime, at most ORDER_CAP elements in all."""
    desc = draw(st.integers(0, 2**32 - 1).map(lambda seed: random_recipes(seed, 1, ORDER_CAP // 8)[0]))
    inner = desc["group"] if desc["op"] == "central_quotient" else desc
    p = inner["factors"][0]["p"]
    room = ORDER_CAP // build_from_description(desc).known_order
    family = draw(st.sampled_from([d for d, order, _ in _recipe_pool(p) if order <= room]))
    return {"op": "product", "factors": [desc, family]}


@settings(max_examples=30)
@given(recipes)
def test_recipes_product_paths(desc):
    check_product_paths(product_under(build_from_description(desc)))


@settings(max_examples=30)
@given(recipes, st.integers(0, 2**32 - 1))
def test_recipes_tabled_arithmetic(desc, seed):
    G = build_from_description(desc)
    for H in dict.fromkeys([G, product_under(G)]):  # a quotient and the product under it
        check_tabled_arithmetic(H, seed)


@settings(max_examples=20)
@given(nested_products())
def test_nested_product_paths(desc):
    P = build_from_description(desc)
    check_product_paths(P)
    check_product_paths(product_under(P.factors[0]))
    check_tabled_arithmetic(P)
    check_tabled_arithmetic(P.factors[0])


@settings(max_examples=20)
@given(recipes)
def test_recipes_ucs_characterization(desc):
    check_ucs_characterization(desc)


@settings(max_examples=30)
@given(recipes, st.integers(0, 2**32 - 1))
def test_recipes_closure_matches_reference(desc, seed):
    check_closures(desc, seed)


@settings(max_examples=30)
@given(recipes)
def test_recipes_lcs_matches_reference(desc):
    check_lcs(desc)


@settings(max_examples=30)
@given(recipes)
def test_recipes_center_matches_reference(desc):
    check_center(desc)


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
    """|Z_i(G x H)| = |Z_i(G)| * |Z_i(H)|, each series held at its top, the
    layer of (g, h) is the larger of g's and h's, and the spectrum does not
    depend on the order of the factors."""
    G, H = (build_from_description(d) for d in pair)
    GH = direct_product([G, H])
    zg, zh = upper_central_series(G).orders(), upper_central_series(H).orders()
    zp = upper_central_series(GH).orders()
    assert len(zp) == max(len(zg), len(zh))
    for i, order in enumerate(zp):
        assert order == zg[min(i, len(zg) - 1)] * zh[min(i, len(zh) - 1)]
    # elementwise: the product's carrier is G's times H's, in that order
    assert list(_layers(GH)) == [max(a, b) for a in _layers(G) for b in _layers(H)]
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


# Structure constants (i, j, coef, t): [e_i, e_j] = coef * e_t for i < j in
# the Hall basis of LieBCHGroup; every other bracket of two basis elements
# is zero up to weight 4.
STRUCTURE = (
    (0, 1, 1, 2),
    (0, 2, -1, 3),
    (1, 2, -1, 4),
    (0, 3, -1, 5),
    (0, 4, -1, 6),
    (1, 3, -1, 6),
    (1, 4, -1, 7),
)

# The same brackets as (coef, t) terms keyed by (i, j), read with a sign
# switch where i > j
REFERENCE_BRACKETS = {
    (0, 1): ((1, 2),),
    (0, 2): ((-1, 3),),
    (1, 2): ((-1, 4),),
    (0, 3): ((-1, 5),),
    (0, 4): ((-1, 6),),
    (1, 3): ((-1, 6),),
    (1, 4): ((-1, 7),),
}

B2_PARAMS = [(p, k) for p in (3, 5, 7, 11, 13) for k in range(2, min(p - 1, 4) + 1)]


def make_b2_at_its_order(p, k):
    return make_B2(p, k, p ** _HALL_DIMS[k])


def structure_bracket(G, u, v):
    """[u, v] from the structure constants kept below G's dimension."""
    p, dim = G.prime, len(G.identity)
    out = [0] * dim
    for i, j, coef, t in STRUCTURE:
        if t < dim:
            out[t] += coef * (u[i] * v[j] - u[j] * v[i])
    return tuple(x % p for x in out)


def reference_bracket(G, u, v):
    """[u, v] from the bracket table trimmed to G's dimension, switching the
    sign where i > j."""
    p, dim = G.prime, len(G.identity)
    table = {}
    for (i, j), terms in REFERENCE_BRACKETS.items():
        if i < dim and j < dim:
            kept = tuple((c, t) for c, t in terms if t < dim)
            if kept:
                table[(i, j)] = kept
    out = [0] * dim
    for i, ui in enumerate(u):
        if not ui:
            continue
        for j, vj in enumerate(v):
            if not vj or i == j:
                continue
            if i < j:
                terms = table.get((i, j))
                sign = 1
            else:
                terms = table.get((j, i))
                sign = -1
            if terms:
                c0 = sign * ui * vj
                for coef, t in terms:
                    out[t] = (out[t] + c0 * coef) % p
    return tuple(out)


def reference_bch_multiply(G, a, b):
    """Truncated BCH product a + b + [a,b]/2 + ([a,[a,b]] - [b,[a,b]])/12
    - [b,[a,[a,b]]]/24 up to G's class, through ``structure_bracket``: the
    product before B2's straight-line kernels."""
    p, k = G.prime, G.klass
    ab = structure_bracket(G, a, b)
    out = [(x + y + pow(2, -1, p) * z) % p for x, y, z in zip(a, b, ab)]
    if k >= 3:
        a_ab = structure_bracket(G, a, ab)
        b_ab = structure_bracket(G, b, ab)
        tw = pow(12, -1, p)
        out = [(x + tw * (u - v)) % p for x, u, v in zip(out, a_ab, b_ab)]
        if k >= 4:
            b_a_ab = structure_bracket(G, b, a_ab)
            t4 = pow(24, -1, p)
            out = [(x - t4 * w) % p for x, w in zip(out, b_a_ab)]
    return tuple(out)


def b2_vectors(G):
    return st.tuples(*[st.integers(0, G.prime - 1)] * len(G.identity))


@pytest.mark.parametrize("p, k", B2_PARAMS)
@settings(max_examples=25)
@given(data=st.data())
def test_b2_bracket_and_product_match_reference(p, k, data):
    """The structure-constant bracket equals the table-and-sign reference,
    and multiply equals the bracket-based product, on the identity, the
    generators and drawn vectors."""
    G = make_b2_at_its_order(p, k)
    special = [G.identity] + [g for _, g in G.generators]
    vec = b2_vectors(G)
    drawn = [(data.draw(vec), data.draw(vec)) for _ in range(4)]
    for a, b in [(a, b) for a in special for b in special] + drawn:
        assert structure_bracket(G, a, b) == reference_bracket(G, a, b)
        assert G.multiply(a, b) == reference_bch_multiply(G, a, b)


@pytest.mark.parametrize("p, k", B2_PARAMS)
@settings(max_examples=25)
@given(data=st.data())
def test_b2_constants_are_a_lie_bracket(p, k, data):
    """The structure constants give an antisymmetric bracket satisfying the
    Jacobi identity, on drawn vectors and on every triple of basis vectors."""
    G = make_b2_at_its_order(p, k)
    dim = len(G.identity)
    basis = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    vec = b2_vectors(G)
    drawn = tuple(data.draw(vec) for _ in range(3))

    def br(u, v):
        return structure_bracket(G, u, v)

    for u, v, w in [drawn] + [(u, v, w) for u in basis for v in basis for w in basis]:
        assert br(u, v) == G.invert(br(v, u))
        cycle = [br(u, br(v, w)), br(v, br(w, u)), br(w, br(u, v))]
        assert tuple(sum(x) % p for x in zip(*cycle)) == G.identity


@pytest.mark.parametrize("p", [3, 5])
def test_b2_kernel_matches_reference_on_every_pair(p):
    G = make_B2(p, 2)
    elems = enumerate_group(G).elements
    for a in elems:
        for b in elems:
            assert G.multiply(a, b) == reference_bch_multiply(G, a, b)


@pytest.mark.parametrize("p, k", [(5, 3), (7, 3), (5, 4), (7, 4)])
def test_b2_kernel_matches_reference_on_seeded_pairs(p, k):
    # B2(7,4) has 7^8 elements, above the default bound: built at its order
    # and never enumerated
    G = make_b2_at_its_order(p, k)
    rng = random.Random(f"B2({p},{k})")
    dim = len(G.identity)
    for _ in range(2_000):
        a = tuple(rng.randrange(p) for _ in range(dim))
        b = tuple(rng.randrange(p) for _ in range(dim))
        assert G.multiply(a, b) == reference_bch_multiply(G, a, b)
    assert G._enumeration is None


def reference_semidirect_multiply(G, a, b):
    """(t1, v)(t2, w) = (t1 + t2, v A^t2 + w) by the matrix rows, any rank."""
    M = G._pows[b[0]]
    rank = len(G._mods)
    bottom = tuple(
        (b[j + 1] + sum(a[i + 1] * M[i][j] for i in range(rank))) % G._mods[j] for j in range(rank)
    )
    return ((a[0] + b[0]) % G.top_order,) + bottom


def reference_semidirect_invert(G, a):
    """(t, v)^-1 = (-t, -v A^-t) by the matrix rows, any rank."""
    ti = (G.top_order - a[0]) % G.top_order
    M = G._pows[ti]
    rank = len(G._mods)
    bottom = tuple(-sum(a[i + 1] * M[i][j] for i in range(rank)) % G._mods[j] for j in range(rank))
    return (ti,) + bottom


def is_small_rank1(desc):
    if desc["family"] not in ("Dc", "Mc", "cyclic", "homocyclic"):
        return False
    G = build_from_description(desc)
    return isinstance(G, SemidirectGroup) and G._rank == 1 and G.known_order <= 1000


RANK1_DESCS = [d for d in SUITE_FAMILIES if is_small_rank1(d)] + [
    d
    for d in [
        {"family": "Dc", "p": 2, "c": 3},
        {"family": "Dc", "p": 3, "c": 3},
        {"family": "Dc", "p": 5, "c": 2},
        {"family": "Mc", "p": 2, "c": 5},
        {"family": "cyclic", "p": 3, "e": 3},
    ]
    if d not in SUITE_FAMILIES
]


@pytest.mark.parametrize("desc", RANK1_DESCS, ids=lambda d: ",".join(f"{k}={v}" for k, v in d.items()))
def test_rank1_semidirect_matches_the_matrix_rows(desc):
    G = build_from_description(desc)
    assert G._rank == 1
    elems = enumerate_group(G).elements
    for a in elems:
        assert G.invert(a) == reference_semidirect_invert(G, a)
        for b in elems:
            assert G.multiply(a, b) == reference_semidirect_multiply(G, a, b)

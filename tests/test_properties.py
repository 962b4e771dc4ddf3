"""Property tests for the per-group caches and the paper's identities.

Each cached analysis (order-p elements and p-th powers from the cyclic
walk, the upper central series by recursion on G/Z(G), the spectrum's
layer-2 witness, the question witness), the center by a coset scan, the
lower central series by normal closure, the incremental subgroup closure, a
native family's carrier enumerated as its coordinate box, a
direct product's carrier and order-p scan read from its factors, its
arithmetic on index tables, the center, order-p scan and ucs quotients of a
product and of every quotient on indices, the position marks of the
order-p walk and the coset scan's numbering (against the same scans on
sets and the tuple reference quotient), the
position coders (against the sum of their terms), the direct-factor
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
from operator import getitem

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
from pgs import groups as groups_module
from pgs.errors import PreconditionFailed, ResourceLimit
from pgs.linalg import valuation
from pgs.groups import (
    _TABLE_BOUND,
    DEFAULT_DECOMPOSE_BOUND,
    DEFAULT_MAX_ORDER,
    DirectProductGroup,
    EnumeratedSubgroup,
    FiniteGroup,
    QuotientGroup,
    SubgroupGroup,
    _arithmetic,
    _canonical,
    _close,
    _conjugacy_classes_idx,
    _coset_scan,
    _index_table,
    _omega1,
    _position,
    center,
    commutator,
    direct_factor_search,
    direct_product,
    element_order,
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
    verify_lemma_fact,
    verify_question,
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


def check_subgroup_carrier(G):
    """A ``SubgroupGroup``'s carrier, its parent's coordinate box cut by its
    congruences, is the closure of its generators in the parent, in the
    same canonical order: the congruences the construction derives cut out
    exactly the group its generators generate."""
    assert isinstance(G, SubgroupGroup)
    E = enumerate_group(G)
    assert E.elements == subgroup_closure(G.parent, [g for _, g in G.generators]).elements


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


def reference_sieve_center(mult, elements, identity, gens, bound):
    """The coset sieve on tuples as before position marks: the members of
    ``elements``, a carrier in canonical order, that commute with every
    generator in ``gens``, in carrier order.  Each coset gZ0 is marked by
    ``mult`` in a set that keeps only marks ahead of the scan, each dropped
    when the scan reaches it."""
    z0, kept = {identity}, []
    marked = set()
    central = []
    for g in elements:
        if g in z0:
            central.append(g)
        elif g in marked:
            marked.discard(g)
        elif all(mult(g, s) == mult(s, g) for s in gens):
            central.append(g)
            z0, kept = _close(mult, identity, kept + [g], bound)
        else:
            for z in z0:
                y = mult(g, z)
                if y > g:
                    marked.add(y)
    return central


def reference_tuple_center(G):
    """The set sieve on tuples, multiplying by ``reference_multiply``."""
    gens = [g for _, g in G.generators]
    mult = partial(reference_multiply, G)
    return tuple(reference_sieve_center(mult, enumerate_group(G).elements, G.identity, gens, G.max_order))


def growth_after_a_coset(G):
    """Whether the center scan meets a central element outside the kernel
    K found so far after the first non-central element, which the scan
    always numbers: whether K grows once cosets are numbered, so that the
    scan completes them to cosets of the larger K."""
    Z = center(G).as_set
    K, seen = {G.identity}, False
    for g in enumerate_group(G).elements:
        if g not in Z:
            seen = True
        elif g not in K:
            if seen:
                return True
            K = subgroup_closure(G, [*K, g]).as_set
    return False


def check_coset_scan(G, levels=2):
    """G's center, from the one coset scan on G's scan arithmetic, is the
    set sieve's (``reference_sieve_center`` through ``reference_multiply``),
    as the carrier's own tuples, and so is the scan's on G's carrier tuples
    (``_position``).  Unless Z = G, the scan keeps its numbering of the
    cosets of Z on G, and that numbering is the fixed-kernel scan's (K = Z
    throughout) and ``ReferenceQuotient(G, Z)``'s: the same ``down``, and
    G/Z(G), which takes the arrays over, has the reference's ``_reps``, with
    ``_up`` their positions in G's carrier.  The same holds for G/Z(G), and
    so on up the ucs tower, for ``levels`` levels in all."""
    E = enumerate_group(G)
    expected = reference_tuple_center(G)
    Z = center(G)
    assert same_objects(Z.elements, expected)
    gens = [g for _, g in G.generators]
    found, _, _ = _coset_scan(G.multiply, E.elements, [G.identity], None, _position(G), gens)
    assert [E.elements[k] for k in sorted(map(_position(G), found))] == list(expected)
    if len(Z) == len(E):
        assert G._cosets is None
        return
    down, minima = G._cosets
    mult, carrier, encode, _, rows = _arithmetic(G)
    at = None if isinstance(carrier, range) else _position(G)
    _, fixed_down, fixed_minima = _coset_scan(mult, carrier, [encode(z) for z in Z.elements], rows, at)
    assert down == fixed_down and minima == fixed_minima
    R = ReferenceQuotient(G, Z)
    assert list(down) == list(R._down.values())
    Q = QuotientGroup(G, Z)
    assert G._cosets is None and Q._down is down
    assert same_objects(Q._reps, R._reps)
    assert [E.elements[k] for k in minima] == list(R._reps)
    if at is None:
        assert Q._up is minima
    else:
        assert same_objects(Q._up, R._reps)
    if levels > 1:
        check_coset_scan(Q, levels - 1)


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


def reference_order_p_elements(G):
    """The cyclic walk on sets, as before position marks: ``done``, the
    p-th powers and the order-p elements are sets of what G's scan
    arithmetic gives (indices, or fresh tuples from ``multiply``), and the
    order-p elements are read back in carrier order.  Returns the order-p
    elements and the p-th powers."""
    p = G.prime
    mult, carrier, encode, decode, _ = _arithmetic(G)
    identity = encode(G.identity)
    small, powers, done = set(), {identity}, {identity}
    for g in carrier:
        if g in done:
            continue
        walk = [identity, g]
        x = mult(g, g)
        while x != identity:
            walk.append(x)
            x = mult(x, g)
        n = len(walk)
        for j in range(1, n):
            if gcd(j, n) == 1:
                done.add(walk[j])
                powers.add(walk[p * j % n])
        if n == p:
            small.update(walk[1:])
    order_p = tuple(x for g, x in zip(carrier, enumerate_group(G).elements) if g in small)
    return order_p, frozenset(decode(powers))


def check_walk(G):
    """G's order-p elements and p-th powers, from the walk's position marks,
    are the set walk's, as the carrier's own tuples."""
    small, powers = reference_order_p_elements(G)
    assert same_objects(order_p_elements(G), small)
    own = {id(g) for g in enumerate_group(G).elements}
    assert G._pth_powers == powers and all(id(g) in own for g in G._pth_powers)


def reference_terms(G):
    """Each coordinate's mixed-radix terms of G's cut box, as ``_position``
    reads them: a coordinate cut by a congruence counts as x // p."""
    p, cuts, moduli = G.prime, groups_module._cuts(G), G.coordinate_moduli
    weight, terms = 1, []
    for k in reversed(range(len(moduli))):
        terms.append([(x // p if k in cuts else x) * weight for x in range(moduli[k])])
        weight *= moduli[k] // p if k in cuts else moduli[k]
    return terms[::-1]


def check_positions(G):
    """``_position`` numbers G's carrier 0, 1, ..., |G| - 1 in carrier order,
    built once per group; a box or cut box's coder is the sum of its
    coordinates' terms, ``sum(map(getitem, terms, g))``."""
    E = enumerate_group(G)
    at = _position(G)
    assert _position(G) is at
    assert list(map(at, E.elements)) == list(range(len(E)))
    if type(G)._carrier is FiniteGroup._carrier:
        terms = reference_terms(G)
        assert [sum(map(getitem, terms, g)) for g in E.elements] == list(range(len(E)))


def same_objects(xs, ys):
    xs, ys = list(xs), list(ys)
    return len(xs) == len(ys) and all(x is y for x, y in zip(xs, ys))


def over_products(G):
    """Whether G is a product, or a quotient of one at any depth: the
    groups whose ``_arithmetic`` gives rows."""
    while isinstance(G, QuotientGroup):
        G = G.parent
    return isinstance(G, DirectProductGroup)


def check_rows(G, seed=0):
    """G's rows, where ``_arithmetic`` gives them, equal G's
    ``_index_product`` pair by pair at seeded i, over G's center, a drawn
    subset and a list with repeated digits; G has rows iff it is a product
    or a quotient of one."""
    rows = _arithmetic(G)[4]
    if not over_products(G):
        assert rows is None
        return
    n = len(enumerate_group(G))
    rng = random.Random(seed)
    few = [rng.randrange(n) for _ in range(3)]
    start = rng.randrange(n)
    lists = [
        [G._index(z) for z in center(G).elements],
        rng.sample(range(n), min(n, 40)),
        # repeated elements, and neighbours that share all but their last digits
        [0, *(rng.choice(few) for _ in range(12)), *range(start, min(n, start + 6)), n - 1, 0],
    ]
    for js in lists:
        row = rows(js)
        for i in [0, n - 1, *(rng.randrange(n) for _ in range(30))]:
            assert list(row(i)) == [G._index_product(i, j) for j in js]


def check_index_paths(G, T=None):
    """G, a product or a quotient, scans on indices, and the tuple path on
    its twin T gives exactly what G's index path gives.

    T is G itself for a product, else a ``ReferenceQuotient`` of G's parent
    by G's kernel, with G's representatives, coset numbers (in the parent's
    carrier order) and projections of the parent's elements the same.  G's
    products of indices, on seeded pairs, decode to T's tuple products, and
    its rows equal its products of indices (``check_rows``).
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
    check_rows(G, len(E))
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


def unskipped_direct_factor_search(G, decompose_bound=DEFAULT_DECOMPOSE_BOUND):
    """The search as it stood before it skipped joins already in hand: the
    center prune, but every join S.A formed.  Returns the pair (or None),
    the atoms' masks, the joins registered after the atoms as (mask, live)
    in order, Z(G)'s mask and the number of joins formed."""
    n, p = G.known_order, G.prime
    assert n <= decompose_bound and p ** valuation(n, p) == n  # a p-group: Z(G) prunes
    Z = center(G)
    if n == 1 or sum(g in Z for g in order_p_elements(G)) == p - 1:
        return None, [], [], 0, 0
    table = _index_table(G)
    elems, idx = table.elements, table.index
    inv_of = [table.inverse(G, i) for i in range(n)]
    gen_idx = sorted({idx[g] for _, g in G.generators if g != G.identity})
    mul = partial(table.product, G)
    atoms = {}
    for cls in _conjugacy_classes_idx(n, mul, inv_of, gen_idx):
        if cls != [0]:
            members = sorted(_close(mul, 0, cls, n)[0])
            atoms.setdefault(sum(1 << i for i in members), members)
    zmask = sum(1 << idx[z] for z in Z.as_set)
    subgroups, dead, by_order, queue, joins = {}, set(), {}, deque(), []

    def register(mask, members):
        if mask & zmask == zmask:
            dead.add(mask)
            return None
        order = len(members)
        if 1 < order < n:
            for other in by_order.get(n // order, ()):
                if other & mask == 1:
                    pair = sorted([(order, mask, members), (n // order, other, subgroups[other])])
                    return tuple(EnumeratedSubgroup([elems[i] for i in m]) for _, _, m in pair)
        subgroups[mask] = members
        by_order.setdefault(order, []).append(mask)
        queue.append(mask)
        return None

    formed = 0
    result = lambda hit: (hit, list(atoms), joins, zmask, formed)  # noqa: E731
    for mask, members in atoms.items():
        if hit := register(mask, members):
            return result(hit)
    while queue:
        smask = queue.popleft()
        smembers = subgroups[smask]
        for amask, amembers in atoms.items():
            if amask | smask == smask or amask in dead:
                continue
            formed += 1
            res_mask, res = smask, list(smembers)
            for b in amembers:
                if not (res_mask >> b) & 1:
                    for a in smembers:
                        y = mul(a, b)
                        if not (res_mask >> y) & 1:
                            res_mask |= 1 << y
                            res.append(y)
            if res_mask not in subgroups and res_mask not in dead:
                joins.append((res_mask, res_mask & zmask != zmask))
                if hit := register(res_mask, sorted(res)):
                    return result(hit)
    return result(None)


def check_join_skips(build):
    """The search records the subgroups, live and dead, in the order the
    unskipped search records them, and returns its pair.  It records the
    atoms as before, then each join the first time it forms it; so its
    joins' first formations, read from ``_note_join``, are compared with
    the unskipped search's registrations.  No join of the same S is formed
    twice.  Returns the number of joins each formed."""
    G, H = build(), build()
    formed = []

    def noting(formed_set, atom_of, res, ns, real=groups_module._note_join):
        formed.append((sum(1 << i for i in res[:ns]), sum(1 << i for i in res)))
        real(formed_set, atom_of, res, ns)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groups_module, "_note_join", noting)
        split = direct_factor_search(G)
    want, atoms, joins, zmask, unskipped = unskipped_direct_factor_search(H)
    assert as_sets(split) == as_sets(want)
    assert len(set(formed)) == len(formed)
    seen, got = set(atoms), []
    for _, mask in formed:
        if mask not in seen:
            seen.add(mask)
            got.append((mask, mask & zmask != zmask))
    assert got == joins
    return len(formed), unskipped


def check_lazy_search(build, tuple_multiplies):
    """The search returns the pair (or None) that the unpruned reference
    returns.  It multiplies on G's scan arithmetic: on a product or a
    quotient by index, with no tuple multiply of a product or a quotient
    (``tuple_multiplies`` counts them), and a product's own table gets no
    ``products`` array (only an enclosing product reads one)."""
    G, reference_G = build(), build()
    tuple_multiplies.clear()
    split = direct_factor_search(G)
    if isinstance(G, (DirectProductGroup, QuotientGroup)):
        assert tuple_multiplies == []
    if isinstance(G, DirectProductGroup):
        assert G._table.products is None
    assert as_sets(split) == as_sets(reference_direct_factor_search(reference_G))
    return split


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


def two_pass_is_central_series(G, chain):
    """The central-series test as its own pass: every element of every
    term against every generator."""
    terms = chain.terms
    if not terms or terms[0].as_set != {G.identity} or terms[-1].as_set != enumerate_group(G).as_set:
        return False
    if not all(lo.as_set < hi.as_set for lo, hi in zip(terms, terms[1:])):
        return False
    if any(len(subgroup_closure(G, t.as_set)) != len(t) for t in terms[1:-1]):
        return False
    gens = [g for _, g in G.generators]
    for i in range(1, len(terms)):
        below = terms[i - 1].as_set
        if any(commutator(G, x, g) not in below for x in terms[i].as_set for g in gens):
            return False
    return True


def two_pass_ucs_characterization(G, chain):
    """Layer linking as a second pass after ``two_pass_is_central_series``,
    with its own commutators."""
    if not two_pass_is_central_series(G, chain):
        raise PreconditionFailed("chain is not a central series")
    gens = [g for _, g in G.generators]
    terms = chain.terms
    for m in range(2, len(terms)):
        mid, low = terms[m - 1].as_set, terms[m - 2].as_set
        for x in terms[m].as_set - mid:
            if not any((c := commutator(G, x, y)) in mid and c not in low for y in gens):
                return False
    return True


def non_central_chains(G):
    """Chains that fail the central-series test: the ucs without Z_1 fails
    at level 1 only, the ucs without Z_(c-1) at the top level only (one
    chain when c = 2); the chain through <g>, g outside Z_(c-1), the
    reversed ucs, and a two-element set that is no subgroup."""
    terms = upper_central_series(G).terms
    if len(terms) < 3:
        return []
    g = next(x for x in terms[-1].elements if x not in terms[-2])
    chains = [terms[:1] + terms[2:], terms[:-2] + terms[-1:], terms[::-1]]
    for sub in (subgroup_closure(G, [g]), EnumeratedSubgroup([G.identity, g])):
        if len(sub) < len(terms[-1]):
            chains.append((terms[0], sub, terms[-1]))
    return [CentralSeriesChain(G, c) for c in chains]


def outcome(check, G, chain):
    """``check``'s verdict on the chain, or "not central" if it refuses it."""
    try:
        return check(G, chain)
    except PreconditionFailed:
        return "not central"


def check_one_pass(G, chains):
    """Both central-series checks give the two-pass verdicts."""
    for chain in chains:
        assert is_central_series(G, chain) == two_pass_is_central_series(G, chain)
        assert outcome(satisfies_ucs_characterization, G, chain) == outcome(two_pass_ucs_characterization, G, chain)


def check_ucs_characterization(desc):
    """The one commutator pass gives the two-pass verdicts on every chain,
    central or not, and on central chains the all-y scan's, holding
    exactly on the ucs."""
    G = build_from_description(desc)
    ucs = upper_central_series(G)
    chains = central_chains(G)
    for chain in chains:
        assert is_central_series(G, chain)
        verdict = satisfies_ucs_characterization(G, chain)
        assert verdict == reference_ucs_characterization(G, chain) == (chain == ucs)
    check_one_pass(G, chains + non_central_chains(G))


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
    """The identity is the carrier's first element, |Z_i| divides |G|, ucs
    and lcs have the same length, and every ucs term (formed with no
    normality scan) is normal."""
    G = build_from_description(desc)
    E = enumerate_group(G)
    assert E.elements[0] == G.identity
    n = len(E)
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


# a quotient of a native group: its coset map is an array over the native
# parent's positions, with the parent carrier's own tuples as coset minima,
# and its own ucs quotients number their cosets over its indices
NATIVE_QUOTIENT = {"op": "central_quotient", "group": {"family": "Mc", "p": 3, "c": 4}, "word": "s4"}


@pytest.mark.parametrize(
    "desc", SUITE_FAMILIES + [NATIVE_QUOTIENT], ids=lambda d: ",".join(f"{k}={v}" for k, v in d.items())
)
def test_suite_families_layers(desc):
    G = build_from_description(desc)
    if desc is NATIVE_QUOTIENT:
        parent = enumerate_group(G.parent).elements
        assert isinstance(G._down, array) and len(G._down) == len(parent)
        assert same_objects(G._up, G._reps) and all(g is parent[G._at(g)] for g in G._up)
        H = QuotientGroup(G, center(G))
        assert isinstance(H._down, array) and isinstance(H._up, array) and H._at is None
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


# every SubgroupGroup the paper suite builds (partb (3,[3],3) is Mc(3,3))
SUITE_SUBGROUPS = [
    {"family": "homocyclic", "p": 3, "k": 2, "e": 2, "s": 1},
    {"family": "partb", "p": 2, "cs": [2], "c": 3, "indecomposable": True},
    {"family": "partb", "p": 2, "cs": [2, 3], "c": 4, "indecomposable": True},
    {"family": "partb", "p": 3, "cs": [3], "c": 4, "indecomposable": True},
]


@pytest.mark.parametrize("desc", SUITE_SUBGROUPS, ids=lambda d: ",".join(f"{k}={v}" for k, v in d.items()))
def test_subgroup_carrier_is_the_generators_closure(desc):
    check_subgroup_carrier(build_from_description(desc))


@st.composite
def small_subgroup_descs(draw):
    """homocyclic with s > 0 and p in {3, 5}, and indecomposable partb with
    p = 2 (for p = 3 the least has 3^11 elements: the suite's (3,[3],4),
    closed once above); some are above NATIVE_CAP."""
    p = draw(st.sampled_from([2, 3, 5]))
    if p > 2:
        k = draw(st.integers(2, p - 1))
        return {"family": "homocyclic", "p": p, "k": k, "e": draw(st.integers(1, 3)), "s": draw(st.integers(1, k - 1))}
    c = draw(st.integers(3, 5))
    cs = sorted(draw(st.sets(st.integers(2, c), min_size=1, max_size=3)))
    return {"family": "partb", "p": 2, "cs": cs, "c": c, "indecomposable": True}


@settings(max_examples=40)
@given(small_subgroup_descs())
def test_drawn_subgroup_carrier_is_the_generators_closure(desc):
    try:
        G = build_from_description(desc, max_order=NATIVE_CAP)
        enumerate_group(G)
    except ResourceLimit:
        assume(False)
    check_subgroup_carrier(G)


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


@pytest.mark.parametrize(
    "desc", SUITE_FAMILIES + SUITE_SUBGROUPS, ids=lambda d: ",".join(f"{k}={v}" for k, v in d.items())
)
def test_suite_families_positions(desc):
    check_positions(build_from_description(desc))


@settings(max_examples=40)
@given(small_native_descs())
def test_drawn_native_positions(desc):
    try:
        G = build_from_description(desc, max_order=NATIVE_CAP)
        enumerate_group(G)
    except ResourceLimit:
        assume(False)
    check_positions(G)


@settings(max_examples=40)
@given(small_subgroup_descs())
def test_drawn_subgroup_positions(desc):
    try:
        G = build_from_description(desc, max_order=NATIVE_CAP)
        enumerate_group(G)
    except ResourceLimit:
        assume(False)
    check_positions(G)


@pytest.mark.parametrize("n", range(1, 11))
def test_coder_is_the_sum_of_its_terms(n):
    """``_coder`` for each coordinate count, written out (2 to 8) or the
    ``sum`` fallback (1, 9, 10), equals sum(map(getitem, terms, g))."""
    rng = random.Random(n)
    terms = [[rng.randrange(10**6) for _ in range(rng.randint(1, 9))] for _ in range(n)]
    at = groups_module._coder(terms)
    for _ in range(300):
        g = tuple(rng.randrange(len(t)) for t in terms)
        assert at(g) == sum(map(getitem, terms, g))


# a box or cut box of each coordinate count the families use, 2 to 8
CODER_DESCS = [
    {"family": "Dc", "p": 3, "c": 5},
    {"family": "Mc", "p": 3, "c": 7},
    {"family": "homocyclic", "p": 3, "k": 2, "e": 2, "s": 1},
    {"family": "homocyclic", "p": 5, "k": 3, "e": 1, "s": 1},
    {"family": "B2", "p": 7, "k": 3},
    {"family": "partb", "p": 3, "cs": [3], "c": 4, "indecomposable": True},
    {"family": "partb", "p": 2, "cs": [2, 3], "c": 4, "indecomposable": True},
    {"family": "homocyclic", "p": 7, "k": 6, "e": 1, "s": 2},
    {"family": "B2", "p": 5, "k": 4},
    {"family": "partb", "p": 2, "cs": [2, 3, 4], "c": 5, "indecomposable": True},
]


@pytest.mark.parametrize("desc", CODER_DESCS, ids=lambda d: ",".join(f"{k}={v}" for k, v in d.items()))
def test_family_coders_are_the_sum_of_their_terms(desc):
    """On drawn tuples of the box, in the carrier or not, with no
    enumeration; the carrier's own positions are ``check_positions``'."""
    G = build_from_description(desc)
    terms = reference_terms(G)
    at = _position(G)
    rng = random.Random(len(terms))
    for _ in range(300):
        g = tuple(rng.randrange(m) for m in G.coordinate_moduli)
        assert at(g) == sum(map(getitem, terms, g))
    assert G._enumeration is None and _position(G) is at


@pytest.mark.parametrize(
    "desc", SUITE_FAMILIES + SUITE_SUBGROUPS[:3], ids=lambda d: ",".join(f"{k}={v}" for k, v in d.items())
)
def test_suite_families_center_sieve_matches_the_set_sieve(desc):
    check_coset_scan(build_from_description(desc))


@settings(max_examples=40)
@given(small_native_descs())
def test_drawn_native_center_sieve_matches_the_set_sieve(desc):
    try:
        G = build_from_description(desc, max_order=NATIVE_CAP)
        enumerate_group(G)
    except ResourceLimit:
        assume(False)
    check_coset_scan(G)


@settings(max_examples=40)
@given(small_subgroup_descs())
def test_drawn_subgroup_center_sieve_matches_the_set_sieve(desc):
    try:
        G = build_from_description(desc, max_order=NATIVE_CAP)
        enumerate_group(G)
    except ResourceLimit:
        assume(False)
    check_coset_scan(G)


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_Dc(3, 5),
        lambda: make_Dc(3, 3),
        lambda: make_second_example(3, 2, 2),
        lambda: make_Mc(3, 4),
        lambda: direct_product([make_Mc(3, 2), make_cyclic(3, 1)]),
        lambda: (lambda H: QuotientGroup(H, center(H)))(make_partb_indecomposable(2, [2], 3)),
    ],
    ids=["Dc(3,5)", "Dc(3,3)", "second_example(3,2,2)", "Mc(3,4)", "Mc(3,2)xC3", "partb(2,[2],3)/Z"],
)
def test_center_scan_completes_the_cosets_numbered_before_the_center_grew(build):
    """The center grows after the scan has numbered cosets, so the scan
    completes them to cosets of the larger kernel; in Mc(3,4), Mc(3,2)xC3
    (rows) and the quotient of partb (index path, no rows) some of them
    merge.  The scan's numbering still equals the fixed-kernel scan's and
    the references'."""
    G = build()
    assert growth_after_a_coset(G)
    check_coset_scan(G)


@settings(max_examples=30)
@given(recipes)
def test_recipes_center_sieve_matches_the_set_sieve(desc):
    """On products (rows) and quotients of products (index path)."""
    check_coset_scan(build_from_description(desc))


# partb (3,[3],4), the last, has 177,147 elements
@pytest.mark.parametrize(
    "desc",
    SUITE_FAMILIES + SUITE_SUBGROUPS[:3] + [NATIVE_QUOTIENT],
    ids=lambda d: ",".join(f"{k}={v}" for k, v in d.items()),
)
def test_suite_families_walk_matches_the_set_walk(desc):
    """On each family and on its quotient by its center."""
    G = build_from_description(desc)
    check_walk(G)
    check_walk(QuotientGroup(G, center(G)))


@settings(max_examples=30)
@given(recipes)
def test_recipes_walk_and_positions(desc):
    """A recipe's walk, and its factors' positions and walks; for a
    quotient also those of its twin on tuples, ``ReferenceQuotient``, whose
    carrier ``_position`` numbers with a dict."""
    G = build_from_description(desc)
    check_walk(G)
    twins = [ReferenceQuotient(G.parent, G.kernel)] if isinstance(G, QuotientGroup) else []
    for H in [*product_under(G).factors, *twins]:
        check_positions(H)
        check_walk(H)


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


def test_rows_above_the_table_bound_and_on_a_quotient_of_a_quotient():
    """A product with a factor above ``_TABLE_BOUND`` (no product array, so
    each memo row is multiplied by the factor), and a quotient of a quotient
    of a product checked against the tuple reference one level up."""
    P = direct_product([make_Mc(3, 6), make_cyclic(3, 1)])
    assert _index_table(P.factors[0]).products is None
    check_index_paths(P)
    G = direct_product([make_Mc(3, 4), make_cyclic(3, 1)])
    Q = QuotientGroup(G, center(G))
    QQ = QuotientGroup(Q, center(Q))
    assert QQ.known_order > len(center(QQ)) > 1  # the check recurses a level further
    check_index_paths(QQ)


def per_element_arithmetic(G):
    """``_arithmetic`` with no rows: every scan multiplies per element."""
    return (*_arithmetic(G)[:4], None)


@pytest.mark.parametrize(
    "build",
    [
        lambda: direct_product([make_Mc(3, 3), make_B2(3, 2), make_cyclic(3, 1)]),
        lambda: make_second_example(3, 2, 2),
        lambda: direct_product([make_Mc(3, 6), make_cyclic(3, 1)]),
    ],
    ids=["Mc(3,3)xB2(3,2)xC3", "second_example(3,2,2)", "Mc(3,6)xC3"],
)
def test_rows_fill_what_per_element_scans_fill(monkeypatch, native_multiplies, index_products, build):
    """The center, the ucs and the spectrum by rows equal those of scans
    that multiply per element, with the same factor-table entries filled
    and the same native multiplies, in fewer product index multiplies."""

    def run():
        G = build()
        P = G
        while isinstance(P, QuotientGroup):
            P = P.parent
        enumerate_group(G)
        native_multiplies.clear()
        index_products.clear()
        result = (center(G).elements, upper_central_series(G).terms, spectrum(G))
        fills = [(t.products, t.inverses) for t in map(_index_table, P.factors)]
        return result, fills, len(native_multiplies), len(index_products)

    *by_rows, fewer = run()
    monkeypatch.setattr(groups_module, "_arithmetic", per_element_arithmetic)
    *per_element, more = run()
    # 403, 343 and 21,496 native multiplies: Mc(3,6), above the table bound,
    # is the top factor, so each of its digits is met once per row maker
    assert by_rows == per_element and fewer < more


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


def test_lazy_search_on_suite_decompositions(tuple_multiplies):
    """Every group the suite decomposes: second_example and partb_decompose."""
    assert check_lazy_search(lambda: make_second_example(3, 2, 2), tuple_multiplies) is None
    assert check_lazy_search(lambda: make_partb_decomposable(2, [2], 3), tuple_multiplies) is not None
    assert check_lazy_search(lambda: make_partb_indecomposable(2, [2], 3), tuple_multiplies) is None


def test_lazy_search_on_small_recipes(tuple_multiplies):
    descs = random_recipes(DEFAULT_SEED, 12, _TABLE_BOUND)
    splits = [check_lazy_search(lambda d=d: build_from_description(d), tuple_multiplies) for d in descs]
    assert any(s is None for s in splits) and any(s is not None for s in splits)


def test_join_skips_record_what_the_unskipped_search_records():
    """On second_example (3,2,2) the unskipped search forms 6,996 joins, and
    all but 172 rebuild a subgroup already recorded; forming each join of S
    once leaves 1,084."""
    formed, unskipped = check_join_skips(lambda: make_second_example(3, 2, 2))
    assert unskipped == 6_996 and formed == 1_084
    check_join_skips(lambda: make_partb_decomposable(2, [2], 3))
    check_join_skips(lambda: make_partb_indecomposable(2, [2], 3))


@settings(max_examples=30)
@given(st.integers(0, 2**32 - 1).map(lambda seed: random_recipes(seed, 1, _TABLE_BOUND)[0]))
def test_recipes_join_skips_match_unskipped(desc):
    check_join_skips(lambda: build_from_description(desc))


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


def test_refined_chain_one_pass_matches_two_passes():
    """The suite's refined Dc(3,2) chain 1 < <x^3> < Z < G is central and
    does not link layers, as in two passes."""
    D = make_Dc(3, 2)
    x3 = subgroup_closure(D, [D.power(D.named_elements["x"], 3)])
    refined = CentralSeriesChain(D, (EnumeratedSubgroup([D.identity]), x3, center(D), enumerate_group(D)))
    assert is_central_series(D, refined) and not satisfies_ucs_characterization(D, refined)
    check_one_pass(D, [refined, *non_central_chains(D)])


def reference_question_applicable(G):
    """The all-pairs applicability scan: p odd and two order-p elements
    that do not commute."""
    mult = G.multiply
    elems = reference_order_p(G)
    return G.prime != 2 and any(mult(x, y) != mult(y, x) for x in elems for y in elems)


def check_omega1(G, pair_cap=None):
    """Omega_1 is the closure of the order-p elements (``subgroup_closure``,
    on tuples), as the carrier's own tuples; its kept seeds generate it and
    commute pairwise iff all order-p elements do.  The question's verdict
    is the pair scans' wherever there are at most ``pair_cap`` order-p
    elements."""
    om, kept = _omega1(G)
    small = reference_order_p(G)
    assert om.as_set == subgroup_closure(G, small).as_set
    assert om is enumerate_group(G) or set(kept) <= set(small)
    assert subgroup_closure(G, kept).as_set == om.as_set
    own = {id(g) for g in enumerate_group(G).elements}
    assert all(id(g) in own for g in om.elements)
    commute = all(G.multiply(a, b) == G.multiply(b, a) for a in kept for b in kept)
    if pair_cap is None or len(small) <= pair_cap:
        applicable = reference_question_applicable(G)
        assert applicable == (G.prime != 2 and not commute)
        witness = reference_question_witness(G)
        passed = witness is not None or not applicable
        assert verify_question(G) == {"applicable": applicable, "passed": passed, "witness": witness}


@pytest.mark.parametrize("desc", SUITE_FAMILIES, ids=lambda d: ",".join(f"{k}={v}" for k, v in d.items()))
def test_suite_families_omega1_and_question(desc):
    check_omega1(build_from_description(desc))


@settings(max_examples=20)
@given(recipes)
def test_recipes_omega1_and_question(desc):
    check_omega1(build_from_description(desc), pair_cap=300)


def reference_lemma_fact(p, c):
    """verify_lemma_fact by each outside element's order."""
    M = make_Mc(p, c)
    outside = [g for g in enumerate_group(M).elements if g[0] != 0]
    bad = [g for g in outside if element_order(M, g) != p]
    return {"passed": not bad, "outside": len(outside), "bad": bad}


@pytest.mark.parametrize("p, c", [(2, 3), (2, 5), (3, 2), (3, 3), (3, 4), (5, 2), (5, 3)])
def test_lemma_fact_matches_element_orders(p, c):
    assert verify_lemma_fact(make_Mc(p, c)) == reference_lemma_fact(p, c)


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


def small_semidirect_rank(desc):
    """The bottom rank of a suite-sized native family with at most 1,000
    elements, else None."""
    if desc["family"] not in ("Dc", "Mc", "cyclic", "homocyclic"):
        return None
    G = build_from_description(desc)
    return G._rank if isinstance(G, SemidirectGroup) and G.known_order <= 1000 else None


def check_semidirect_rows(G):
    """Every product and inverse of G's carrier, against the matrix rows."""
    elems = enumerate_group(G).elements
    for a in elems:
        assert G.invert(a) == reference_semidirect_invert(G, a)
        for b in elems:
            assert G.multiply(a, b) == reference_semidirect_multiply(G, a, b)


RANK1_DESCS = [d for d in SUITE_FAMILIES if small_semidirect_rank(d) == 1] + [
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

# the written-out rank-2 and rank-3 kernels: Mc for p = 3 and p = 5 (rank
# min(c, p - 1)) and homocyclic with k = 2
RANK23_DESCS = [d for d in SUITE_FAMILIES if small_semidirect_rank(d) in (2, 3)] + [
    {"family": "Mc", "p": 3, "c": 5},
    {"family": "Mc", "p": 5, "c": 3},
]


@pytest.mark.parametrize("desc", RANK1_DESCS, ids=lambda d: ",".join(f"{k}={v}" for k, v in d.items()))
def test_rank1_semidirect_matches_the_matrix_rows(desc):
    G = build_from_description(desc)
    assert G._rank == 1
    check_semidirect_rows(G)


@pytest.mark.parametrize("desc", RANK23_DESCS, ids=lambda d: ",".join(f"{k}={v}" for k, v in d.items()))
def test_rank2_and_rank3_semidirect_match_the_matrix_rows(desc):
    G = build_from_description(desc)
    assert G._rank in (2, 3)
    check_semidirect_rows(G)


@pytest.mark.parametrize(
    "build, rank",
    [(lambda: make_Mc(3, 12), 2), (lambda: make_homocyclic(5, 3, 2, 0), 3), (lambda: make_Mc(5, 4), 4)],
    ids=["Mc(3,12)", "homocyclic(5,3,2,0)", "Mc(5,4)"],
)
def test_semidirect_kernels_match_the_matrix_rows_on_drawn_pairs(build, rank):
    # groups too large to enumerate in a test (Mc(3,12) has 3^13 elements,
    # homocyclic (5,3,2,0) 5^9), and Mc(5,4) for the generic loop of rank 4
    G = build()
    assert G._rank == rank
    rng = random.Random(f"{G!r}")
    moduli = G.coordinate_moduli

    def draw():
        return tuple(rng.randrange(m) for m in moduli)

    for _ in range(2_000):
        a, b, c = draw(), draw(), draw()
        assert G.multiply(a, b) == reference_semidirect_multiply(G, a, b)
        assert G.invert(a) == reference_semidirect_invert(G, a)
        assert G.multiply(G.multiply(a, b), c) == G.multiply(a, G.multiply(b, c))
        assert G.multiply(a, G.invert(a)) == G.identity
    assert G._enumeration is None

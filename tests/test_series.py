import tracemalloc
from array import array

import pytest

from pgs.constructions import (
    SemidirectGroup,
    build_from_description,
    make_B2,
    make_Dc,
    make_Mc,
    make_cyclic,
    make_second_example,
)
from pgs.errors import InternalInconsistency, NotInGroup, PreconditionFailed
from pgs.groups import (
    EnumeratedSubgroup,
    QuotientGroup,
    SubgroupGroup,
    _close,
    center,
    commutator,
    direct_product,
    element_order,
    enumerate_group,
    order_p_elements,
    quotient_group,
    subgroup_closure,
)
from pgs.series import (
    CentralSeriesChain,
    is_central_series,
    layer_index,
    lower_central_series,
    nilpotence_class,
    satisfies_ucs_characterization,
    spectrum,
    upper_central_series,
)


def test_ucs_orders():
    assert upper_central_series(make_cyclic(3, 2)).orders() == (1, 9)
    assert upper_central_series(make_Mc(3, 3)).orders() == (1, 3, 9, 81)
    assert upper_central_series(make_Mc(2, 2)).orders() == (1, 2, 8)


def test_lcs():
    D = make_Dc(3, 2)
    chain = lower_central_series(D)
    assert chain.orders() == (1, 3, 81)
    gamma2 = chain.terms[1]
    x3 = subgroup_closure(D, [D.power(D.named_elements["x"], 3)])
    assert gamma2.as_set == x3.as_set
    assert lower_central_series(make_cyclic(3, 2)).orders() == (1, 9)


def test_class():
    C3 = make_cyclic(3, 1)
    trivial = quotient_group(C3, enumerate_group(C3))
    assert nilpotence_class(trivial) == 0
    assert nilpotence_class(make_cyclic(3, 2)) == 1
    for c in (2, 3, 4):
        assert nilpotence_class(make_Mc(3, c)) == c
    for c in (2, 3):
        assert nilpotence_class(make_Dc(3, c)) == c


def test_class_matches_lcs_length():
    for G in [make_Mc(3, 3), make_Dc(2, 3), make_B2(3, 2)]:
        assert upper_central_series(G).length == lower_central_series(G).length


def all_pairs_lcs(G):
    """Oracle: gamma_(k+1) = <[x, y] : x in gamma_k, y in all of G>, descending."""
    E = enumerate_group(G)
    terms = [E]
    while len(terms[-1]) > 1:
        comms = {commutator(G, x, y) for x in terms[-1].as_set for y in E.as_set}
        terms.append(subgroup_closure(G, comms))
    return terms


LCS_ORACLE_GROUPS = [
    lambda: make_Mc(2, 2),
    lambda: make_Mc(3, 2),
    lambda: make_Dc(3, 2),
    lambda: make_Mc(3, 4),
    lambda: make_B2(3, 2),
]


def test_lcs_generator_restriction_matches_full_commutator_oracle():
    for G in [make_Mc(2, 2), make_Mc(3, 2), make_Dc(3, 2)]:
        chain = lower_central_series(G)
        descending = tuple(reversed(chain.terms))
        assert [t.as_set for t in descending] == [t.as_set for t in all_pairs_lcs(G)]


@pytest.mark.parametrize("build", LCS_ORACLE_GROUPS, ids=lambda b: repr(b()))
def test_kept_generators_normal_closure_matches_all_pairs_oracle(build):
    # whatever generators of gamma_k the closure keeps, the normal closure of
    # their commutators with G's generators is the oracle's gamma_(k+1), it is
    # normal, and the seeds it keeps generate it
    G = build()
    mult, invert = G.multiply, G.invert
    gens = [g for _, g in G.generators]
    conj = [(invert(g), g) for g in gens]
    oracle = all_pairs_lcs(G)
    for term, expected in zip(oracle, oracle[1:]):
        _, kept = _close(mult, G.identity, term.elements, G.max_order)
        comms = [commutator(G, a, g) for a in kept for g in gens]
        closed, closed_kept = _close(mult, G.identity, comms, G.max_order, conj)
        assert closed == expected.as_set
        assert all(G.conjugate(x, g) in closed for x in closed for g in gens)
        assert subgroup_closure(G, closed_kept).as_set == closed


def test_layer_index():
    M = make_Mc(3, 3)
    chain = upper_central_series(M)
    assert layer_index(chain, M.identity) == 0
    z = next(iter(g for g in chain.terms[1] if g != M.identity))
    assert layer_index(chain, z) == 1
    assert layer_index(chain, M.named_elements["s1"]) == 3
    with pytest.raises(NotInGroup):
        layer_index(chain, (99, 99, 99))


def test_spectrum_reports():
    sp = spectrum(make_Dc(3, 3))
    assert sp.spectrum == (1,)
    sp = spectrum(make_Mc(3, 4))
    assert sp.spectrum == (1, 2, 4)
    assert sp.layer_orders == (1, 3, 9, 27, 243)


def test_spectrum_witnesses_are_canonical_minima():
    G = make_Mc(3, 4)
    sp = spectrum(G)
    chain = upper_central_series(G)
    E = enumerate_group(G)
    for layer, wit in sp.witnesses.items():
        assert element_order(G, wit) == 3
        assert layer_index(chain, wit) == layer
        qualifying = [
            g
            for g in E.elements
            if g != G.identity
            and element_order(G, g) == 3
            and layer_index(chain, g) == layer
        ]
        assert wit == qualifying[0]


def test_spectrum_independent_of_generator_order():
    D = make_Dc(3, 2)
    E = enumerate_group(D)
    swapped = SubgroupGroup(
        D,
        [],  # no congruence: all of D
        [("y", D.named_elements["y"]), ("x", D.named_elements["x"])],
        description="Dc(3,2) swapped gens",
    )
    assert enumerate_group(swapped).elements == E.elements
    assert spectrum(swapped).as_dict() == spectrum(D).as_dict()


def test_is_central_series():
    D = make_Dc(3, 2)
    E = enumerate_group(D)
    ucs = upper_central_series(D)
    assert is_central_series(D, ucs)

    x3 = subgroup_closure(D, [D.power(D.named_elements["x"], 3)])
    refined = CentralSeriesChain(
        D, (EnumeratedSubgroup([D.identity]), x3, center(D), E)
    )
    assert is_central_series(D, refined)

    x_chain = CentralSeriesChain(
        D,
        (
            EnumeratedSubgroup([D.identity]),
            subgroup_closure(D, [D.named_elements["x"]]),
            E,
        ),
    )
    assert not is_central_series(D, x_chain)


def test_ucs_characterization():
    D = make_Dc(3, 2)
    assert satisfies_ucs_characterization(D, upper_central_series(D))

    E = enumerate_group(D)
    x3 = subgroup_closure(D, [D.power(D.named_elements["x"], 3)])
    refined = CentralSeriesChain(
        D, (EnumeratedSubgroup([D.identity]), x3, center(D), E)
    )
    assert not satisfies_ucs_characterization(D, refined)

    M = make_Mc(3, 3)
    rev = lower_central_series(M)
    assert rev == upper_central_series(M)
    assert satisfies_ucs_characterization(M, rev)

    x_chain = CentralSeriesChain(
        D,
        (
            EnumeratedSubgroup([D.identity]),
            subgroup_closure(D, [D.named_elements["x"]]),
            E,
        ),
    )
    with pytest.raises(PreconditionFailed):
        satisfies_ucs_characterization(D, x_chain)


def test_product_ucs_law_exhaustive():
    G1, G2 = make_Mc(3, 2), make_Dc(3, 2)
    P = direct_product([G1, G2])
    cp = upper_central_series(P)
    c1 = upper_central_series(G1)
    c2 = upper_central_series(G2)
    depth = max(len(c1.terms), len(c2.terms))
    for i in range(depth):
        t1 = c1.terms[min(i, len(c1.terms) - 1)].as_set
        t2 = c2.terms[min(i, len(c2.terms) - 1)].as_set
        want = {a + b for a in t1 for b in t2}
        assert cp.terms[min(i, len(cp.terms) - 1)].as_set == want


def test_mc_layer_orders_are_p_powers():
    for c in (3, 4):
        chain = upper_central_series(make_Mc(3, c))
        for i in range(c):
            assert len(chain.terms[i]) == 3**i


def make_s3():
    """S3 assembled from the semidirect machinery: C3 acted on by inversion."""
    return SemidirectGroup(3, 2, (3,), ((2,),), [("r", (0, 1)), ("f", (1, 0))], description="S3")


def test_non_nilpotent_input_is_rejected():
    # the center of S3 is trivial, so the upper central series must refuse to
    # stabilize below the whole group; gamma_2 = [S3, S3] = A3 = gamma_3, so the
    # lower one stalls at its second step
    s3 = make_s3()
    with pytest.raises(InternalInconsistency):
        upper_central_series(s3)
    with pytest.raises(InternalInconsistency):
        lower_central_series(s3)


@pytest.mark.parametrize("other", [make_cyclic(3, 1), make_Mc(3, 2)], ids=repr)
def test_non_nilpotent_input_with_a_center_is_rejected(other):
    # Z(S3 x H) = 1 x Z(H) is not trivial, so the ucs stalls only inside the
    # quotient chain: at G/Z_1 = S3 for H = C3, and at G/Z_2 = S3, a quotient
    # formed from G/Z_1, for H = Mc(3,2)
    G = direct_product([make_s3(), other])
    with pytest.raises(InternalInconsistency):
        upper_central_series(G)
    with pytest.raises(InternalInconsistency):
        lower_central_series(G)
    assert len(center(G)) == 3


@pytest.mark.parametrize(
    "build, bound", [(lambda: make_B2(7, 3), 2_000), (lambda: make_Mc(3, 8), 10_000)], ids=["B2(7,3)", "Mc(3,8)"]
)
def test_lcs_cost_grows_with_its_generators(native_multiplies, build, bound):
    # beyond enumerating the group: 1,189 and 6,697 multiplies; all-elements
    # commutators (|gamma_k|·d of them) made 104,321 on B2(7,3) and 147,486
    # on Mc(3,8)
    G = build()
    enumerate_group(G)
    native_multiplies.clear()
    lower_central_series(G)
    assert len(native_multiplies) <= bound


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_B2(7, 3),
        lambda: make_Mc(3, 8),
        lambda: make_second_example(3, 2, 2),
        lambda: direct_product([make_Mc(3, 2), make_Dc(3, 2)]),
    ],
    ids=["B2(7,3)", "Mc(3,8)", "second_example(3,2,2)", "Mc(3,2)xDc(3,2)"],
)
def test_lcs_inverts_each_element_once(inverted, build):
    """G's generators first, then each term's kept seeds: each inverted
    once, not once per (a, g) pair."""
    G = build()
    gens = [g for _, g in G.generators]
    calls = inverted(G)
    lower_central_series(G)
    assert calls[: len(gens)] == gens and len(calls) == len(set(calls))


def test_ucs_quotients_are_formed_from_the_last(native_multiplies):
    # each G/Z_(i+1) costs the center scan of G/Z_i and takes its coset
    # numbering over: 13,156 on Mc(3,7); numbering each quotient's cosets
    # again, |G/Z_i| multiplies a level, made 29,628, and forming every
    # quotient from G 59,166
    G = make_Mc(3, 7)
    enumerate_group(G)
    native_multiplies.clear()
    upper_central_series(G)
    assert len(native_multiplies) <= 30_000


@pytest.mark.parametrize(
    "build, count",
    [(lambda: make_B2(7, 3), 34_436), (lambda: make_Dc(3, 5), 152_480), (lambda: make_Mc(3, 7), 20_392)],
    ids=["B2(7,3)", "Dc(3,5)", "Mc(3,7)"],
)
def test_spectrum_multiply_count(native_multiplies, build, count):
    # every native product goes through the class's own multiply, so this
    # count (and every other pin on native_multiplies) sees each one; a
    # straight-line kernel called from elsewhere would make these counts 0
    G = build()
    enumerate_group(G)
    native_multiplies.clear()
    spectrum(G)
    assert len(native_multiplies) == count


@pytest.mark.parametrize(
    "build, count",
    [
        (lambda: direct_product([make_Mc(3, 3), make_B2(3, 2), make_cyclic(3, 1)]), 367),
        (lambda: make_second_example(3, 2, 2), 337),
    ],
    ids=["Mc(3,3)xB2(3,2)xC3", "second_example(3,2,2)"],
)
def test_spectrum_of_a_product_multiplies_no_tuples(native_multiplies, tuple_multiplies, build, count):
    # the center, the order-p scan and every ucs quotient of an enumerated
    # product, and of a quotient of one, run on indices; with tuple quotients
    # these made 7,906 and 7,642 tuple multiplies, and the same native ones
    G = build()
    enumerate_group(G)
    native_multiplies.clear()
    tuple_multiplies.clear()
    spectrum(G)
    assert tuple_multiplies == []
    assert len(native_multiplies) == count


def test_cached_analyses_hold_the_carriers_own_tuples():
    # the power walk, the center's closure and the quotients' coset maps
    # make equal copies of elements; caching those would keep a second copy
    # of G alive.  On the central quotient, of class 4, the ucs recursion
    # runs on quotients of a quotient.
    quotient = build_from_description(
        {
            "op": "central_quotient",
            "group": {"op": "product", "factors": [{"family": "Mc", "p": 3, "c": 4}, {"family": "cyclic", "p": 3, "e": 1}]},
            "word": "f0.s4*f1.d",
        }
    )
    for G in [make_Mc(3, 5), make_B2(5, 3), quotient]:
        own = {id(g) for g in enumerate_group(G).elements}
        assert all(id(g) in own for g in order_p_elements(G))
        chain = upper_central_series(G)
        assert chain.terms[-1] is enumerate_group(G)
        for term in chain.terms[1:]:
            assert all(id(g) in own for g in term.as_set)
    assert upper_central_series(quotient).orders() == (1, 3, 9, 27, 243)
    # the quotient of a product multiplies on indices, and its center,
    # order-p elements and p-th powers are decoded through its carrier
    assert isinstance(quotient._down, array)
    own = {id(g) for g in enumerate_group(quotient).elements}
    assert all(id(g) in own for g in center(quotient).as_set)
    assert all(id(g) in own for g in quotient._pth_powers)
    # a product's center is scanned on indices and decoded through its carrier,
    # and its order-p elements are read back through its index table
    P = direct_product([make_Mc(3, 3), make_Dc(3, 2)])
    own = {id(g) for g in enumerate_group(P).elements}
    assert all(id(g) in own for term in upper_central_series(P).terms[1:] for g in term.as_set)
    assert all(id(g) in own for g in order_p_elements(P))


def test_spectrum_of_dc_3_5_peaks_below_4_8_mb():
    """The spectrum of Dc(3,5) (59,049 elements), built and analysed under
    tracemalloc, peaks below 4.8 MB, near its 4.45 MB of live data: the
    order-p walk marks carrier positions one byte each, the center's coset
    scan numbers the cosets of Z(G), which G/Z(G) takes over, in one array
    over them and keeps its coset minima and merge links in arrays too, and
    no carrier or ucs term builds a frozenset the spectrum does not read.
    The peak, 4.74 MB, is the order-p walk's; with sets of fresh tuples
    the peak was 12.5-13 MB, and with the sieve's set and the coset dict
    7.7 MB."""
    tracemalloc.start()
    try:
        G = make_Dc(3, 5)
        spectrum(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert enumerate_group(G)._set is None
    assert peak < 4_800_000


def test_center_scan_of_dc_3_5_holds_arrays_only():
    """Traced from after the enumeration of Dc(3,5), its center and G/Z(G)
    peak at 0.34 MB: the scan's ``down`` array is 236 KB, 4 bytes an
    element, and its coset minima and merge links are arrays too, 4 bytes a
    coset (the sieve and the quotient's own numbering peaked at 0.36 MB).
    A scan that kept its 6,561 coset minima in a list of ints peaked at
    0.71 MB, which the spectrum's peak, the order-p walk's, does not show."""
    G = make_Dc(3, 5)
    enumerate_group(G)
    tracemalloc.start()
    try:
        QuotientGroup(G, center(G))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 400_000

"""Acceptance battery: one test per criterion, one printed line per criterion.

Every assertion is exact (set/integer equality); stated time budgets are
asserted where the criterion carries one.
"""

import time

import pytest

from pgs.constructions import (
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
from pgs.cyclo import eq_powers_witness, ring_make
from pgs.errors import PreconditionFailed
from pgs.groups import (
    EnumeratedSubgroup,
    center,
    commutator,
    direct_factor_search,
    direct_product,
    enumerate_group,
    order_p_elements,
    subgroup_closure,
)
from pgs.series import (
    CentralSeriesChain,
    lower_central_series,
    satisfies_ucs_characterization,
    spectrum,
    upper_central_series,
)
from pgs.verify import (
    DEFAULT_SEED,
    find_question_witness,
    random_recipes,
    verify_eq_powers,
    verify_lemma2,
    verify_lemma_fact,
    verify_partb_structure,
    verify_product_spectrum,
    verify_prop_same,
    verify_theorem_part1,
)

DC_CASES = [(3, 2), (3, 3), (5, 2), (2, 3), (2, 4)]
MC_CASES = [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (3, 5), (5, 2), (5, 3)]


def report(num, ok, text):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_01_dc_spectrum():
    for p, c in DC_CASES:
        t0 = time.perf_counter()
        sp = spectrum(make_Dc(p, c))
        elapsed = time.perf_counter() - t0
        assert sp.spectrum == (1,), (p, c, sp.spectrum)
        assert elapsed < 5.0, f"Dc({p},{c}) took {elapsed:.1f}s"
    report(1, True, f"spectrum(Dc) == {{1}} for {DC_CASES}, each < 5 s")


def test_criterion_02_mc_spectrum():
    t0 = time.perf_counter()
    for p, c in MC_CASES:
        sp = spectrum(make_Mc(p, c))
        want = tuple(sorted(set(range(1, min(c - 1, p - 1) + 1)) | {c}))
        assert sp.spectrum == want, (p, c, sp.spectrum, want)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"{elapsed:.1f}s"
    report(2, True, f"spectrum(Mc) == {{1..min(c-1,p-1)}} + {{c}} for {MC_CASES} in {elapsed:.1f}s")


def test_criterion_03_theorem_everywhere():
    checked = 0
    for p, c in DC_CASES:
        assert verify_theorem_part1(make_Dc(p, c))["passed"]
        checked += 1
    for p, c in MC_CASES:
        assert verify_theorem_part1(make_Mc(p, c))["passed"]
        checked += 1
    for builder in (
        lambda: make_B2(3, 2),
        lambda: make_B2(5, 2),
        lambda: make_homocyclic(3, 2, 1, 0),
        lambda: make_second_example(3, 2, 2),
    ):
        assert verify_theorem_part1(builder())["passed"]
        checked += 1
    recipes = random_recipes(DEFAULT_SEED, 50)
    assert len(recipes) == 50
    for desc in recipes:
        G = build_from_description(desc)
        r = verify_theorem_part1(G)
        assert len(enumerate_group(G)) <= 200_000
        assert r["passed"] and not r["violations"], (desc, r)
        checked += 1
    report(3, True, f"theorem part (1) holds on {checked} groups (families + 50 seeded recipes)")


def test_criterion_04_lemma2_and_question():
    found = []
    for G in [
        make_Mc(3, 2),
        make_Mc(3, 3),
        make_B2(3, 2),
        make_B2(5, 2),
        make_second_example(3, 2, 2),
    ]:
        l2 = verify_lemma2(G)
        assert l2["passed"]
        w = find_question_witness(G)
        assert w is not None, repr(G)
        found.append(repr(G))
    for c in (2, 3, 4):
        assert find_question_witness(make_Mc(2, c)) is None
    report(4, True, f"question witness found for {found}; none for dihedral Mc(2,c), c=2..4")


def test_criterion_05_eq_powers():
    for p in (2, 3, 5, 7):
        R = ring_make(p, max(1, p - 1))
        z = eq_powers_witness(R)
        assert R.scalar(p, z) == R.power(R.omega_minus_one, p - 1)
        assert any(x % p for x in z.coeffs)
    for p, c in [(3, 4), (5, 5), (2, 3)]:
        assert verify_eq_powers(make_Mc(p, c))["passed"]
    report(5, True, "unit identity exact for p in {2,3,5,7}; commutator power law for (3,4),(5,5),(2,3)")


def test_criterion_06_lemma_fact():
    for p, c in [(2, 3), (3, 3), (3, 4), (5, 2)]:
        r = verify_lemma_fact(make_Mc(p, c))
        assert r["passed"], (p, c, r)
    report(6, True, "all elements outside the bottom have order p for (2,3),(3,3),(3,4),(5,2)")


def test_criterion_07_product_law():
    import random as _random

    rng = _random.Random(DEFAULT_SEED)
    pool = [
        lambda: make_Mc(3, 2),
        lambda: make_Mc(3, 3),
        lambda: make_Dc(3, 2),
        lambda: make_B2(3, 2),
        lambda: make_cyclic(3, 2),
        lambda: make_homocyclic(3, 2, 1, 0),
        lambda: make_Mc(2, 2),
        lambda: make_Mc(2, 3),
        lambda: make_Dc(2, 3),
        lambda: make_cyclic(2, 3),
    ]
    pairs = 0
    while pairs < 20:
        a = pool[rng.randrange(len(pool))]()
        b = pool[rng.randrange(len(pool))]()
        if a.prime != b.prime:
            continue
        r = verify_product_spectrum(direct_product([a, b]))
        assert r["passed"], (repr(a), repr(b), r)
        pairs += 1
    report(7, True, "spectrum union and class max hold on 20 seeded pairs")


def test_criterion_08_proposition_and_example():
    G1 = make_Dc(3, 3)
    G2 = make_B2(3, 2)
    z1 = G1.power(G1.named_elements["x"], 9)
    z2 = commutator(G2, G2.named_elements["t"], G2.named_elements["s"])
    r = verify_prop_same(central_quotient(direct_product([G1, G2]), z1 + z2))
    assert r["passed"] and r["sublemma"]

    D = make_Dc(3, 2)
    C = make_cyclic(3, 2)
    H = direct_product([D, C])
    assert spectrum(H).spectrum == (1,)
    zx = D.power(D.named_elements["x"], 3)
    zd = C.power(C.named_elements["d"], 3)
    K = central_quotient(H, zx + zd)
    with pytest.raises(PreconditionFailed) as exc:
        verify_prop_same(K)
    assert exc.value.report["quotient_spectrum"] == [1, 2]
    assert spectrum(K).spectrum == (1, 2)
    report(8, True, "proposition holds when z1*z2 is not a p-th power; example K has spectrum {1,2} vs H {1}")


def test_criterion_09_homocyclic():
    cases = [
        ((3, 2, 1, 0), 2, (1, 2)),
        ((3, 2, 2, 0), 4, (1, 2)),
        ((3, 2, 2, 1), 3, (1, 2)),
        ((5, 3, 1, 0), 3, (1, 2, 3)),
    ]
    for args, want_class, want_spec in cases:
        t0 = time.perf_counter()
        sp = spectrum(make_homocyclic(*args))
        elapsed = time.perf_counter() - t0
        assert sp.klass == want_class, (args, sp.klass)
        assert sp.spectrum == want_spec, (args, sp.spectrum)
        assert elapsed < 30.0, f"homocyclic{args} took {elapsed:.1f}s"
    report(9, True, "homocyclic families have the stated class and spectrum, each < 30 s")


def test_criterion_10_second_example():
    t0 = time.perf_counter()
    Q = make_second_example(3, 2, 2)
    sp = spectrum(Q)
    split = direct_factor_search(Q)
    elapsed = time.perf_counter() - t0
    assert len(enumerate_group(Q)) == 729
    assert sp.klass == 2 and sp.spectrum == (1, 2)
    assert split is None
    assert elapsed < 60.0, f"{elapsed:.1f}s"
    report(10, True, f"second_example(3,2,2): order 729, class 2, spectrum {{1,2}}, indecomposable ({elapsed:.1f}s)")


def test_criterion_11_partb(native_multiplies):
    t0 = time.perf_counter()
    for p, cs, c in [(2, [2], 3), (2, [2, 3], 4), (3, [3], 3), (3, [3], 4)]:
        r = verify_partb_structure(p, cs, c)
        assert r["passed"], (p, cs, c, r)
        want = tuple(sorted(set(range(1, p)) | set(cs)))
        assert tuple(r["spectrum"]) == want
        if not r.get("reduced"):
            assert r["index_in_H"] == p ** len(cs)
    H = make_partb_decomposable(2, [2], 3)
    split_h = direct_factor_search(H)
    assert split_h is not None and sorted(len(x) for x in split_h) == [8, 32]
    G = make_partb_indecomposable(2, [2], 3)
    assert len(enumerate_group(G)) == 128
    assert direct_factor_search(G) is None
    # 4,096 elements of a SubgroupGroup: the search multiplies natively
    # through its memo of tuple products, kept at every size, 3,825,930
    # times when it formed every join S.A, 1,183,344 forming each once
    G = make_partb_indecomposable(2, [2, 3], 4)
    enumerate_group(G)
    native_multiplies.clear()
    assert direct_factor_search(G) is None
    assert len(native_multiplies) <= 1_300_000
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"{elapsed:.1f}s"
    report(11, True, f"part (b) structure, decomposable split, indecomposable no-split ({elapsed:.1f}s)")


def test_criterion_12_characterization():
    built = [
        make_Dc(3, 2),
        make_Mc(3, 2),
        make_Mc(3, 3),
        make_Mc(2, 2),
        make_Mc(2, 3),
        make_B2(3, 2),
        make_homocyclic(3, 2, 1, 0),
        make_second_example(3, 2, 2),
        make_cyclic(3, 2),
    ]
    for G in built:
        assert len(enumerate_group(G)) <= 3**6
        ucs = upper_central_series(G)
        assert satisfies_ucs_characterization(G, ucs)
        rev = lower_central_series(G)
        assert satisfies_ucs_characterization(G, rev) == (rev == ucs), repr(G)

    D = make_Dc(3, 2)
    E = enumerate_group(D)
    x3 = subgroup_closure(D, [D.power(D.named_elements["x"], 3)])
    refined = CentralSeriesChain(
        D, (EnumeratedSubgroup([D.identity]), x3, center(D), E)
    )
    assert refined != upper_central_series(D)
    assert not satisfies_ucs_characterization(D, refined)

    # order-p elements of Dc(3,3) occur only in the first and last layers of
    # the lower central series
    G = make_Dc(3, 3)
    desc = tuple(reversed(lower_central_series(G).terms))
    layers = set()
    for g in order_p_elements(G):
        for i, term in enumerate(desc):
            if g in term.as_set and (i + 1 == len(desc) or g not in desc[i + 1].as_set):
                layers.add(i + 1)
                break
    assert layers == {1, len(desc) - 1}
    report(12, True, "layer-linking property characterizes the ucs; Dc(3,3) lcs layer claim holds")

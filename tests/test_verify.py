import hashlib
import json

import pytest

import pgs.verify
from pgs.constructions import (
    build_from_description,
    central_quotient,
    make_B2,
    make_Dc,
    make_Mc,
    make_cyclic,
    make_second_example,
)
from pgs.errors import NotCentral, PreconditionFailed
from pgs.groups import (
    DEFAULT_DECOMPOSE_BOUND,
    DEFAULT_MAX_ORDER,
    QuotientGroup,
    center,
    commutator,
    direct_product,
    element_order,
    enumerate_group,
    order_p_elements,
    quotient_group,
)
from pgs.verify import (
    DEFAULT_SEED,
    _suite_checks,
    find_question_witness,
    random_recipes,
    run_check,
    run_paper_suite,
    verify_eq_powers,
    verify_lemma2,
    verify_lemma_fact,
    verify_partb_structure,
    verify_prop_same,
    verify_product_spectrum,
    verify_question,
    verify_regularity_power,
    verify_theorem_part1,
)


def test_theorem_part1():
    r = verify_theorem_part1(make_Mc(3, 4))
    assert r["passed"] and r["spectrum"] == [1, 2, 4] and not r["violations"]
    r = verify_theorem_part1(make_cyclic(3, 2))
    assert r["passed"] and r["spectrum"] == [1]


def test_lemma2():
    for G in [make_Mc(3, 2), make_Mc(3, 3)]:
        r = verify_lemma2(G)
        assert r["applicable"] and r["passed"]
        w = r["witness"]
        assert element_order(G, w) == 3
    assert not verify_lemma2(make_Dc(3, 2))["applicable"]
    assert not verify_lemma2(make_Mc(2, 3))["applicable"]  # p = 2


def test_question_witness_found():
    for G in [make_Mc(3, 2), make_Mc(3, 3), make_B2(3, 2), make_B2(5, 2)]:
        w = find_question_witness(G)
        assert w is not None
        x, y = w
        p = G.prime
        assert element_order(G, x) == p and element_order(G, y) == p
        assert G.multiply(x, y) != G.multiply(y, x)
        assert G.power(G.multiply(x, y), p) == G.identity


def test_question_witness_none_for_dihedral(native_multiplies):
    # p = 2 is decided with no pair scan, no Omega_1 and no enumeration,
    # also on Mc(2,19), with 2^20 elements
    for c in (2, 3, 4, 19):
        G = make_Mc(2, c)
        native_multiplies.clear()
        assert find_question_witness(G) is None
        assert verify_question(G) == {"applicable": False, "passed": True, "witness": None}
        assert native_multiplies == [] and G._enumeration is None


def test_lemma_fact_reads_the_order_p_scan(native_multiplies):
    assert verify_lemma_fact(make_Mc(3, 3))["passed"]
    assert len(native_multiplies) == 84  # 108 with an element_order walk per outside element


def test_ucs_characterization_pass_multiplies(native_multiplies, index_products):
    """The suite's ucs_characterization check on second_example (3,2,2),
    the group's build included."""
    (thunk,) = [
        t
        for name, params, t in _suite_checks(DEFAULT_MAX_ORDER, DEFAULT_DECOMPOSE_BOUND, DEFAULT_SEED, 0)
        if name == "ucs_characterization" and params["family"] == "second_example"
    ]
    assert thunk() == (True, None, {"lcs_equals_ucs": False})
    assert len(native_multiplies) == 627  # all in the factors' tables
    # 292 of them in the center scans of the ucs tower (959, and 18,536 in
    # all, while the sieve grew each center by closures); 22,211 in two
    # passes, each with its own commutators
    assert len(index_products) == 17_869


def test_ucs_characterization_pass_inverts(quotient_inverts):
    """The same check inverts each element its commutators meet once:
    11,672 quotient inverts while each (x, g) pair inverted x and g."""
    (thunk,) = [
        t
        for name, params, t in _suite_checks(DEFAULT_MAX_ORDER, DEFAULT_DECOMPOSE_BOUND, DEFAULT_SEED, 0)
        if name == "ucs_characterization" and params["family"] == "second_example"
    ]
    assert thunk() == (True, None, {"lcs_equals_ucs": False})
    assert len(quotient_inverts) == 1_469


def test_question_witness_second_example():
    assert find_question_witness(make_second_example(3, 2, 2)) is not None


def test_regularity_power():
    r = verify_regularity_power(make_Mc(3, 2))
    assert r["passed"] and r["exhaustive"]
    ea = direct_product([make_cyclic(3, 1), make_cyclic(3, 1)])
    assert verify_regularity_power(ea)["passed"]
    assert verify_regularity_power(make_B2(5, 2))["passed"]
    with pytest.raises(PreconditionFailed):
        verify_regularity_power(make_Mc(3, 4))


def full_regularity_scan(G):
    """The exhaustive report from every (x, y) pair, x of order p, y in G."""
    elems = enumerate_group(G).elements
    small = order_p_elements(G)
    report = {"passed": True, "counterexample": None, "exhaustive": True, "pairs": len(small) * len(elems)}
    for x in small:
        for y in elems:
            if G.power(commutator(G, x, y), G.prime) != G.identity:
                return dict(report, passed=False, counterexample=(x, y))
    return report


@pytest.mark.parametrize(
    "make",
    [
        lambda: make_Mc(3, 2),
        lambda: make_B2(5, 2),
        lambda: direct_product([make_cyclic(3, 1), make_cyclic(3, 1)]),
        lambda: direct_product([make_Mc(3, 2), make_Dc(3, 2)]),
    ],
    ids=["Mc(3,2)", "B2(5,2)", "C3xC3", "Mc(3,2)xDc(3,2)"],
)
def test_regularity_power_matches_the_full_scan(make):
    assert verify_regularity_power(make()) == full_regularity_scan(make())


@pytest.mark.parametrize(
    "make",
    [
        lambda: make_Mc(3, 2),
        lambda: make_B2(5, 2),
        lambda: direct_product([make_Mc(3, 2), make_Dc(3, 2)]),
        lambda: make_Dc(3, 2),
    ],
    ids=["Mc(3,2)", "B2(5,2)", "Mc(3,2)xDc(3,2)", "Dc(3,2)"],
)
def test_exhaustive_regularity_scan_inverts_each_element_once(make, inverted):
    """Each x of order p and each coset minimum y is inverted once, not
    once per (x, y) pair."""
    G = make()
    calls = inverted(G)
    report = verify_regularity_power(G)
    assert report["passed"] and report["exhaustive"]
    small = order_p_elements(G)
    reps = enumerate_group(QuotientGroup(G, center(G))).elements
    assert sorted(calls) == sorted({*small, *reps})


@pytest.mark.parametrize("make", [lambda: make_Mc(3, 4), lambda: make_Mc(2, 3)], ids=["Mc(3,4)", "Mc(2,3)"])
def test_regularity_power_finds_the_first_counterexample(make, monkeypatch):
    # above class p - 1 the identity can fail; lift the precondition to compare counterexamples
    monkeypatch.setattr(pgs.verify, "nilpotence_class", lambda G: 1)
    report = verify_regularity_power(make())
    assert not report["passed"] and report == full_regularity_scan(make())


def test_product_spectrum():
    r = verify_product_spectrum(direct_product([make_Mc(3, 2), make_Dc(3, 2)]))
    assert r["passed"] and r["product"] == [1, 2]
    r = verify_product_spectrum(direct_product([make_Mc(3, 3), make_Mc(3, 2)]))
    assert r["passed"] and r["product"] == [1, 2, 3]
    trivial = quotient_group(make_cyclic(3, 1), enumerate_group(make_cyclic(3, 1)))
    with pytest.raises(PreconditionFailed):
        verify_product_spectrum(direct_product([make_Mc(3, 2), trivial]))
    for not_two in (make_Mc(3, 2), direct_product([make_cyclic(3, 1)] * 3)):
        with pytest.raises(PreconditionFailed):
            verify_product_spectrum(not_two)


def test_prop_same_passes():
    G1 = make_Dc(3, 3)
    G2 = make_B2(3, 2)
    z1 = G1.power(G1.named_elements["x"], 9)
    z2 = commutator(G2, G2.named_elements["t"], G2.named_elements["s"])
    r = verify_prop_same(central_quotient(direct_product([G1, G2]), z1 + z2))
    assert r["passed"] and r["sublemma"]
    # symmetric swap gives the same verdict
    r2 = verify_prop_same(central_quotient(direct_product([G2, G1]), z2 + z1))
    assert r2["passed"]
    assert sorted(r2["spectrum"]) == sorted(r["spectrum"])


def test_prop_same_exhaustive_small_case():
    # |product| = 2187, small enough that the layer sub-lemma is tested on
    # every element
    G1 = make_Dc(3, 2)
    G2 = make_B2(3, 2)
    z1 = G1.power(G1.named_elements["x"], 3)
    z2 = commutator(G2, G2.named_elements["t"], G2.named_elements["s"])
    r = verify_prop_same(central_quotient(direct_product([G1, G2]), z1 + z2))
    assert r["passed"] and r["elements_tested"] == 2187


def test_prop_same_example_k_precondition():
    D = make_Dc(3, 2)
    C = make_cyclic(3, 2)
    z1 = D.power(D.named_elements["x"], 3)
    z2 = C.power(C.named_elements["d"], 3)
    with pytest.raises(PreconditionFailed) as exc:
        verify_prop_same(central_quotient(direct_product([D, C]), z1 + z2))
    rep = exc.value.report
    assert rep["quotient_spectrum"] == [1, 2]
    assert rep["product_spectrum"] == [1]
    assert rep["quotient_class"] == rep["product_class"] == 2
    # only a quotient of a two-factor product by a subgroup of order p qualifies
    for not_diagonal in (D, quotient_group(D, center(D))):
        with pytest.raises(PreconditionFailed):
            verify_prop_same(not_diagonal)


def test_lemma_fact():
    r = verify_lemma_fact(make_Mc(3, 3))
    assert r["passed"] and r["outside"] == 54
    assert verify_lemma_fact(make_Mc(2, 3))["passed"]
    r5 = verify_lemma_fact(make_Mc(5, 2))
    assert r5["passed"] and r5["outside"] == 4 * 25


def test_mc_verifiers_refuse_a_group_make_Mc_did_not_build():
    for G in (make_Dc(3, 3), direct_product([make_Mc(3, 4), make_cyclic(3, 1)])):
        with pytest.raises(PreconditionFailed):
            verify_lemma_fact(G)
        with pytest.raises(PreconditionFailed):
            verify_eq_powers(G)


def test_eq_powers():
    for p, c in [(3, 4), (2, 3), (5, 5)]:
        r = verify_eq_powers(make_Mc(p, c))
        assert r["passed"]
        assert len(r["checked"]) == c - p + 1
    with pytest.raises(PreconditionFailed):
        verify_eq_powers(make_Mc(3, 2))


def test_partb_structure_small():
    r = verify_partb_structure(2, [2], 3)
    assert r["passed"]
    assert r["index_in_H"] == 2
    assert r["spectrum"] == [1, 2]
    checks = r["checks"]
    assert checks["index"] and checks["maximal_subgroup"] and checks["same_center"]
    assert checks["gammas"] and checks["a_pth_power"]


def test_partb_structure_two_factors():
    r = verify_partb_structure(2, [2, 3], 4)
    assert r["passed"]
    # one index-p drop per maximal-class factor
    assert r["index_in_H"] == 4
    assert r["spectrum"] == [1, 2, 3]


def test_partb_structure_reduced():
    r = verify_partb_structure(3, [3], 3)
    assert r["passed"] and r.get("reduced")
    assert r["spectrum"] == [1, 2, 3]


def test_random_recipes_deterministic():
    a = random_recipes(7, 10)
    b = random_recipes(7, 10)
    assert a == b
    assert len(a) == 10
    for desc in a[:4]:
        G = build_from_description(desc)
        assert verify_theorem_part1(G)["passed"]


def test_suite_filter_and_determinism():
    r1 = run_paper_suite(only=["lemma_fact"])
    assert [rec.check for rec in r1.records] == ["lemma_fact"] * 4
    assert r1.passed and r1.exit_status == 0
    r2 = run_paper_suite(only=["lemma_fact"])
    assert r1.as_dict() == r2.as_dict()


def test_run_check_captures_toolkit_errors():
    ok = run_check("ok", {"p": 3}, lambda: (True, (0, 1), {"n": frozenset({2, 1})}))
    assert ok.passed and ok.error is None and ok.witness == [0, 1] and ok.details == {"n": [1, 2]}

    def not_central():
        raise NotCentral("z is not central")

    rec = run_check("bad", {}, not_central)
    assert not rec.passed and rec.error == "NotCentral"
    assert rec.details == {"message": "z is not central"}

    def precondition():
        raise PreconditionFailed("no", report={"spectrum": (1, 2)})

    rec = run_check("pre", {}, precondition)
    assert rec.error == "PreconditionFailed"
    assert rec.details == {"message": "no", "report": {"spectrum": [1, 2]}}


def test_suite_resource_limit_exit():
    r = run_paper_suite(max_order=200, only=["partb_decompose"])
    assert not r.passed
    assert r.exit_status == 3
    assert all(rec.error == "ResourceLimit" for rec in r.records)


def test_suite_checks_build_under_the_bound():
    # 20 is below |Dc(2,3)| = 32, the smallest group these checks build
    r = run_paper_suite(
        max_order=20, only=["dc_spectrum", "prop_same", "ucs_characterization_refined", "dc_lcs_layers"]
    )
    assert {rec.check for rec in r.records} == {
        "dc_spectrum",
        "prop_same",
        "prop_same_example_k",
        "ucs_characterization_refined",
        "dc_lcs_layers",
    }
    assert all(rec.error == "ResourceLimit" for rec in r.records)


def test_suite_eq_powers_records():
    r = run_paper_suite(only=["eq_powers"])
    names = sorted({rec.check for rec in r.records})
    assert names == ["eq_powers", "eq_powers_unit"]
    assert len([rec for rec in r.records if rec.check == "eq_powers_unit"]) == 4
    assert r.passed


def test_full_suite_passes():
    r = run_paper_suite()
    failing = [(rec.check, rec.params, rec.error) for rec in r.records if not rec.passed]
    assert r.exit_status == 0, failing
    assert r.counts()["failed"] == 0
    assert r.counts()["total"] > 100
    # `pgs suite --json` prints this text plus a newline; any change to a record changes the digest
    text = json.dumps(r.as_dict(), sort_keys=True, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "1752278c0289bc1bd01ef9b3c24978eb9b75d344799fb104a895232763b873ae"
    )

"""Executable verifiers for the structural claims the toolkit is built on.

Each verifier recomputes a claim from scratch on concrete groups and
returns a small report with a pass flag and witnesses.  ``run_paper_suite``
bundles every check, including seeded randomized recipes, into one
deterministic battery whose records are ordered by check name.
"""

from __future__ import annotations

import random
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import combinations, product as iter_product

from .constructions import (
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
from .cyclo import eq_powers_witness, ring_make
from .errors import PreconditionFailed, ToolkitError, WrongOrder
from .groups import (
    DEFAULT_DECOMPOSE_BOUND,
    DEFAULT_MAX_ORDER,
    EnumeratedSubgroup,
    FiniteGroup,
    QuotientGroup,
    _omega1,
    center,
    commutator,
    direct_factor_search,
    direct_product,
    element_order,
    enumerate_group,
    generated_by_order_p,
    is_pth_power,
    order_p_elements,
    subgroup_closure,
)
from .series import (
    CentralSeriesChain,
    _layers,
    is_central_series,
    layer_index,
    lower_central_series,
    nilpotence_class,
    satisfies_ucs_characterization,
    spectrum,
    upper_central_series,
)

DEFAULT_SEED = 20240601
_EXHAUSTIVE_PAIRS = DEFAULT_MAX_ORDER  # a pair scan gets the budget of one enumeration
_SAMPLE_PAIRS = 10_000  # seeded (x, y) pairs for verify_regularity_power above that budget
_SAMPLE_ELEMENTS = 2000  # seeded elements for prop_same's sublemma above 729·p


def verify_theorem_part1(G: FiniteGroup) -> dict:
    """Spectrum containing k >= 2 must contain all of 1 .. min(k, p-1)."""
    sp = spectrum(G)
    have = set(sp.spectrum)
    violations = []
    for k in sp.spectrum:
        if k < 2:
            continue
        missing = sorted(set(range(1, min(k, G.prime - 1) + 1)) - have)
        if missing:
            violations.append({"k": k, "missing": missing})
    return {
        "passed": not violations,
        "spectrum": list(sp.spectrum),
        "class": sp.klass,
        "violations": violations,
    }


def verify_lemma2(G: FiniteGroup) -> dict:
    """Odd p, nonabelian, generated by order-p elements: some order-p
    element lies in the second layer of the upper central series."""
    E = enumerate_group(G)
    abelian = len(center(G)) == len(E)
    applicable = G.prime != 2 and not abelian and generated_by_order_p(G)
    if not applicable:
        return {"applicable": False, "passed": True, "witness": None}
    # the smallest order-p element of Z_2 \ Z_1 is the spectrum's layer-2 witness
    witness = spectrum(G).witnesses.get(2)
    return {"applicable": True, "passed": witness is not None, "witness": witness}


def _question(G: FiniteGroup) -> tuple:
    """(applicable, witness), as ``find_question_witness`` decides them."""
    if G.prime == 2:
        return False, None
    mult = G.multiply
    Z = center(G)
    kept = [g for g in _omega1(G)[1] if g not in Z]
    if all(mult(a, b) == mult(b, a) for a, b in combinations(kept, 2)):
        return False, None
    small = frozenset(order_p_elements(G))
    elems = [g for g in order_p_elements(G) if g not in Z]
    for x in elems:
        for y in elems:
            xy = mult(x, y)
            if xy != mult(y, x) and xy in small:
                return True, (x, y)
    return True, None


def find_question_witness(G: FiniteGroup):
    """The first pair, in canonical order, of non-commuting order-p
    elements whose product is in the order-p set (it is not 1), or None.

    p = 2 gives None with no pair scan: involutions with (xy)^2 = 1 have
    xy = (xy)^-1 = yx.  So does an abelian Omega_1 (as in Dc), read from
    its cached kept generators.  Otherwise the scan runs over non-central
    order-p elements (a central one commutes with the other) with no pair
    budget: run to its end it answers the paper's question no for G, so it
    must be exhaustive.  It stops at the first witness; 2n^2 multiplies for
    n such elements bound it.
    """
    return _question(G)[1]


def verify_question(G: FiniteGroup) -> dict:
    """Some non-commuting order-p elements x, y have xy of order p.

    The question of the source paper (arXiv:2307.06584), in the form
    checked here: in a finite p-group, p odd, whose elements of order p do
    not all commute, are there non-commuting x, y of order p whose product
    xy also has order p?  A witness answers it yes for G.  It applies iff
    p is odd and Omega_1 is nonabelian, which ``find_question_witness``
    decides with no pair scan.
    """
    applicable, w = _question(G)
    return {"applicable": applicable, "passed": w is not None or not applicable, "witness": w}


def verify_regularity_power(G: FiniteGroup, seed: int = DEFAULT_SEED) -> dict:
    """In a group of class at most p-1, [x, y]^p = 1 whenever x^p = 1.

    Exhaustive when the pair count is small: since [x, yz] = [x, y] for
    central z, y runs over the tuple-order minima of the cosets of the
    center only, which finds the same first counterexample in canonical
    order.  Otherwise checks ``_SAMPLE_PAIRS`` seeded random pairs.
    ``pairs`` counts the (x, y) pairs the check covers.  The exhaustive scan
    inverts each element it meets once.
    """
    p = G.prime
    cls = nilpotence_class(G)
    if cls > p - 1:
        raise PreconditionFailed(f"class {cls} exceeds p - 1 = {p - 1}")
    elems = enumerate_group(G).elements
    small = order_p_elements(G)
    identity = G.identity
    exhaustive = len(small) * len(elems) <= _EXHAUSTIVE_PAIRS
    if exhaustive:
        reps = enumerate_group(QuotientGroup(G, center(G))).elements  # the center is normal
        inverse = {g: G.invert(g) for g in {*small, *reps}}
        mult = G.multiply
        comms = ((x, y, mult(mult(inverse[x], inverse[y]), mult(x, y))) for x in small for y in reps)
        checked = len(small) * len(elems)
    else:
        rng = random.Random(seed)
        pairs = (
            (small[rng.randrange(len(small))], elems[rng.randrange(len(elems))])
            for _ in range(_SAMPLE_PAIRS)
        )
        comms = ((x, y, commutator(G, x, y)) for x, y in pairs)
        checked = _SAMPLE_PAIRS
    order_p = frozenset(small)
    for x, y, c in comms:
        if c != identity and c not in order_p:
            return {"passed": False, "counterexample": (x, y), "exhaustive": exhaustive, "pairs": checked}
    return {"passed": True, "counterexample": None, "exhaustive": exhaustive, "pairs": checked}


def verify_product_spectrum(P: FiniteGroup) -> dict:
    """Spectrum of a product G1 x G2 is the union; class is the maximum."""
    factors = getattr(P, "factors", ())
    if len(factors) != 2:
        raise PreconditionFailed("need a product of exactly two factors")
    G1, G2 = factors
    if len(enumerate_group(G1)) == 1 or len(enumerate_group(G2)) == 1:
        raise PreconditionFailed("both factors must be nontrivial")
    s1 = spectrum(G1)
    s2 = spectrum(G2)
    sp = spectrum(P)
    want = tuple(sorted(set(s1.spectrum) | set(s2.spectrum)))
    return {
        "passed": sp.spectrum == want and sp.klass == max(s1.klass, s2.klass),
        "left": list(s1.spectrum),
        "right": list(s2.spectrum),
        "product": list(sp.spectrum),
        "class": sp.klass,
    }


def verify_prop_same(Q: FiniteGroup, seed: int = DEFAULT_SEED) -> dict:
    """Diagonal central quotient Q = (G1 x G2)/<z> preserves class and spectrum.

    Requires each coordinate of z to have order p and z not to be a p-th
    power in the product; when it is, a PreconditionFailed is raised
    carrying the unguarded quotient's spectrum so callers can report how the
    conclusion fails.  The layer sub-lemma (image in Z_n(Q) iff both
    coordinates lie in Z_n, ``_sublemma_holds``) is checked on all elements
    for |Q| <= 729 and on ``_SAMPLE_ELEMENTS`` seeded samples above.
    """
    p = Q.prime
    P = getattr(Q, "parent", None)
    if len(getattr(P, "factors", ())) != 2 or len(getattr(Q, "kernel", ())) != p:
        raise PreconditionFailed("need a quotient of a two-factor product by a subgroup of order p")
    G1, G2 = P.factors
    # any generator of the order-p kernel gives the same verdicts below
    z = next(g for g in Q.kernel.elements if g != P.identity)
    for i, G in enumerate(P.factors):
        zi = P.project(i, z)
        if element_order(G, zi) != p:
            raise WrongOrder(f"{zi} does not have order {p}")
    g_spec = spectrum(P)
    q_spec = spectrum(Q)
    if is_pth_power(P, z):
        raise PreconditionFailed(
            "z1*z2 is a p-th power",
            report={
                "quotient_spectrum": list(q_spec.spectrum),
                "quotient_class": q_spec.klass,
                "product_spectrum": list(g_spec.spectrum),
                "product_class": g_spec.klass,
            },
        )
    elems = enumerate_group(P).elements
    if len(elems) <= 729 * p:
        tested = elems
    else:
        rng = random.Random(seed)
        tested = [elems[rng.randrange(len(elems))] for _ in range(_SAMPLE_ELEMENTS)]
    sublemma = all(_sublemma_holds(Q, g) for g in tested)
    passed = (
        q_spec.klass == g_spec.klass
        and q_spec.spectrum == g_spec.spectrum
        and sublemma
    )
    return {
        "passed": passed,
        "class": q_spec.klass,
        "spectrum": list(q_spec.spectrum),
        "product_spectrum": list(g_spec.spectrum),
        "sublemma": sublemma,
        "elements_tested": len(tested),
    }


def _sublemma_holds(Q: FiniteGroup, g) -> bool:
    """The image in Q of g, an element of P, lies in Z_n(Q) for exactly the
    n >= 1 with both coordinates of g in Z_n: the terms ascend, so that is
    one equation of layers, each raised to at least 1."""
    P = Q.parent
    G1, G2 = P.factors
    return max(_layer(Q, Q.project(g)), 1) == max(_layer(G1, P.project(0, g)), _layer(G2, P.project(1, g)), 1)


def _layer(G: FiniteGroup, g) -> int:
    """g's ucs layer in G: G's labelling at g's position in the carrier."""
    return _layers(G)[bisect_left(enumerate_group(G).elements, g)]


def verify_lemma_fact(M: FiniteGroup) -> dict:
    """Every element outside the abelian bottom of Mc has order exactly p."""
    if not hasattr(M, "ring"):
        raise PreconditionFailed("need a group built by make_Mc")
    outside = [g for g in enumerate_group(M).elements if g[0] != 0]
    small = frozenset(order_p_elements(M))
    bad = [g for g in outside if g not in small]
    return {"passed": not bad, "outside": len(outside), "bad": bad}


def verify_eq_powers(M: FiniteGroup) -> dict:
    """The (p-1)-fold commutator with the top generator multiplies by p*zeta.

    Checks on M = Mc(p, c), for every k with k + p - 1 <= c, that the
    left-normed commutator [s_k, a, ..., a] equals s_(k+p-1) and equals
    p * zeta * s_k in bottom coordinates, exactly.
    """
    R = getattr(M, "ring", None)
    if R is None or R.c < R.p:
        raise PreconditionFailed("need Mc(p, c) built by make_Mc, with c >= p")
    p, c = R.p, R.c
    inv = M.bottom_invariants
    zeta = eq_powers_witness(R)
    a = M.named_elements["a"]
    checked = []
    ok = True
    for k in range(1, c - p + 2):
        t = M.named_elements[f"s{k}"]
        for _ in range(p - 1):
            t = commutator(M, t, a)
        target = M.named_elements[f"s{k + p - 1}"]
        ring_side = R.scalar(p, R.mul(zeta, R.s_element(k)))
        coords = (0,) + tuple(inv.to_canonical(ring_side.coeffs))
        good = t == target == coords
        checked.append({"k": k, "passed": good})
        ok = ok and good
    return {"passed": ok, "checked": checked}


def _expected_partb_spectrum(p, cs):
    return tuple(sorted(set(range(1, p)) | set(cs)))


def verify_partb_structure(p, cs, c, max_order: int = DEFAULT_MAX_ORDER) -> dict:
    """Structural checks for the indecomposable subgroup construction.

    The subgroup has index p^n in the ambient product (one p per
    maximal-class factor), the embedded product of maximal subgroups is
    maximal in it, lower-central terms split factor by factor, the centers
    agree, and a^p is the embedded y^p.  For the degenerate single-factor
    case the group itself is checked for class and spectrum.
    """
    G = make_partb_indecomposable(p, cs, c, max_order)
    sp = spectrum(G)
    want_spec = _expected_partb_spectrum(p, cs)
    checks = {
        "class": sp.klass == c,
        "spectrum": sp.spectrum == want_spec,
    }
    report = {
        "spectrum": list(sp.spectrum),
        "expected_spectrum": list(want_spec),
        "class": sp.klass,
        "order": len(enumerate_group(G)),
    }
    if not hasattr(G, "parent"):
        report["reduced"] = True
        report["checks"] = checks
        report["passed"] = all(checks.values())
        return report

    H = G.parent
    n = len(cs)
    EH = enumerate_group(H)
    EG = enumerate_group(G)
    checks["index"] = len(EH) == len(EG) * p**n
    report["index_in_H"] = len(EH) // len(EG)

    u_gens = [g for name, g in G.generators if name != "a"]
    U = subgroup_closure(H, u_gens)
    checks["maximal_subgroup"] = len(EG) == p * len(U)

    checks["a_pth_power"] = G.power(G.named_elements["a"], p) == G.named_elements["yp"]

    zg = center(G)
    zh = center(H)
    checks["same_center"] = zg.as_set == zh.as_set

    lcs_g = lower_central_series(G)
    factor_lcs = [lower_central_series(f) for f in H.factors]
    gammas_ok = True
    for k in range(2, c + 1):
        parts = []
        for f, ch in zip(H.factors, factor_lcs):
            desc = tuple(reversed(ch.terms))  # gamma_1, gamma_2, ...
            term = desc[k - 1].as_set if k - 1 < len(desc) else {f.identity}
            parts.append(term)
        want = {tuple(x for piece in combo for x in piece) for combo in iter_product(*parts)}
        desc_g = tuple(reversed(lcs_g.terms))
        have = desc_g[k - 1].as_set if k - 1 < len(desc_g) else {G.identity}
        if want != have:
            gammas_ok = False
            break
    checks["gammas"] = gammas_ok

    report["checks"] = checks
    report["passed"] = all(checks.values())
    return report


# randomized recipes


def _recipe_pool(p):
    if p == 2:
        fams = [
            ({"family": "Mc", "p": 2, "c": c}, 2 ** (c + 1), f"s{c}") for c in (2, 3, 4)
        ] + [
            ({"family": "Dc", "p": 2, "c": c}, 2 ** (2 * c - 1), f"x^{2 ** (c - 1)}")
            for c in (3, 4)
        ] + [
            ({"family": "cyclic", "p": 2, "e": e}, 2**e, f"d^{2 ** (e - 1)}") for e in (1, 2, 3)
        ] + [
            ({"family": "homocyclic", "p": 2, "k": 1, "e": 3, "s": 0}, 32, None)
        ]
    elif p == 3:
        fams = [
            ({"family": "Mc", "p": 3, "c": c}, 3 ** (c + 1), f"s{c}") for c in (2, 3, 4)
        ] + [
            ({"family": "Dc", "p": 3, "c": c}, 3 ** (2 * c), f"x^{3 ** (c - 1)}") for c in (2, 3)
        ] + [
            ({"family": "B2", "p": 3, "k": 2}, 27, None),
            ({"family": "cyclic", "p": 3, "e": 1}, 3, "d"),
            ({"family": "cyclic", "p": 3, "e": 2}, 9, "d^3"),
            ({"family": "homocyclic", "p": 3, "k": 2, "e": 1, "s": 0}, 81, None),
        ]
    else:
        fams = [
            ({"family": "Mc", "p": 5, "c": 2}, 125, "s2"),
            ({"family": "Mc", "p": 5, "c": 3}, 625, "s3"),
            ({"family": "Dc", "p": 5, "c": 2}, 5**4, "x^5"),
            ({"family": "B2", "p": 5, "k": 2}, 125, None),
            ({"family": "B2", "p": 5, "k": 3}, 5**5, None),
            ({"family": "cyclic", "p": 5, "e": 2}, 25, "d^5"),
        ]
    return fams


def random_recipes(seed: int, count: int, order_cap: int = 200_000):
    """Seeded random product/central-quotient descriptions, order <= cap."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p = (2, 3, 5)[rng.randrange(3)]
        pool = _recipe_pool(p)
        nf = 2 + rng.randrange(2)
        picks = [pool[rng.randrange(len(pool))] for _ in range(nf)]
        order = 1
        for _, o, _ in picks:
            order *= o
        if order > order_cap:
            continue
        desc = {"op": "product", "factors": [d for d, _, _ in picks]}
        words = [w for _, _, w in picks[:2]]
        if all(words) and rng.randrange(2):
            desc = {
                "op": "central_quotient",
                "group": desc,
                "word": f"f0.{words[0]}*f1.{words[1]}",
            }
        out.append(desc)
    return out


# the suite


@dataclass
class CheckRecord:
    check: str
    params: dict
    passed: bool
    witness: object = None
    details: dict = field(default_factory=dict)
    millis: int = 0
    error: str | None = None

    def as_dict(self, timings: bool = False) -> dict:
        out = {
            "check": self.check,
            "params": self.params,
            "pass": self.passed,
            "millis": self.millis if timings else 0,
        }
        if self.witness is not None:
            out["witness"] = _jsonable(self.witness)
        if self.details:
            out["details"] = _jsonable(self.details)
        if self.error is not None:
            out["error"] = self.error
        return out


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (frozenset, set)):
        return sorted(_jsonable(v) for v in x)
    return x


@dataclass
class SuiteReport:
    seed: int
    records: list

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    @property
    def exit_status(self) -> int:
        if any(r.error == "ResourceLimit" for r in self.records):
            return 3
        return 0 if self.passed else 1

    def counts(self) -> dict:
        return {
            "total": len(self.records),
            "passed": sum(r.passed for r in self.records),
            "failed": sum(not r.passed for r in self.records),
            "errors": sum(r.error is not None for r in self.records),
        }

    def as_dict(self, timings: bool = False) -> dict:
        return {
            "seed": self.seed,
            "counts": self.counts(),
            "pass": self.passed,
            "records": [r.as_dict(timings) for r in self.records],
        }


def _mc_expected_spectrum(p, c):
    return tuple(sorted(set(range(1, min(c - 1, p - 1) + 1)) | {c}))


def _suite_checks(max_order, decompose_bound, seed, random_count):
    """Yield (name, params, thunk) triples; thunks return (passed, witness, details)."""
    checks = []

    def add(name, params, thunk):
        checks.append((name, params, thunk))

    for p, c in [(3, 2), (3, 3), (5, 2), (2, 3), (2, 4)]:
        def t(p=p, c=c):
            sp = spectrum(make_Dc(p, c, max_order))
            return sp.spectrum == (1,), None, {"spectrum": list(sp.spectrum)}

        add("dc_spectrum", {"p": p, "c": c}, t)

    for p, c in [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (3, 5), (5, 2), (5, 3)]:
        def t(p=p, c=c):
            sp = spectrum(make_Mc(p, c, max_order))
            want = _mc_expected_spectrum(p, c)
            return sp.spectrum == want, None, {"spectrum": list(sp.spectrum), "expected": list(want)}

        add("mc_spectrum", {"p": p, "c": c}, t)

    family_descs = (
        [{"family": "Dc", "p": p, "c": c} for p, c in [(3, 2), (3, 3), (5, 2), (2, 3), (2, 4)]]
        + [{"family": "Mc", "p": p, "c": c} for p, c in [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (5, 2)]]
        + [{"family": "B2", "p": 3, "k": 2}, {"family": "B2", "p": 5, "k": 2}]
        + [{"family": "homocyclic", "p": 3, "k": 2, "e": 1, "s": 0}]
        + [{"family": "second_example", "p": 3, "k": 2, "c": 2}]
    )
    theorem_cases = [("theorem_part1", desc, desc) for desc in family_descs] + [
        ("theorem_part1_random", {"index": i, "recipe": desc}, desc)
        for i, desc in enumerate(random_recipes(seed, random_count))
    ]
    for name, params, desc in theorem_cases:
        def t(desc=desc):
            r = verify_theorem_part1(build_from_description(desc, max_order))
            return r["passed"], None, r

        add(name, params, t)

    witness_descs = [
        ("Mc", {"family": "Mc", "p": 3, "c": 2}),
        ("Mc", {"family": "Mc", "p": 3, "c": 3}),
        ("B2", {"family": "B2", "p": 3, "k": 2}),
        ("B2", {"family": "B2", "p": 5, "k": 2}),
        ("second_example", {"family": "second_example", "p": 3, "k": 2, "c": 2}),
    ]
    for _, desc in witness_descs:
        def t(desc=desc):
            G = build_from_description(desc, max_order)
            l2 = verify_lemma2(G)
            w = find_question_witness(G)
            ok = l2["passed"] and w is not None
            return ok, w, {"lemma2": _jsonable(l2)}

        add("lemma2_question", desc, t)

    for c in (2, 3, 4):
        def t(c=c):
            G = make_Mc(2, c, max_order)
            w = find_question_witness(G)
            return w is None, w, {}

        add("question_none_dihedral", {"p": 2, "c": c}, t)

    for p in (2, 3, 5, 7):
        def t(p=p):
            R = ring_make(p, max(1, p - 1))
            z = eq_powers_witness(R)
            ok = R.scalar(p, z) == R.power(R.omega_minus_one, p - 1)
            return ok, list(z.coeffs), {}

        add("eq_powers_unit", {"p": p}, t)

    for p, c in [(3, 4), (5, 5), (2, 3)]:
        def t(p=p, c=c):
            r = verify_eq_powers(make_Mc(p, c, max_order))
            return r["passed"], None, r

        add("eq_powers", {"p": p, "c": c}, t)

    for p, c in [(2, 3), (3, 3), (3, 4), (5, 2)]:
        def t(p=p, c=c):
            r = verify_lemma_fact(make_Mc(p, c, max_order))
            return r["passed"], None, {"outside": r["outside"]}

        add("lemma_fact", {"p": p, "c": c}, t)

    pair_rng = random.Random(seed + 1)
    pair_pool = [
        {"family": "Mc", "p": 3, "c": 2},
        {"family": "Mc", "p": 3, "c": 3},
        {"family": "Dc", "p": 3, "c": 2},
        {"family": "B2", "p": 3, "k": 2},
        {"family": "cyclic", "p": 3, "e": 2},
        {"family": "Mc", "p": 2, "c": 2},
        {"family": "Mc", "p": 2, "c": 3},
        {"family": "Dc", "p": 2, "c": 3},
        {"family": "cyclic", "p": 2, "e": 3},
        {"family": "homocyclic", "p": 3, "k": 2, "e": 1, "s": 0},
    ]
    for i in range(20):
        while True:
            d1 = pair_pool[pair_rng.randrange(len(pair_pool))]
            d2 = pair_pool[pair_rng.randrange(len(pair_pool))]
            if d1["p"] == d2["p"]:
                break

        def t(d1=d1, d2=d2):
            r = verify_product_spectrum(
                direct_product([build_from_description(d, max_order) for d in (d1, d2)])
            )
            return r["passed"], None, r

        add("product_spectrum", {"index": i, "left": d1, "right": d2}, t)

    def t_prop():
        G1 = make_Dc(3, 3, max_order)
        G2 = make_B2(3, 2, max_order)
        z1 = G1.power(G1.named_elements["x"], 9)
        z2 = commutator(G2, G2.named_elements["t"], G2.named_elements["s"])
        r = verify_prop_same(central_quotient(direct_product([G1, G2]), z1 + z2))
        return r["passed"], None, r

    add("prop_same", {"left": "Dc(3,3)", "right": "B2(3,2)"}, t_prop)

    def t_example_k():
        G1 = make_Dc(3, 2, max_order)
        G2 = make_cyclic(3, 2, max_order=max_order)
        z1 = G1.power(G1.named_elements["x"], 3)
        z2 = G2.power(G2.named_elements["d"], 3)
        P = direct_product([G1, G2])
        h_spec = spectrum(P)
        try:
            verify_prop_same(central_quotient(P, z1 + z2))
        except PreconditionFailed as exc:
            k_spec = tuple(exc.report["quotient_spectrum"])
            ok = k_spec == (1, 2) and h_spec.spectrum == (1,)
            return ok, None, {"k_spectrum": list(k_spec), "h_spectrum": list(h_spec.spectrum)}
        return False, None, {"error": "precondition unexpectedly held"}

    add("prop_same_example_k", {"group": "Dc(3,2) x C9 / <x^3*d^3>"}, t_example_k)

    homo_cases = [
        ((3, 2, 1, 0), 2, (1, 2)),
        ((3, 2, 2, 0), 4, (1, 2)),
        ((3, 2, 2, 1), 3, (1, 2)),
        ((5, 3, 1, 0), 3, (1, 2, 3)),
    ]
    for args, want_class, want_spec in homo_cases:
        def t(args=args, want_class=want_class, want_spec=want_spec):
            G = make_homocyclic(*args, max_order)
            sp = spectrum(G)
            ok = sp.klass == want_class and sp.spectrum == want_spec
            return ok, None, {"class": sp.klass, "spectrum": list(sp.spectrum)}

        p, k, e, s = args
        add("homocyclic", {"p": p, "k": k, "e": e, "s": s}, t)

    def t_second():
        Q = make_second_example(3, 2, 2, max_order)
        sp = spectrum(Q)
        split = direct_factor_search(Q, decompose_bound)
        ok = (
            len(enumerate_group(Q)) == 729
            and sp.klass == 2
            and sp.spectrum == (1, 2)
            and split is None
        )
        return ok, None, {"order": len(enumerate_group(Q)), "class": sp.klass, "spectrum": list(sp.spectrum), "indecomposable": split is None}

    add("second_example", {"p": 3, "k": 2, "c": 2}, t_second)

    for p, cs, c in [(2, (2,), 3), (2, (2, 3), 4), (3, (3,), 3), (3, (3,), 4)]:
        def t(p=p, cs=cs, c=c):
            r = verify_partb_structure(p, list(cs), c, max_order)
            return r["passed"], None, r

        add("partb", {"p": p, "cs": list(cs), "c": c}, t)

    def t_partb_decompose():
        H = make_partb_decomposable(2, [2], 3, max_order)
        G = make_partb_indecomposable(2, [2], 3, max_order)
        split_h = direct_factor_search(H, decompose_bound)
        split_g = direct_factor_search(G, decompose_bound)
        ok = split_h is not None and split_g is None
        return ok, None, {
            "h_split_orders": None if split_h is None else [len(x) for x in split_h],
            "g_indecomposable": split_g is None,
        }

    add("partb_decompose", {"p": 2, "cs": [2], "c": 3}, t_partb_decompose)

    char_descs = [
        {"family": "Dc", "p": 3, "c": 2},
        {"family": "Mc", "p": 3, "c": 2},
        {"family": "Mc", "p": 3, "c": 3},
        {"family": "Mc", "p": 2, "c": 3},
        {"family": "B2", "p": 3, "k": 2},
        {"family": "homocyclic", "p": 3, "k": 2, "e": 1, "s": 0},
        {"family": "second_example", "p": 3, "k": 2, "c": 2},
    ]
    for desc in char_descs:
        def t(desc=desc):
            G = build_from_description(desc, max_order)
            ucs = upper_central_series(G)
            rev = lower_central_series(G)
            ok = satisfies_ucs_characterization(G, ucs)
            same = ucs == rev
            ok = ok and (satisfies_ucs_characterization(G, rev) == same)
            return ok, None, {"lcs_equals_ucs": same}

        add("ucs_characterization", desc, t)

    def t_refined():
        G = make_Dc(3, 2, max_order)
        E = enumerate_group(G)
        x3 = subgroup_closure(G, [G.power(G.named_elements["x"], 3)])
        Z = center(G)
        chain = CentralSeriesChain(G, (EnumeratedSubgroup([G.identity]), x3, Z, E))
        ok = is_central_series(G, chain) and not satisfies_ucs_characterization(G, chain)
        return ok, None, {}

    add("ucs_characterization_refined", {"group": "Dc(3,2)"}, t_refined)

    def t_dc_lcs_layers():
        G = make_Dc(3, 3, max_order)
        rev = lower_central_series(G)  # ascending: gamma_(c+1) = 1 .. gamma_1 = G
        # g's lcs layer, the largest k with g in gamma_k
        layers = {len(rev.terms) - layer_index(rev, g) for g in order_p_elements(G)}
        ok = layers == {1, len(rev.terms) - 1}
        return ok, None, {"occupied_lcs_layers": sorted(layers)}

    add("dc_lcs_layers", {"p": 3, "c": 3}, t_dc_lcs_layers)

    return checks


def run_check(name: str, params, thunk) -> CheckRecord:
    """Run one check thunk returning (passed, witness, details), timed.

    A ToolkitError becomes a failed record named by its class; a diagnostic
    ``report`` attached to the exception is kept in the details.
    """
    t0 = time.perf_counter()
    witness, err = None, None
    try:
        passed, witness, details = thunk()
    except ToolkitError as exc:
        passed, err = False, type(exc).__name__
        details = {"message": str(exc)}
        if getattr(exc, "report", None):
            details["report"] = exc.report
    return CheckRecord(
        check=name,
        params=_jsonable(params),
        passed=passed,
        witness=_jsonable(witness),
        details=_jsonable(details),
        millis=int((time.perf_counter() - t0) * 1000),
        error=err,
    )


def run_paper_suite(
    max_order: int = DEFAULT_MAX_ORDER,
    decompose_bound: int = DEFAULT_DECOMPOSE_BOUND,
    seed: int = DEFAULT_SEED,
    only: list[str] | None = None,
    random_count: int = 50,
    on_record=None,
) -> SuiteReport:
    """Run the full verification battery and return one record per check.

    Records are ordered by (check, params); per-check errors are captured
    without aborting the rest of the suite.  ``only`` filters by substring
    of the check name.  ``on_record``, when given, is called with each
    record as its check finishes, in run order.
    """
    checks = _suite_checks(max_order, decompose_bound, seed, random_count)
    if only:
        checks = [c for c in checks if any(f in c[0] for f in only)]
    records = []
    for name, params, thunk in checks:
        records.append(run_check(name, params, thunk))
        if on_record is not None:
            on_record(records[-1])
    records.sort(key=lambda r: (r.check, repr(sorted(r.params.items()))))
    return SuiteReport(seed=seed, records=records)

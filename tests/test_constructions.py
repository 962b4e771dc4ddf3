import hashlib
import random

import pytest

from pgs.constructions import (
    build_from_description,
    central_quotient,
    evaluate_word,
    make_B2,
    make_Dc,
    make_Mc,
    make_cyclic,
    make_homocyclic,
    make_partb_decomposable,
    make_partb_indecomposable,
    make_second_example,
    parse_description,
)
from pgs.errors import BadParameters, NotCentral, NotInGroup, ParseError, WrongOrder
from pgs.groups import (
    center,
    commutator,
    direct_factor_search,
    direct_product,
    element_order,
    enumerate_group,
    omega1_subgroup,
    subgroup_closure,
)
from pgs.series import lower_central_series, nilpotence_class, spectrum
from pgs.verify import verify_prop_same


def witt_dimension(rank, weight):
    """Number of basic commutators of the given weight on `rank` letters."""

    def mobius(n):
        out, m = 1, n
        d = 2
        while d * d <= m:
            if m % d == 0:
                m //= d
                if m % d == 0:
                    return 0
                out = -out
            d += 1
        if m > 1:
            out = -out
        return out

    total = 0
    for d in range(1, weight + 1):
        if weight % d == 0:
            total += mobius(d) * rank ** (weight // d)
    return total // weight


def test_dc_odd():
    D = make_Dc(3, 2)
    assert len(enumerate_group(D)) == 81
    assert nilpotence_class(D) == 2
    om, z = omega1_subgroup(D), center(D)
    assert om.as_set == z.as_set and len(z) == 9


def test_dc_even():
    D = make_Dc(2, 3)
    assert len(enumerate_group(D)) == 32
    assert nilpotence_class(D) == 3
    om, z = omega1_subgroup(D), center(D)
    assert om.as_set == z.as_set and len(z) == 4


def test_dc_spectrum_is_one():
    assert spectrum(make_Dc(3, 3)).spectrum == (1,)


def test_dc_rejects_bad_parameters():
    with pytest.raises(BadParameters):
        make_Dc(2, 2)
    with pytest.raises(BadParameters):
        make_Dc(3, 1)
    with pytest.raises(BadParameters):
        make_Dc(4, 2)


def test_mc_dihedral():
    M = make_Mc(2, 2)
    E = enumerate_group(M)
    assert len(E) == 8
    assert nilpotence_class(M) == 2
    assert all(element_order(M, g) == 2 for g in E if g[0] != 0)


def test_mc_order_and_class():
    M = make_Mc(3, 3)
    assert len(enumerate_group(M)) == 81
    assert nilpotence_class(M) == 3
    assert len(enumerate_group(make_Mc(3, 4))) == 243


def test_mc_gammas_are_s_spans():
    M = make_Mc(3, 4)
    chain = lower_central_series(M)
    descending = tuple(reversed(chain.terms))
    for k in range(2, 5):
        span = subgroup_closure(M, [M.named_elements[f"s{j}"] for j in range(k, 5)])
        assert descending[k - 1].as_set == span.as_set


def test_mc_outside_elements_have_order_p():
    for p, c in [(3, 2), (3, 3), (2, 3), (5, 2)]:
        M = make_Mc(p, c)
        for g in enumerate_group(M):
            if g[0] != 0:
                assert element_order(M, g) == p


def test_homocyclic_small():
    G = make_homocyclic(3, 2, 1, 0)
    assert len(enumerate_group(G)) == 81
    assert element_order(G, G.named_elements["b"]) == 9
    assert nilpotence_class(G) == 2
    assert spectrum(G).spectrum == (1, 2)


def test_homocyclic_subgroup_case():
    G = make_homocyclic(3, 2, 2, 1)
    assert nilpotence_class(G) == 3
    assert spectrum(G).spectrum == (1, 2)


def test_homocyclic_k1_matches_dc():
    G = make_homocyclic(2, 1, 3, 0)
    D = make_Dc(2, 3)
    assert len(enumerate_group(G)) == len(enumerate_group(D)) == 32
    assert nilpotence_class(G) == nilpotence_class(D) == 3
    assert spectrum(G).spectrum == spectrum(D).spectrum == (1,)

    G3 = make_homocyclic(3, 1, 2, 0)
    D3 = make_Dc(3, 2)
    assert len(enumerate_group(G3)) == len(enumerate_group(D3)) == 81
    assert nilpotence_class(G3) == 2


def test_homocyclic_rejects_bad_parameters():
    with pytest.raises(BadParameters):
        make_homocyclic(3, 3, 1, 0)  # k > p - 1
    with pytest.raises(BadParameters):
        make_homocyclic(3, 2, 0, 0)
    with pytest.raises(BadParameters):
        make_homocyclic(3, 2, 1, 2)  # s >= k


@pytest.mark.parametrize(
    "params, top",
    [
        ((3, 2, 1, 0), 9),
        ((3, 2, 2, 0), 27),
        ((3, 2, 2, 1), 27),
        ((5, 3, 1, 0), 25),
        ((2, 1, 3, 0), 4),
        ((3, 1, 2, 0), 9),
        ((5, 4, 1, 0), 25),
        ((5, 2, 3, 0), 625),
        ((7, 6, 1, 0), 49),
    ],
)
def test_homocyclic_top_order(params, top):
    G = make_homocyclic(*params)
    G0 = G.parent if params[3] else G
    assert G0.top_order == top


def test_semidirect_families_digest():
    """Generators, named elements and sorted carriers, pinned at a known-good state."""
    groups = [
        make_Mc(2, 3),
        make_Mc(3, 4),
        make_Mc(5, 3),
        make_Dc(3, 3),
        make_homocyclic(3, 2, 2, 1),
        make_homocyclic(5, 3, 1, 0),
    ]
    h = hashlib.sha256()
    for G in groups:
        data = (G.generators, sorted(G.named_elements.items()), enumerate_group(G).elements)
        h.update(repr(data).encode())
    assert h.hexdigest() == "c6e6af8c2b957c82353785f47f863810246c077dcc5f24c7420eb316a8f6a87c"


def test_b2_small():
    B = make_B2(3, 2)
    E = enumerate_group(B)
    assert len(E) == 27
    assert nilpotence_class(B) == 2
    assert all(B.power(g, 3) == B.identity for g in E)


def test_b2_five_cubed():
    B = make_B2(5, 3)
    assert B.known_order == 5**5
    assert nilpotence_class(B) == 3


def test_b2_hall_dimensions_match_witt():
    from pgs.constructions import _HALL_DIMS

    total = 0
    for w in range(1, 5):
        total += witt_dimension(2, w)
        assert _HALL_DIMS[w] == total


def test_b2_inverse_is_negation():
    B = make_B2(5, 2)
    rng = random.Random(3)
    for _ in range(50):
        v = tuple(rng.randrange(5) for _ in range(3))
        assert B.multiply(v, B.invert(v)) == B.identity
        assert B.invert(v) == tuple((-x) % 5 for x in v)


def test_b2_rejects_bad_parameters():
    with pytest.raises(BadParameters):
        make_B2(3, 3)  # k > p - 1
    with pytest.raises(BadParameters):
        make_B2(5, 1)
    with pytest.raises(BadParameters):
        make_B2(5, 5)
    make_B2(7, 4, 7**8)  # largest supported class, above the default bound


def test_b2_exponent_exhaustive_up_to_5_cubed():
    B = make_B2(5, 3)
    for g in enumerate_group(B):
        assert B.power(g, 5) == B.identity


def test_b2_large_sampled_axioms_without_enumeration():
    B = make_B2(5, 4)
    rng = random.Random(9)
    dim = len(B.identity)
    for _ in range(500):
        a = tuple(rng.randrange(5) for _ in range(dim))
        b = tuple(rng.randrange(5) for _ in range(dim))
        c = tuple(rng.randrange(5) for _ in range(dim))
        assert B.multiply(B.multiply(a, b), c) == B.multiply(a, B.multiply(b, c))
    for _ in range(10_000):
        a = tuple(rng.randrange(5) for _ in range(dim))
        assert B.power(a, 5) == B.identity


def test_second_example():
    Q = make_second_example(3, 2, 2)
    assert len(enumerate_group(Q)) == 729
    sp = spectrum(Q)
    assert sp.klass == 2 and sp.spectrum == (1, 2)


def test_second_example_class3():
    Q = make_second_example(3, 2, 3)
    sp = spectrum(Q)
    assert sp.klass == 3 and sp.spectrum == (1, 2)


def test_second_example_rejects_bad_parameters():
    with pytest.raises(BadParameters):
        make_second_example(3, 3, 3)
    with pytest.raises(BadParameters):
        make_second_example(5, 3, 2)  # c < k
    with pytest.raises(BadParameters):
        make_second_example(2, 2, 3)


def test_central_quotient_example_k():
    D = make_Dc(3, 2)
    C = make_cyclic(3, 2)
    H = direct_product([D, C])
    assert spectrum(H).spectrum == (1,)
    z1 = D.power(D.named_elements["x"], 3)
    z2 = C.power(C.named_elements["d"], 3)
    K = central_quotient(H, z1 + z2)
    assert len(enumerate_group(K)) == 243
    assert spectrum(K).spectrum == (1, 2)


def test_central_quotient_rejects_wrong_order():
    D = make_Dc(3, 2)
    C = make_cyclic(3, 2)
    P = direct_product([D, C])
    with pytest.raises(WrongOrder):  # (x^3, d) has order 9
        central_quotient(P, D.power(D.named_elements["x"], 3) + C.named_elements["d"])
    # (1, d^3) has order 3, but the proposition needs each coordinate of order 3
    with pytest.raises(WrongOrder):
        verify_prop_same(central_quotient(P, D.identity + C.power(C.named_elements["d"], 3)))


def test_central_quotient_rejects_non_central():
    M = make_Mc(3, 2)
    C = make_cyclic(3, 1)
    with pytest.raises(NotCentral):
        central_quotient(direct_product([M, C]), M.named_elements["s1"] + C.named_elements["d"])


@pytest.mark.parametrize("z", [(0, 12, 6), (3, 3, 6)], ids=["bottom out of range", "top out of range"])
def test_central_quotient_rejects_tuples_outside_the_group(z):
    # Mc(3,4) has moduli (3, 9, 9): multiply would read (0, 12, 6) as the
    # central (0, 3, 6), and (3, 3, 6) would index past the action's powers
    G = make_Mc(3, 4)
    assert str(central_quotient(G, (0, 3, 6))) == "Mc(3,4)/N3"
    with pytest.raises(NotInGroup):
        central_quotient(G, z)


def test_central_quotient_of_a_product_rejects_tuples_outside_it():
    P = direct_product([make_Mc(3, 2), make_cyclic(3, 1)])
    z = make_Mc(3, 2).named_elements["s2"] + (0, 1)
    assert len(enumerate_group(central_quotient(P, z))) == 27
    with pytest.raises(NotInGroup):
        central_quotient(P, z[:-1] + (4,))


def test_partb_decomposable():
    H = make_partb_decomposable(2, [2], 3)
    assert len(enumerate_group(H)) == 256
    assert spectrum(H).spectrum == (1, 2)

    single = make_partb_decomposable(3, [3], 3)
    assert len(enumerate_group(single)) == 81
    assert spectrum(single).spectrum == (1, 2, 3)

    H2 = make_partb_decomposable(2, [2, 3], 4)
    assert spectrum(H2).spectrum == (1, 2, 3)


def test_partb_parameters():
    with pytest.raises(BadParameters):
        make_partb_decomposable(2, [3, 2], 4)
    with pytest.raises(BadParameters):
        make_partb_decomposable(3, [2], 3)  # c1 < p
    with pytest.raises(BadParameters):
        make_partb_decomposable(2, [2, 5], 4)  # cn > c
    with pytest.raises(BadParameters):
        make_partb_indecomposable(2, [2], 2)  # c < 3


def test_partb_indecomposable_small():
    G = make_partb_indecomposable(2, [2], 3)
    H = G.parent
    assert len(enumerate_group(H)) == 256
    assert len(enumerate_group(G)) == 128
    assert nilpotence_class(G) == 3
    assert spectrum(G).spectrum == (1, 2)
    assert center(G).as_set == center(H).as_set
    assert G.power(G.named_elements["a"], 2) == G.named_elements["yp"]
    assert direct_factor_search(G) is None


def test_partb_indecomposable_reduced_case():
    G = make_partb_indecomposable(3, [3], 3)
    assert not hasattr(G, "parent")
    assert len(enumerate_group(G)) == 81
    assert spectrum(G).spectrum == (1, 2, 3)


def test_partb_commutators_stay_in_factor():
    G = make_partb_indecomposable(2, [2], 3)
    H = G.parent
    a = G.named_elements["a"]
    # commutator of an embedded element with a stays in that embedded factor
    for name in ("x1", "t1_2"):
        z = G.named_elements[name]
        c = commutator(H, z, a)
        assert all(x == 0 for x in c[len(H.factors[0].identity):])
    for name in ("x", "yp"):
        z = G.named_elements[name]
        c = commutator(H, z, a)
        assert all(x == 0 for x in c[: -len(H.factors[-1].identity)])


def test_build_from_description_families():
    assert len(enumerate_group(build_from_description({"family": "Mc", "p": 3, "c": 3}))) == 81
    P = build_from_description(
        {"op": "product", "factors": [{"family": "Dc", "p": 3, "c": 2}, {"family": "Mc", "p": 3, "c": 2}]}
    )
    assert len(enumerate_group(P)) == 81 * 27
    K = build_from_description(
        {
            "op": "central_quotient",
            "group": {
                "op": "product",
                "factors": [
                    {"family": "Dc", "p": 3, "c": 2},
                    {"family": "cyclic", "p": 3, "e": 2},
                ],
            },
            "word": "f0.x^3*f1.d^3",
        }
    )
    assert len(enumerate_group(K)) == 243
    assert spectrum(K).spectrum == (1, 2)


def test_build_partb_description():
    G = build_from_description(
        {"family": "partb", "p": 2, "cs": [2], "c": 3, "indecomposable": True}
    )
    assert len(enumerate_group(G)) == 128


def test_parse_errors():
    for bad in [
        42,
        {"family": "nope", "p": 3},
        {"family": "Mc", "p": 3},
        {"family": "Mc", "p": "3", "c": 2},
        {"op": "product", "factors": []},
        {"op": "central_quotient", "group": {"family": "Mc", "p": 3, "c": 2}},
        {"op": "wat"},
        {"family": "partb", "p": 2, "cs": "x", "c": 3},
    ]:
        with pytest.raises(ParseError):
            parse_description(bad)


def test_word_evaluation():
    D = make_Dc(3, 2)
    x, y = D.named_elements["x"], D.named_elements["y"]
    assert evaluate_word(D, "x^3*y") == D.multiply(D.power(x, 3), y)
    assert evaluate_word(D, "x^-1") == D.invert(x)
    P = direct_product([D, make_cyclic(3, 2)])
    assert evaluate_word(P, "f0.x^9*f1.d") == P.multiply(
        P.embed(0, D.power(x, 9)), P.embed(1, (0, 1))
    )
    for bad in ["", "x ^2", "x**2", "q^2", "f9.x", "X^2"]:
        with pytest.raises(ParseError):
            evaluate_word(P if bad.startswith("f") else D, bad)

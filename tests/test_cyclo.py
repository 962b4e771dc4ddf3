import itertools
import random
import time
from collections import Counter
from math import gcd

import pytest

from pgs.constructions import _action_powers
from pgs.cyclo import eq_powers_witness, mc_bottom, ring_make
from pgs.errors import ResourceLimit
from pgs.linalg import echelonize, quotient_structure
from test_linalg import submodule_member


def ideal_basis(R, k):
    """Echelon basis of I^k, the span of (w - 1)^k * w^j for j < p - 1."""
    gen = R.power(R.omega_minus_one, k)
    vectors = [R.mul(gen, R.power(R.omega, j)).coeffs for j in range(R.rank)]
    return echelonize(R.p, R.N, vectors, width=R.rank)


def abelian_order_census(exponents):
    counts = Counter()
    for combo in itertools.product(*[range(m) for m in exponents]):
        o = 1
        for c, m in zip(combo, exponents):
            if c:
                d = m // gcd(c, m)
                o = o * d // gcd(o, d)
        counts[o] += 1
    return counts


def quotient_order_census(R, c):
    """Brute-force additive order census of ring/I^c."""
    mod = R.modulus
    basis = ideal_basis(R, c)
    counts = Counter()
    seen = set()
    for v in itertools.product(range(mod), repeat=R.rank):
        if v in seen:
            continue
        # collect coset of v, counting its order in the quotient
        k = 1
        w = v
        while not submodule_member(w, basis):
            w = tuple((a + b) % mod for a, b in zip(w, v))
            k += 1
        counts[k] += 1
        coset = set()
        for s in itertools.product(range(mod), repeat=R.rank):
            if submodule_member(tuple((a - b) % mod for a, b in zip(s, v)), basis):
                coset.add(s)
        seen |= coset
    return counts


def test_ring_p2_is_two_adic():
    R = ring_make(2, 3)
    assert R.rank == 1
    assert R.N == 4
    for k in range(4):
        assert ideal_basis(R, k).span_size == 2 ** (4 - k)
    inv = quotient_structure(R.ideal_basis, 1)
    assert inv.exponents == (8,)


def test_ring_p3_quotients():
    R2 = ring_make(3, 2)
    assert quotient_structure(R2.ideal_basis, 2).exponents == (3, 3)
    R3 = ring_make(3, 3)
    assert quotient_structure(R3.ideal_basis, 2).exponents == (9, 3)


def test_ring_p3_c3_census_oracle():
    R = ring_make(3, 3)
    inv = quotient_structure(R.ideal_basis, 2)
    assert inv.order == 27
    # census oracle is exhaustive over (Z/27)^2 cosets; keep it for p=3, c=2
    R2 = ring_make(3, 2)
    inv2 = quotient_structure(R2.ideal_basis, 2)
    assert quotient_order_census(R2, 2) == abelian_order_census(inv2.exponents)


def test_parameter_bound():
    with pytest.raises(ResourceLimit):
        ring_make(3, 20, max_order=1000)


def test_parameter_bound_never_forms_p_to_the_c():
    # p^c for c = 10^6 has more digits than int formatting allows
    start = time.perf_counter()
    for c in (10_000, 10**6):
        with pytest.raises(ResourceLimit):
            ring_make(3, c, max_order=1000)
    assert time.perf_counter() - start < 1.0


def test_ideal_basis_is_the_ideal_power():
    for p, c in [(2, 1), (2, 3), (2, 6), (3, 1), (3, 4), (3, 7), (5, 3), (5, 6), (7, 5)]:
        R = ring_make(p, c)
        assert R.ideal_basis == ideal_basis(R, c)


def test_mul_identity_and_minimal_polynomial():
    R = ring_make(3, 2)
    r = R.element((5, 7))
    assert R.mul(R.one, r) == r
    # w * w^(p-2) = w^(p-1) = -(1 + w + ... + w^(p-2))
    top = R.mul(R.omega, R.element((0, 1)))
    assert top == R.element((-1, -1))


def test_omega_minus_one_squared_p3():
    R = ring_make(3, 2)
    sq = R.mul(R.omega_minus_one, R.omega_minus_one)
    assert sq == R.element((0, -3))


def test_ring_axioms_sampled():
    rng = random.Random(11)
    for p, c in [(3, 2), (5, 2), (2, 3)]:
        R = ring_make(p, c)
        for _ in range(40):
            a = R.element([rng.randrange(R.modulus) for _ in range(R.rank)])
            b = R.element([rng.randrange(R.modulus) for _ in range(R.rank)])
            d = R.element([rng.randrange(R.modulus) for _ in range(R.rank)])
            assert R.mul(a, R.mul(b, d)) == R.mul(R.mul(a, b), d)
            assert R.mul(a, b) == R.mul(b, a)
            assert R.mul(a, R.add(b, d)) == R.add(R.mul(a, b), R.mul(a, d))


def coeffs_mod(elem, m):
    return tuple(x % m for x in elem.coeffs)


def test_eq_powers_witness_small_primes():
    # the witness is determined mod p^(N-1); compare at that precision
    R2 = ring_make(2, 3)
    z2 = eq_powers_witness(R2)
    assert coeffs_mod(z2, 2 ** (R2.N - 1)) == coeffs_mod(R2.element((-1,)), 2 ** (R2.N - 1))
    assert R2.scalar(2, z2) == R2.omega_minus_one
    R3 = ring_make(3, 2)
    z3 = eq_powers_witness(R3)
    assert coeffs_mod(z3, 3 ** (R3.N - 1)) == coeffs_mod(R3.scalar(-1, R3.omega), 3 ** (R3.N - 1))
    for p in (5, 7):
        R = ring_make(p, 1)
        z = eq_powers_witness(R)
        assert any(x % p for x in z.coeffs)
        assert R.scalar(p, z) == R.power(R.omega_minus_one, p - 1)


def test_ideal_filtration_products():
    for p, c in [(3, 4), (2, 3), (5, 3)]:
        R = ring_make(p, c)
        bases = [ideal_basis(R, k) for k in range(c + 1)]
        for j in range(c + 1):
            for k in range(c + 1 - j):
                gj = R.power(R.omega_minus_one, j)
                gk = R.power(R.omega_minus_one, k)
                for m in range(R.rank):
                    prod = R.mul(R.mul(gj, gk), R.element(R._omega_pows[m]))
                    assert submodule_member(prod.coeffs, bases[j + k])


def test_s_sequence_law():
    # s(k + p - 1) = p * z * s(k) in ring/I^c whenever k + p - 1 <= c
    for p, c in [(3, 4), (2, 3), (5, 5)]:
        R = ring_make(p, c)
        basis = ideal_basis(R, c)
        z = eq_powers_witness(R)
        for k in range(1, c - p + 2):
            lhs = R.s_element(k + p - 1)
            rhs = R.scalar(p, R.mul(z, R.s_element(k)))
            assert submodule_member(R.sub(lhs, rhs).coeffs, basis)


def test_mc_bottom_dihedral():
    R = ring_make(2, 3)
    inv, rows = mc_bottom(R)
    assert inv.exponents == (8,)
    assert rows == ((7,),)


def test_mc_bottom_p3():
    R = ring_make(3, 2)
    inv, rows = mc_bottom(R)
    assert inv.exponents == (3, 3)
    # action order exactly p
    assert len(_action_powers(rows, inv.exponents, 3)) == 3


def test_mc_bottom_orders():
    for p, c in [(3, 4), (3, 5), (5, 2), (5, 3)]:
        R = ring_make(p, c)
        inv, _ = mc_bottom(R)
        assert inv.order == p**c


def test_mc_bottom_action_order_is_p():
    # the action matrix may live over mixed invariant moduli, so compose it
    # as a map, reducing each output coordinate mod its own invariant
    for p, c in [(2, 3), (3, 2), (3, 4), (3, 5), (5, 3)]:
        R = ring_make(p, c)
        inv, rows = mc_bottom(R)
        mods = inv.exponents
        rank = len(mods)
        ident = tuple(tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank))

        def compose(A, B):
            return tuple(
                tuple(
                    sum(A[i][k] * B[k][j] for k in range(rank)) % mods[j]
                    for j in range(rank)
                )
                for i in range(rank)
            )

        acc = rows
        for _ in range(p - 1):
            acc = compose(acc, rows)
        assert acc == ident
        if c >= 2:
            assert rows != ident

import itertools
import random
from collections import Counter
from math import gcd

import pytest

from pgs.constructions import SemidirectGroup, _action_powers
from pgs.errors import BadParameters
from pgs.linalg import echelonize, quotient_structure, valuation


def submodule_member(v, basis):
    """Decide membership of ``v`` in the span of an echelon basis, by
    column-wise reduction against its pivots."""
    p, N = basis.p, basis.N
    mod = p**N
    w = [int(x) % mod for x in v]
    if basis.rows and len(w) != basis.width:
        raise BadParameters("vector length does not match basis width")
    for (col, val), row in zip(basis.pivots, basis.rows):
        a = w[col]
        if a == 0:
            continue
        pv = p**val
        if a % pv:
            return False
        q = a // pv
        for c in range(col, len(w)):
            w[c] = (w[c] - q * row[c]) % mod
    return not any(w)


def matmul(A, B, mod):
    n = len(A)
    return [[sum(A[i][k] * B[k][j] for k in range(n)) % mod for j in range(n)] for i in range(n)]


def brute_matrix_order(M, mod):
    ident = [[int(i == j) for j in range(len(M))] for i in range(len(M))]
    X = [[x % mod for x in row] for row in M]
    n = 1
    while X != ident:
        X = matmul(X, M, mod)
        n += 1
        assert n < 100_000
    return n


def enumerate_span(p, N, rows, width):
    mod = p**N
    span = {tuple([0] * width)}
    for r in rows:
        span = {
            tuple((a + c * b) % mod for a, b in zip(v, r)) for v in span for c in range(mod)
        }
    return span


def coset_order(v, span, mod):
    k = 1
    w = v
    while w not in span:
        w = tuple((a + b) % mod for a, b in zip(w, v))
        k += 1
    return k


def abelian_order_census(exponents):
    counts = Counter()
    for combo in itertools.product(*[range(m) for m in exponents]):
        o = 1
        for c, m in zip(combo, exponents):
            if c:
                o = o * (m // gcd(c, m)) // gcd(o, m // gcd(c, m))
        counts[o] += 1
    return counts


def test_valuation():
    assert valuation(9, 3) == 2
    assert valuation(5, 3) == 0
    with pytest.raises(ValueError):
        valuation(0, 3)


# Matrix orders, read off the semidirect action's power table.


def test_matrix_power_order_identity():
    assert _action_powers(((1, 0), (0, 1)), (3, 3), 1) == (((1, 0), (0, 1)),)


def test_matrix_power_order_unipotent():
    M = [[1, 0], [1, 1]]
    assert len(_action_powers(M, (3, 3), 10)) == 3
    assert brute_matrix_order(M, 3) == 3


def test_matrix_power_order_companion_phi3():
    # multiplication-by-omega matrix for x^2 + x + 1; omega^3 = 1
    assert len(_action_powers([[0, 1], [-1, -1]], (9, 9), 10)) == 3


def test_matrix_power_order_rejects_singular():
    # 3 is not a unit mod 9, so the action never returns to the identity
    with pytest.raises(BadParameters):
        SemidirectGroup(3, 3, (9,), ((3,),), [("x", (0, 1))])


def test_matrix_power_order_divisor_property():
    rng = random.Random(7)
    for _ in range(25):
        p = rng.choice([2, 3, 5])
        N = rng.choice([1, 2])
        n = rng.choice([1, 2, 3])
        # random unipotent: identity plus strictly lower triangular times p^0
        ent = [[0] * n for _ in range(n)]
        for i in range(n):
            ent[i][i] = 1
            for j in range(i):
                ent[i][j] = rng.randrange(p**N)
        pows = _action_powers(ent, (p**N,) * n, 100_000)
        assert len(pows) == brute_matrix_order(ent, p**N)
        X = [[int(i == j) for j in range(n)] for i in range(n)]
        for A in pows:
            assert tuple(map(tuple, X)) == A
            X = matmul(X, ent, p**N)
        assert X == [list(row) for row in pows[0]]


def test_echelonize_empty():
    B = echelonize(3, 2, [])
    assert B.rows == ()
    assert submodule_member((0, 0), echelonize(3, 2, [], width=2))


def test_echelonize_duplicate_collapse():
    B = echelonize(3, 1, [(1, 1), (1, 1)])
    assert B.rows == ((1, 1),)


def test_echelonize_hand_reduction():
    B = echelonize(3, 2, [(3, 0), (0, 1)])
    assert B.rows == ((3, 0), (0, 1))
    assert B.pivots == ((0, 1), (1, 0))
    assert B.span_size == 3 * 9


def test_echelonize_annihilator_completion():
    # span of (3,1) mod 9 contains (0,3); the canonical basis must show it
    B = echelonize(3, 2, [(3, 1)])
    assert B.rows == ((3, 1), (0, 3))
    assert B.span_size == len(enumerate_span(3, 2, [(3, 1)], 2))


def test_echelonize_canonical_and_idempotent():
    rng = random.Random(20240601)
    for _ in range(60):
        p = rng.choice([2, 3])
        N = rng.choice([1, 2, 3])
        width = rng.choice([1, 2, 3, 4])
        vecs = [
            tuple(rng.randrange(p**N) for _ in range(width))
            for _ in range(rng.randrange(0, 4))
        ]
        B = echelonize(p, N, vecs, width=width)
        again = echelonize(p, N, B.rows, width=width)
        assert again == B
        shuffled = list(vecs)
        rng.shuffle(shuffled)
        assert echelonize(p, N, shuffled, width=width) == B
        for v in vecs:
            assert submodule_member(v, B)
        if width <= 3 and p**N <= 9:
            assert B.span_size == len(enumerate_span(p, N, vecs, width))


def test_membership_examples():
    B = echelonize(3, 2, [(3, 0), (0, 1)])
    assert submodule_member((0, 0), B)
    assert submodule_member((3, 0), B)
    assert not submodule_member((1, 0), B)


def test_membership_against_exhaustive_span():
    rng = random.Random(99)
    for _ in range(20):
        p = rng.choice([2, 3])
        N = rng.choice([1, 2])
        width = rng.choice([2, 3])
        vecs = [
            tuple(rng.randrange(p**N) for _ in range(width))
            for _ in range(rng.randrange(0, 3))
        ]
        B = echelonize(p, N, vecs, width=width)
        span = enumerate_span(p, N, vecs, width)
        for v in itertools.product(range(p**N), repeat=width):
            assert submodule_member(v, B) == (v in span)


def test_quotient_trivial_and_elementary():
    full = echelonize(3, 2, [(1, 0), (0, 1)])
    assert quotient_structure(full, 2).exponents == ()

    scaled = echelonize(3, 2, [(3, 0), (0, 3)])
    inv = quotient_structure(scaled, 2)
    assert inv.exponents == (3, 3)

    empty = echelonize(3, 2, [], width=2)
    assert quotient_structure(empty, 2).exponents == (9, 9)


def test_quotient_ideal_cube_coordinates():
    # ideal generated by (3, 6) in (Z/9)^2: quotient of order 27
    B = echelonize(3, 2, [(3, 6)])
    inv = quotient_structure(B, 2)
    assert inv.exponents == (9, 3)
    assert inv.order == 27

    span = enumerate_span(3, 2, B.rows, 2)
    census = Counter()
    seen = set()
    for v in itertools.product(range(9), repeat=2):
        if v in seen:
            continue
        coset = {tuple((a + b) % 9 for a, b in zip(v, s)) for s in span}
        seen |= coset
        census[coset_order(v, span, 9)] += 1
    assert census == abelian_order_census(inv.exponents)


def test_quotient_maps_roundtrip():
    rng = random.Random(5)
    for _ in range(25):
        p = rng.choice([2, 3])
        N = rng.choice([1, 2])
        width = rng.choice([2, 3])
        vecs = [
            tuple(rng.randrange(p**N) for _ in range(width))
            for _ in range(rng.randrange(0, 3))
        ]
        B = echelonize(p, N, vecs, width=width)
        inv = quotient_structure(B, width)
        assert inv.order * B.span_size == (p**N) ** width
        for coords in itertools.product(*[range(m) for m in inv.exponents]):
            assert inv.to_canonical(inv.from_canonical(coords)) == coords
        for _ in range(5):
            x = tuple(rng.randrange(p**N) for _ in range(width))
            back = inv.from_canonical(inv.to_canonical(x))
            diff = tuple((a - b) % (p**N) for a, b in zip(x, back))
            assert submodule_member(diff, B)


def test_mixed_length_vectors_rejected():
    with pytest.raises(BadParameters):
        echelonize(3, 1, [(1, 0), (1, 0, 0)])

"""Concrete p-group families and the recipe interpreter.

Families built here:

* split metacyclic groups D_c = <x, y> with [x, y] = x^p,
* maximal-class groups M_c: a cyclic top of order p acting on the
  truncated cyclotomic integers by multiplication by a root of unity,
* semidirect products of a homocyclic group by a cyclic rotation-like
  automorphism, plus the index-lowering subgroups,
* the largest 2-generator group of exponent p and class k <= 4, realized
  as a free nilpotent Lie ring with truncated BCH multiplication,
* central quotients by an order-p subgroup, and the indecomposable
  combinations of the above.

Every constructor returns a FiniteGroup over flat integer tuples;
descriptions (JSON-shaped dicts) are interpreted by
``build_from_description``.  Each group enumerates with no multiply: a
native family (``SemidirectGroup``, ``LieBCHGroup``) as its coordinate box,
and the index-lowering homocyclic subgroups and the indecomposable part-(b)
groups as ``SubgroupGroup``s, their parent's box cut by the linear
congruences mod p that define them (a maximal subgroup of a p-group is the
kernel of a map onto C_p).  That the generators generate the carrier is
tested against their closure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .cyclo import mc_bottom, ring_make
from .errors import (
    BadParameters,
    InternalInconsistency,
    NotCentral,
    ParseError,
    PthPowerViolation,
    WrongOrder,
)
from .groups import (
    DEFAULT_MAX_ORDER,
    FiniteGroup,
    QuotientGroup,
    SubgroupGroup,
    _check_order,
    _element_position,
    commutator,
    direct_product,
    element_order,
    is_pth_power,
    subgroup_closure,
)
from .linalg import check_prime


class SemidirectGroup(FiniteGroup):
    """Cyclic top of order ``top_order`` acting on an abelian bottom.

    Elements are (t, v_1, ..., v_r): the element top^t * bottom_v.  The
    action is a row-convention matrix applied with per-coordinate moduli,
    so mixed invariant factors (e.g. Z/9 x Z/3) are supported.  The action's
    distinct powers are computed once and repeated up to the top order, so
    ``_pows[t]`` is A^t:
    (t1, v)(t2, w) = (t1 + t2, v A^t2 + w).  For a bottom of rank 1 to 3
    ``_acts[t]`` holds A^t flat, built the same way: the scalar at rank 1
    (cyclic groups, Dc, Mc for p = 2, homocyclic with k = 1), the row-major
    matrix at ranks 2 and 3 (Mc for p = 3 and p = 5 up to c = 3, homocyclic
    with k = 2 or 3).  ``multiply`` and ``invert`` have one written-out
    branch per such rank, which unpacks the tuple, the action and the
    moduli and returns the result in one expression, with no loop (about
    0.3 us a call, where the matrix loop took 0.8-1.2 us); a larger bottom
    runs the loop over ``_pows``.  The branches stay in the methods, so a
    count of ``SemidirectGroup.multiply`` on the class sees every product.
    ``tests/test_properties.py::test_rank1_semidirect_matches_the_matrix_rows``,
    ``::test_rank2_and_rank3_semidirect_match_the_matrix_rows`` and
    ``::test_semidirect_kernels_match_the_matrix_rows_on_drawn_pairs`` check
    them against the matrix rows.

    The carrier is every (t, v) with t below ``top_order`` and v below the
    bottom moduli, enumerated as that coordinate box with no multiply, so
    ``generators`` must generate the whole box: every analysis that reads
    only the generators (the center, the lower central series, the central
    series checks) relies on it.  Each family built here is checked against
    the closure of its generators by
    ``tests/test_properties.py::test_native_carrier_is_the_generators_closure``
    and ``::test_drawn_native_carrier_is_the_generators_closure``.
    """

    def __init__(
        self,
        p,
        top_order,
        bottom_moduli,
        action_rows,
        generators,
        named=None,
        description="",
        max_order=DEFAULT_MAX_ORDER,
    ):
        check_prime(p)
        mods = tuple(int(m) for m in bottom_moduli)
        rank = len(mods)
        if top_order < 1:
            raise BadParameters("top order must be >= 1")
        rows = tuple(
            tuple(int(x) % mods[j] for j, x in enumerate(row)) for row in action_rows
        )
        if len(rows) != rank or any(len(r) != rank for r in rows):
            raise BadParameters("action matrix must be rank x rank")
        for i in range(rank):
            for j in range(rank):
                if (mods[i] * rows[i][j]) % mods[j]:
                    raise InternalInconsistency("action is not well defined on the bottom")
        self.top_order = top_order
        self._mods = mods
        self._rank = rank
        pows = _action_powers(rows, mods, top_order)
        if top_order % len(pows):
            raise BadParameters("action order does not divide the top order")
        repeat = top_order // len(pows)
        self._pows = pows * repeat
        # A^t flat for the written-out kernels: the scalar at rank 1, the
        # row-major matrix at ranks 2 and 3
        flat = (M[0][0] if rank == 1 else sum(M, ()) for M in pows)
        self._acts = tuple(flat) * repeat if rank <= 3 else ()

        order = top_order
        for m in mods:
            order *= m
        self._init_group(
            p,
            (top_order,) + mods,
            generators,
            named=named,
            known_order=order,
            description=description,
            max_order=max_order,
        )

    def multiply(self, a, b):
        """The product of two elements.  It trusts its input, as
        ``groups._position`` does: a coordinate out of range is reduced or
        raises, so a caller that takes tuples from outside checks them
        against the carrier first (``central_quotient``)."""
        t2 = b[0]
        rank = self._rank
        if rank == 1:
            return (
                (a[0] + t2) % self.top_order,
                (b[1] + a[1] * self._acts[t2]) % self._mods[0],
            )
        if rank == 2:
            t1, x, y = a
            _, u, v = b
            m00, m01, m10, m11 = self._acts[t2]
            n0, n1 = self._mods
            return ((t1 + t2) % self.top_order, (u + x * m00 + y * m10) % n0, (v + x * m01 + y * m11) % n1)
        if rank == 3:
            t1, x, y, z = a
            _, u, v, w = b
            m00, m01, m02, m10, m11, m12, m20, m21, m22 = self._acts[t2]
            n0, n1, n2 = self._mods
            return (
                (t1 + t2) % self.top_order,
                (u + x * m00 + y * m10 + z * m20) % n0,
                (v + x * m01 + y * m11 + z * m21) % n1,
                (w + x * m02 + y * m12 + z * m22) % n2,
            )
        M = self._pows[t2]
        mods = self._mods
        out = [(a[0] + t2) % self.top_order]
        for j in range(rank):
            s = b[j + 1]
            for i in range(rank):
                s += a[i + 1] * M[i][j]
            out.append(s % mods[j])
        return tuple(out)

    def invert(self, a):
        ti = (self.top_order - a[0]) % self.top_order
        rank = self._rank
        if rank == 1:
            return (ti, (-a[1] * self._acts[ti]) % self._mods[0])
        if rank == 2:
            _, x, y = a
            m00, m01, m10, m11 = self._acts[ti]
            n0, n1 = self._mods
            return (ti, -(x * m00 + y * m10) % n0, -(x * m01 + y * m11) % n1)
        if rank == 3:
            _, x, y, z = a
            m00, m01, m02, m10, m11, m12, m20, m21, m22 = self._acts[ti]
            n0, n1, n2 = self._mods
            return (
                ti,
                -(x * m00 + y * m10 + z * m20) % n0,
                -(x * m01 + y * m11 + z * m21) % n1,
                -(x * m02 + y * m12 + z * m22) % n2,
            )
        M = self._pows[ti]
        mods = self._mods
        out = [ti]
        for j in range(rank):
            s = 0
            for i in range(rank):
                s -= a[i + 1] * M[i][j]
            out.append(s % mods[j])
        return tuple(out)


def _compose(A, B, mods, rank):
    return tuple(
        tuple(
            sum(A[i][k] * B[k][j] for k in range(rank)) % mods[j] for j in range(rank)
        )
        for i in range(rank)
    )


def _action_powers(rows, mods, bound):
    """(I, A, ..., A^(m-1)), where m is the order of the action A.

    Raises BadParameters unless A^m = I for some m <= ``bound``; a singular
    action never returns to I, so it is rejected the same way.
    """
    rank = len(mods)
    ident = tuple(tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank))
    pows = [ident]
    X = _compose(ident, rows, mods, rank)
    while X != ident:
        if len(pows) >= bound:
            raise BadParameters("action order does not divide the top order")
        pows.append(X)
        X = _compose(X, rows, mods, rank)
    return tuple(pows)


def make_cyclic(p: int, e: int, max_order: int = DEFAULT_MAX_ORDER) -> SemidirectGroup:
    """Cyclic group of order p^e with the single generator "d"."""
    _check_order(p, e, max_order, f"C{p}^{e}")
    check_prime(p)
    if e < 1:
        raise BadParameters("e must be >= 1")
    return SemidirectGroup(
        p,
        1,
        (p**e,),
        ((1,),),
        [("d", (0, 1))],
        description=f"C{p**e}",
        max_order=max_order,
    )


def make_Dc(p: int, c: int, max_order: int = DEFAULT_MAX_ORDER) -> SemidirectGroup:
    """Split metacyclic group <x, y : x^(p^c), y^(p^c), [x, y] = x^p>.

    For p = 2 the top has order 2^(c-1) and the action is x -> x^3; the
    pair (2, 2) is rejected because the resulting dihedral group of order 8
    does not have Omega_1 = Z, which every group of this family must.
    """
    _check_order(p, 2 * c - (p == 2), max_order, f"Dc({p},{c})")
    check_prime(p)
    if p == 2:
        if c < 3:
            raise BadParameters("Dc for p = 2 requires c >= 3")
        top = 2 ** (c - 1)
        mult = 3
    else:
        if c < 2:
            raise BadParameters("Dc requires c >= 2")
        top = p**c
        mult = 1 + p
    mod = p**c
    return SemidirectGroup(
        p,
        top,
        (mod,),
        ((mult % mod,),),
        [("x", (0, 1)), ("y", (1, 0))],
        description=f"Dc({p},{c})",
        max_order=max_order,
    )


def make_Mc(p: int, c: int, max_order: int = DEFAULT_MAX_ORDER) -> SemidirectGroup:
    """Maximal-class group of order p^(c+1).

    A cyclic top of order p acts on the additive group of the truncated
    cyclotomic ring modulo its c-th ideal power, by multiplication with the
    root of unity.  The images of the descending unit chain are exposed as
    named elements "s1" ... "sc".
    """
    _check_order(p, c + 1, max_order, f"Mc({p},{c})")
    check_prime(p)
    if c < 2:
        raise BadParameters("Mc requires c >= 2")
    R = ring_make(p, c, max_order=max_order)
    inv, rows = mc_bottom(R)
    rank = inv.rank
    named = {}
    for j in range(1, c + 1):
        coords = inv.to_canonical(R.s_element(j).coeffs)
        named[f"s{j}"] = (0,) + tuple(coords)
    a = (1,) + (0,) * rank
    G = SemidirectGroup(
        p,
        p,
        inv.exponents,
        rows,
        [("a", a), ("s1", named["s1"])],
        named=named,
        description=f"Mc({p},{c})",
        max_order=max_order,
    )
    G.ring = R
    G.bottom_invariants = inv
    return G


def make_homocyclic(p: int, k: int, e: int, s: int, max_order: int = DEFAULT_MAX_ORDER):
    """Semidirect product of (Z/p^e)^k by the cycle-with-p-twist action.

    The action sends a_i to a_i * a_(i+1) for i < k and a_k to a_k * a_1^p;
    the top generator b has order p times the action order.  For s > 0 the
    returned group is the subgroup generated by a_1^p ... a_s^p,
    a_(s+1) ... a_k and b, of index p^s, which lowers the class from k*e to
    k*e - s.  It is the set of (t, v) with v_i = 0 mod p for i <= s, which
    the action keeps (it adds v_(i-1) to v_i for i > 1, and p v_k to v_1).
    """
    # the bottom part alone has p^(k*e - s) elements and the top at least p
    _check_order(p, k * e - s + 1, max_order, f"homocyclic({p},{k},{e},{s})")
    check_prime(p)
    if not (1 <= k <= p - 1):
        raise BadParameters("k must satisfy 1 <= k <= p - 1")
    if e < 1 or not (0 <= s < k):
        raise BadParameters("need e >= 1 and 0 <= s < k")
    mod = p**e
    rows = []
    for i in range(k):
        row = [0] * k
        row[i] = 1
        if i + 1 < k:
            row[i + 1] = 1
        else:
            row[0] = (row[0] + p) % mod
        rows.append(row)
    top = p * len(_action_powers(rows, (mod,) * k, max_order))
    gens = [(f"a{i + 1}", (0,) + tuple(1 if j == i else 0 for j in range(k))) for i in range(k)]
    gens.append(("b", (1,) + (0,) * k))
    G0 = SemidirectGroup(
        p,
        top,
        (mod,) * k,
        rows,
        gens,
        description=f"homocyclic({p},{k},{e},0)",
        max_order=max_order,
    )
    if s == 0:
        return G0
    sub_gens = [(name, G0.power(g, p) if i < s else g) for i, (name, g) in enumerate(G0.generators)]
    congruences = [g for _, g in G0.generators[:s]]  # a_i's coordinates: v_i = 0 mod p
    return SubgroupGroup(G0, congruences, sub_gens, description=f"homocyclic({p},{k},{e},{s})")


# Hall basis of the free Lie ring on two generators, up to weight 4.
# Index : element                 weight
#   0   : x                        1
#   1   : y                        1
#   2   : [x,y]                    2
#   3   : [x,y,x]                  3
#   4   : [x,y,y]                  3
#   5   : [x,y,x,x]                4
#   6   : [x,y,x,y]  (=[x,y,y,x])  4
#   7   : [x,y,y,y]                4
_HALL_DIMS = {1: 2, 2: 3, 3: 5, 4: 8}


# The truncated BCH product in Hall coordinates, one kernel per class k;
# h, w, q are the inverses of 2, 12 and 24 mod p.  LieBCHGroup's docstring
# derives the formulas.


def _bch2(a, b, p, h, w, q):
    a0, a1, a2 = a
    b0, b1, b2 = b
    return ((a0 + b0) % p, (a1 + b1) % p, (a2 + b2 + h * (a0 * b1 - a1 * b0)) % p)


def _bch3(a, b, p, h, w, q):
    a0, a1, a2, a3, a4 = a
    b0, b1, b2, b3, b4 = b
    c2 = a0 * b1 - a1 * b0
    return (
        (a0 + b0) % p,
        (a1 + b1) % p,
        (a2 + b2 + h * c2) % p,
        (a3 + b3 + h * (a2 * b0 - a0 * b2) + w * (b0 - a0) * c2) % p,
        (a4 + b4 + h * (a2 * b1 - a1 * b2) + w * (b1 - a1) * c2) % p,
    )


def _bch4(a, b, p, h, w, q):
    a0, a1, a2, a3, a4, a5, a6, a7 = a
    b0, b1, b2, b3, b4, b5, b6, b7 = b
    c2 = a0 * b1 - a1 * b0
    c3 = a2 * b0 - a0 * b2
    c4 = a2 * b1 - a1 * b2
    dx = b0 - a0
    dy = b1 - a1
    return (
        (a0 + b0) % p,
        (a1 + b1) % p,
        (a2 + b2 + h * c2) % p,
        (a3 + b3 + h * c3 + w * dx * c2) % p,
        (a4 + b4 + h * c4 + w * dy * c2) % p,
        (a5 + b5 + h * (a3 * b0 - a0 * b3) + w * dx * c3 - q * a0 * b0 * c2) % p,
        (
            a6 + b6
            + h * (a4 * b0 - a0 * b4 + a3 * b1 - a1 * b3)
            + w * (dx * c4 + dy * c3)
            - q * (a1 * b0 + a0 * b1) * c2
        ) % p,
        (a7 + b7 + h * (a4 * b1 - a1 * b4) + w * dy * c4 - q * a1 * b1 * c2) % p,
    )


_BCH_KERNELS = {2: _bch2, 3: _bch3, 4: _bch4}


class LieBCHGroup(FiniteGroup):
    """Largest 2-generator group of exponent p and class k (2 <= k <= 4).

    Elements are vectors of a free nilpotent Lie ring of rank 2 over F_p in
    the Hall basis; the group product is the BCH series truncated at weight
    k, whose denominators 2, 12, 24 are invertible because k < p:

        a + b + [a,b]/2 + ([a,[a,b]] - [b,[a,b]])/12 - [b,[a,[a,b]]]/24.

    Every nonidentity element has order p, and inversion is negation.

    ``multiply`` evaluates this series as one polynomial per coordinate
    (``_bch2``, ``_bch3``, ``_bch4``, the first ``_HALL_DIMS[k]``
    coordinates of the class-4 formula).  The nonzero brackets of basis
    vectors are [e0,e1] = e2, [e0,e2] = -e3, [e1,e2] = -e4, [e0,e3] = -e5,
    [e0,e4] = [e1,e3] = -e6 and [e1,e4] = -e7.  So with
    c2 = a0 b1 - a1 b0, c3 = a2 b0 - a0 b2 and c4 = a2 b1 - a1 b2,
    [a,b] = (0, 0, c2, c3, c4, a3 b0 - a0 b3, a4 b0 - a0 b4 + a3 b1 - a1 b3,
    a4 b1 - a1 b4); with dx = b0 - a0 and dy = b1 - a1,
    [a,[a,b]] - [b,[a,b]] = (0, 0, 0, dx c2, dy c2, dx c3, dx c4 + dy c3,
    dy c4); and [b,[a,[a,b]]] = (0, ..., 0, a0 b0 c2, (a1 b0 + a0 b1) c2,
    a1 b1 c2) in weight 4.  Brackets above weight 4 vanish, so only a0 and
    a1 meet [a,b] in [a,[a,b]], and only b0 and b1 meet the weight-3 part
    (-a0 c2, -a1 c2) of [a,[a,b]] in [b,[a,[a,b]]].  The kernels are
    checked against the series evaluated through the structure-constant
    bracket by ``tests/test_properties.py::test_b2_kernel_matches_reference_*``
    and, on drawn vectors, ``::test_b2_bracket_and_product_match_reference``.

    The carrier is all of F_p^dim, enumerated as that coordinate box with
    no multiply, so the generators s and t must generate every vector.
    They do: they span G modulo its commutator subgroup (the weight-1
    coordinates), and any such set generates a p-group (Burnside's basis
    theorem).  Every analysis that reads only the generators relies on it;
    the box is checked against the closure of s and t by
    ``tests/test_properties.py::test_native_carrier_is_the_generators_closure``
    and ``::test_drawn_native_carrier_is_the_generators_closure``.
    """

    def __init__(self, p: int, k: int, max_order: int = DEFAULT_MAX_ORDER):
        check_prime(p)
        if not (2 <= k <= min(p - 1, 4)):
            raise BadParameters("k must satisfy 2 <= k <= min(p - 1, 4)")
        dim = _HALL_DIMS[k]
        self.klass = k
        self._kernel = _BCH_KERNELS[k]
        self._half = pow(2, -1, p)
        self._twelfth = pow(12, -1, p) if k >= 3 else 0
        self._twenty4th = pow(24, -1, p) if k >= 4 else 0
        gens = [
            ("s", tuple(1 if i == 0 else 0 for i in range(dim))),
            ("t", tuple(1 if i == 1 else 0 for i in range(dim))),
        ]
        self._init_group(
            p,
            (p,) * dim,
            gens,
            known_order=p**dim,
            description=f"B2({p},{k})",
            max_order=max_order,
        )

    def multiply(self, a, b):
        return self._kernel(a, b, self.prime, self._half, self._twelfth, self._twenty4th)

    def invert(self, a):
        p = self.prime
        return tuple((-x) % p for x in a)


def make_B2(p: int, k: int, max_order: int = DEFAULT_MAX_ORDER) -> LieBCHGroup:
    """B2(p, k), its order checked against the bound before p is tested for
    primality."""
    _check_order(p, _HALL_DIMS.get(k, 0), max_order, f"B2({p},{k})")
    return LieBCHGroup(p, k, max_order)


def central_quotient(G: FiniteGroup, z) -> QuotientGroup:
    """Quotient of G by <z>, where z must be an element of G, central, of
    order exactly p.  Membership is checked first, on G's carrier: native
    ``multiply`` trusts its input, and would reduce or reject an
    out-of-range coordinate before any other check saw it."""
    z = tuple(z)
    _element_position(G, z)
    for _, g in G.generators:
        if G.multiply(z, g) != G.multiply(g, z):
            raise NotCentral(f"{z} is not central in {G!r}")
    if element_order(G, z) != G.prime:
        raise WrongOrder(f"{z} does not have order {G.prime}")
    return QuotientGroup(G, subgroup_closure(G, [z]))  # <z> is normal: z is central


def make_second_example(
    p: int, k: int, c: int, max_order: int = DEFAULT_MAX_ORDER
):
    """Indecomposable group of class c with spectrum {1, ..., k}.

    Central quotient of Dc(p, c) x B2(p, k) by the diagonal subgroup
    generated by x^(p^(c-1)) * d, where d is the left-normed weight-k
    commutator [t, s, ..., s] of the exponent-p factor.  The diagonal
    element is never a p-th power because d is nontrivial and the second
    factor has exponent p.
    """
    if not (2 <= k <= min(p - 1, 4)):
        raise BadParameters("k must satisfy 2 <= k <= min(p - 1, 4)")
    if c < k:
        raise BadParameters("need c >= k")
    G1 = make_Dc(p, c, max_order)
    G2 = make_B2(p, k, max_order)
    d = G2.named_elements["t"]
    s = G2.named_elements["s"]
    for _ in range(k - 1):
        d = commutator(G2, d, s)
    if d == G2.identity:
        raise BadParameters("weight-k commutator is trivial; quotient would be degenerate")
    P = direct_product([G1, G2])
    z = G1.power(G1.named_elements["x"], p ** (c - 1)) + d
    if is_pth_power(P, z):
        raise PthPowerViolation("diagonal element is a p-th power")
    Q = central_quotient(P, z)
    Q.description = f"second_example({p},{k},{c})"
    return Q


def _check_partb_params(p, cs, c):
    check_prime(p)
    cs = list(cs)
    if not cs or any(cs[i] >= cs[i + 1] for i in range(len(cs) - 1)):
        raise BadParameters("cs must be a nonempty, strictly increasing list")
    if cs[0] < p or cs[-1] > c:
        raise BadParameters("need p <= c_1 < ... < c_n <= c")
    return cs


def make_partb_decomposable(p, cs, c, max_order: int = DEFAULT_MAX_ORDER):
    """Product of maximal-class groups with one metacyclic factor.

    The metacyclic factor of class c is dropped when c equals the largest
    maximal-class parameter, where it would be redundant for the spectrum.
    """
    cs = _check_partb_params(p, cs, c)
    factors = [make_Mc(p, ci, max_order) for ci in cs]
    if c != cs[-1]:
        factors.append(make_Dc(p, c, max_order))
    if len(factors) == 1:
        return factors[0]
    return direct_product(factors, description=f"partb_dec({p},{cs},{c})")


def make_partb_indecomposable(p, cs, c, max_order: int = DEFAULT_MAX_ORDER):
    """Index-p^n subgroup of the decomposable product that is indecomposable.

    Generated by the diagonal element a = (a_1, ..., a_n, y) together with
    the embedded nonabelian maximal subgroups X_i = <x_i, gamma_2(M_i)>
    (with x_i = a_i * s_1) and the embedded maximal subgroup <x, y^p> of
    the metacyclic factor.  When n = 1 and c_1 = c = p the construction
    degenerates and the maximal-class group itself is returned.

    The subgroup is the common kernel of the n maps onto C_p
    (m_1, ..., m_n, d) -> phi_i(m_i) + psi(d).  Here phi_i(t, v) = lambda(v) - t
    has kernel X_i, where lambda sends the ring element v to its image under
    w -> 1 (the sum of its coefficients mod p), and psi reads the top
    coordinate of d mod p, with kernel <x, y^p>.  Each generator is in every
    kernel, and the index is p^n.
    """
    cs = _check_partb_params(p, cs, c)
    if c < 3:
        raise BadParameters("need c >= 3")
    if len(cs) == 1 and cs[0] == c == p:
        return make_Mc(p, p, max_order)
    n = len(cs)
    factors = [make_Mc(p, ci, max_order) for ci in cs] + [make_Dc(p, c, max_order)]
    H = direct_product(factors, description=f"partb_dec({p},{cs},{c})")

    a = H.identity
    for i in range(n):
        a = H.multiply(a, H.named_elements[f"f{i}.a"])
    a = H.multiply(a, H.named_elements[f"f{n}.y"])

    gens = [("a", a)]
    for i, ci in enumerate(cs):
        M = factors[i]
        xi = M.multiply(M.named_elements["a"], M.named_elements["s1"])
        gens.append((f"x{i + 1}", H.embed(i, xi)))
        for j in range(2, ci + 1):
            gens.append((f"t{i + 1}_{j}", H.embed(i, M.named_elements[f"s{j}"])))
    D = factors[n]
    gens.append(("x", H.embed(n, D.named_elements["x"])))
    gens.append(("yp", H.embed(n, D.power(D.named_elements["y"], p))))

    td = H.embed(n, D.named_elements["y"])  # psi: 1 at Dc's top coordinate
    congruences = []
    for i, M in enumerate(factors[:n]):
        inv = M.bottom_invariants
        units = [[int(j == l) for l in range(inv.rank)] for j in range(inv.rank)]
        phi = (-1, *(sum(inv.from_canonical(u)) % p for u in units))
        congruences.append(tuple(x + y for x, y in zip(H.embed(i, phi), td)))
    return SubgroupGroup(H, congruences, gens, description=f"partb_indec({p},{cs},{c})")


# description parsing


@dataclass(frozen=True)
class GroupDescription:
    """Validated recipe tree: a family leaf or a product/quotient node."""

    kind: str
    params: dict = field(default_factory=dict)
    factors: tuple = ()
    inner: "GroupDescription | None" = None
    word: str = ""


# each family's parameters, in order, and its constructor, called with them
# by name and with max_order
_FAMILIES = {
    "Mc": (("p", "c"), make_Mc),
    "Dc": (("p", "c"), make_Dc),
    "homocyclic": (("p", "k", "e", "s"), make_homocyclic),
    "B2": (("p", "k"), make_B2),
    "second_example": (("p", "k", "c"), make_second_example),
    "cyclic": (("p", "e"), make_cyclic),
}

_TERM_RE = re.compile(r"((?:f\d+\.)*[a-z][a-zA-Z0-9_]*)(?:\^(-?\d+))?\Z")

_MAX_DEPTH = 100  # deeper descriptions are refused: each level recurses in the build


def parse_description(obj) -> GroupDescription:
    return _parse(obj, 1)


def _parse(obj, depth: int) -> GroupDescription:
    """The description ``obj`` at nesting level ``depth`` (1 at the top)."""
    if isinstance(obj, GroupDescription):
        return obj
    if depth > _MAX_DEPTH:
        raise ParseError(f"description is nested more than {_MAX_DEPTH} levels deep")
    if not isinstance(obj, dict):
        raise ParseError(f"description must be an object, got {type(obj).__name__}")
    if "family" in obj:
        fam = obj["family"]
        if fam == "partb":
            for key in ("p", "cs", "c"):
                if key not in obj:
                    raise ParseError(f"partb is missing parameter {key!r}")
            cs = obj["cs"]
            if not isinstance(cs, list) or not all(isinstance(x, int) and not isinstance(x, bool) for x in cs):
                raise ParseError("partb parameter 'cs' must be a list of integers")
            indecomposable = obj.get("indecomposable", False)
            if not isinstance(indecomposable, bool):
                raise ParseError("partb parameter 'indecomposable' must be true or false")
            params = {
                "p": _int_param(obj, "p"),
                "cs": tuple(cs),
                "c": _int_param(obj, "c"),
                "indecomposable": indecomposable,
            }
            return GroupDescription("partb", params)
        if fam not in _FAMILIES:
            raise ParseError(f"unknown family {fam!r}")
        params = {key: _int_param(obj, key) for key in _FAMILIES[fam][0]}
        return GroupDescription(fam, params)
    if obj.get("op") == "product":
        factors = obj.get("factors")
        if not isinstance(factors, list) or not factors:
            raise ParseError("product requires a nonempty 'factors' list")
        return GroupDescription("product", factors=tuple(_parse(f, depth + 1) for f in factors))
    if obj.get("op") == "central_quotient":
        if "group" not in obj or "word" not in obj:
            raise ParseError("central_quotient requires 'group' and 'word'")
        word = obj["word"]
        if not isinstance(word, str):
            raise ParseError("'word' must be a string")
        return GroupDescription(
            "central_quotient", inner=_parse(obj["group"], depth + 1), word=word
        )
    raise ParseError("description must have a 'family' or a recognized 'op'")


def _int_param(obj, key):
    if key not in obj:
        raise ParseError(f"missing parameter {key!r}")
    v = obj[key]
    if not isinstance(v, int) or isinstance(v, bool):
        raise ParseError(f"parameter {key!r} must be an integer")
    return v


def evaluate_word(G: FiniteGroup, word: str):
    """Evaluate a generator word like "f0.x^3*f1.d" in G's named elements."""
    if not word or any(ch.isspace() for ch in word):
        raise ParseError("words must be nonempty and contain no whitespace")
    out = G.identity
    for term in word.split("*"):
        m = _TERM_RE.match(term)
        if not m:
            raise ParseError(f"bad term {term!r}")
        name, exp = m.group(1), m.group(2)
        if name not in G.named_elements:
            raise ParseError(f"unknown generator {name!r}")
        g = G.named_elements[name]
        if exp is not None:
            try:
                n = int(exp)
            except ValueError:  # more digits than int() accepts
                raise ParseError(f"exponent of {name!r} has too many digits")
            g = G.power(g, n)
        out = G.multiply(out, g)
    return out


def build_from_description(desc, max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    """Construct the group a description denotes; see parse_description."""
    d = parse_description(desc)
    if d.kind in _FAMILIES:
        return _FAMILIES[d.kind][1](**d.params, max_order=max_order)
    if d.kind == "partb":
        maker = (
            make_partb_indecomposable
            if d.params["indecomposable"]
            else make_partb_decomposable
        )
        return maker(d.params["p"], list(d.params["cs"]), d.params["c"], max_order)
    if d.kind == "product":
        return direct_product([build_from_description(f, max_order) for f in d.factors])
    if d.kind == "central_quotient":
        G = build_from_description(d.inner, max_order)
        return central_quotient(G, evaluate_word(G, d.word))
    raise ParseError(f"unhandled description kind {d.kind!r}")

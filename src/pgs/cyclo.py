"""Truncated cyclotomic integer arithmetic.

Adjoining a primitive p-th root of unity w to the p-adic integers gives a
discrete valuation ring whose maximal ideal is generated by w - 1, with
(w - 1)^(p-1) equal to p times a unit.  This module realizes that ring with
polynomial coefficients taken mod p^N, which is exact as long as every
computation stays inside the ideal power I^c being modelled; N is sized
with one unit of headroom above the exponent of the quotient by I^c.
"""

from __future__ import annotations

from .errors import BadParameters, InternalInconsistency
from .groups import DEFAULT_MAX_ORDER, _check_order
from .linalg import AbelianInvariants, check_prime, echelonize, quotient_structure


class RingElem:
    """Element of a CycloRing, as coefficients on 1, w, ..., w^(p-2)."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: "CycloRing", coeffs) -> None:
        mod = ring.modulus
        self.ring = ring
        self.coeffs = tuple(int(x) % mod for x in coeffs)
        if len(self.coeffs) != ring.rank:
            raise BadParameters("coefficient vector has wrong length")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RingElem)
            and other.ring is self.ring
            and other.coeffs == self.coeffs
        )

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"RingElem{self.coeffs}"


class CycloRing:
    """Z[w]/(Phi_p(w), p^N) with the echelon basis ``ideal_basis`` of the
    ideal power I^c, I = (w - 1)."""

    def __init__(self, p: int, c: int, max_order: int = DEFAULT_MAX_ORDER) -> None:
        _check_order(p, c, max_order, f"ring({p})/I^{c}")
        check_prime(p)
        if c < 1:
            raise BadParameters("c must be >= 1")
        self.p = p
        self.c = c
        self.rank = p - 1
        self.N = -(-c // (p - 1)) + 1
        self.modulus = p**self.N

        mod = self.modulus
        rank = self.rank
        # w^m for m = 0 .. 2*rank - 2, enough to fold any product
        pows = [tuple(1 if j == 0 else 0 for j in range(rank))]
        for _ in range(2 * rank - 2):
            pows.append(self.times_omega(pows[-1]))
        self._omega_pows = pows

        self.one = RingElem(self, pows[0])
        self.omega = RingElem(self, pows[1] if rank > 1 else pows[0])
        if rank == 1:
            # Phi_2 = x + 1, so w = -1
            self.omega = RingElem(self, (mod - 1,))
        self.omega_minus_one = self.sub(self.omega, self.one)

        gen = self.power(self.omega_minus_one, c)
        vectors = [self.mul(gen, RingElem(self, w)).coeffs for w in pows[:rank]]
        self.ideal_basis = echelonize(p, self.N, vectors, width=rank)
        self._validate()

    def _validate(self) -> None:
        w = self.one
        for _ in range(self.p):
            w = self.mul(w, self.omega)
        if w != self.one:
            raise InternalInconsistency("omega^p != 1")
        if self.ideal_basis.span_size * self.p**self.c != self.modulus**self.rank:
            raise InternalInconsistency(f"|R/I^{self.c}| != p^{self.c}")

    # element arithmetic

    def times_omega(self, coeffs) -> tuple:
        """Coefficients of w * x: shift up, and fold the old top coefficient
        back with w^(p-1) = -(1 + w + ... + w^(p-2)) mod Phi_p."""
        mod = self.modulus
        top = coeffs[-1]
        return ((-top) % mod,) + tuple((x - top) % mod for x in coeffs[:-1])

    def add(self, a: RingElem, b: RingElem) -> RingElem:
        mod = self.modulus
        return RingElem(self, tuple((x + y) % mod for x, y in zip(a.coeffs, b.coeffs)))

    def sub(self, a: RingElem, b: RingElem) -> RingElem:
        mod = self.modulus
        return RingElem(self, tuple((x - y) % mod for x, y in zip(a.coeffs, b.coeffs)))

    def scalar(self, k: int, a: RingElem) -> RingElem:
        mod = self.modulus
        return RingElem(self, tuple((k * x) % mod for x in a.coeffs))

    def mul(self, a: RingElem, b: RingElem) -> RingElem:
        mod = self.modulus
        rank = self.rank
        conv = [0] * (2 * rank - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        conv[i + j] += x * y
        out = [0] * rank
        pows = self._omega_pows
        for m, coef in enumerate(conv):
            if coef:
                row = pows[m]
                for j in range(rank):
                    out[j] += coef * row[j]
        return RingElem(self, tuple(x % mod for x in out))

    def power(self, a: RingElem, n: int) -> RingElem:
        out = self.one
        for _ in range(n):
            out = self.mul(out, a)
        return out

    def element(self, coeffs) -> RingElem:
        return RingElem(self, coeffs)

    def s_element(self, n: int) -> RingElem:
        """(w - 1)^(n - 1): the n-th term of the descending unit chain."""
        if n < 1:
            raise BadParameters("s-index starts at 1")
        return self.power(self.omega_minus_one, n - 1)

    def __repr__(self) -> str:
        return f"CycloRing(p={self.p}, c={self.c}, N={self.N})"


def ring_make(p: int, c: int, max_order: int = DEFAULT_MAX_ORDER) -> CycloRing:
    """Build the truncated ring with the echelon basis of I^c."""
    return CycloRing(p, c, max_order=max_order)


def eq_powers_witness(R: CycloRing) -> RingElem:
    """The unit z with (w - 1)^(p-1) = p * z, exact in coefficients mod p^N.

    Every coefficient of (w - 1)^(p-1) is divisible by p exactly once, so z
    is recovered by integer division; z is determined mod p^(N-1) and the
    divided representative is returned.
    """
    u = R.power(R.omega_minus_one, R.p - 1)
    if any(x % R.p for x in u.coeffs):
        raise InternalInconsistency("(w-1)^(p-1) is not divisible by p")
    z = RingElem(R, tuple(x // R.p for x in u.coeffs))
    if all(x % R.p == 0 for x in z.coeffs):
        raise InternalInconsistency("witness is not a unit")
    if R.scalar(R.p, z) != u:
        raise InternalInconsistency("p * z != (w-1)^(p-1)")
    return z


def mc_bottom(R: CycloRing) -> tuple[AbelianInvariants, tuple]:
    """Additive structure of ring/I^c with the multiplication-by-w action.

    Returns the invariant factors of the quotient together with the rows of
    the w-action written in invariant coordinates (row convention; each
    coordinate is reduced mod its own invariant factor).
    """
    inv = quotient_structure(R.ideal_basis, R.rank)
    if inv.order != R.p**R.c:
        raise InternalInconsistency("quotient order is not p^c")
    rows = []
    for i in range(inv.rank):
        unit = [0] * inv.rank
        unit[i] = 1
        rows.append(inv.to_canonical(R.times_omega(inv.from_canonical(unit))))
    return inv, tuple(rows)

"""Exact linear algebra over the chain ring Z/p^N.

Submodules of (Z/p^N)^n are kept in a canonical echelon form: pivot entries
are pure powers of p at strictly increasing columns, entries above a pivot
are reduced modulo that pivot, and every pivot row is completed with its
p-power multiples, so the order of the span is read off the pivots.  Two
generating sets spanning the same submodule produce identical bases, so
basis equality doubles as submodule equality.

Quotients (Z/p^N)^n / span(B) are diagonalized by valuation-pivoted
elimination, which yields the abelian invariants together with the change
of coordinates in both directions.
"""

from __future__ import annotations

from .errors import BadParameters, ExponentTooSmall


def valuation(x: int, p: int) -> int:
    """Largest v with p^v dividing x; x must be nonzero."""
    if x == 0:
        raise ValueError("valuation of zero is infinite")
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def check_prime(p: int) -> None:
    """Raise BadParameters unless p is prime (trial division)."""
    if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
        raise BadParameters(f"p = {p} is not prime")


class EchelonBasis:
    """Canonical echelon basis of a submodule of (Z/p^N)^width.

    ``rows`` are the basis vectors sorted by pivot column; ``pivots`` holds
    the matching (column, valuation) pairs.  The form is unique per
    submodule, so ``==`` decides submodule equality.
    """

    __slots__ = ("p", "N", "width", "rows", "pivots")

    def __init__(self, p: int, N: int, width: int, rows, pivots) -> None:
        self.p = p
        self.N = N
        self.width = width
        self.rows = rows
        self.pivots = pivots

    @property
    def span_size(self) -> int:
        size = 1
        for _, v in self.pivots:
            size *= self.p ** (self.N - v)
        return size

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EchelonBasis)
            and (self.p, self.N, self.width, self.rows) == (other.p, other.N, other.width, other.rows)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.N, self.width, self.rows))

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"EchelonBasis(p={self.p}, N={self.N}, rows={list(map(list, self.rows))})"


def echelonize(p: int, N: int, vectors, width: int | None = None) -> EchelonBasis:
    """Canonical basis of the Z/p^N-span of ``vectors``.

    Insertion-based reduction: each vector is folded against existing
    pivots by exact division; a vector with smaller valuation at a pivot
    column replaces that pivot and the old row is re-queued.  Whenever a
    pivot p^v with v > 0 is installed, its annihilator multiple
    p^(N-v) * row re-enters the queue so that the span is fully captured.
    The result is order-insensitive and idempotent.
    """
    check_prime(p)
    if N < 1:
        raise BadParameters("N must be >= 1")
    mod = p**N
    queue = []
    for v in vectors:
        t = [int(x) % mod for x in v]
        if width is None:
            width = len(t)
        elif len(t) != width:
            raise BadParameters("vectors of mixed lengths")
        queue.append(t)
    if width is None:
        width = 0
    pivots: dict[int, tuple[int, list[int]]] = {}

    while queue:
        vec = queue.pop()
        j = 0
        while j < width:
            a = vec[j]
            if a == 0:
                j += 1
                continue
            va = valuation(a, p)
            if j in pivots:
                vp, row = pivots[j]
                if va >= vp:
                    q = a // (p**vp)
                    for col in range(j, width):
                        vec[col] = (vec[col] - q * row[col]) % mod
                    j += 1
                    continue
                # strictly smaller valuation: vec becomes the pivot
                unit_inv = pow(a // (p**va), -1, mod)
                vec = [(x * unit_inv) % mod for x in vec]
                pivots[j] = (va, vec)
                queue.append(row)
            else:
                unit_inv = pow(a // (p**va), -1, mod)
                vec = [(x * unit_inv) % mod for x in vec]
                pivots[j] = (va, vec)
            if va > 0:
                ann = p ** (N - va)
                queue.append([(x * ann) % mod for x in vec])
            break

    cols = sorted(pivots)
    rows = [list(pivots[c][1]) for c in cols]
    # reduce entries above each pivot modulo the pivot
    for i, c in enumerate(cols):
        piv = p ** pivots[c][0]
        for k in range(i):
            q = rows[k][c] // piv
            if q:
                rows[k] = [(x - q * y) % mod for x, y in zip(rows[k], rows[i])]
    return EchelonBasis(
        p,
        N,
        width,
        tuple(tuple(r) for r in rows),
        tuple((c, pivots[c][0]) for c in cols),
    )


class AbelianInvariants:
    """Invariant factors of (Z/p^N)^n / span(B), with coordinate maps.

    ``exponents`` is the non-increasing tuple of invariant factors
    p^e1 >= ... >= p^er (trivial factors dropped).  ``to_canonical`` maps a
    user-coordinate vector to its class in invariant coordinates, and
    ``from_canonical`` picks a representative going back; the composition
    to_canonical(from_canonical(c)) is the identity.
    """

    __slots__ = ("p", "N", "ambient", "exponents", "_slots", "_V", "_Vinv")

    def __init__(self, p, N, ambient, exponents, slots, V, Vinv) -> None:
        self.p = p
        self.N = N
        self.ambient = ambient
        self.exponents = exponents
        self._slots = slots  # (position in diagonal coords, modulus) per invariant
        self._V = V
        self._Vinv = Vinv

    @property
    def order(self) -> int:
        n = 1
        for e in self.exponents:
            n *= e
        return n

    @property
    def rank(self) -> int:
        return len(self.exponents)

    def to_canonical(self, vec) -> tuple:
        mod = self.p**self.N
        if len(vec) != self.ambient:
            raise BadParameters("vector length does not match ambient rank")
        V = self._V
        y = [sum(vec[i] * V[i][j] for i in range(self.ambient)) % mod for j in range(self.ambient)]
        return tuple(y[pos] % m for pos, m in self._slots)

    def from_canonical(self, coords) -> tuple:
        if len(coords) != len(self._slots):
            raise BadParameters("coordinate length does not match rank")
        mod = self.p**self.N
        y = [0] * self.ambient
        for (pos, m), c in zip(self._slots, coords):
            y[pos] = int(c) % m
        Vinv = self._Vinv
        return tuple(
            sum(y[i] * Vinv[i][j] for i in range(self.ambient)) % mod for j in range(self.ambient)
        )

    def __repr__(self) -> str:
        return f"AbelianInvariants{self.exponents}"


def quotient_structure(basis: EchelonBasis, ambient: int) -> AbelianInvariants:
    """Invariant factors of (Z/p^N)^ambient / span(basis).

    Diagonalizes the relation rows by always pivoting on an entry of
    minimal p-valuation, which makes every remaining entry an exact
    multiple of the pivot; the resulting diagonal is the divisibility
    chain.  Column operations are accumulated into V and its inverse so
    the quotient coordinates can be translated in both directions.
    """
    p, N = basis.p, basis.N
    if basis.rows and basis.width != ambient:
        raise BadParameters("basis width does not match ambient rank")
    mod = p**N
    A = [list(r) for r in basis.rows]
    k = len(A)
    n = ambient
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    Vinv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    vals: list[int] = []

    for pos in range(min(k, n)):
        best = None
        for i in range(pos, k):
            for j in range(pos, n):
                a = A[i][j]
                if a:
                    va = valuation(a, p)
                    if best is None or va < best[0]:
                        best = (va, i, j)
        if best is None:
            break
        va, bi, bj = best
        if bi != pos:
            A[pos], A[bi] = A[bi], A[pos]
        if bj != pos:
            for row in A:
                row[pos], row[bj] = row[bj], row[pos]
            for row in V:
                row[pos], row[bj] = row[bj], row[pos]
            Vinv[pos], Vinv[bj] = Vinv[bj], Vinv[pos]
        pv = p**va
        unit_inv = pow(A[pos][pos] // pv, -1, mod)
        A[pos] = [(x * unit_inv) % mod for x in A[pos]]
        for i in range(k):
            if i != pos and A[i][pos]:
                q = A[i][pos] // pv
                A[i] = [(x - q * y) % mod for x, y in zip(A[i], A[pos])]
        for j in range(pos + 1, n):
            if A[pos][j]:
                q = A[pos][j] // pv
                for row in A:
                    row[j] = (row[j] - q * row[pos]) % mod
                for row in V:
                    row[j] = (row[j] - q * row[pos]) % mod
                Vinv[pos] = [(x + q * y) % mod for x, y in zip(Vinv[pos], Vinv[j])]
        vals.append(va)

    # diagonal entry p^v contributes Z/p^v; columns without a pivot are free
    # summands Z/p^N
    full = vals + [N] * (n - len(vals))
    slots = sorted(
        ((pos, p**v) for pos, v in enumerate(full) if v > 0),
        key=lambda s: (-s[1], s[0]),
    )
    exponents = tuple(m for _, m in slots)
    if any(m > mod for m in exponents):
        raise ExponentTooSmall("quotient exponent exceeds p^N")
    return AbelianInvariants(
        p,
        N,
        n,
        exponents,
        tuple(slots),
        tuple(tuple(r) for r in V),
        tuple(tuple(r) for r in Vinv),
    )

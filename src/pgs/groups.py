"""Generic finite-group engine.

Group elements are flat tuples of small nonnegative integers; each concrete
family fixes per-coordinate moduli, and canonical order is tuple order.  All
derived groups (products, quotients, enumerated subgroups) reuse the parent
coordinates, which keeps canonical coset representatives and witness
selection deterministic across runs.

Each group class is built one way, and knows its order before its
``_carrier`` builds it, with no multiply: by default the coordinate box cut
by the group's ``congruences`` (rows mod p), which is a native family's
(``SemidirectGroup``, ``LieBCHGroup``: no rows, every tuple below its
moduli) and a ``SubgroupGroup``'s (a subgroup of a box group, cut out by
its construction's congruences); a direct product's is the Cartesian
product of its factors' carriers, and a quotient's the coset minima its
scan found.  The identity is the zero tuple, so it is the least element of
every carrier, at position 0.

Everything here is exhaustive and exact.  A direct product's order-p
elements and p-th powers are read from its factors, with no multiply in the
product, because they are the definition of the product; its center, upper
central series and quotients are computed on the product itself, never from
its factors, so the product law Z_i(G x H) = Z_i(G) x Z_i(H) stays something
the toolkit checks.  Each group caches its carrier, center, ucs layer
labelling and terms, order-p elements and p-th powers, and Omega_1, so every
analysis of one group object shares them.  Each group also carries the
enumeration bound it was built with, ``max_order``: a quotient or subgroup
takes its parent's, a product the smallest of its factors'.

Products and all quotients scan on indices, native groups and
``SubgroupGroup``s on tuples (``_arithmetic`` makes that choice).  An
enumerated product multiplies through its factors' index tables
(``_Table``), a quotient through its parent's scan arithmetic.  The scans
decode through the carrier, so the caches hold the carrier's own tuples.
Index order is tuple order, so coset minima and witnesses do not depend on
the path.  The order-p walk marks carrier positions one byte each, and
``_coset_scan`` numbers the center's cosets, which G/Z(G) takes over, in an
array over them: the position is the index, or on tuples ``_position``, a
few list reads.  A carrier keeps its sorted tuple and builds its frozenset
only when membership is first asked, and only a product's factors hold
full product arrays.
"""

from __future__ import annotations

import operator
from array import array
from collections import deque
from functools import partial, reduce
from itertools import chain, compress, islice, product
from math import gcd, prod

from .errors import (
    BadParameters,
    InternalInconsistency,
    NotInGroup,
    NotNormal,
    ResourceLimit,
)
from .linalg import echelonize, valuation

DEFAULT_MAX_ORDER = 2_000_000
DEFAULT_DECOMPOSE_BOUND = 20_000

# factor tables up to this order hold the n^2 product indices, filled
# lazily (2 bytes an entry); no other table holds them
_TABLE_BOUND = 1500


def _check_order(p: int, exponent: int, max_order: int, what: str) -> None:
    """Refuse a group of order at least p^exponent above the bound, without
    computing p^exponent in full; run before any primality test or table."""
    order = 1
    for _ in range(exponent if p >= 2 else 0):
        order *= p
        if order > max_order:
            raise ResourceLimit(f"{what} has more than {max_order} elements")


class FiniteGroup:
    """Base interface every concrete group family implements.

    Subclasses provide ``multiply``/``invert`` on element tuples plus the
    metadata attributes set in ``_init_group``.  Instances are immutable
    after construction; the per-group caches are write-once.
    """

    congruences = ()  # rows mod p that cut the carrier out of the coordinate box

    def _init_group(
        self, prime, moduli, generators, named=None, *, known_order, description="",
        max_order=DEFAULT_MAX_ORDER,
    ):
        self.prime = prime
        self.coordinate_moduli = tuple(moduli)
        self.identity = (0,) * len(self.coordinate_moduli)  # the least tuple of the carrier
        self.generators = tuple((name, tuple(g)) for name, g in generators)
        names = {}
        for name, g in self.generators:
            if name in names:
                raise BadParameters(f"duplicate generator name {name!r}")
            names[name] = tuple(g)
        if named:
            for name, g in named.items():
                names.setdefault(name, tuple(g))
        self.named_elements = names
        self.known_order = known_order
        self.max_order = max_order
        self.description = description
        self._enumeration = None
        self._center = None
        self._cosets = None  # the center's coset numbering, until G/Z(G) takes it
        self._layers = None
        self._ucs = None
        self._order_p = None
        self._pth_powers = None
        self._omega1 = None
        self._table = None
        self._coder = None

    def multiply(self, a, b):
        raise NotImplementedError

    def invert(self, a):
        raise NotImplementedError

    def _carrier(self) -> EnumeratedSubgroup:
        """The carrier ``enumerate_group`` builds and caches; by default the
        coordinate box cut by ``congruences``, with no multiply: every tuple
        below the moduli on which each row vanishes mod p, in canonical order.

        The rows are echeloned from the last coordinate, so each ends with a
        1 at its own coordinate, which runs over the one residue class mod p
        that the coordinates before it fix; any other coordinate runs over
        its whole range.  The coordinates after the last such one are the
        ``itertools.product`` of their ranges (product order is tuple order),
        so with no rows (a native family) the carrier is the whole box, as
        one product.  That the generators generate it is not checked here;
        the tests compare it with their closure."""
        p, moduli = self.prime, self.coordinate_moduli
        cuts = _cuts(self)
        free = max(cuts, default=-1) + 1
        prefixes = [()]
        for k in range(free):
            if k in cuts:  # the residue class mod p that the prefix fixes
                row = cuts[k]
                prefixes = [a + (x,) for a in prefixes for x in range(-sum(map(operator.mul, row, a)) % p, moduli[k], p)]
            else:
                prefixes = [a + (x,) for a in prefixes for x in range(moduli[k])]
        # the free coordinates go straight into the tuple, with no list of the whole box
        return _canonical(tuple(a + b for a in prefixes for b in product(*map(range, moduli[free:]))))

    def power(self, g, n: int):
        if n < 0:
            g = self.invert(g)
            n = -n
        out = self.identity
        base = g
        mult = self.multiply
        while n:
            if n & 1:
                out = mult(out, base)
            base = mult(base, base)
            n >>= 1
        return out

    def conjugate(self, g, h):
        """h^-1 g h."""
        mult = self.multiply
        return mult(mult(self.invert(h), g), h)

    def __repr__(self) -> str:
        return self.description or type(self).__name__


def _cuts(G: FiniteGroup) -> dict:
    """G's ``congruences`` echeloned from the last coordinate: each row's own
    coordinate -> its coefficients on the coordinates before it."""
    last = len(G.coordinate_moduli) - 1
    basis = echelonize(G.prime, 1, [row[::-1] for row in G.congruences])
    return {last - col: row[:col:-1] for (col, _), row in zip(basis.pivots, basis.rows)}


def _position(G: FiniteGroup):
    """The map from an element of a tuple-path group to its position in G's
    canonical carrier (cached on G).  For the default ``_carrier`` it is the
    mixed-radix code of the coordinate box, with no dict: a coordinate cut
    by a congruence runs over one residue class mod p, so it is read as
    x // p, over m // p values.  Each coordinate's terms are one short
    list, so the code is a sum of lookups, written out by ``_coder``.  A
    group that builds its carrier otherwise numbers it with one dict.  The
    map closes over plain data, not over G.

    It trusts its input: a tuple outside the carrier gets some other
    element's position, or raises.  An entry that codes a caller's tuple
    checks that the carrier holds it at that position (``_coset_number``).
    """
    if G._coder is None:
        if type(G)._carrier is not FiniteGroup._carrier:
            G._coder = {g: i for i, g in enumerate(enumerate_group(G).elements)}.__getitem__
        else:
            p, cuts, moduli = G.prime, _cuts(G), G.coordinate_moduli
            weight, terms = 1, []
            for k in reversed(range(len(moduli))):
                terms.append([(x // p if k in cuts else x) * weight for x in range(moduli[k])])
                weight *= moduli[k] // p if k in cuts else moduli[k]
            G._coder = _coder(terms[::-1])
    return G._coder


def _coder(terms):
    """g -> the sum of terms[k][g[k]] over g's coordinates k, unpacked and
    added in one frame for the coordinate counts the families use (2 to 8),
    else ``sum`` over ``map``, at about four times the cost.  Plain code:
    nothing is compiled at run time."""
    n = len(terms)
    if n == 2:
        t0, t1 = terms

        def at(g):
            a, b = g
            return t0[a] + t1[b]
    elif n == 3:
        t0, t1, t2 = terms

        def at(g):
            a, b, c = g
            return t0[a] + t1[b] + t2[c]
    elif n == 4:
        t0, t1, t2, t3 = terms

        def at(g):
            a, b, c, d = g
            return t0[a] + t1[b] + t2[c] + t3[d]
    elif n == 5:
        t0, t1, t2, t3, t4 = terms

        def at(g):
            a, b, c, d, e = g
            return t0[a] + t1[b] + t2[c] + t3[d] + t4[e]
    elif n == 6:
        t0, t1, t2, t3, t4, t5 = terms

        def at(g):
            a, b, c, d, e, f = g
            return t0[a] + t1[b] + t2[c] + t3[d] + t4[e] + t5[f]
    elif n == 7:
        t0, t1, t2, t3, t4, t5, t6 = terms

        def at(g):
            a, b, c, d, e, f, h = g
            return t0[a] + t1[b] + t2[c] + t3[d] + t4[e] + t5[f] + t6[h]
    elif n == 8:
        t0, t1, t2, t3, t4, t5, t6, t7 = terms

        def at(g):
            a, b, c, d, e, f, h, k = g
            return t0[a] + t1[b] + t2[c] + t3[d] + t4[e] + t5[f] + t6[h] + t7[k]
    else:
        def at(g):
            return sum(map(operator.getitem, terms, g))
    return at


class EnumeratedSubgroup:
    """Explicit carrier of a subgroup, with O(1) membership.

    Iteration is in canonical (tuple-lexicographic) order.  One given in
    that order (``_canonical``) keeps only its tuple until the first
    ``as_set``, ``in``, ``==`` or ``hash`` builds its frozenset; one given
    as a collection keeps its frozenset and sorts it on first ``elements``.
    """

    __slots__ = ("_set", "_sorted")

    def __init__(self, elements) -> None:
        self._set = frozenset(elements)
        self._sorted = None

    @property
    def elements(self) -> tuple:
        if self._sorted is None:
            self._sorted = tuple(sorted(self._set))
        return self._sorted

    @property
    def as_set(self) -> frozenset:
        if self._set is None:
            self._set = frozenset(self._sorted)
        return self._set

    def __contains__(self, g) -> bool:
        s = self._set
        return g in (self.as_set if s is None else s)

    def __len__(self) -> int:
        return len(self._set if self._sorted is None else self._sorted)

    def __iter__(self):
        return iter(self.elements)

    def __eq__(self, other) -> bool:
        return isinstance(other, EnumeratedSubgroup) and self.as_set == other.as_set

    def __hash__(self) -> int:
        return hash(self.as_set)

    def __repr__(self) -> str:
        return f"EnumeratedSubgroup(order={len(self)})"


def _close(mult, identity, seeds, bound, conjugators=()) -> tuple:
    """Subgroup generated by ``seeds`` under ``mult`` (Dimino's closure),
    returned with the kept seeds, which generate it.

    A seed already in the subgroup so far costs one lookup; a kept seed
    multiplies the old elements once, then each new element is multiplied
    by every kept seed.  In a p-group each kept seed at least multiplies the
    order by p.  ``conjugators`` holds pairs (h^-1, h): each kept seed's
    conjugates h^-1 s h are queued as further seeds, so every kept seed's
    conjugates lie in the result, and the result is the normal closure of
    the seeds under the h (with none, the plain closure).  Raises
    ResourceLimit once the set passes ``bound``.
    """
    elements = {identity}
    kept = []
    conjugates = []  # read after the seeds; a list iterator sees what is appended
    for s in chain(seeds, conjugates):
        if s in elements:
            continue
        kept.append(s)
        for hinv, h in conjugators:
            conjugates.append(mult(mult(hinv, s), h))
        batch, by = list(elements), (s,)
        while batch:
            new = []
            for x in batch:
                for g in by:
                    y = mult(x, g)
                    if y not in elements:
                        elements.add(y)
                        if len(elements) > bound:
                            raise ResourceLimit(f"closure exceeded {bound} elements")
                        new.append(y)
            batch, by = new, kept
    return elements, kept


class _Table:
    """Index table of an enumerated group: plain data, filled on demand.

    ``elements`` is the canonical carrier and ``index`` maps each element to
    its position.  ``products[i * n + j]`` is the index of
    elements[i] * elements[j] and ``inverses[i]`` that of elements[i]^-1,
    or -1 until first asked for; ``products`` is None until ``_index_table``
    gives the table to an enclosing product, and stays None above
    ``_TABLE_BOUND`` elements.  The table holds no reference to its group,
    so caching it on the group makes no reference cycle.
    """

    __slots__ = ("elements", "index", "products", "inverses")

    def __init__(self, elements) -> None:
        n = len(elements)
        self.elements = elements
        self.index = {g: i for i, g in enumerate(elements)}
        self.products = None
        self.inverses = array("l", [-1]) * n

    def product(self, G, i: int, j: int) -> int:
        """Index of elements[i] * elements[j]; G.multiply on a miss."""
        prods = self.products
        if prods is None:
            return self.index[G.multiply(self.elements[i], self.elements[j])]
        k = i * len(self.elements) + j
        r = prods[k]
        if r < 0:
            r = prods[k] = self.index[G.multiply(self.elements[i], self.elements[j])]
        return r

    def inverse(self, G, i: int) -> int:
        """Index of elements[i]^-1; G.invert on a miss."""
        r = self.inverses[i]
        if r < 0:
            r = self.inverses[i] = self.index[G.invert(self.elements[i])]
        return r


def _index_table(G: FiniteGroup) -> _Table:
    """G's index table as a factor of an enclosing product, cached on G;
    enumerates G first.  Up to ``_TABLE_BOUND`` elements it holds the n^2
    ``products`` array, allocated here and filled on use: only an enclosing
    product's ``_index_product`` reads it."""
    elements = enumerate_group(G).elements  # a product gets its table here
    if G._table is None:
        G._table = _Table(elements)
    t = G._table
    n = len(elements)
    if t.products is None and n <= _TABLE_BOUND:
        t.products = array("h", [-1]) * (n * n)
    return t


def subgroup_closure(G: FiniteGroup, elements) -> EnumeratedSubgroup:
    """Smallest subgroup of G containing ``elements``, by ``_close``.

    The cost grows with the subgroup, not with the number of elements given;
    ResourceLimit once the closure passes ``G.max_order``.
    """
    seeds = (tuple(g) for g in elements)
    return EnumeratedSubgroup(_close(G.multiply, G.identity, seeds, G.max_order)[0])


def _concatenations(parts) -> list:
    """Concatenated tuples, one piece from each part, in itertools.product
    order: canonical tuple order when every part is sorted."""
    out = [()]
    for part in parts:
        out = [a + b for a in out for b in part]
    return out


def enumerate_group(G: FiniteGroup) -> EnumeratedSubgroup:
    """Full carrier of G, cached on the group: ``G._carrier()``.

    A native family's or a ``SubgroupGroup``'s carrier is its coordinate box
    cut by its congruences, a direct product's the Cartesian product of its
    factors' carriers and a quotient's the coset minima its scan found, none
    of them by a further multiply; each starts with the identity.  Every
    group knows its order, so one above ``G.max_order`` raises ResourceLimit
    before anything is enumerated, and a carrier of any other size raises
    InternalInconsistency.
    """
    if G._enumeration is None:
        if G.known_order > G.max_order:
            raise ResourceLimit(f"{G!r} has more than {G.max_order} elements")
        E = G._carrier()
        if len(E) != G.known_order:
            raise InternalInconsistency(
                f"{G!r}: enumerated {len(E)} elements, expected {G.known_order}"
            )
        G._enumeration = E
    return G._enumeration


def _canonical(elements: tuple) -> EnumeratedSubgroup:
    """The EnumeratedSubgroup of ``elements``, given in canonical order."""
    E = EnumeratedSubgroup.__new__(EnumeratedSubgroup)
    E._set, E._sorted = None, elements  # the frozenset is built on first use
    return E


def element_order(G: FiniteGroup, g) -> int:
    n = 1
    x = g
    mult = G.multiply
    identity = G.identity
    while x != identity:
        x = mult(x, g)
        n += 1
    return n


def commutator(G: FiniteGroup, x, y):
    """x^-1 y^-1 x y."""
    mult = G.multiply
    return mult(mult(G.invert(x), G.invert(y)), mult(x, y))


def _coset_scan(mult, carrier, kernel, rows=None, at=None, gens=None) -> tuple:
    """Number the cosets gK of a subgroup K in ``down``, an ``array("i")``
    over the canonical ``carrier``'s positions, in order of their
    ``minima``, in one ascending scan; returns ``(K, down, minima)``.

    The next unnumbered g is a new minimum, and gK is ``row(g)``, else g
    and ``mult(g, k)`` for k != 1 (coded by ``at`` on tuples).  K starts as
    ``kernel``, identity first.  With ``gens``, a g that commutes with them
    joins K, and each coset so far is completed to a coset of K<g>: for its
    minimum h and each power t of g outside K, h·t lies in a numbered coset,
    which merges into this one, or its K-coset is numbered here.  So K ends
    as the center.  After a merge the numbers are ranked once.
    """
    K = list(kernel)
    down = array("i", [-1]) * len(carrier)
    minima, link = array("i", [0]), array("i", [0])
    row = rows and rows(K[1:])
    merged = False

    def number(g, c):  # gK -> coset c
        down[g if at is None else at(g)] = c
        if row:
            for y in row(g):
                down[y] = c
        elif at:
            for k in islice(K, 1, None):
                down[at(mult(g, k))] = c
        else:
            for k in islice(K, 1, None):
                down[mult(g, k)] = c

    number(carrier[0], 0)  # the identity's coset, K itself
    i = 0
    while True:
        try:
            i = down.index(-1, i + 1)
        except ValueError:
            break
        g = carrier[i]
        if gens is None or not all(mult(g, s) == mult(s, g) for s in gens):
            c = len(minima)
            link.append(c)
            minima.append(i)
            number(g, c)
            continue
        T = [g]
        x = mult(g, g)
        while down[x if at is None else at(x)]:  # not yet back in K, coset 0
            T.append(x)
            x = mult(x, g)
        hts = rows and rows(T)
        for c in range(1, len(minima)):
            if link[c] != c:
                continue
            h = carrier[minima[c]]
            for y in hts(h) if hts else [mult(h, t) for t in T]:
                d = down[y if at is None else at(y)]
                if d < 0:
                    number(y, c)
                    continue
                while link[d] != d:
                    d = link[d]
                if d != c:  # d > c: its coset would have taken this one
                    link[d] = c
                    merged = True
        new = []
        for t in T:
            new.append(t)
            new += row(t) if row else [mult(t, k) for k in islice(K, 1, None)]
        for y in new if at is None else map(at, new):
            down[y] = 0
        K += new
        row = rows and rows(K[1:])
    if merged:  # link[c] < c for a merged c, so its root is ranked first
        rank, roots = array("i", [0]) * len(link), array("i")
        for c, r in enumerate(link):
            if r == c:
                rank[c] = len(roots)
                roots.append(minima[c])
            else:
                rank[c] = rank[r]
        for a in range(0, len(down), 1024):  # in place, a slice at a time: no second full array
            down[a : a + 1024] = array("i", map(rank.__getitem__, down[a : a + 1024]))
        minima = roots
    return K, down, minima


def _same(g):
    return g


def _arithmetic(G: FiniteGroup) -> tuple:
    """How G's scans multiply, ``(mult, carrier, encode, decode, rows)``:
    the one place where indices or tuples are chosen.

    A direct product and every quotient multiply on indices: ``mult`` is
    G's ``_index_product``, the carrier range(|G|), ``encode`` maps an
    element to its index and ``decode`` maps a collection of indices to the
    carrier's own tuples.  Index order is tuple order, so a scan meets the
    elements in the same order either way.  Any other group (a native group
    or a ``SubgroupGroup``) multiplies its canonical carrier's tuples by
    ``G.multiply``, and both maps return what they are given (a set stays a
    set, which ``frozenset`` copies at its size).

    ``rows(js)`` gives ``row``, and ``row(i)`` iterates ``mult(i, j)`` for
    j in the index list ``js``, with no Python call per element: on a
    product or a quotient of one (``DirectProductGroup._rows``,
    ``_quotient_rows``).  Elsewhere, a quotient of a tuple-path group
    included, ``rows`` is None: a tuple multiply is a Python call per element,
    and the scan's own loop calls it faster than C ``map`` does.
    """
    E = enumerate_group(G)
    if isinstance(G, (DirectProductGroup, QuotientGroup)):
        decode = partial(map, E.elements.__getitem__)
        return G._index_product, range(len(E)), G._index, decode, G._rows
    return G.multiply, E.elements, _same, _same, None


def center(G: FiniteGroup) -> EnumeratedSubgroup:
    """Center, the centralizer of the generators, by ``_coset_scan`` on G's
    ``_arithmetic`` (cached), in carrier order; a product's on whole
    elements.  Unless Z = G, the scan's coset numbering stays on G
    (``_cosets``) until G/Z(G) takes it over.
    """
    if G._center is None:
        mult, carrier, encode, decode, rows = _arithmetic(G)
        at = None if isinstance(carrier, range) else _position(G)
        gens = [encode(g) for _, g in G.generators]
        Z, down, minima = _coset_scan(mult, carrier, [encode(G.identity)], rows, at, gens)
        found = map(carrier.__getitem__, sorted(Z if at is None else map(at, Z)))
        G._center = _canonical(tuple(decode(found)))
        if len(minima) > 1:
            G._cosets = (down, minima)
    return G._center


def _product_indices(G, parts) -> list:
    """Indices in the enumerated product G of the elements with one
    component from each part, in ascending order when every part is
    sorted: each component's index in its factor's table, in mixed radix."""
    out = [0]
    for (_, _, stride, t, _), part in zip(G._radix, parts):
        out = [i + stride * t.index[g] for i in out for g in part]
    return out


def order_p_elements(G: FiniteGroup) -> tuple:
    """Elements of order exactly p, in canonical order (cached).

    The same scan caches the set of p-th powers {g^p} that ``is_pth_power``
    reads.  In a direct product both are componentwise: the order-p elements
    are the non-identity tuples of factor elements of order dividing p, and
    the p-th powers are the tuples of the factors' p-th powers.  Both are
    read from the product's carrier at the index each tuple has there
    (``_product_indices``), so the caches hold the carrier's own tuples.

    Any other group is scanned one cyclic subgroup at a time, on indices
    wherever ``_arithmetic`` gives them: from the smallest element g not yet
    classified, the walk g, g^2, ... ends at the identity and gives
    n = ord(g).  That one walk classifies all of <g>: every g^j has p-th
    power g^(pj mod n), and {pj mod n} is the multiples of d = gcd(p, n),
    so the p-th powers are the walk at the multiples of d; when p divides n
    the order-p elements are the walk at the multiples of n/p.  A smaller
    cyclic subgroup inside <g> is never walked again, so in a p-group the
    walk makes at most about p/(p-1) multiplies per element, fewer where
    cyclic subgroups nest (Dc(3,5): 78,408 for 59,049 elements, where
    walking every cyclic subgroup made 88,088), not the p-1 of computing
    each g^p.  The classified elements, the p-th powers and the order-p
    elements are marked one byte per carrier position: the index, or
    ``_position`` of a tuple.
    """
    if G._order_p is None and isinstance(G, DirectProductGroup):
        elements = enumerate_group(G).elements  # the product's own bound and size check
        small = [sorted((f.identity, *order_p_elements(f))) for f in G.factors]
        G._order_p = tuple(elements[i] for i in _product_indices(G, small) if i)  # the identity is at 0
        G._pth_powers = frozenset(elements[i] for i in _product_indices(G, [f._pth_powers for f in G.factors]))
    elif G._order_p is None:
        p = G.prime
        mult, carrier, encode, _, _ = _arithmetic(G)
        at = None if isinstance(carrier, range) else _position(G)
        identity = encode(G.identity)
        done, powers, small = (bytearray(len(carrier)) for _ in range(3))
        done[0] = powers[0] = 1  # the identity, at position 0
        i = done.find(0)
        while i >= 0:
            g = carrier[i]
            walk = [identity, g]  # walk[j] = g^j
            x = mult(g, g)
            while x != identity:
                walk.append(x)
                x = mult(x, g)
            n = len(walk)
            pos = walk if at is None else [0, *map(at, walk[1:])]  # pos[j]: g^j's position
            d = gcd(p, n)
            for k in pos:
                done[k] = 1
            for k in pos[::d]:  # the p-th powers g^(pj mod n): the multiples of d
                powers[k] = 1
            if d == p:  # the g^j of order p: the multiples of n/p
                for k in pos[n // p :: n // p]:
                    small[k] = 1
            i = done.find(0, i + 1)
        elements = enumerate_group(G).elements  # the carrier's own tuples: a tuple walk's are equal copies
        G._order_p = tuple(compress(elements, small))
        G._pth_powers = frozenset(compress(elements, powers))
    return G._order_p


def _quotient_rows(parent_rows, up, down, js):
    """A quotient's ``rows``: its parent's rows of the coset minima, read
    down to coset numbers, so nested quotients compose with no call per
    element or level."""
    row = parent_rows([up[j] for j in js])
    at = down.__getitem__
    return lambda i: map(at, row(up[i]))


class QuotientGroup(FiniteGroup):
    """G/N with canonical coset representatives, for a subgroup N of G that
    is normal by construction (unchecked; ``quotient_group`` checks it): the
    center of G, as in the upper central series, or the span of a central
    element.

    ``_coset_scan`` numbers the cosets on G's ``_arithmetic``; by G's
    center, the quotient takes that scan's arrays over (``_cosets``).
    ``_down`` holds the numbers over G's carrier, ``_up`` the minima as G's
    scan sees them (indices, or tuples coded by ``_at``), ``_reps`` as G's
    tuples.  Cosets i, j multiply to ``_down`` at ``mult(_up[i], _up[j])``.
    ``_index`` reads the number of an element of G, checked, so
    ``multiply``, ``invert`` and ``project`` raise NotInGroup outside G.
    """

    def __init__(self, parent: FiniteGroup, kernel: EnumeratedSubgroup):
        E = enumerate_group(parent)
        mult, carrier, encode, decode, rows = _arithmetic(parent)
        at = None if isinstance(carrier, range) else _position(parent)
        if kernel.elements[0] != parent.identity:
            raise InternalInconsistency("kernel does not hold the identity")
        if kernel is parent._center and parent._cosets is not None:
            (down, minima), parent._cosets = parent._cosets, None
        else:
            _, down, minima = _coset_scan(mult, carrier, [encode(n) for n in kernel.elements], rows, at)
        if len(minima) * len(kernel) != len(E):
            raise InternalInconsistency("coset partition does not cover the group")
        # arrays over indices, so that no parent element nor coset holds an int object
        up = minima if at is None else tuple(map(carrier.__getitem__, minima))
        self.parent = parent
        self.kernel = kernel
        self._down = down
        self._up = up
        self._mult = mult
        self._at = at
        self._rows = rows and partial(_quotient_rows, rows, up, down)
        self._index = partial(_coset_number, at or encode, E.elements, down)
        self._reps = tuple(decode(up))
        self._init_group(
            parent.prime,
            parent.coordinate_moduli,
            [(name, self.project(g)) for name, g in parent.generators],
            named={name: self.project(g) for name, g in parent.named_elements.items()},
            known_order=len(minima),
            description=f"{parent!r}/N{len(kernel)}",
            max_order=parent.max_order,
        )

    def multiply(self, a, b):
        return self._reps[self._index_product(self._index(a), self._index(b))]

    def invert(self, a):
        self._index(a)  # NotInGroup outside the parent, whose invert would reduce it
        return self._reps[self._index(self.parent.invert(a))]

    def project(self, g):
        """Canonical representative of the coset of a parent element;
        NotInGroup for anything else."""
        return self._reps[self._index(g)]

    def _carrier(self) -> EnumeratedSubgroup:
        return _canonical(self._reps)

    def _index_product(self, i: int, j: int) -> int:
        up = self._up
        if self._at is None:
            return self._down[self._mult(up[i], up[j])]
        return self._down[self._at(self._mult(up[i], up[j]))]


def _coset_number(at, elements, down, g) -> int:
    """``down`` at g's position in the parent carrier ``elements``, with
    ``at`` the parent's ``_position`` or index map (``_carrier_position``)."""
    return down[_carrier_position(at, elements, g)]


def _carrier_position(at, elements, g) -> int:
    """g's position ``at(g)`` in the carrier ``elements``; NotInGroup unless
    the carrier holds g there.  A position coder maps some tuples outside
    the carrier to another element's position (a coordinate off a
    congruence, a negative or too large coordinate), so the check is what
    rejects them."""
    try:
        i = at(g)
        if elements[i] == g:
            return i
    except (LookupError, TypeError, ValueError):
        pass
    raise NotInGroup(f"{g!r} is not an element of the group")


def _element_position(G: FiniteGroup, g) -> int:
    """g's position in G's carrier, on G's scan arithmetic (the index, or
    ``_position`` of a tuple); NotInGroup unless G holds g.  It enumerates G."""
    _, carrier, encode, _, _ = _arithmetic(G)
    at = encode if isinstance(carrier, range) else _position(G)
    return _carrier_position(at, enumerate_group(G).elements, g)


def quotient_group(G: FiniteGroup, N: EnumeratedSubgroup) -> QuotientGroup:
    """Quotient by a normal subgroup N; that N is one is verified."""
    E = enumerate_group(G)
    if not N.as_set <= E.as_set:
        raise NotNormal("subgroup is not contained in the group")
    if G.identity not in N or len(subgroup_closure(G, N)) != len(N):
        raise NotNormal("kernel is not a subgroup")
    for _, g in G.generators:
        for n in N.as_set:
            if G.conjugate(n, g) not in N:
                raise NotNormal("subgroup is not normal")
    return QuotientGroup(G, N)


class DirectProductGroup(FiniteGroup):
    """Componentwise product with concatenated coordinates.  Once enumerated
    it multiplies on indices: an index splits in mixed radix into factor
    indices, whose products each factor's table gives (filled by the
    factor's ``multiply`` on first use)."""

    def __init__(self, factors, description=""):
        factors = list(factors)
        if not factors:
            raise BadParameters("empty product")
        p = factors[0].prime
        if any(f.prime != p for f in factors):
            raise BadParameters("all factors must share the same prime")
        self.factors = tuple(factors)
        self._radix = None  # per factor (group, order, stride, table, its products), once enumerated
        parts = []
        off = 0
        for f in factors:
            width = len(f.identity)
            parts.append((off, off + width, f))
            off += width
        self._parts = tuple(parts)
        moduli = tuple(m for f in factors for m in f.coordinate_moduli)
        gens = []
        named = {}
        for i, f in enumerate(factors):
            for name, g in f.generators:
                gens.append((f"f{i}.{name}", self.embed(i, g)))
            for name, g in f.named_elements.items():
                named[f"f{i}.{name}"] = self.embed(i, g)
        self._init_group(
            p,
            moduli,
            gens,
            named=named,
            known_order=prod(f.known_order for f in factors),
            description=description or " x ".join(repr(f) for f in factors),
            max_order=min(f.max_order for f in factors),
        )

    def multiply(self, a, b):
        t = self._table
        if t is None:  # not enumerated yet: componentwise in the factors
            out = []
            for s, e, f in self._parts:
                out.extend(f.multiply(a[s:e], b[s:e]))
            return tuple(out)
        return t.elements[self._index_product(t.index[a], t.index[b])]

    def _carrier(self) -> EnumeratedSubgroup:
        """The Cartesian product of the factors' carriers (canonical, as
        they are).  The product gets its index table and its factors' (no
        entry filled yet) with it, and multiplies on indices from then on."""
        tables = [_index_table(f) for f in self.factors]
        E = _canonical(tuple(_concatenations([t.elements for t in tables])))
        radix = []
        stride = len(E)
        for f, t in zip(self.factors, tables):
            stride //= len(t.elements)
            radix.append((f, len(t.elements), stride, t, t.products))
        self._radix = tuple(radix)
        self._table = _Table(E.elements)
        self._index = self._table.index.__getitem__
        return E

    def _rows(self, js):
        """The product's ``rows`` (see ``_arithmetic``): the js split into
        digits once; per factor, the row stride·(a·b) over the js' digits b
        for i's digit a, an ``array("l")`` memoized by a for this row maker
        and filled by ``_Table.product`` (the entries ``_index_product``
        fills; a factor above ``_TABLE_BOUND`` multiplies each pair of
        digits once per row maker); the factors' rows added by ``map``."""
        factors = [(f, n, stride, t, [j // stride % n for j in js], [None] * n) for f, n, stride, t, _ in self._radix]
        add = partial(map, operator.add)

        def row(i):
            cols = []
            for f, n, stride, t, digits, memo in factors:
                a = i // stride % n
                col = memo[a]
                if col is None:
                    col = memo[a] = array("l", [stride * t.product(f, a, b) for b in digits])
                cols.append(col)
            return reduce(add, cols)

        return row

    def _index_product(self, i: int, j: int) -> int:
        """Index of the product of the elements at indices i and j, once
        enumerated: each index splits in mixed radix into the factors'
        indices, and each factor's product is read from its table's
        ``products`` array, or on a miss (or above the table bound) through
        ``_Table.product``, which fills it by the factor's own multiply."""
        r = 0
        for f, n, stride, t, prods in self._radix:
            a = i // stride % n
            b = j // stride % n
            x = -1 if prods is None else prods[a * n + b]
            if x < 0:
                x = t.product(f, a, b)
            r += stride * x
        return r

    def invert(self, a):
        t = self._table
        if t is None:
            out = []
            for s, e, f in self._parts:
                out.extend(f.invert(a[s:e]))
            return tuple(out)
        i = t.index[a]
        r = t.inverses[i]
        if r < 0:
            r = t.inverses[i] = sum(
                stride * ft.inverse(f, i // stride % n) for f, n, stride, ft, _ in self._radix
            )
        return t.elements[r]

    def embed(self, i: int, g):
        out = []
        for j, (s, e, f) in enumerate(self._parts):
            out.extend(g if j == i else f.identity)
        return tuple(out)

    def project(self, i: int, g):
        s, e, _ = self._parts[i]
        return tuple(g[s:e])


def direct_product(groups, description="") -> DirectProductGroup:
    return DirectProductGroup(groups, description=description)


class SubgroupGroup(FiniteGroup):
    """The subgroup of a parent group whose carrier is its whole coordinate
    box (a native group or a product of them) cut out by ``congruences``,
    independent linear rows mod p on the parent's coordinates, promoted to a
    standalone group of order |parent| / p^rows.  It enumerates as that cut
    box, with no multiply, so ``generators`` must generate it: the two are
    compared by ``tests/test_properties.py::test_subgroup_carrier_is_the_generators_closure``
    and ``::test_drawn_subgroup_carrier_is_the_generators_closure``.  One
    above the bound is refused before its carrier is built."""

    def __init__(self, parent: FiniteGroup, congruences, generators, description=""):
        self.parent = parent
        self.congruences = tuple(map(tuple, congruences))
        order = parent.known_order // parent.prime ** len(self.congruences)
        self._init_group(
            parent.prime,
            parent.coordinate_moduli,
            generators,
            known_order=order,
            description=description or f"subgroup({order}) of {parent!r}",
            max_order=parent.max_order,
        )

    def multiply(self, a, b):
        return self.parent.multiply(a, b)

    def invert(self, a):
        return self.parent.invert(a)


def is_pth_power(G: FiniteGroup, z) -> bool:
    """Whether z is in {g^p : g in G}, read from the order-p scan's cache."""
    order_p_elements(G)
    return tuple(z) in G._pth_powers


def omega1_subgroup(G: FiniteGroup) -> EnumeratedSubgroup:
    """Subgroup generated by all elements of order dividing p (``_omega1``)."""
    return _omega1(G)[0]


def _omega1(G: FiniteGroup) -> tuple:
    """Omega_1 and the kept seeds that generate it, from one ``_close`` of
    the order-p elements on G's scan arithmetic (cached), as the carrier's
    own tuples.  When every element has order dividing p (as in B2) it is G,
    generated by G's generators, with no closure (84,035 multiplies on
    B2(7,3))."""
    if G._omega1 is None:
        E = enumerate_group(G)
        small = order_p_elements(G)
        if len(small) + 1 == len(E):
            G._omega1 = E, [g for _, g in G.generators]
        else:
            mult, carrier, encode, decode, _ = _arithmetic(G)
            elements, kept = _close(mult, encode(G.identity), map(encode, small), G.max_order)
            members = compress(E.elements, map(elements.__contains__, carrier))
            G._omega1 = _canonical(tuple(members)), list(decode(kept))
    return G._omega1


def generated_by_order_p(G: FiniteGroup) -> bool:
    return len(omega1_subgroup(G)) == len(enumerate_group(G))


def _conjugacy_classes_idx(n, mul, inv_of, gen_idx):
    assigned = [-1] * n
    classes = []
    for i in range(n):
        if assigned[i] >= 0:
            continue
        orbit = {i}
        stack = [i]
        while stack:
            x = stack.pop()
            for gi in gen_idx:
                y = mul(mul(inv_of[gi], x), gi)
                if y not in orbit:
                    orbit.add(y)
                    stack.append(y)
        cls = sorted(orbit)
        for x in cls:
            assigned[x] = len(classes)
        classes.append(cls)
    return classes


def _note_join(formed: set, atom_of: dict, res: list, ns: int) -> None:
    """Add (k, |T|) to ``formed`` for each atom k whose x_k is a new member
    of the join T = ``res``: one after the ``ns`` members of S it starts with."""
    order = len(res)
    for y in islice(res, ns, None):
        k = atom_of.get(y)
        if k is not None:
            formed.add((k, order))


def direct_factor_search(G: FiniteGroup, decompose_bound: int = DEFAULT_DECOMPOSE_BOUND):
    """Find a nontrivial internal direct decomposition, or None.

    The normal subgroups of G are exactly the joins of normal closures of
    single elements, so the search enumerates that join closure (joining
    with single-element closures only, which suffices by associativity of
    join) and tests complementary pairs as subgroups are discovered.  Indices
    are carrier positions, multiplied on G's ``_arithmetic``: by
    ``_index_product`` on a product or a quotient, else by ``multiply``
    through a memo (dear on a ``SubgroupGroup``); subgroups are bitmask
    integers so intersection tests are single AND operations.

    In a p-group the search reads the cached center.  If G = A x B with A
    and B nontrivial, then Z(G) = Z(A) x Z(B) with Z(B) != 1 outside A, so
    a normal subgroup containing Z(G) is never a proper direct factor, and
    neither is any join with it: such a subgroup is recorded as dead and
    never queued.  Live subgroups come in the same relative order, so the
    pair found is the one the unpruned search finds.  Z(A) and Z(B) each
    hold an element of order p, so a center with exactly p - 1 of them
    (read from the cached order-p elements) proves G indecomposable before
    any table is built.  Outside p-groups (Z(A) may be trivial there) only
    G itself is dead.

    Each join of a queued S is formed once.  Each atom A_k keeps one element
    x_k of the class whose normal closure it is, so a normal subgroup holds
    A_k iff it holds x_k.  While S is joined with the atoms, ``formed`` holds
    (k, |T|) for every join T formed from S with x_k among its new elements.
    S and A_k are normal, so S.A_k is their join, of order
    |S| |A_k| / |S & A_k|; a T that holds S and x_k holds S.A_k, so when that
    order is |T| the two are equal, T is already recorded, and A_k is
    skipped.  Registrations, their order and the returned pair are those of
    the search that forms every join.
    """
    n = G.known_order
    if n > decompose_bound:  # before the carrier is built
        raise ResourceLimit(f"|G| = {n} exceeds the decomposition bound {decompose_bound}")
    if n == 1:
        return None
    p = G.prime
    p_group = p ** valuation(n, p) == n
    if p_group:
        Z = center(G)
        if sum(g in Z for g in order_p_elements(G)) == p - 1:
            return None
    mul, carrier, idx, _, _ = _arithmetic(G)
    elems = enumerate_group(G).elements
    if not isinstance(carrier, range):  # the tuple path
        idx = {g: i for i, g in enumerate(elems)}.__getitem__
        cache: dict[int, int] = {}

        def mul(i, j):
            key = i * n + j
            r = cache.get(key)
            if r is None:
                r = cache[key] = idx(G.multiply(elems[i], elems[j]))
            return r

    gen_idx = sorted({idx(g) for _, g in G.generators if g != G.identity})
    inv_of = {i: idx(G.invert(elems[i])) for i in gen_idx}

    atoms = {}  # mask -> members; classes come in order of their least index
    atom_of = {}  # x_k -> k, where atom k is the normal closure of x_k's class
    for cls in _conjugacy_classes_idx(n, mul, inv_of, gen_idx):
        if cls != [0]:  # the identity is at index 0
            members = sorted(_close(mul, 0, cls, n)[0])
            mask = sum(1 << i for i in members)
            if mask not in atoms:
                atom_of[cls[0]] = len(atoms)
                atoms[mask] = members

    subgroups: dict[int, list] = {}  # live mask -> members
    dead = set()
    # Z(G) in a p-group, else G itself: a mask that contains it is dead
    zmask = sum(1 << idx(z) for z in Z.as_set) if p_group else (1 << n) - 1
    by_order: dict[int, list[int]] = {}
    queue = deque()

    def register(mask, members):
        """Record and queue a live subgroup, or record a dead one; return a
        complement pair if one appears."""
        if mask & zmask == zmask:
            dead.add(mask)
            return None
        order = len(members)
        if 1 < order < n and n % order == 0:
            target = n // order
            for other in by_order.get(target, ()):
                if other & mask == 1:  # only the identity in common
                    pair = sorted([(order, mask, members), (target, other, subgroups[other])])
                    return tuple(EnumeratedSubgroup([elems[i] for i in m]) for _, _, m in pair)
        subgroups[mask] = members
        by_order.setdefault(order, []).append(mask)
        queue.append(mask)
        return None

    for mask, members in atoms.items():
        hit = register(mask, members)
        if hit:
            return hit

    while queue:
        smask = queue.popleft()
        smembers = subgroups[smask]
        ns = len(smembers)
        formed = set()  # (k, |T|) for each join T of S formed so far holding x_k
        for k, (amask, amembers) in enumerate(atoms.items()):
            if amask | smask == smask or amask in dead:
                continue
            if (k, ns * len(amembers) // (smask & amask).bit_count()) in formed:
                continue  # that T is S.A_k, already recorded
            res_mask = smask
            res = list(smembers)
            for b in amembers:
                if (res_mask >> b) & 1:
                    continue
                for a in smembers:
                    y = mul(a, b)
                    bit = 1 << y
                    if not res_mask & bit:
                        res_mask |= bit
                        res.append(y)
            _note_join(formed, atom_of, res, ns)
            if res_mask not in subgroups and res_mask not in dead:
                if len(subgroups) + len(dead) >= 4 * decompose_bound:
                    raise ResourceLimit("normal subgroup lattice exceeded the search cap")
                hit = register(res_mask, sorted(res))
                if hit:
                    return hit
    return None

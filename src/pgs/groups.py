"""Generic finite-group engine.

Group elements are flat tuples of small nonnegative integers; each concrete
family fixes per-coordinate moduli, and canonical order is tuple order.  All
derived groups (products, quotients, enumerated subgroups) reuse the parent
coordinates, which keeps canonical coset representatives and witness
selection deterministic across runs.

Each group class is built one way, and knows its order before its
``_carrier`` builds it: a native family's (``SemidirectGroup``,
``LieBCHGroup``) is its coordinate box, every tuple below its moduli, and a
direct product's the Cartesian product of its factors' carriers, both with
no multiply; a quotient's is the coset minima its scan found.  Only a
``SubgroupGroup`` is closed from its generators.

Everything here is exhaustive and exact: closures are incremental
(Dimino's algorithm: about |H|·log_p|H| multiplies, however many seeds they
get) and may also close under conjugation, the center is a coset sieve that
tests one element per coset of the central subgroup found so far against the
generators, the order-p scan walks each cyclic subgroup once, and
quotients store the tuple-order minimum of each coset.  A direct product's
order-p elements and p-th powers are read from its factors, with
no multiply in the product, because they are the definition of the product; its center,
upper central series and quotients are computed on the product itself,
never from its factors, so the product law Z_i(G x H) = Z_i(G) x Z_i(H)
stays something the toolkit checks.  Each group caches its carrier, center,
ucs layer labelling and terms, order-p elements and p-th powers, so every
analysis of one group object shares them.  Each group also carries the enumeration
bound it was built with, ``max_order``: a quotient or subgroup takes its
parent's, a product the smallest of its factors'.

An enumerated group may also carry an index table (``_Table``): its
carrier in canonical order, the index of each element, and lazily filled
product and inverse indices, the n x n products only up to
``_TABLE_BOUND`` elements.  Once a direct product is enumerated its
``multiply`` and ``invert`` work on indices: an element's index splits in
mixed radix into its factors' indices, and each factor's product is read
from that factor's table, computed by the factor's own ``multiply`` the
first time it is needed.  A quotient multiplies its coset numbers with no
table, through the parent's scan arithmetic.  So products and all
quotients scan on indices, native groups and ``SubgroupGroup``s on tuples
(``_arithmetic`` makes that choice).  The center, the order-p scan and the
quotient scan decode through the carrier, so the caches hold the carrier's
own tuples.  Index order is tuple order, so coset minima and witnesses do
not depend on the path.  ``direct_factor_search`` reads the same tables,
and in a p-group it never queues a normal subgroup that contains the center.
"""

from __future__ import annotations

from array import array
from collections import deque
from functools import partial
from itertools import chain, product
from math import gcd, prod

from .errors import (
    BadParameters,
    InternalInconsistency,
    NotNormal,
    ResourceLimit,
)
from .linalg import valuation

DEFAULT_MAX_ORDER = 2_000_000
DEFAULT_DECOMPOSE_BOUND = 20_000

# index tables of groups up to this order hold the n^2 product indices,
# filled lazily (2 bytes an entry); larger groups get no product table
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

    def _init_group(
        self, prime, identity, moduli, generators, named=None, *, known_order, description="",
        max_order=DEFAULT_MAX_ORDER,
    ):
        self.prime = prime
        self.identity = tuple(identity)
        self.coordinate_moduli = tuple(moduli)
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
        self._layers = None
        self._ucs = None
        self._order_p = None
        self._pth_powers = None
        self._table = None

    def multiply(self, a, b):
        raise NotImplementedError

    def invert(self, a):
        raise NotImplementedError

    def _carrier(self) -> EnumeratedSubgroup:
        """The carrier ``enumerate_group`` builds and caches."""
        raise NotImplementedError

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


class EnumeratedSubgroup:
    """Explicit carrier of a subgroup, with O(1) membership.

    Iteration is in canonical (tuple-lexicographic) order.
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
        return self._set

    def __contains__(self, g) -> bool:
        return g in self._set

    def __len__(self) -> int:
        return len(self._set)

    def __iter__(self):
        return iter(self.elements)

    def __eq__(self, other) -> bool:
        return isinstance(other, EnumeratedSubgroup) and self._set == other._set

    def __hash__(self) -> int:
        return hash(self._set)

    def __repr__(self) -> str:
        return f"EnumeratedSubgroup(order={len(self._set)})"


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
    or -1 until first asked for; ``products`` is None above
    ``_TABLE_BOUND`` elements.  The table holds no reference to its group,
    so caching it on the group makes no reference cycle.
    """

    __slots__ = ("elements", "index", "products", "inverses")

    def __init__(self, elements) -> None:
        n = len(elements)
        self.elements = elements
        self.index = {g: i for i, g in enumerate(elements)}
        self.products = array("h", [-1]) * (n * n) if n <= _TABLE_BOUND else None
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
    """G's index table, cached on G; enumerates G first."""
    elements = enumerate_group(G).elements  # a product gets its table here
    if G._table is None:
        G._table = _Table(elements)
    return G._table


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

    A native family's carrier is its coordinate box, a direct product's the
    Cartesian product of its factors' carriers and a quotient's the coset
    minima its scan found, none of them by a further multiply; only a
    ``SubgroupGroup`` is closed from its generators.  Every group knows its
    order, so one above ``G.max_order`` raises ResourceLimit before
    anything is enumerated, and a carrier of any other size raises
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
    E = EnumeratedSubgroup(elements)
    E._sorted = elements
    return E


def _coordinate_box(G: FiniteGroup) -> EnumeratedSubgroup:
    """Every tuple below G's coordinate moduli, in canonical order
    (itertools.product order is tuple order), with no multiply: the
    ``_carrier`` of a family whose elements are that box by definition.
    That the family's generators generate the whole box is not checked
    here; the tests compare it with their closure."""
    return _canonical(tuple(product(*map(range, G.coordinate_moduli))))


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


def _sieve_center(mult, elements, identity, gens, bound) -> list:
    """The members of ``elements``, a carrier in canonical order, that
    commute with every generator in ``gens``, by a coset sieve; returned in
    carrier order, as the carrier's own objects.

    The scan keeps Z0, the central subgroup found so far.  An element in Z0
    is central.  Any other element not yet marked is tested against the
    generators: a central g extends Z0 by ``_close``, and a non-central g
    marks its coset gZ0, none of which is central (if gz were, so would be
    g = (gz)z^-1).  Only marks ahead of the scan are kept, and each is
    dropped when the scan reaches it.  That is about |G| + 2d·|G|/|Z|
    multiplies for d generators, not 2d·|G|.  A central element behind the
    scan was already passed, so every new member of Z0 is collected when
    the scan reaches it.
    """
    z0, kept = {identity}, []
    marked = set()
    central = []
    for g in elements:
        if g in z0:
            central.append(g)
        elif g in marked:
            marked.discard(g)
        elif all(mult(g, s) == mult(s, g) for s in gens):
            central.append(g)
            z0, kept = _close(mult, identity, kept + [g], bound)
        else:
            for z in z0:
                y = mult(g, z)
                if y > g:
                    marked.add(y)
    return central


def _same(g):
    return g


def _arithmetic(G: FiniteGroup) -> tuple:
    """How G's scans multiply, ``(mult, carrier, encode, decode)``: the one
    place where indices or tuples are chosen.

    A direct product and every quotient multiply on indices: ``mult`` is
    G's ``_index_product``, the carrier range(|G|), ``encode`` maps an
    element to its index and ``decode`` maps a collection of indices to the
    carrier's own tuples.  Index order is tuple order, so a scan meets the
    elements in the same order either way.  Any other group (a native group
    or a ``SubgroupGroup``) multiplies its canonical carrier's tuples by
    ``G.multiply``, and both maps return what they are given (a set stays a
    set, which ``frozenset`` copies at its size).
    """
    E = enumerate_group(G)
    if isinstance(G, (DirectProductGroup, QuotientGroup)):
        return G._index_product, range(len(E)), G._index, partial(map, E.elements.__getitem__)
    return G.multiply, E.elements, _same, _same


def center(G: FiniteGroup) -> EnumeratedSubgroup:
    """Center, as the centralizer of the generators, by ``_sieve_center``
    (cached), on indices wherever ``_arithmetic`` gives them and decoded at
    the end, in the carrier order the sieve returns.  A product's center is
    sieved on whole product elements, never read off the factors.
    """
    if G._center is None:
        mult, carrier, encode, decode = _arithmetic(G)
        gens = [encode(g) for _, g in G.generators]
        found = _sieve_center(mult, carrier, encode(G.identity), gens, G.max_order)
        G._center = _canonical(tuple(decode(found)))
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
    n = ord(g).  Every g^j with j prime to n generates the same <g>, so it
    has order n and p-th power g^(pj mod n); all of them are classified by
    that one walk.  In a p-group that is about p/(p-1) multiplies per
    element, not the p-1 of computing each g^p.
    """
    if G._order_p is None and isinstance(G, DirectProductGroup):
        elements = enumerate_group(G).elements  # the product's own bound and size check
        small = [sorted((f.identity, *order_p_elements(f))) for f in G.factors]
        identity = G._table.index[G.identity]
        G._order_p = tuple(elements[i] for i in _product_indices(G, small) if i != identity)
        G._pth_powers = frozenset(elements[i] for i in _product_indices(G, [f._pth_powers for f in G.factors]))
    elif G._order_p is None:
        p = G.prime
        mult, carrier, encode, decode = _arithmetic(G)
        identity = encode(G.identity)
        small = set()
        powers = {identity}
        done = {identity}
        for g in carrier:
            if g in done:
                continue
            walk = [identity, g]  # walk[j] = g^j
            x = mult(g, g)
            while x != identity:
                walk.append(x)
                x = mult(x, g)
            n = len(walk)
            for j in range(1, n):
                if gcd(j, n) == 1:
                    done.add(walk[j])
                    powers.add(walk[p * j % n])
            if n == p:
                small.update(walk[1:])
        # the carrier's own tuples, in canonical order: a tuple walk's are equal copies
        G._order_p = tuple(x for g, x in zip(carrier, enumerate_group(G).elements) if g in small)
        G._pth_powers = frozenset(decode(powers))
    return G._order_p


class QuotientGroup(FiniteGroup):
    """G/N with canonical coset representatives, for a subgroup N of G that
    is normal by construction (unchecked; ``quotient_group`` checks it): the
    center of G, as in the upper central series, or the span of a central
    element.

    One ascending scan of G's carrier, on G's ``_arithmetic``, numbers the
    cosets: the first element not yet numbered is its coset's minimum, and
    its products with N get the next number.  ``_down`` maps each element
    of G, as G's scan sees it, to its coset's number, and ``_up`` lists the
    minima the same way.  When G is a product or a quotient both are arrays
    over G's indices; when G is a native group or a ``SubgroupGroup``,
    ``_down`` is a dict keyed by G's own carrier tuples, in carrier order,
    and ``_up`` lists the minima themselves.  The elements, ``_reps``, are
    the minima as G's tuples, in carrier order, so a coset's number is its
    index here.  The product of cosets i and j is
    ``_down[mult(_up[i], _up[j])]`` with G's scan multiply, and ``_index``
    reads the number of an element g of G as ``_down[encode(g)]``;
    ``multiply``, ``invert`` and ``project`` return the representative at
    it.
    """

    def __init__(self, parent: FiniteGroup, kernel: EnumeratedSubgroup):
        E = enumerate_group(parent)
        mult, carrier, encode, decode = _arithmetic(parent)
        if isinstance(carrier, range):  # arrays, so that no element or coset holds an int object
            down, up = array("i", [-1]) * len(E), array("i")
        else:
            down, up = dict.fromkeys(E.elements, -1), []
        encoded = [encode(n) for n in kernel.elements]
        for g in carrier:
            if down[g] == -1:
                coset = len(up)
                up.append(g)
                for n in encoded:
                    down[mult(g, n)] = coset
        if len(up) * len(kernel) != len(E):
            raise InternalInconsistency("coset partition does not cover the group")
        self.parent = parent
        self.kernel = kernel
        self._down = down
        self._up = up
        self._mult = mult
        self._index = lambda g: down[encode(g)]
        self._reps = tuple(decode(up))
        self._init_group(
            parent.prime,
            self.project(parent.identity),
            parent.coordinate_moduli,
            [(name, self.project(g)) for name, g in parent.generators],
            named={name: self.project(g) for name, g in parent.named_elements.items()},
            known_order=len(up),
            description=f"{parent!r}/N{len(kernel)}",
            max_order=parent.max_order,
        )

    def multiply(self, a, b):
        return self._reps[self._index(self.parent.multiply(a, b))]

    def invert(self, a):
        return self._reps[self._index(self.parent.invert(a))]

    def project(self, g):
        """Canonical representative of the coset of a parent element."""
        return self._reps[self._index(g)]

    def _carrier(self) -> EnumeratedSubgroup:
        return _canonical(self._reps)

    def _index_product(self, i: int, j: int) -> int:
        up = self._up
        return self._down[self._mult(up[i], up[j])]


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
    """Componentwise product with concatenated coordinates."""

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
        identity = tuple(x for f in factors for x in f.identity)
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
            identity,
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
    """The subgroup of a parent group that ``generators`` generate, promoted
    to a standalone group of order ``known_order``; it is closed when first
    enumerated, and refused before any multiply if above the bound."""

    def __init__(self, parent: FiniteGroup, known_order: int, generators, description=""):
        self.parent = parent
        self._init_group(
            parent.prime,
            parent.identity,
            parent.coordinate_moduli,
            generators,
            known_order=known_order,
            description=description or f"subgroup({known_order}) of {parent!r}",
            max_order=parent.max_order,
        )

    def multiply(self, a, b):
        return self.parent.multiply(a, b)

    def invert(self, a):
        return self.parent.invert(a)

    def _carrier(self) -> EnumeratedSubgroup:
        return subgroup_closure(self, [g for _, g in self.generators])


def is_pth_power(G: FiniteGroup, z) -> bool:
    """Whether z is in {g^p : g in G}, read from the order-p scan's cache."""
    order_p_elements(G)
    return tuple(z) in G._pth_powers


def omega1_subgroup(G: FiniteGroup) -> EnumeratedSubgroup:
    """Subgroup generated by all elements of order dividing p.

    When every element has order dividing p (as in B2) this is G itself, read
    off the cached scan; closing it would take 84,035 multiplies on B2(7,3).
    """
    E = enumerate_group(G)
    small = order_p_elements(G)
    if len(small) + 1 == len(E):
        return E
    return subgroup_closure(G, small)


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


def direct_factor_search(G: FiniteGroup, decompose_bound: int = DEFAULT_DECOMPOSE_BOUND):
    """Find a nontrivial internal direct decomposition, or None.

    The normal subgroups of G are exactly the joins of normal closures of
    single elements, so the search enumerates that join closure (joining
    with single-element closures only, which suffices by associativity of
    join) and tests complementary pairs as subgroups are discovered.  All
    arithmetic runs in index space over the enumerated carrier, through G's
    shared index table (filled only where the search looks, up to
    ``_TABLE_BOUND`` elements; a private cache above it); subgroups are
    bitmask integers so intersection tests are single AND operations.

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
    """
    E = enumerate_group(G)
    n = len(E)
    if n > decompose_bound:
        raise ResourceLimit(f"|G| = {n} exceeds the decomposition bound {decompose_bound}")
    if n == 1:
        return None
    p = G.prime
    p_group = p ** valuation(n, p) == n
    if p_group:
        Z = center(G)
        if sum(g in Z for g in order_p_elements(G)) == p - 1:
            return None
    table = _index_table(G)
    elems = table.elements
    idx = table.index
    id_idx = idx[G.identity]
    identity_mask = 1 << id_idx

    if table.products is not None:

        def mul(i, j):
            return table.product(G, i, j)

    else:
        cache: dict[int, int] = {}

        def mul(i, j):
            key = i * n + j
            r = cache.get(key)
            if r is None:
                r = idx[G.multiply(elems[i], elems[j])]
                cache[key] = r
            return r

    inv_of = [table.inverse(G, i) for i in range(n)]
    gen_idx = sorted({idx[g] for _, g in G.generators if g != G.identity})

    atoms = {}  # mask -> members; classes come in order of their least index
    for cls in _conjugacy_classes_idx(n, mul, inv_of, gen_idx):
        if cls != [id_idx]:
            members = sorted(_close(mul, id_idx, cls, n)[0])
            atoms.setdefault(sum(1 << i for i in members), members)

    subgroups: dict[int, list] = {}  # live mask -> members
    dead = set()
    # Z(G) in a p-group, else G itself: a mask that contains it is dead
    zmask = sum(1 << idx[z] for z in Z.as_set) if p_group else (1 << n) - 1
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
                if other & mask == identity_mask:
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
        for amask, amembers in atoms.items():
            if amask | smask == smask or amask in dead:
                continue
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
            if res_mask not in subgroups and res_mask not in dead:
                if len(subgroups) + len(dead) >= 4 * decompose_bound:
                    raise ResourceLimit("normal subgroup lattice exceeded the search cap")
                hit = register(res_mask, sorted(res))
                if hit:
                    return hit
    return None

"""Generic finite-group engine.

Group elements are flat tuples of small nonnegative integers; each concrete
family fixes per-coordinate moduli, and canonical order is tuple order.  All
derived groups (products, quotients, enumerated subgroups) reuse the parent
coordinates, which keeps canonical coset representatives and witness
selection deterministic across runs.

Everything here is exhaustive and exact: closures are incremental
(Dimino's algorithm: about |H|·log_p|H| multiplies, however many seeds they
get), the center tests against generators only, and quotients store the
tuple-order minimum of each coset.  Each group caches its carrier, center,
upper central series, order-p elements and p-th powers, so every analysis
of one group object shares them.  Each group also carries the enumeration
bound it was built with, ``max_order``: a quotient or subgroup takes its
parent's, a product the smallest of its factors'.
"""

from __future__ import annotations

import weakref
from collections import deque

from .errors import (
    BadParameters,
    InternalInconsistency,
    NotNormal,
    ResourceLimit,
)

DEFAULT_MAX_ORDER = 2_000_000
DEFAULT_DECOMPOSE_BOUND = 20_000

# full index-space multiplication tables are built below this order
_TABLE_BOUND = 1500


class FiniteGroup:
    """Base interface every concrete group family implements.

    Subclasses provide ``multiply``/``invert`` on element tuples plus the
    metadata attributes set in ``_init_group``.  Instances are immutable
    after construction; the per-group caches are write-once.
    """

    def _init_group(
        self, prime, identity, moduli, generators, named=None, known_order=None, description="", carrier=None,
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
        self._enumeration = None if carrier is None else EnumeratedSubgroup(self, carrier)
        self._center = None
        self._ucs = None
        self._order_p = None
        self._pth_powers = None

    def multiply(self, a, b):
        raise NotImplementedError

    def invert(self, a):
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

    Iteration is in canonical (tuple-lexicographic) order.  The group is
    held by weak reference: groups cache their subgroups, and a strong
    back-reference would leave every analyzed group to the cycle collector.
    """

    __slots__ = ("_group", "_set", "_sorted")

    def __init__(self, group: FiniteGroup, elements) -> None:
        self._group = weakref.ref(group)
        self._set = frozenset(elements)
        self._sorted = None

    @property
    def group(self) -> FiniteGroup:
        return self._group()

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


def _close(mult, identity, seeds, bound) -> set:
    """Subgroup generated by ``seeds`` under ``mult`` (Dimino's closure).

    A seed already in the subgroup so far costs one lookup; a kept seed
    multiplies the old elements once, then each new element is multiplied
    by every kept seed.  In a p-group each kept seed at least multiplies the
    order by p.  Raises ResourceLimit once the set passes ``bound``.
    """
    elements = {identity}
    kept = []
    for s in seeds:
        if s in elements:
            continue
        kept.append(s)
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
    return elements


def subgroup_closure(G: FiniteGroup, elements) -> EnumeratedSubgroup:
    """Smallest subgroup of G containing ``elements``, by ``_close``.

    The cost grows with the subgroup, not with the number of elements given;
    ResourceLimit once the closure passes ``G.max_order``.
    """
    seeds = (tuple(g) for g in elements)
    return EnumeratedSubgroup(G, _close(G.multiply, G.identity, seeds, G.max_order))


def enumerate_group(G: FiniteGroup) -> EnumeratedSubgroup:
    """Full carrier of G (closure of its generators), cached on the group.

    A known order above ``G.max_order`` raises ResourceLimit before the
    closure multiplies anything.
    """
    if G._enumeration is None:
        if G.known_order is not None and G.known_order > G.max_order:
            raise ResourceLimit(f"{G!r} has more than {G.max_order} elements")
        E = subgroup_closure(G, [g for _, g in G.generators])
        if G.known_order is not None and len(E) != G.known_order:
            raise InternalInconsistency(
                f"{G!r}: enumerated {len(E)} elements, expected {G.known_order}"
            )
        G._enumeration = E
    return G._enumeration


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


def center(G: FiniteGroup) -> EnumeratedSubgroup:
    """Center, as the centralizer of the generators (cached)."""
    if G._center is None:
        E = enumerate_group(G)
        mult = G.multiply
        gens = [g for _, g in G.generators]
        G._center = EnumeratedSubgroup(
            G, [g for g in E.as_set if all(mult(g, s) == mult(s, g) for s in gens)]
        )
    return G._center


def order_p_elements(G: FiniteGroup) -> tuple:
    """Elements of order exactly p, in canonical order (cached).

    The same scan caches the set of p-th powers {g^p} that ``is_pth_power``
    reads.
    """
    if G._order_p is None:
        p = G.prime
        identity = G.identity
        mult = G.multiply
        out = []
        powers = {identity}
        for g in enumerate_group(G).elements:
            if g == identity:
                continue
            x = g
            for _ in range(p - 1):
                x = mult(x, g)
            powers.add(x)
            if x == identity:
                out.append(g)
        G._order_p = tuple(out)
        G._pth_powers = frozenset(powers)
    return G._order_p


class QuotientGroup(FiniteGroup):
    """G/N with canonical coset representatives.

    Elements are the tuple-order minima of their cosets; the group
    operation is multiply-then-canonicalize through the stored coset map.
    """

    def __init__(self, parent: FiniteGroup, kernel: EnumeratedSubgroup, rep_map, reps, description=""):
        self.parent = parent
        self.kernel = kernel
        self._rep = rep_map
        gens = [(name, rep_map[g]) for name, g in parent.generators]
        named = {name: rep_map[g] for name, g in parent.named_elements.items()}
        self._init_group(
            parent.prime,
            rep_map[parent.identity],
            parent.coordinate_moduli,
            gens,
            named=named,
            known_order=len(rep_map) // len(kernel),
            description=description or f"{parent!r}/N{len(kernel)}",
            carrier=reps,
            max_order=parent.max_order,
        )

    def multiply(self, a, b):
        return self._rep[self.parent.multiply(a, b)]

    def invert(self, a):
        return self._rep[self.parent.invert(a)]

    def project(self, g):
        """Canonical representative of the coset of a parent element."""
        return self._rep[g]


def quotient_group(G: FiniteGroup, N: EnumeratedSubgroup) -> QuotientGroup:
    """Quotient by a normal subgroup (normality is verified)."""
    E = enumerate_group(G)
    if not N.as_set <= E.as_set:
        raise NotNormal("subgroup is not contained in the group")
    for _, g in G.generators:
        for n in N.as_set:
            if G.conjugate(n, g) not in N:
                raise NotNormal("subgroup is not normal")
    rep_map = {}
    mult = G.multiply
    n_elems = N.elements
    reps = []
    for g in E.elements:  # ascending scan: first untouched element is its coset minimum
        if g in rep_map:
            continue
        reps.append(g)
        for n in n_elems:
            rep_map[mult(g, n)] = g
    if len(rep_map) != len(E):
        raise InternalInconsistency("coset partition does not cover the group")
    return QuotientGroup(G, N, rep_map, reps)


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
        order = 1
        for f in factors:
            if f.known_order is None:
                order = None
                break
            order *= f.known_order
        self._init_group(
            p,
            identity,
            moduli,
            gens,
            named=named,
            known_order=order,
            description=description or " x ".join(repr(f) for f in factors),
            max_order=min(f.max_order for f in factors),
        )

    def multiply(self, a, b):
        out = []
        for s, e, f in self._parts:
            out.extend(f.multiply(a[s:e], b[s:e]))
        return tuple(out)

    def invert(self, a):
        out = []
        for s, e, f in self._parts:
            out.extend(f.invert(a[s:e]))
        return tuple(out)

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
    """A subgroup of a parent group promoted to a standalone group."""

    def __init__(self, parent: FiniteGroup, carrier, generators, description=""):
        self.parent = parent
        carrier = frozenset(carrier)
        self._init_group(
            parent.prime,
            parent.identity,
            parent.coordinate_moduli,
            generators,
            known_order=len(carrier),
            description=description or f"subgroup({len(carrier)}) of {parent!r}",
            carrier=carrier,
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
    arithmetic runs in index space over the enumerated carrier; subgroups
    are bitmask integers so intersection tests are single AND operations.
    """
    E = enumerate_group(G)
    n = len(E)
    if n > decompose_bound:
        raise ResourceLimit(f"|G| = {n} exceeds the decomposition bound {decompose_bound}")
    if n == 1:
        return None
    elems = E.elements
    idx = {g: i for i, g in enumerate(elems)}
    id_idx = idx[G.identity]
    identity_mask = 1 << id_idx

    if n <= _TABLE_BOUND:
        mult = G.multiply
        table = [[idx[mult(a, b)] for b in elems] for a in elems]

        def mul(i, j):
            return table[i][j]

    else:
        cache: dict[int, int] = {}

        def mul(i, j):
            key = i * n + j
            r = cache.get(key)
            if r is None:
                r = idx[G.multiply(elems[i], elems[j])]
                cache[key] = r
            return r

    inv_of = [idx[G.invert(g)] for g in elems]
    gen_idx = sorted({idx[g] for _, g in G.generators if g != G.identity})

    atoms = {}  # mask -> members; classes come in order of their least index
    for cls in _conjugacy_classes_idx(n, mul, inv_of, gen_idx):
        if cls != [id_idx]:
            members = sorted(_close(mul, id_idx, cls, n))
            atoms.setdefault(sum(1 << i for i in members), members)

    subgroups: dict[int, list] = {}  # mask -> members
    by_order: dict[int, list[int]] = {}
    queue = deque()

    def register(mask, members):
        """Record and queue a subgroup; return a complement pair if one appears."""
        order = len(members)
        if 1 < order < n and n % order == 0:
            target = n // order
            for other in by_order.get(target, ()):
                if other & mask == identity_mask:
                    pair = sorted([(order, mask, members), (target, other, subgroups[other])])
                    return tuple(EnumeratedSubgroup(G, [elems[i] for i in m]) for _, _, m in pair)
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
            if amask | smask == smask:
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
            if res_mask not in subgroups:
                if len(subgroups) >= 4 * decompose_bound:
                    raise ResourceLimit("normal subgroup lattice exceeded the search cap")
                hit = register(res_mask, sorted(res))
                if hit:
                    return hit
    return None

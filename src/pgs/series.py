"""Central series, nilpotence class, layers, and the order-p spectrum.

The upper central series is computed through successive quotients with
canonical coset representatives: Z_(i+1) is the preimage of the center of
G/Z_i, and each quotient is formed from the one before; its terms are cached
on the group.  The lower central series works from generators: each term is
the normal closure of the commutators of the last term's generators with
G's.  The spectrum assigns every element of order exactly p (the group's
cached list) the index of the first upper-central term containing it;
witnesses are the canonically smallest qualifying elements, so reports are
reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InternalInconsistency, NotInGroup, PreconditionFailed
from .groups import (
    EnumeratedSubgroup,
    FiniteGroup,
    QuotientGroup,
    _close,
    _quotient,
    center,
    commutator,
    enumerate_group,
    order_p_elements,
    subgroup_closure,
)


@dataclass(frozen=True)
class CentralSeriesChain:
    """Ascending chain of enumerated subgroups from the trivial group to G."""

    group: FiniteGroup
    terms: tuple

    def __len__(self) -> int:
        return len(self.terms)

    @property
    def length(self) -> int:
        """Number of strict steps, i.e. the nilpotence class for upper chains."""
        return len(self.terms) - 1

    def orders(self) -> tuple:
        return tuple(len(t) for t in self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CentralSeriesChain):
            return NotImplemented
        return [t.as_set for t in self.terms] == [t.as_set for t in other.terms]


def upper_central_series(G: FiniteGroup) -> CentralSeriesChain:
    """Z_0 = 1 < Z_1 < ... < Z_c = G via centers of successive quotients (cached).

    Z_(i+1) is the preimage of the center of G/Z_i, and each quotient is
    formed from the last: G/Z_(i+1) = (G/Z_i)/Z(G/Z_i), which costs
    |G/Z_i| multiplies, not |G|.  Its coset map is then flattened through
    G/Z_i's, so the quotient over G multiplies as one G multiply and one
    lookup.  The representatives are those of G/Z_(i+1) formed directly: a
    Z_(i+1)-coset is a union of Z_i-cosets, so its tuple-order minimum is
    the least of their minima, which is what the ascending scan of
    G/Z_i's elements picks.  No quotient needs a normality scan: each
    kernel is a center.  A center that stays trivial before G is reached
    raises InternalInconsistency (the input is not nilpotent).
    """
    if G._ucs is not None:
        return CentralSeriesChain(G, G._ucs)
    E = enumerate_group(G)
    terms = [EnumeratedSubgroup([G.identity])]
    Q = G  # G/Z_i, a quotient of G from i = 1 on
    while len(terms[-1]) < len(E):
        ZQ = center(Q)
        if Q is G:
            nxt = ZQ
        else:
            zq, rep = ZQ.as_set, Q._rep
            # the carrier's own tuples: the coset map's keys are equal copies
            nxt = EnumeratedSubgroup([g for g in E.as_set if rep[g] in zq])
        if len(nxt) == len(terms[-1]):
            raise InternalInconsistency(
                "center stabilized before reaching the whole group; input is not nilpotent"
            )
        terms.append(nxt)
        if len(nxt) < len(E):
            Q = _next_quotient(G, Q, ZQ, nxt)
    G._ucs = tuple(terms)  # the terms only: a cached chain would point back at G
    return CentralSeriesChain(G, G._ucs)


def _next_quotient(G, Q, ZQ, kernel):
    """G/Z_(i+1), with kernel = Z_(i+1), from Q = G/Z_i (or G) and ZQ = Z(Q).

    Q/ZQ costs |Q| multiplies.  Its coset map is composed into Q's in place,
    as Q is not read again, so the result maps G straight to the coset
    minima; the intermediate quotient is dropped on return.
    """
    step = _quotient(Q, ZQ)
    if Q is G:
        return step
    rep, to_next = Q._rep, step._rep
    for g, r in rep.items():
        rep[g] = to_next[r]
    return QuotientGroup(G, kernel, rep, enumerate_group(step).elements)


def lower_central_series(G: FiniteGroup) -> CentralSeriesChain:
    """gamma_1 = G down to 1, returned as an ascending chain.

    gamma_(k+1) = [gamma_k, G] is the normal closure in G of the commutators
    [a, g], a a generator of gamma_k and g a generator of G: those
    commutators lie in [gamma_k, G], and modulo their normal closure N every
    generator a commutes with every g, so gamma_k/N is central in G/N and
    [gamma_k, G] <= N.  ``_close`` forms N from the commutators, queueing each
    kept seed's conjugates by G's generators, and returns the kept seeds,
    which generate gamma_(k+1) for the next step (gamma_1 takes G's
    generators).  That is a few commutators per term, not |gamma_k|·d.  A
    term equal to the one before it raises InternalInconsistency (the input
    is not nilpotent).
    """
    E = enumerate_group(G)
    mult = G.multiply
    invert = G.invert
    kept = [g for _, g in G.generators]
    conj = [(invert(g), g) for g in kept]
    descending = [E]
    while len(descending[-1]) > 1:
        comms = [mult(mult(invert(a), ginv), mult(a, g)) for a in kept for ginv, g in conj]
        elements, kept = _close(mult, G.identity, comms, G.max_order, conj)
        if len(elements) == len(descending[-1]):
            raise InternalInconsistency("lower central series stalled; input is not nilpotent")
        descending.append(EnumeratedSubgroup(elements))
    return CentralSeriesChain(G, tuple(reversed(descending)))


def nilpotence_class(G: FiniteGroup) -> int:
    return upper_central_series(G).length


def layer_index(chain: CentralSeriesChain, g) -> int:
    """Least i with g in chain.terms[i]; 0 exactly for the identity."""
    g = tuple(g)
    if g not in chain.terms[-1]:
        raise NotInGroup("element does not belong to the chain's group")
    for i, term in enumerate(chain.terms):
        if g in term:
            return i
    raise InternalInconsistency("chain does not ascend to the full group")


@dataclass(frozen=True)
class SpectrumReport:
    """Occupied upper-central layers, with one order-p witness per layer."""

    p: int
    klass: int
    spectrum: tuple
    witnesses: dict = field(compare=False)
    layer_orders: tuple = ()

    def as_dict(self) -> dict:
        return {
            "p": self.p,
            "class": self.klass,
            "spectrum": list(self.spectrum),
            "witnesses": {str(k): list(v) for k, v in sorted(self.witnesses.items())},
            "layer_orders": list(self.layer_orders),
        }


def spectrum(G: FiniteGroup) -> SpectrumReport:
    """Exact scan of all order-p elements, each assigned its ucs layer."""
    chain = upper_central_series(G)
    occupied: dict[int, tuple] = {}
    for g in order_p_elements(G):  # ascending: first hit per layer is the witness
        occupied.setdefault(layer_index(chain, g), g)
    return SpectrumReport(
        p=G.prime,
        klass=chain.length,
        spectrum=tuple(sorted(occupied)),
        witnesses=occupied,
        layer_orders=chain.orders(),
    )


def is_central_series(G: FiniteGroup, chain: CentralSeriesChain) -> bool:
    """True iff the chain ascends 1 -> G through subgroups with [G_i, G] <= G_(i-1).

    A term is a subgroup iff its closure is no larger, which costs about
    |term|·log_p|term| multiplies, not |term|^2.  The commutator condition
    is tested against generators of G only, which suffices when applied
    bottom-up: once [G_(i-1), G] <= G_(i-2) is fully established,
    [x, gh] = [x, h] [x, g] [[x, g], h] closes the induction.
    """
    E = enumerate_group(G)
    terms = chain.terms
    if len(terms) < 1 or terms[0].as_set != {G.identity} or terms[-1].as_set != E.as_set:
        return False
    for lo, hi in zip(terms, terms[1:]):
        if not lo.as_set < hi.as_set:
            return False
    for term in terms[1:-1]:
        if len(subgroup_closure(G, term.as_set)) != len(term):
            return False
    gens = [g for _, g in G.generators]
    for i in range(1, len(terms)):
        below = terms[i - 1].as_set
        for x in terms[i].as_set:
            for g in gens:
                if commutator(G, x, g) not in below:
                    return False
    return True


def satisfies_ucs_characterization(G: FiniteGroup, chain: CentralSeriesChain) -> bool:
    """Exact test of the layer-linking property that pins down the ucs.

    For every m >= 2 and every x in G_m \\ G_(m-1), some y in G must push x
    down exactly one layer: [x, y] in G_(m-1) \\ G_(m-2).  A central series
    has this property iff it is the upper central series term by term.

    Only the generators of G are tried as y.  In a central series
    [x, G] <= G_(m-1) and [G_(m-1), G] <= G_(m-2), so from
    [x, yz] = [x, z] [x, y] [[x, y], z] the map y -> [x, y] G_(m-2) is a
    homomorphism from G to the central section G_(m-1)/G_(m-2).  Its image
    is nontrivial iff it moves some generator, so some y pushes x down a
    layer iff some generator does: |G_m|·d commutators, not |G_m|·|G|.
    """
    if not is_central_series(G, chain):
        raise PreconditionFailed("chain is not a central series")
    gens = [g for _, g in G.generators]
    terms = chain.terms
    for m in range(2, len(terms)):
        mid = terms[m - 1].as_set
        low = terms[m - 2].as_set
        for x in terms[m].as_set:
            if x in mid:
                continue
            if not any(
                (c := commutator(G, x, y)) in mid and c not in low for y in gens
            ):
                return False
    return True

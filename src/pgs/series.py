"""Central series, nilpotence class, layers, and the order-p spectrum.

The upper central series is computed through successive quotients with
canonical coset representatives: Z_(i+1) is the preimage of the center of
G/Z_i; its terms are cached on the group.  The spectrum assigns every element
of order exactly p (the group's cached list) the index of the first
upper-central term containing it; witnesses are the canonically smallest
qualifying elements, so reports are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InternalInconsistency, NotInGroup, PreconditionFailed
from .groups import (
    EnumeratedSubgroup,
    FiniteGroup,
    center,
    commutator,
    enumerate_group,
    order_p_elements,
    quotient_group,
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
    """Z_0 = 1 < Z_1 < ... < Z_c = G via centers of successive quotients (cached)."""
    if G._ucs is not None:
        return CentralSeriesChain(G, G._ucs)
    E = enumerate_group(G)
    terms = [EnumeratedSubgroup(G, [G.identity])]
    current = terms[0]
    while len(current) < len(E):
        if len(current) == 1:
            nxt = center(G)
        else:
            Q = quotient_group(G, current)
            ZQ = center(Q)
            zq = ZQ.as_set
            rep = Q._rep
            nxt = EnumeratedSubgroup(G, [g for g in E.as_set if rep[g] in zq])
        if len(nxt) == len(current):
            raise InternalInconsistency(
                "center stabilized before reaching the whole group; input is not nilpotent"
            )
        terms.append(nxt)
        current = nxt
    G._ucs = tuple(terms)  # the terms only: a cached chain would point back at G
    return CentralSeriesChain(G, G._ucs)


def lower_central_series(G: FiniteGroup) -> CentralSeriesChain:
    """gamma_1 = G down to 1, returned as an ascending chain.

    gamma_(k+1) is generated by the commutators [x, g] with x running over
    the whole of gamma_k and g over the generators of G, which equals
    [gamma_k, G] because gamma_k is normal.
    """
    E = enumerate_group(G)
    gens = [g for _, g in G.generators]
    descending = [E]
    current = E
    mult = G.multiply
    invert = G.invert
    while len(current) > 1:
        comms = set()
        for x in current.as_set:
            xinv = invert(x)
            for g in gens:
                comms.add(mult(mult(xinv, invert(g)), mult(x, g)))
        nxt = subgroup_closure(G, comms)
        if len(nxt) == len(current):
            raise InternalInconsistency("lower central series stalled; input is not nilpotent")
        descending.append(nxt)
        current = nxt
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
    """Exhaustive test of the layer-linking property that pins down the ucs.

    For every m >= 2 and every x in G_m \\ G_(m-1), some y in G must push x
    down exactly one layer: [x, y] in G_(m-1) \\ G_(m-2).  A central series
    has this property iff it is the upper central series term by term.
    """
    if not is_central_series(G, chain):
        raise PreconditionFailed("chain is not a central series")
    E = enumerate_group(G)
    terms = chain.terms
    for m in range(2, len(terms)):
        mid = terms[m - 1].as_set
        low = terms[m - 2].as_set
        for x in terms[m].as_set:
            if x in mid:
                continue
            if not any(
                (c := commutator(G, x, y)) in mid and c not in low for y in E.as_set
            ):
                return False
    return True

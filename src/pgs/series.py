"""Central series, nilpotence class, layers, and the order-p spectrum.

Each group carries one ucs layer labelling (``_layers``), from which its
upper central series and its spectrum are read.  The lower central series
works from generators: each term is the normal closure of the commutators
of the last term's generators with G's.  Witnesses are the canonically
smallest qualifying elements, so reports are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress

from .errors import InternalInconsistency, NotInGroup, PreconditionFailed
from .groups import (
    EnumeratedSubgroup,
    FiniteGroup,
    QuotientGroup,
    _canonical,
    _close,
    center,
    commutator,
    enumerate_group,
    order_p_elements,
    subgroup_closure,
)


@dataclass(frozen=True)
class CentralSeriesChain:
    """Ascending chain of enumerated subgroups from the trivial group to G."""

    group: FiniteGroup = field(compare=False)
    terms: tuple

    def __len__(self) -> int:
        return len(self.terms)

    @property
    def length(self) -> int:
        """Number of strict steps, i.e. the nilpotence class for upper chains."""
        return len(self.terms) - 1

    def orders(self) -> tuple:
        return tuple(len(t) for t in self.terms)


def _layers(G: FiniteGroup) -> bytearray:
    """Each element's ucs layer, the least i with it in Z_i, in carrier
    order (cached): the one place the ucs is computed.  The identity is in
    layer 0 and any other g in 1 + layer(gZ) of Q = G/Z(G), read at the
    coset number ``QuotientGroup`` gives g.  Q takes over the coset
    numbering of the center scan, so a level costs that scan of G/Z_i and
    no normality scan.  A trivial center of a nontrivial group raises
    InternalInconsistency: the input is not nilpotent.
    """
    if G._layers is None:
        E = enumerate_group(G)
        Z = center(G)
        if len(Z) == len(E):  # abelian: G/Z is trivial, so it is not formed
            labels = bytearray(b"\1") * len(E)
        elif len(Z) == 1:
            raise InternalInconsistency(
                "center stabilized before reaching the whole group; input is not nilpotent"
            )
        else:
            Q = QuotientGroup(G, Z)
            above = bytes(1 + layer for layer in _layers(Q))
            labels = bytearray(map(above.__getitem__, Q._down))  # coset numbers in carrier order
        labels[0] = 0  # the identity
        G._layers = labels
    return G._layers


def upper_central_series(G: FiniteGroup) -> CentralSeriesChain:
    """Z_0 = 1 < Z_1 < ... < Z_c = G (cached).  Z_i is read from the carrier
    as the elements labelled at most i, so it holds the carrier's own tuples
    in canonical order; Z_1 is the cached center and Z_c the carrier."""
    if G._ucs is None:
        E = enumerate_group(G)
        labels = _layers(G)
        terms = [EnumeratedSubgroup([G.identity]), center(G)]
        for i in range(2, max(labels)):
            at_most_i = bytes(layer <= i for layer in range(256))
            terms.append(_canonical(tuple(compress(E.elements, labels.translate(at_most_i)))))
        G._ucs = (*terms[: max(labels)], E)  # class 0 gives (G,), class 1 (1, G)
    return CentralSeriesChain(G, G._ucs)  # only the terms are cached: a chain would point back at G


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
    if g not in chain.terms[-1].as_set:
        raise NotInGroup("element does not belong to the chain's group")
    for i, term in enumerate(chain.terms):
        if g in term.as_set:
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
    """Exact scan of all order-p elements, the carrier's own tuples in
    carrier order, so one walk beside the carrier reads each one's ucs
    label."""
    chain = upper_central_series(G)
    small = iter(order_p_elements(G))
    g_p = next(small, None)
    occupied: dict[int, tuple] = {}
    for g, layer in zip(enumerate_group(G).elements, _layers(G)):
        if g == g_p:  # ascending: first hit per layer is the witness
            occupied.setdefault(layer, g)
            g_p = next(small, None)
    return SpectrumReport(
        p=G.prime,
        klass=chain.length,
        spectrum=tuple(sorted(occupied)),
        witnesses=occupied,
        layer_orders=chain.orders(),
    )


def _commutator_pass(G: FiniteGroup, chain: CentralSeriesChain) -> tuple:
    """(central, linked): whether the chain is a central series, and if so
    whether it links layers, from one commutator [x, g] per x in
    G_m \\ G_(m-1) and generator g of G.

    The chain must ascend strictly from 1 to G through subgroups (a term is
    one iff its closure is no larger).  It is central iff every [x, g] lies
    in G_(m-1): an x in G_(m-1) was covered a level below, and bottom-up
    [x, gh] = [x, h] [x, g]^h closes the induction over generators.  It
    links layers iff for m >= 2 each x has some [x, g] outside G_(m-2):
    y -> [x, y] G_(m-2) is then a homomorphism into G_(m-1)/G_(m-2), which
    is nontrivial iff it moves a generator.
    """
    sets = [t.as_set for t in chain.terms]
    ascends = sets and sets[0] == {G.identity} and sets[-1] == enumerate_group(G).as_set
    if not ascends or not all(map(frozenset.__lt__, sets, sets[1:])):
        return False, False
    if any(len(subgroup_closure(G, t)) != len(t) for t in sets[1:-1]):
        return False, False
    gens = [g for _, g in G.generators]
    linked = True
    for m in range(1, len(sets)):
        for x in sets[m] - sets[m - 1]:
            comms = [commutator(G, x, g) for g in gens]
            if not sets[m - 1].issuperset(comms):
                return False, False
            linked = linked and (m == 1 or not sets[m - 2].issuperset(comms))
    return True, linked


def is_central_series(G: FiniteGroup, chain: CentralSeriesChain) -> bool:
    """True iff the chain ascends 1 -> G through subgroups with
    [G_i, G] <= G_(i-1) (``_commutator_pass``)."""
    return _commutator_pass(G, chain)[0]


def satisfies_ucs_characterization(G: FiniteGroup, chain: CentralSeriesChain) -> bool:
    """Exact test of the layer-linking property that pins down the ucs.

    For every m >= 2 and every x in G_m \\ G_(m-1), some y in G must push x
    down exactly one layer: [x, y] in G_(m-1) \\ G_(m-2).  A central series
    has this property iff it is the upper central series term by term.  The
    same commutators as ``is_central_series`` decide it; a chain that is not
    central at any level raises PreconditionFailed.
    """
    central, linked = _commutator_pass(G, chain)
    if not central:
        raise PreconditionFailed("chain is not a central series")
    return linked

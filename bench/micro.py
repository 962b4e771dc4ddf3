"""Multiply microbench: microseconds per ``multiply`` on seeded random pairs.

Native families draw random coordinate vectors, which are all elements
(a semidirect product or a Lie-ring vector space is the full coordinate
box), so ``B2(5,4)`` needs no enumeration.  The product draws factorwise;
the quotient and the subgroup draw from their stored carriers.
"""

from __future__ import annotations

import random
import statistics
import time

PAIRS = 20_000
CHUNKS = 4
TRIPLES = 200


def groups():
    from pgs.constructions import make_B2, make_Dc, make_Mc, make_homocyclic, make_second_example
    from pgs.groups import direct_product

    return {
        "constructions.multiply_us.Dc": make_Dc(3, 5),
        "constructions.multiply_us.Mc": make_Mc(3, 8),
        "constructions.multiply_us.homocyclic": make_homocyclic(3, 2, 2, 0),
        "constructions.multiply_us.B2_k2": make_B2(3, 2),
        "constructions.multiply_us.B2_k3": make_B2(7, 3),
        "constructions.multiply_us.B2_k4": make_B2(5, 4),
        "groups.multiply_us.product": direct_product([make_Mc(3, 4), make_B2(3, 2), make_Mc(3, 2)]),
        "groups.multiply_us.quotient": make_second_example(3, 2, 2),
        "groups.multiply_us.subgroup": make_homocyclic(3, 2, 2, 1),
    }


def sampler(G, rng):
    """Return a function drawing uniform elements of G."""
    from pgs.groups import DirectProductGroup, enumerate_group

    if isinstance(G, DirectProductGroup):
        parts = [sampler(f, rng) for f in G.factors]
        return lambda: tuple(x for draw in parts for x in draw())
    if type(G).__name__ in ("SemidirectGroup", "LieBCHGroup"):
        mods = G.coordinate_moduli
        return lambda: tuple(rng.randrange(m) for m in mods)
    elems = enumerate_group(G).elements
    return lambda: elems[rng.randrange(len(elems))]


def associative(G, draw, carrier) -> bool:
    mul = G.multiply
    for _ in range(TRIPLES):
        a, b, c = draw(), draw(), draw()
        ab = mul(a, b)
        if mul(ab, c) != mul(a, mul(b, c)) or mul(a, G.invert(a)) != G.identity:
            return False
        if carrier is not None and ab not in carrier:
            return False
    return True


def run(seed: int) -> dict:
    from pgs.groups import enumerate_group

    out = {}
    for name, G in groups().items():
        rng = random.Random(f"{seed}:{name}")
        draw = sampler(G, rng)
        pairs = [(draw(), draw()) for _ in range(PAIRS)]
        mul = G.multiply
        size = PAIRS // CHUNKS
        per_call = []
        for k in range(CHUNKS):
            chunk = pairs[k * size:(k + 1) * size]
            t = time.perf_counter()
            for a, b in chunk:
                mul(a, b)
            per_call.append((time.perf_counter() - t) / size)
        native = type(G).__name__ in ("SemidirectGroup", "LieBCHGroup")
        carrier = None if native or name.endswith("product") else enumerate_group(G).as_set
        out[name] = {
            "us": statistics.median(per_call) * 1e6,
            "ok": associative(G, draw, carrier),
            "samples": PAIRS,
        }
    return out

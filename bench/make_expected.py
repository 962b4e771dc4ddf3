"""Regenerate bench/expected.json (output digests of a reference commit)
and bench/recipe_bins.json (the recipe cost bins).

Usage (from the repository root, at the commit whose outputs are the
reference):

    python3 bench/make_expected.py [--part native,battery,recipes]

The recipe table covers every recipe ``random_recipes`` can draw under
``workloads.RECIPE_ORDER_CAP`` (1,730 recipes, each run twice; about 20
minutes on one core), so any seed's recipes have a known answer.
Product-spectrum pairs are collected from seeded battery runs until every
same-prime pair of the pool is seen.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

OUT = BENCH / "expected.json"


def all_recipes(cap: int) -> list:
    """Every description ``random_recipes`` can emit below ``cap``."""
    from pgs.verify import _recipe_pool

    out = []
    for p in (2, 3, 5):
        pool = _recipe_pool(p)
        for nf in (2, 3):
            for picks in itertools.product(pool, repeat=nf):
                order = 1
                for _, o, _ in picks:
                    order *= o
                if order > cap:
                    continue
                desc = {"op": "product", "factors": [d for d, _, _ in picks]}
                out.append(desc)
                words = [w for _, _, w in picks[:2]]
                if all(words):
                    out.append({"op": "central_quotient", "group": desc,
                                "word": f"f0.{words[0]}*f1.{words[1]}"})
    return out


def recipes_part() -> dict:
    """Digest of every recipe's report; writes the recipe cost bins aside.

    A recipe's cost is the smaller CPU time of two runs.  Counts of native
    ``multiply`` calls were tried instead, being exact, but they miss the
    composite arithmetic and left the seed-to-seed spread of a pass's cost
    3x wider.
    """
    table, cost = {}, {}
    descs = all_recipes(workloads.RECIPE_ORDER_CAP)
    for i, desc in enumerate(descs):
        key = workloads.recipe_key(desc)
        for _ in range(2):
            c = time.process_time()
            out = workloads.run_recipe({"recipe": desc})
            c = time.process_time() - c
            if not out["ok"]:
                raise SystemExit(f"recipe fails its theorem check: {desc}")
            if table.setdefault(key, out["digest"]) != out["digest"]:
                raise SystemExit(f"recipe report differs between runs: {desc}")
            cost[key] = min(cost.get(key, c), c)
        if i % 100 == 0:
            print(f"recipes {i}/{len(descs)}", file=sys.stderr)
    if len(table) != len(descs):
        raise SystemExit("recipe key collision")
    ranked = sorted(cost, key=lambda k: (cost[k], k))
    bins = {k: i * workloads.RECIPE_BINS // len(ranked) for i, k in enumerate(ranked)}
    workloads.RECIPE_BINS_FILE.write_text(json.dumps(bins, sort_keys=True, indent=0) + "\n")
    return {"recipes": table}


def native_part() -> dict:
    work = BENCH.parent / ".bench_work" / "native"
    table = {}
    for item in workloads.make_native(work):
        out = workloads.run_native(item)
        want = workloads.native_known_answer(workloads.NATIVE_GROUPS[item["group"]])
        for key, value in out["answer"].items():
            if value != want[key]:
                raise SystemExit(f"{workloads.native_label(item)}: {key} {value} != formula {want[key]}")
        table[workloads.native_label(item)] = out["digest"]
    return {"native": table}


def battery_part() -> dict:
    from pgs.verify import run_paper_suite

    table, counts = {}, {}
    for item in workloads.make_battery(1):
        out = workloads.run_battery(item)
        if not out["ok"]:
            raise SystemExit(f"battery item fails: {item}")
        counts[workloads.battery_label(item)] = len(out["records"])
        for key, _, dig in out["records"]:
            table[key] = dig
    # every same-prime product pair the seeded pair generator can draw
    sides, pairs = set(), set()
    for seed in range(1, 500):
        for r in run_paper_suite(seed=seed, random_count=0, only=["product_spectrum"]).records:
            d = r.as_dict()
            table[workloads.record_key(d["check"], d["params"])] = workloads.record_digest(d)
            left, right = (workloads.canonical(d["params"][k]) for k in ("left", "right"))
            sides.update([left, right])
            pairs.add((left, right))
        by_p = {}
        for s in sides:
            by_p.setdefault(json.loads(s)["p"], []).append(s)
        if all((a, b) in pairs for group in by_p.values() for a in group for b in group):
            break
    else:
        raise SystemExit("product pairs did not saturate")
    print(f"product pairs: {len(pairs)} from {seed} seeds", file=sys.stderr)
    return {"battery": table, "battery_counts": counts}


PARTS = {"native": native_part, "battery": battery_part, "recipes": recipes_part}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--part", default=",".join(PARTS))
    args = ap.parse_args()
    data = json.loads(OUT.read_text()) if OUT.is_file() else {}
    for part in args.part.split(","):
        data.update(PARTS[part]())
    OUT.write_text(json.dumps(data, sort_keys=True, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

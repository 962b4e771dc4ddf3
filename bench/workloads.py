"""The benchmark's three workloads: inputs, items, and known-answer checks.

Each workload is a list of items run in a closed loop by one caller: the
next item starts only after the previous verdict.  Inputs are made from the
seed alone; ``pgs`` receives only the generated inputs.

* ``recipes``: product and central-quotient recipes from the battery's own
  generator ``pgs.verify.random_recipes``, each built and checked with
  ``verify_theorem_part1``.  Composite element arithmetic dominates.
* ``native_large``: ``pgs spectrum --json`` and ``pgs series --lower --json``
  run in-process through ``pgs.cli.main`` on one large group of each native
  family.  Native ``multiply`` dominates; every group is above the
  1,500-element Cayley-table bound of ``pgs.groups``.
* ``battery``: the fixed paper battery, ``run_paper_suite(random_count=0)``,
  one check name per item, without the one 35-45 s record
  ``partb (3,[3],4)``, which alone is longer than a run.

Functions named ``make_*``/``run_*`` execute in the worker process and may
import ``pgs``; ``check_*`` run in the parent and must not.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

WORKLOADS = ("recipes", "native_large", "battery")

RECIPE_ORDER_CAP = 20_000


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# recipes


def recipe_key(desc) -> str:
    return digest(canonical(desc))[:12]


# Recipe costs are heavy-tailed (0.01 s to 2.9 s at this cap), so the first
# n recipes of a seed vary by 2x in total cost from seed to seed.  Each pass
# therefore takes one recipe per cost bin: the recipe space is split into
# RECIPE_BINS bins of equal count by each recipe's CPU time at the reference
# commit (bench/recipe_bins.json), and each bin gets the first recipe of the
# seed's random_recipes stream that falls in it.
RECIPE_BINS = 30
RECIPE_STREAM = 2000  # filling all bins took at most 448 draws over seeds 1-500
RECIPE_BINS_FILE = Path(__file__).resolve().parent / "recipe_bins.json"


def make_recipes(seed: int) -> list:
    """One recipe per cost bin; raises if a draw has no bin or a bin stays empty."""
    from pgs.verify import random_recipes

    recipe_bin = json.loads(RECIPE_BINS_FILE.read_text())
    if set(recipe_bin.values()) != set(range(RECIPE_BINS)):
        raise ValueError(f"{RECIPE_BINS_FILE.name} does not hold {RECIPE_BINS} bins")
    chosen = {}
    for desc in random_recipes(seed, RECIPE_STREAM, RECIPE_ORDER_CAP):
        b = recipe_bin.get(recipe_key(desc))
        if b is None:
            raise ValueError(f"recipe has no cost bin: {canonical(desc)}")
        if b not in chosen:
            chosen[b] = {"recipe": desc}
            if len(chosen) == RECIPE_BINS:
                return list(chosen.values())
    raise ValueError(f"{RECIPE_STREAM} draws filled {len(chosen)} of {RECIPE_BINS} cost bins")


def run_recipe(item) -> dict:
    from pgs.constructions import build_from_description
    from pgs.verify import verify_theorem_part1

    report = verify_theorem_part1(build_from_description(item["recipe"]))
    return {"ok": report["passed"], "digest": digest(canonical(report))}


def check_recipe(item, out, expected) -> str | None:
    if not out["ok"]:
        return "theorem check failed"
    want = expected["recipes"].get(recipe_key(item["recipe"]))
    if want is None:
        return "recipe has no known answer"
    if out["digest"] != want:
        return "report differs from the seed commit"
    return None


# native_large

# Hall-basis dimension of each weight in the free Lie ring on two generators.
_HALL_WEIGHT_DIMS = {1: 2, 2: 1, 3: 2, 4: 3}

NATIVE_GROUPS = {
    "B2(7,3)": {"family": "B2", "p": 7, "k": 3},
    # Mc(3,8) (19,683 elements, near B2(7,3) in size) was the first choice, but its
    # lower series alone takes 8 s, so three passes did not fit in a run.
    "Mc(3,7)": {"family": "Mc", "p": 3, "c": 7},
    "Dc(3,5)": {"family": "Dc", "p": 3, "c": 5},
}


def native_known_answer(desc) -> dict:
    """Spectrum and series orders from the paper's formulas, not the program.

    ``upper`` and ``lower`` are ascending layer orders; ``lower`` lists
    gamma_(c+1) < ... < gamma_1.
    """
    fam, p = desc["family"], desc["p"]
    if fam == "B2":
        k = desc["k"]
        # Z_i and gamma_(k+1-i) are both the span of weights > k - i
        dims = [_HALL_WEIGHT_DIMS[w] for w in range(k, 0, -1)]
        upper = [p ** sum(dims[:i]) for i in range(k + 1)]
        return {"spectrum": list(range(1, k + 1)), "upper": upper, "lower": upper}
    c = desc["c"]
    if fam == "Mc":
        # maximal class: |G| = p^(c+1), every layer of order p except the top p^2
        upper = [p**i for i in range(c)] + [p ** (c + 1)]
        spec = sorted(set(range(1, min(c - 1, p - 1) + 1)) | {c})
        return {"spectrum": spec, "upper": upper, "lower": upper}
    if fam == "Dc":
        # Z_i = <x^(p^(c-i)), y^(p^(c-i))> and gamma_(k+1) = <x^(p^k)>
        upper = [p ** (2 * i) for i in range(c + 1)]
        lower = [p**i for i in range(c)] + [p ** (2 * c)]
        return {"spectrum": [1], "upper": upper, "lower": lower}
    raise ValueError(f"no formula for family {fam!r}")


def make_native(workdir: Path) -> list:
    """Write one description file per group.

    The groups are fixed, so the seed changes nothing here.  The command
    order is fixed too: a seeded order moved peak RSS by 10 % through
    allocator fragmentation alone.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    items = []
    for name, desc in NATIVE_GROUPS.items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(desc))
        items.append({"group": name, "argv": ["spectrum", str(path), "--json"]})
        items.append({"group": name, "argv": ["series", str(path), "--lower", "--json"]})
    return items


def run_native(item) -> dict:
    from pgs.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(item["argv"])
    text = buf.getvalue()
    out = {"ok": rc == 0, "digest": digest(text)}
    if rc == 0:
        data = json.loads(text)
        if item["argv"][0] == "spectrum":
            out["answer"] = {"spectrum": data["spectrum"], "upper": data["layer_orders"]}
        else:
            out["answer"] = {"lower": sorted(data["orders"])}
    return out


def native_label(item) -> str:
    return f"{item['argv'][0]} {item['group']}"


def check_native(item, out, expected) -> str | None:
    if not out["ok"]:
        return "command exited nonzero"
    want = native_known_answer(NATIVE_GROUPS[item["group"]])
    for key, value in out["answer"].items():
        if value != want[key]:
            return f"{key} {value} differs from the paper's {want[key]}"
    if out["digest"] != expected["native"][native_label(item)]:
        return "JSON output differs from the seed commit"
    return None


# battery

# Each filter selects check names by substring, as ``run_paper_suite(only=)``
# does; "eq_powers", "prop_same" and "ucs_characterization" also select their
# suffixed siblings.  "partb" is left out: see PARTB_PARAMS.
BATTERY_FILTERS = (
    "dc_spectrum",
    "mc_spectrum",
    "theorem_part1",
    "lemma2_question",
    "question_none_dihedral",
    "eq_powers",
    "lemma_fact",
    "product_spectrum",
    "prop_same",
    "homocyclic",
    "second_example",
    "partb_decompose",
    "ucs_characterization",
    "dc_lcs_layers",
)

# Every check name the items above produce, for the per-check metrics.
BATTERY_CHECKS = (
    "dc_lcs_layers", "dc_spectrum", "eq_powers", "eq_powers_unit", "homocyclic",
    "lemma2_question", "lemma_fact", "mc_spectrum", "partb", "partb_decompose",
    "product_spectrum", "prop_same", "prop_same_example_k", "question_none_dihedral",
    "second_example", "theorem_part1", "ucs_characterization", "ucs_characterization_refined",
)

# The battery's partb records other than (3, [3], 4), run through the same
# public verifier the battery calls.
PARTB_PARAMS = ((2, (2,), 3), (2, (2, 3), 4), (3, (3,), 3))


def make_battery(seed: int) -> list:
    items = [{"filter": f, "seed": seed} for f in BATTERY_FILTERS]
    items += [{"partb": [p, list(cs), c]} for p, cs, c in PARTB_PARAMS]
    return items


def record_key(check: str, params: dict) -> str:
    """Records keyed without the seed-dependent ``index`` of product pairs."""
    return check + " " + canonical({k: v for k, v in params.items() if k != "index"})


def record_digest(as_dict: dict) -> str:
    body = dict(as_dict, params={k: v for k, v in as_dict["params"].items() if k != "index"})
    return digest(canonical(body))


def run_battery(item) -> dict:
    from pgs.verify import run_paper_suite, verify_partb_structure

    if "partb" in item:
        p, cs, c = item["partb"]
        report = verify_partb_structure(p, cs, c)
        key = record_key("partb", {"p": p, "cs": cs, "c": c})
        ok = report["passed"] and report["spectrum"] == sorted(set(range(1, p)) | set(cs))
        return {"ok": ok, "records": [[key, ok, digest(canonical(report))]]}
    suite = run_paper_suite(seed=item["seed"], random_count=0, only=[item["filter"]])
    records = []
    for r in suite.records:
        d = r.as_dict()
        records.append([record_key(d["check"], d["params"]), r.passed and r.error is None, record_digest(d)])
    # the suite's own per-check timing, in whole milliseconds
    millis = {}
    for r in suite.records:
        millis[r.check] = millis.get(r.check, 0) + r.millis
    return {"ok": suite.passed, "records": records, "millis": millis}


def check_battery(item, out, expected) -> str | None:
    if not out["ok"]:
        return "a check failed"
    label = battery_label(item)
    if len(out["records"]) != expected["battery_counts"][label]:
        return f"{len(out['records'])} records, expected {expected['battery_counts'][label]}"
    for key, ok, dig in out["records"]:
        if not ok:
            return f"{key} failed"
        if expected["battery"].get(key) != dig:
            return f"{key} differs from the seed commit"
    return None


def battery_label(item) -> str:
    if "partb" in item:
        p, cs, c = item["partb"]
        return f"partb ({p},{canonical(cs)},{c})"
    return item["filter"]


# dispatch


def make_items(workload: str, seed: int, workdir: Path) -> list:
    if workload == "recipes":
        return make_recipes(seed)
    if workload == "native_large":
        return make_native(workdir / "native")
    return make_battery(seed)


RUN = {"recipes": run_recipe, "native_large": run_native, "battery": run_battery}
CHECK = {"recipes": check_recipe, "native_large": check_native, "battery": check_battery}

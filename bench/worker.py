"""One pass of a workload in a fresh process.

Usage: python bench/worker.py --workload NAME --seed N --mode MODE

Modes: ``setup`` (import and make inputs, then stop), ``plain`` (run every
item once), ``traced`` (the same with spans and counters) and ``micro``
(the multiply microbench).  Prints one JSON object on stdout.  Every pass
starts cold, as a user's ``pgs`` process does, so per-process caches cannot
carry over from one pass to the next.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKDIR = ROOT / ".bench_work"

# Element-level functions get no spans: they run inside the hot loops.
UNTRACED = {"element_order", "commutator", "layer_index", "valuation"}
LAYERS = ("groups", "constructions", "series", "verify", "cli", "cyclo", "linalg")
CONSTRUCTORS = {"build_from_description", "central_quotient_diagonal"}
MULTIPLY_CLASSES = {
    "groups": ("DirectProductGroup", "QuotientGroup", "SubgroupGroup"),
    "constructions": ("SemidirectGroup", "LieBCHGroup"),
}


def _arg_key(args, kwargs) -> str:
    def norm(x):
        if isinstance(x, dict):
            return json.dumps(x, sort_keys=True)
        return repr(x)

    return "|".join(norm(a) for a in args) + "|" + repr(sorted(kwargs.items()))


def _group_key(args, kwargs) -> str:
    G = args[0] if args else kwargs["G"]
    return f"{type(G).__name__}|{G!r}|{G.generators!r}"


def install_tracing(tracer) -> None:
    """Wrap every public group-level function of the seven pgs modules."""
    import importlib
    import inspect

    mods = {layer: importlib.import_module(f"pgs.{layer}") for layer in LAYERS}
    for layer, mod in mods.items():
        for name, fn in sorted(vars(mod).items()):
            if (
                not inspect.isfunction(fn)
                or fn.__module__ != mod.__name__
                or name.startswith("_")
                or name in UNTRACED
            ):
                continue
            key = on_result = None
            if layer == "constructions" and (name in CONSTRUCTORS or name.startswith("make_")):
                key = _arg_key
            elif name == "upper_central_series":
                key = _group_key
            elif name == "subgroup_closure":
                def on_result(E):
                    tracer.counts["closure_elements"] += len(E)
            tracer.rebind("pgs", fn, tracer.wrap(layer, name, fn, key, on_result))
    for layer, classes in MULTIPLY_CLASSES.items():
        for cls_name in classes:
            tracer.count_calls(getattr(mods[layer], cls_name), "multiply", f"{layer}.multiply")


def layer_metrics(tracer, wall: float) -> dict:
    """Per-layer self times, counts and shares of one traced pass."""
    from tracer import KEY, LAYER, NAME, PARENT

    spans = tracer.spans
    self_t = tracer.self_times()
    by_name: dict = {}
    by_layer = dict.fromkeys(LAYERS, 0.0)
    calls: dict = {}
    for s, st in zip(spans, self_t):
        by_name[s[NAME]] = by_name.get(s[NAME], 0.0) + st
        by_layer[s[LAYER]] += st
        calls[s[NAME]] = calls.get(s[NAME], 0) + 1

    def self_of(*names):
        return sum(by_name.get(n, 0.0) for n in names)

    # outermost constructions: construction spans with no construction ancestor
    is_ctor = [s[KEY] is not None and s[LAYER] == "constructions" for s in spans]
    outer_ctor = []
    for i, s in enumerate(spans):
        if not is_ctor[i]:
            continue
        p = s[PARENT]
        while p >= 0 and not is_ctor[p]:
            p = spans[p][PARENT]
        if p < 0:
            outer_ctor.append(f"{s[NAME]}|{s[KEY]}")
    ucs_groups = {s[KEY] for s in spans if s[NAME] == "upper_central_series"}
    ucs_calls = calls.get("upper_central_series", 0)

    traced_total = sum(by_layer.values())
    untraced = wall - traced_total
    m = {
        "groups.multiply_calls": tracer.counts["groups.multiply"],
        "groups.closure_s": self_of("subgroup_closure"),
        "groups.closure_elements": tracer.counts["closure_elements"],
        "groups.quotient_s": self_of("quotient_group"),
        "groups.quotients": calls.get("quotient_group", 0),
        "groups.center_s": self_of("center", "centralizer"),
        "groups.pth_power_s": self_of("is_pth_power", "omega1_subgroup", "generated_by_order_p"),
        "groups.direct_factor_search_s": self_of("direct_factor_search"),
        "constructions.multiply_calls": tracer.counts["constructions.multiply"],
        "constructions.build_s": by_layer["constructions"],
        "constructions.builds": len(outer_ctor),
        "constructions.builds_per_description": len(outer_ctor) / max(1, len(set(outer_ctor))),
        "series.lcs_s": self_of("lower_central_series"),
        "series.ucs_s": self_of("upper_central_series"),
        "series.ucs_calls": ucs_calls,
        "series.ucs_per_group": ucs_calls / max(1, len(ucs_groups)),
        "series.spectrum_scan_s": self_of("spectrum"),
        "series.characterization_s": self_of("satisfies_ucs_characterization", "is_central_series"),
        "verify.self_s": by_layer["verify"],
        "cli.self_s": by_layer["cli"],
        "cyclo.s": by_layer["cyclo"],
        "linalg.s": by_layer["linalg"],
        "trace.wall_s": wall,
        "trace.spans": len(spans),
        "trace.untraced_s": untraced,
    }
    for layer in LAYERS:
        m[f"share.{layer}"] = by_layer[layer] / wall
    m["share.untraced"] = untraced / wall
    return m


def cpu_time() -> float:
    """User+sys CPU of this process and of every child it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Largest maximum RSS of this process or of any child it has waited for."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024


def run_pass(items: list, run, tracer=None) -> dict:
    """Run items in a closed loop; time each one in wall-clock and CPU time.

    The machine-speed reference is measured between items; ``ref`` of an
    item is the mean of the measurements just before and just after it.
    ``wall`` and ``cpu`` sum the item times, leaving those measurements out.
    """
    from speed import reference_time

    results = []
    ref = reference_time()
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.trace_id = i
        c = cpu_time()
        t = time.perf_counter()
        try:
            out = run(item)
        except Exception as exc:  # an item that raises is counted as failed
            out = {"ok": False, "error": f"{type(exc).__name__}: {exc}",
                   "traceback": traceback.format_exc(limit=4)}
        out["t"] = time.perf_counter() - t
        out["c"] = cpu_time() - c
        after = reference_time()
        out["ref"] = (ref + after) / 2
        ref = after
        results.append(out)
    return {"wall": sum(o["t"] for o in results), "cpu": sum(o["c"] for o in results),
            "items": results}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "plain", "traced", "micro"), required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import pgs  # noqa: F401
    import pgs.cli  # noqa: F401
    import workloads

    if args.mode == "micro":
        import micro

        out = {"t_ready": time.monotonic(), "micro": micro.run(args.seed)}
        print(json.dumps(out))
        return 0

    items = workloads.make_items(args.workload, args.seed, WORKDIR)
    out = {"t_ready": time.monotonic(), "items_in": items}
    if args.mode != "setup":
        tracer = None
        if args.mode == "traced":
            from tracer import Tracer

            tracer = Tracer()
            install_tracing(tracer)
        try:
            out.update(run_pass(items, workloads.RUN[args.workload], tracer))
        finally:
            if tracer is not None:
                tracer.restore()
        out["maxrss_mb"] = peak_rss_mb()
        if tracer is not None:
            out["layers"] = layer_metrics(tracer, out["wall"])
            WORKDIR.mkdir(exist_ok=True)
            with open(WORKDIR / f"spans-{args.workload}-{args.seed}.json", "w") as fh:
                json.dump({"fields": ["layer", "name", "start", "end", "parent", "trace", "key"],
                           "spans": tracer.spans}, fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

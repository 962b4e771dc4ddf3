"""Command-line front end.

Commands take a JSON description file (see ``constructions.parse_description``
for the schema) and print text or machine-readable JSON.  Exit codes:
0 success, 1 a verification check failed, 2 invalid input, 3 resource limit.

JSON output is byte-stable for a fixed input and seed; per-check timings are
zeroed in JSON unless --timings is passed (text output always shows them).
``pgs suite`` also prints one progress line per finished check to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .constructions import build_from_description, parse_description
from .errors import ParseError, ResourceLimit, ToolkitError
from .groups import (
    DEFAULT_DECOMPOSE_BOUND,
    DEFAULT_MAX_ORDER,
    center,
    direct_factor_search,
    enumerate_group,
)
from .series import lower_central_series, nilpotence_class, spectrum, upper_central_series
from .verify import (
    DEFAULT_SEED,
    CheckRecord,
    SuiteReport,
    run_check,
    run_paper_suite,
    verify_eq_powers,
    verify_lemma2,
    verify_lemma_fact,
    verify_product_spectrum,
    verify_prop_same,
    verify_question,
    verify_regularity_power,
    verify_theorem_part1,
)


def _max_order(flag: int | None) -> int:
    """The --max-order flag, else PGS_MAX_ORDER, else the default; must be positive."""
    raw = os.environ.get("PGS_MAX_ORDER", DEFAULT_MAX_ORDER) if flag is None else flag
    try:
        bound = int(raw)
    except ValueError:
        raise ParseError(f"PGS_MAX_ORDER must be an integer, got {raw!r}")
    if bound < 1:
        raise ParseError(f"the order bound must be positive, got {bound}")
    return bound


def _load_description(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ParseError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON in {path} at line {exc.lineno} column {exc.colno}: {exc.msg}")
    except ValueError as exc:  # e.g. an integer literal above the digit limit
        raise ParseError(f"unreadable description in {path}: {exc}")
    except RecursionError:
        raise ParseError(f"description in {path} is nested too deeply to read")


def _emit(obj, as_json: bool, text_lines) -> None:
    if as_json:
        print(json.dumps(obj, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def cmd_describe(args) -> int:
    G = build_from_description(_load_description(args.file), args.max_order)
    E = enumerate_group(G)
    chain = upper_central_series(G)
    out = {
        "description": repr(G),
        "order": len(E),
        "class": chain.length,
        "generators": [name for name, _ in G.generators],
        "layer_orders": list(chain.orders()),
    }
    _emit(
        out,
        args.json,
        [
            f"description: {out['description']}",
            f"order: {out['order']}",
            f"class: {out['class']}",
            "generators: " + ", ".join(out["generators"]),
            "layer_orders: " + ", ".join(map(str, out["layer_orders"])),
        ],
    )
    return 0


def cmd_spectrum(args) -> int:
    G = build_from_description(_load_description(args.file), args.max_order)
    sp = spectrum(G)
    out = sp.as_dict()
    lines = [
        f"p: {out['p']}",
        f"class: {out['class']}",
        "spectrum: {" + ", ".join(map(str, out["spectrum"])) + "}",
        "layer_orders: " + ", ".join(map(str, out["layer_orders"])),
    ]
    for layer, wit in sorted(sp.witnesses.items()):
        lines.append(f"witness layer {layer}: {tuple(wit)}")
    _emit(out, args.json, lines)
    return 0


def cmd_series(args) -> int:
    G = build_from_description(_load_description(args.file), args.max_order)
    if args.lower:
        chain = lower_central_series(G)
        terms = list(reversed(chain.terms))  # gamma_1 .. gamma_(c+1)
        kind = "lower"
    else:
        chain = upper_central_series(G)
        terms = list(chain.terms)
        kind = "upper"
    witnesses = []
    for prev, cur in zip(terms, terms[1:]):
        big, small = (cur, prev) if len(cur) > len(prev) else (prev, cur)
        wit = next(g for g in big.elements if g not in small.as_set)
        witnesses.append(list(wit))
    out = {
        "kind": kind,
        "orders": [len(t) for t in terms],
        "layer_witnesses": witnesses,
    }
    lines = [f"kind: {kind}", "orders: " + ", ".join(map(str, out["orders"]))]
    lines += [f"layer {i + 1} witness: {tuple(w)}" for i, w in enumerate(witnesses)]
    _emit(out, args.json, lines)
    return 0


def _verify_records_for(desc_obj, args) -> list[CheckRecord]:
    desc = parse_description(desc_obj)
    records = []

    def run(name, params, thunk):
        if not args.check or any(f in name for f in args.check):
            records.append(run_check(name, params, thunk))

    G = build_from_description(desc, args.max_order)

    run("theorem_part1", {}, lambda: _unpack(verify_theorem_part1(G)))
    run("lemma2", {}, lambda: _unpack(verify_lemma2(G)))

    if len(center(G)) < len(enumerate_group(G)):
        run("question_witness", {}, lambda: _unpack(verify_question(G)))

    if nilpotence_class(G) <= G.prime - 1:
        run("regularity_power", {}, lambda: _unpack(verify_regularity_power(G, seed=args.seed)))

    if desc.kind == "Mc":
        p, c = desc.params["p"], desc.params["c"]
        run("lemma_fact", {"p": p, "c": c}, lambda: _unpack(verify_lemma_fact(G)))
        if c >= p:
            run("eq_powers", {"p": p, "c": c}, lambda: _unpack(verify_eq_powers(G)))

    if desc.kind == "product" and len(desc.factors) == 2:
        run("product_spectrum", {}, lambda: _unpack(verify_product_spectrum(G)))

    if (
        desc.kind == "central_quotient"
        and desc.inner is not None
        and desc.inner.kind == "product"
        and len(desc.inner.factors) == 2
        and desc.word.count("*") == 1
    ):
        t1, t2 = desc.word.split("*")
        if not t1.startswith("f0.") or not t2.startswith("f1."):
            raise ParseError("prop_same needs a word of the form f0.<w>*f1.<w>")
        run("prop_same", {"word": desc.word}, lambda: _unpack(verify_prop_same(G, seed=args.seed)))

    return records


def _unpack(report: dict):
    witness = report.get("witness")
    details = {k: v for k, v in report.items() if k not in ("passed", "witness")}
    return report["passed"], witness, details


def _print_records(records, args, seed=None) -> None:
    if args.json:
        out = {
            "records": [r.as_dict(args.timings) for r in records],
            "pass": all(r.passed for r in records),
        }
        if seed is not None:
            out["seed"] = seed
        print(json.dumps(out, sort_keys=True, indent=2))
    else:
        for r in records:
            status = "PASS" if r.passed else "FAIL"
            extra = f" [{r.error}]" if r.error else ""
            print(f"{status} {r.check} {json.dumps(r.params, sort_keys=True)}{extra} ({r.millis} ms)")
        n_fail = sum(not r.passed for r in records)
        print(f"{len(records) - n_fail}/{len(records)} checks passed")


def cmd_verify(args) -> int:
    records = _verify_records_for(_load_description(args.file), args)
    if args.check and not records:
        raise ParseError(f"no checks matched filter {','.join(args.check)!r}")
    _print_records(records, args)
    return SuiteReport(args.seed, records).exit_status


def cmd_suite(args) -> int:
    done = {"passed": 0, "failed": 0}

    def progress(r: CheckRecord) -> None:
        done["passed" if r.passed else "failed"] += 1
        print(
            f"{r.check} {json.dumps(r.params, sort_keys=True)} {r.millis} ms"
            f" ({done['passed']} passed, {done['failed']} failed)",
            file=sys.stderr,
            flush=True,
        )

    report = run_paper_suite(
        max_order=args.max_order,
        decompose_bound=args.decompose_bound,
        seed=args.seed,
        only=args.check,
        on_record=progress,
    )
    if args.check and not report.records:
        raise ParseError(f"no checks matched filter {','.join(args.check)!r}")
    if args.json:
        print(json.dumps(report.as_dict(args.timings), sort_keys=True, indent=2))
    else:
        _print_records(report.records, args, seed=report.seed)
    return report.exit_status


def cmd_decompose(args) -> int:
    G = build_from_description(_load_description(args.file), args.max_order)
    split = direct_factor_search(G, args.decompose_bound)
    if split is None:
        out = {"decomposable": False, "factor_orders": None}
        lines = ["decomposable: no"]
    else:
        out = {"decomposable": True, "factor_orders": [len(x) for x in split]}
        lines = ["decomposable: yes", f"factor_orders: {out['factor_orders']}"]
    _emit(out, args.json, lines)
    return 0


def _add_common(sub, with_file=True, decompose=False, checks=False):
    """Give a subcommand the flags it reads: always --json and --max-order."""
    if with_file:
        sub.add_argument("file", help="JSON group description file")
    sub.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    sub.add_argument("--max-order", type=int, default=None, help="enumeration bound")
    if decompose:
        sub.add_argument("--decompose-bound", type=int, default=DEFAULT_DECOMPOSE_BOUND)
    if checks:
        sub.add_argument("--seed", type=int, default=DEFAULT_SEED)
        sub.add_argument(
            "--check",
            type=lambda s: [x for x in s.split(",") if x],
            default=None,
            help="comma-separated check-name filter",
        )
        sub.add_argument("--timings", action="store_true", help="include real timings in JSON")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pgs",
        description="Exact computations with finite p-groups: spectra, central series, verifications.",
    )
    subs = ap.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("describe", help="order, class, generators, layer orders")
    _add_common(sub)
    sub.set_defaults(func=cmd_describe)

    sub = subs.add_parser("spectrum", help="layers of the upper central series with order-p elements")
    _add_common(sub)
    sub.set_defaults(func=cmd_spectrum)

    sub = subs.add_parser("series", help="upper or lower central series")
    _add_common(sub)
    direction = sub.add_mutually_exclusive_group(required=True)
    direction.add_argument("--upper", action="store_true")
    direction.add_argument("--lower", action="store_true")
    sub.set_defaults(func=cmd_series)

    sub = subs.add_parser("verify", help="run applicable checks against a described group")
    _add_common(sub, checks=True)
    sub.set_defaults(func=cmd_verify)

    sub = subs.add_parser("suite", help="run the full verification battery")
    _add_common(sub, with_file=False, decompose=True, checks=True)
    sub.set_defaults(func=cmd_suite)

    sub = subs.add_parser("decompose", help="search for a nontrivial direct decomposition")
    _add_common(sub, decompose=True)
    sub.set_defaults(func=cmd_decompose)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.max_order = _max_order(args.max_order)
        if "decompose_bound" in args and args.decompose_bound < 1:
            raise ParseError(f"the decomposition bound must be positive, got {args.decompose_bound}")
        return args.func(args)
    except ResourceLimit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

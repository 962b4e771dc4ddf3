"""Self-tests for the benchmark's tracer and metric list.

Run from the repository root: python3 -m pytest -q bench/test_tracer.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SMALL_RECIPES = [
    {"op": "product", "factors": [{"family": "Mc", "p": 3, "c": 2}, {"family": "B2", "p": 3, "k": 2}]},
    {"op": "central_quotient",
     "group": {"op": "product", "factors": [{"family": "Dc", "p": 3, "c": 2},
                                            {"family": "cyclic", "p": 3, "e": 2}]},
     "word": "f0.x^3*f1.d^3"},
]


def test_nested_spans_self_time():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    tr = Tracer(clock=lambda: next(ticks))
    inner = tr.wrap("groups", "inner", lambda: None)
    outer = tr.wrap("series", "outer", lambda: (inner(), inner()))
    outer()
    # outer spans 0..10 with children 1..3 and 4..7
    assert [s[1] for s in tr.spans] == ["outer", "inner", "inner"]
    assert tr.self_times() == [5.0, 2.0, 3.0]
    assert sum(tr.self_times()) == tr.spans[0][3] - tr.spans[0][2]


def _bindings():
    import pgs.constructions
    import pgs.groups

    snap = {}
    for name, mod in sys.modules.items():
        if name == "pgs" or name.startswith("pgs."):
            snap.update({(name, k): v for k, v in vars(mod).items()})
    for cls in (pgs.groups.DirectProductGroup, pgs.groups.QuotientGroup, pgs.groups.SubgroupGroup,
                pgs.constructions.SemidirectGroup, pgs.constructions.LieBCHGroup):
        snap[(cls.__name__, "multiply")] = vars(cls).get("multiply")
    return snap


def test_wrappers_cover_name_imports_and_restore():
    import pgs.cli
    import pgs.groups
    import pgs.series
    import pgs.verify

    before = _bindings()
    center = pgs.groups.center
    tr = Tracer()
    worker.install_tracing(tr)
    try:
        # series and verify bind center by name; both must see the wrapper
        assert pgs.series.center is not center
        assert pgs.series.center is pgs.verify.center is pgs.groups.center
    finally:
        tr.restore()
    assert _bindings() == before


def _traced_counts():
    tr = Tracer()
    worker.install_tracing(tr)
    try:
        items = [{"recipe": d} for d in SMALL_RECIPES]
        report = worker.run_pass(items, workloads.run_recipe, tr)
    finally:
        tr.restore()
    assert all(out["ok"] for out in report["items"])
    m = worker.layer_metrics(tr, report["wall"])
    return {k: v for k, v in m.items()
            if k.endswith(("_calls", ".quotients", ".builds", "closure_elements", "ucs_per_group"))}


def test_counts_repeat_for_one_input():
    first = _traced_counts()
    assert first["groups.multiply_calls"] > 0 and first["constructions.builds"] == 2
    assert first["series.ucs_per_group"] == 1.0
    assert _traced_counts() == first


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_native_formulas_match_paper_figures():
    want = {
        "B2(7,3)": ([1, 2, 3], [1, 49, 343, 16807]),
        "Mc(3,8)": ([1, 2, 8], [3**i for i in range(8)] + [3**9]),
        "Dc(3,5)": ([1], [1, 9, 81, 729, 6561, 59049]),
    }
    descs = {
        "B2(7,3)": {"family": "B2", "p": 7, "k": 3},
        "Mc(3,8)": {"family": "Mc", "p": 3, "c": 8},
        "Dc(3,5)": {"family": "Dc", "p": 3, "c": 5},
    }
    for name, (spec, upper) in want.items():
        ans = workloads.native_known_answer(descs[name])
        assert (ans["spectrum"], ans["upper"]) == (spec, upper)


def test_cpu_time_counts_waited_children():
    burn = "import time\nt = time.process_time()\nwhile time.process_time() - t < 0.3: pass"
    c, own = worker.cpu_time(), time.process_time()
    subprocess.run([sys.executable, "-c", burn], check=True)
    assert time.process_time() - own < 0.2
    assert worker.cpu_time() - c >= 0.3


def test_make_recipes_rejects_an_unbinned_draw(tmp_path, monkeypatch):
    bins = tmp_path / "bins.json"
    bins.write_text(json.dumps({f"k{b}": b for b in range(workloads.RECIPE_BINS)}))
    monkeypatch.setattr(workloads, "RECIPE_BINS_FILE", bins)
    with pytest.raises(ValueError, match="no cost bin"):
        workloads.make_recipes(1)

"""pgs benchmark: end-to-end metrics per workload, or per-layer with --trace 1.

Usage (from the repository root):

    python3 bench/run.py --workload recipes --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Workloads are described in bench/workloads.py.  A run repeats passes over
the seed's items, each pass in a fresh worker process (bench/worker.py),
one at a time: at least MIN_PASSES passes, then more until the next would
end after ``--seconds``.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print the same metrics by name, with units, plus ``error_ratio`` and the
run's metadata.

End-to-end metrics (``--trace 0``); every time is scaled to the reference
machine speed of bench/speed.py, measured around each item and worker
start, and the unscaled figures are printed in the ``meta`` line:
  wall_s       time of one pass from the first item to the last verdict,
               averaged over the run's passes
  cpu_s        the same for user+sys CPU time of the worker and of every
               child process it has waited for
  peak_rss_mb  largest maximum RSS of any pass's worker or of its children
  setup_s      median over worker starts of the time from process spawn to
               ready-to-submit: interpreter start, ``import pgs`` and input
               generation; SETUPS_PER_PASS setup-only starts precede each
               pass, so the samples spread over the run
  error_ratio  items that raised, got a failing verdict, or whose output
               differs from the known answer, over items attempted; printed
               by name and carried in the result line as failed/attempted

With ``--trace 1`` the run makes one plain pass, one traced pass and the
multiply microbench, and reports the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKDIR = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from speed import REF_S, reference_time  # noqa: E402

MIN_PASSES = 3
SETUPS_PER_PASS = 5
RUN_LIMIT_S = 175  # one workload's run must end within 180 s, hung workers included

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

def per_layer_units() -> dict:
    units = {}
    for name in ("product", "quotient", "subgroup"):
        units[f"groups.multiply_us.{name}"] = "us"
    units.update({
        "groups.multiply_calls": "count",
        "groups.closure_s": "s",
        "groups.closure_elements": "count",
        "groups.quotient_s": "s",
        "groups.quotients": "count",
        "groups.center_s": "s",
        "groups.pth_power_s": "s",
        "groups.direct_factor_search_s": "s",
    })
    for name in ("Dc", "Mc", "homocyclic", "B2_k2", "B2_k3", "B2_k4"):
        units[f"constructions.multiply_us.{name}"] = "us"
    units.update({
        "constructions.multiply_calls": "count",
        "constructions.build_s": "s",
        "constructions.builds": "count",
        "constructions.builds_per_description": "ratio",
        "series.lcs_s": "s",
        "series.ucs_s": "s",
        "series.ucs_calls": "count",
        "series.ucs_per_group": "ratio",
        "series.spectrum_scan_s": "s",
        "series.characterization_s": "s",
        "verify.self_s": "s",
    })
    for name in workloads.BATTERY_CHECKS:
        units[f"verify.check_s.{name}"] = "s"
    units.update({
        "cli.self_s": "s",
        "cyclo.s": "s",
        "linalg.s": "s",
        "trace.overhead_ratio": "ratio",
        "trace.wall_s": "s",
        "trace.untraced_s": "s",
    })
    for layer in ("groups", "constructions", "series", "verify", "cli", "cyclo", "linalg", "untraced"):
        units[f"share.{layer}"] = "ratio"
    return units


class BenchError(Exception):
    pass


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run one worker to completion, or kill it at ``deadline`` (monotonic).

    Returns the worker's report plus its setup time.
    """
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    env = dict(os.environ, PYTHONHASHSEED="0")
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - t_spawn))
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup"] = report["t_ready"] - t_spawn
    return report


def check_pass(workload: str, report: dict, expected: dict) -> list:
    """Return one problem string per failing item of a pass."""
    problems = []
    check = workloads.CHECK[workload]
    for item, out in zip(report["items_in"], report["items"]):
        problem = out.get("error") or check(item, out, expected)
        if problem:
            problems.append(f"{json.dumps(item)[:120]}: {problem}")
    return problems


def scaled(report: dict, field: str) -> float:
    """A pass's item times summed, each scaled to the reference speed."""
    return sum(out[field] * REF_S / out["ref"] for out in report["items"])


def write_passes(workload, seed, passes) -> None:
    """Keep every pass's per-item times for later inspection."""
    WORKDIR.mkdir(exist_ok=True)
    rows = [{"setup": p["setup"], "wall": p["wall"], "maxrss_mb": p["maxrss_mb"],
             "t": [o["t"] for o in p["items"]], "c": [o["c"] for o in p["items"]],
             "ref": [o["ref"] for o in p["items"]]} for p in passes]
    (WORKDIR / f"passes-{workload}-{seed}.json").write_text(json.dumps(rows))


def run_plain(workload, seed, seconds, expected):
    passes, problems, setups = [], [], []
    t0 = time.monotonic()
    deadline = t0 + RUN_LIMIT_S
    while True:
        for _ in range(SETUPS_PER_PASS):
            before = reference_time()
            setup = spawn(workload, seed, "setup", deadline)["setup"]
            setups.append((setup, (before + reference_time()) / 2))
        report = spawn(workload, seed, "plain", deadline)
        passes.append(report)
        problems += check_pass(workload, report, expected)
        elapsed = time.monotonic() - t0
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    write_passes(workload, seed, passes)
    metrics = {
        "wall_s": statistics.mean(scaled(p, "t") for p in passes),
        "cpu_s": statistics.mean(scaled(p, "c") for p in passes),
        "peak_rss_mb": max(p["maxrss_mb"] for p in passes),
        "setup_s": statistics.median(s * REF_S / r for s, r in setups),
    }
    attempted = sum(len(p["items"]) for p in passes)
    info = {
        "passes": len(passes),
        "items_per_pass": len(passes[0]["items"]),
        "setup_samples": len(setups),
        "unscaled": {"wall_s": statistics.mean(p["wall"] for p in passes),
                     "cpu_s": statistics.mean(p["cpu"] for p in passes),
                     "setup_s": statistics.median(s for s, _ in setups)},
        "pass_wall_s": [p["wall"] for p in passes],
        "setup_s_samples": [s for s, _ in setups],
    }
    return metrics, attempted, problems, info


def check_times(report) -> dict:
    """Seconds per battery check name in one pass, from the suite's own timing."""
    check_s = dict.fromkeys(workloads.BATTERY_CHECKS, 0.0)
    for item, out in zip(report["items_in"], report["items"]):
        if "partb" in item:
            check_s["partb"] += out["t"]
        for name, ms in out.get("millis", {}).items():
            check_s[name] = check_s.get(name, 0.0) + ms / 1000
    return check_s


def run_traced(workload, seed, expected):
    deadline = time.monotonic() + RUN_LIMIT_S
    plain = spawn(workload, seed, "plain", deadline)
    traced = spawn(workload, seed, "traced", deadline)
    micro = spawn(workload, seed, "micro", deadline)["micro"]
    problems = check_pass(workload, plain, expected) + check_pass(workload, traced, expected)
    problems += [f"{name}: multiply is not associative" for name, r in micro.items() if not r["ok"]]
    layers = traced["layers"]
    check_s = check_times(plain)
    units = per_layer_units()
    metrics = {}
    for name in units:
        if name.startswith("verify.check_s."):
            metrics[name] = check_s[name.rsplit(".", 1)[1]]
        elif name in micro:
            metrics[name] = micro[name]["us"]
        elif name == "trace.overhead_ratio":
            metrics[name] = traced["wall"] / plain["wall"]
        else:
            metrics[name] = layers[name]
    attempted = len(plain["items"]) + len(traced["items"]) + len(micro)
    info = {
        "items_per_pass": len(plain["items"]),
        "plain_wall_s": plain["wall"],
        "micro_pairs": {k: v["samples"] for k, v in micro.items()},
        "spans": layers.pop("trace.spans"),
        "spans_file": str(Path(".bench_work") / f"spans-{workload}-{seed}.json"),
    }
    return metrics, attempted, problems, info


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def run_workload(workload, args, expected):
    if args.trace:
        metrics, attempted, problems, info = run_traced(workload, args.seed, expected)
        units = per_layer_units()
    else:
        metrics, attempted, problems, info = run_plain(workload, args.seed, args.seconds, expected)
        units = END_TO_END_UNITS
    failed = len(problems)
    print(f"workload {workload}  seed {args.seed}  trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6f} {units[name]}")
    print(f"  {'error_ratio':<44} {failed / attempted:>14.6f}  ({failed} of {attempted} items)")
    for p in problems[:20]:
        print(f"  FAILED {p}")
    info.update({"workload": workload, "seed": args.seed, "seconds": args.seconds})
    return metrics, units, attempted, failed, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "pgs" / "__init__.py").is_file():
        print(f"error: no pgs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    expected = json.loads((BENCH / "expected.json").read_text())

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    result_metrics, attempted, failed, infos = {}, 0, 0, []
    try:
        for name in names:
            metrics, units, n, f, info = run_workload(name, args, expected)
            prefix = f"{name}." if args.workload == "all" else ""
            for key, value in metrics.items():
                result_metrics[prefix + key] = {"value": value, "unit": units[key]}
            attempted += n
            failed += f
            infos.append(info)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    meta = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "runs": infos,
    }
    print("meta " + json.dumps(meta))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

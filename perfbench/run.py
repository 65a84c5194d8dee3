"""Closed-loop benchmark of the morreylab CLI: one client, one thread, no
think time.  Each task is one ``morreylab.cli.main(argv)`` call made in
process by a fresh worker; every output is checked.

    python3 perfbench/run.py --workload maxfn-large --seed 0 --seconds 12 --trace 0
    python3 perfbench/run.py --quick        # one tiny pass per workload, checks only

Prints one line per metric with its unit, then, as the last line, a JSON
object {"correct", "attempted", "failed", "metrics"}.  ``--trace 0`` gives
the end-to-end metrics; ``--trace 1`` gives the per-layer metrics of
separate traced passes.  Run from the root of a checkout: the program is
imported from its src directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from spans import METRICS as LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
SETUP_LAUNCHES = 5
WORKER_TIMEOUT_S = 150
END_TO_END = {
    "setup_s": "s",
    "tasks_per_s": "1/s",
    "task_ms_p50": "ms",
    "task_ms_tail": "ms",
    "peak_rss_mb": "MB",
}


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "MORREYLAB_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_seconds(plan_path: Path, launches: int) -> list[float]:
    """Spawn-to-ready times of fresh interpreters that import the CLI and
    parse the workload's inputs, after one untimed launch."""
    times = []
    for i in range(launches + 1):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(WORKER), "setup", str(plan_path)],
            stdout=subprocess.PIPE,
            env=_env(),
            text=True,
        ) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe exited with {proc.returncode}")
        if i:
            times.append(t1 - t0)
    return times


def run_worker(plan: dict, workdir: Path) -> dict:
    plan_path, result_path = workdir / "plan.json", workdir / "result.json"
    plan_path.write_text(json.dumps(plan))
    proc = subprocess.run(
        [sys.executable, str(WORKER), "run", str(plan_path), str(result_path)],
        env=_env(),
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(result_path.read_text())


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least 10 of n samples beyond it;
    the maximum when there are too few samples (quick mode only)."""
    return math.floor(100 * (1 - 10 / n)) if n > 10 else 100


def summarize(tasks: list, result: dict, refs: dict) -> dict:
    """Check every execution; figures over the timed passes.

    A task's latency is the worker's CPU time for the call.  The worker is
    single-threaded and computes without waiting, so on an idle machine this
    equals wall time; on a shared host wall time also counts the spells in
    which other tenants hold the CPU, which swamped the tail.  Wall-time
    figures are reported alongside.
    """
    problems, gaps, secs, walls, failed = [], [], [], [], 0
    sections = [("warmup", [result["warmup"]]), ("passes", result["passes"]), ("traced", result.get("traced", []))]
    for section, passes in sections:
        for rows in passes:
            for task, row in zip(tasks, rows):
                if row["rc"] is None:
                    outcome = workloads.Outcome([f"raised {row['err']}"], [])
                else:
                    outcome = workloads.check(task, row["rc"], row["out"], refs.get(task.id))
                problems += [f"{task.id}: {p}" for p in outcome.problems]
                if section == "passes":
                    secs.append(row["cpu"])
                    walls.append(row["s"])
                    gaps += outcome.gaps
                    failed += bool(outcome.problems) or row["rc"] != 0
    n = len(secs)
    ms = sorted(1e3 * s for s in secs)
    pct = tail_percentile(n)
    return {
        "problems": problems,
        "attempted": n,
        "failed": failed,
        "tasks_per_s": n / sum(secs),
        "task_ms_p50": statistics.median(ms),
        "task_ms_tail": ms[math.ceil(pct * n / 100) - 1],
        "tail_pct": pct,
        "wall_tasks_per_s": n / sum(walls),
        "wall_ms_p50": 1e3 * statistics.median(walls),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "bracket_gap": statistics.fmean(gaps) if gaps else 0.0,
        "brackets": len(gaps),
    }


def measure(name: str, seed: int, seconds: float, trace: bool, quick: bool = False) -> dict:
    """One run of one workload: set-up probes (untraced runs only), then one
    worker.  Returns the checked summary, with per-layer figures if traced."""
    workdir = ROOT / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    spans = ROOT / ".perfbench_out" / f"spans-{name}.tsv.gz"
    spans.parent.mkdir(exist_ok=True)
    try:
        wl = workloads.build(name, seed, workdir)
        tasks = wl.quick_tasks if quick else wl.tasks
        passes = 1 if quick else wl.passes(seconds)
        (workdir / "inputs.json").write_text(json.dumps({"src": str(SRC), "inputs": wl.inputs}))
        setup = [] if trace and not quick else setup_seconds(workdir / "inputs.json", 1 if quick else SETUP_LAUNCHES)
        plan = {
            "src": str(SRC),
            "tasks": [t.argv for t in tasks],
            "warmup": not quick,
            "passes": passes,
            "trace": trace,
            "spans": str(spans),
        }
        result = run_worker(plan, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    s = summarize(tasks, result, workloads.load_references(name, seed))
    s.update(workload=name, seed=seed, passes=passes, per_pass=len(tasks), quick=quick)
    if setup:
        s.update(setup_s=statistics.median(setup), setup_launches=len(setup))
    if trace:
        traced = [row["cpu"] for rows in result["traced"] for row in rows]
        s["layers"] = {
            **result["layers"],
            "bracket_gap": s["bracket_gap"],
            "trace_overhead_frac": 1.0 - len(traced) / sum(traced) / s["tasks_per_s"],
        }
        s["traced_task_ms"] = 1e3 * statistics.fmean(row["s"] for rows in result["traced"] for row in rows)
    return s


def end_to_end(s: dict) -> dict:
    return {k: (s[k], u) for k, u in END_TO_END.items()}


def per_layer(s: dict) -> dict:
    return {k: (s["layers"][k], u) for k, u in LAYER_METRICS.items()}


def report(s: dict, metrics: dict) -> None:
    print(
        f"workload {s['workload']} seed {s['seed']}: closed loop, 1 client, "
        f"{s['passes']} timed passes x {s['per_pass']} tasks" + ("" if s["quick"] else " after a warm-up pass")
    )
    notes = {
        "setup_s": f"median of {s.get('setup_launches')} fresh launches",
        "task_ms_tail": f"p{s['tail_pct']} of {s['attempted']} samples, >= 10 beyond it",
        "tasks_per_s": f"CPU time; wall time gives {s['wall_tasks_per_s']:.6g}",
        "task_ms_p50": f"{s['attempted']} samples, CPU time; wall time gives {s['wall_ms_p50']:.6g}",
        "trace_overhead_frac": "1 - traced / untraced tasks_per_s",
    }
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit:6s} {notes.get(name, '')}")
    print(f"  {'failed_frac':42s} {s['failed'] / s['attempted']:14.6g} 1      {s['failed']} of {s['attempted']} tasks")
    if "bracket_gap" not in metrics:
        print(f"  {'bracket_gap':42s} {s['bracket_gap']:14.6g} 1      mean over {s['brackets']} brackets")
    if "traced_task_ms" in s:
        selfs = sorted(((v, k) for k, v in s["layers"].items() if k.endswith(".self_ms")), reverse=True)[:3]
        shares = ", ".join(f"{k.removesuffix('.self_ms')} {v / s['traced_task_ms']:.0%}" for v, k in selfs)
        print(f"  largest self times, share of a traced task's wall time ({s['traced_task_ms']:.4g} ms): {shares}")
    for p in s["problems"][:20]:
        print(f"  CHECK FAILED {p}")


def quick() -> int:
    """One tiny pass per workload at the default seed, traced and untraced
    figures both, checked against BENCHMARK.json's metric names and units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    want_layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    bad = []
    for name in workloads.NAMES:
        s = measure(name, workloads.DEFAULT_SEED, 0, trace=True, quick=True)
        e2e, layers = end_to_end(s), per_layer(s)
        report(s, {**e2e, **layers})
        bad += [f"{name}: {p}" for p in s["problems"]]
        if {k: u for k, (_, u) in e2e.items()} != want_e2e:
            bad.append(f"{name}: end-to-end metrics differ from BENCHMARK.json")
        if {k: u for k, (_, u) in layers.items()} != want_layers:
            bad.append(f"{name}: per-layer metrics differ from BENCHMARK.json")
        if not all(math.isfinite(v) for v, _ in {**e2e, **layers}.values()):
            bad.append(f"{name}: a metric is not finite")
    for b in bad:
        print(f"QUICK FAILED {b}")
    print("quick: ok" if not bad else f"quick: {len(bad)} problems")
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "morreylab" / "cli.py").is_file():
        print(f"error: no morreylab sources under {SRC}", file=sys.stderr)
        return 2
    if args.quick:
        return quick()
    if args.workload is None:
        ap.error("--workload is required unless --quick")
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwinds through subprocess.run, which kills the worker
    s = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = per_layer(s) if args.trace else end_to_end(s)
    report(s, metrics)
    out = {
        "correct": not s["problems"],
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

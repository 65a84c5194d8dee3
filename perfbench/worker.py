"""Worker process: runs a task plan through ``morreylab.cli.main`` in process.

    python3 worker.py setup PLAN          # import the CLI, parse the inputs, print "ready"
    python3 worker.py run PLAN RESULT     # warm-up pass, timed passes, optional traced passes

The plan is JSON written by run.py; the parent sets PYTHONPATH to the
checkout's src directory and pins every thread pool to one thread.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time
from pathlib import Path


def _import_cli(src: str):
    from morreylab import cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"morreylab was imported from {cli.__file__}, not from {src}")
    return cli


def setup(plan: dict) -> None:
    _import_cli(plan["src"])
    from morreylab.stepfn import StepFunction

    for path in plan["inputs"]:
        StepFunction.from_json(Path(path).read_text())
    print("ready", flush=True)


def run_pass(cli, tasks: list[list[str]]) -> list[dict]:
    """Run every task once; a task that raises is recorded, not fatal."""
    rows = []
    for argv in tasks:
        gc.collect()  # each task starts from a clean heap, as a fresh CLI process would
        out, err = io.StringIO(), io.StringIO()
        rc, error = None, ""
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                rc = cli.main(argv)
            except Exception as exc:  # noqa: BLE001 - the failure is the measurement
                error = f"{type(exc).__name__}: {exc}"
            dt, dc = time.perf_counter() - t0, time.process_time() - c0
        rows.append({"s": dt, "cpu": dc, "rc": rc, "out": out.getvalue(), "err": error or err.getvalue()[-400:]})
    return rows


def run(plan: dict, result_path: str) -> None:
    cli = _import_cli(plan["src"])
    tasks = plan["tasks"]
    result = {"warmup": run_pass(cli, tasks) if plan["warmup"] else []}
    result["passes"] = [run_pass(cli, tasks) for _ in range(plan["passes"])]
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if plan["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        result["traced"] = [run_pass(cli, tasks) for _ in range(plan["passes"])]
        result["layers"] = tracer.metrics(plan["passes"] * len(tasks))
        tracer.write_spans(Path(plan["spans"]))
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    mode, plan_path = sys.argv[1], sys.argv[2]
    plan = json.loads(Path(plan_path).read_text())
    if mode == "setup":
        setup(plan)
    else:
        run(plan, sys.argv[3])

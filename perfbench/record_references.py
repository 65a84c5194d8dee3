"""Record every workload's outputs at the default seed into references.json.

    python3 perfbench/record_references.py

Later runs at the default seed (and quick mode) compare their outputs with
these.  Re-record only when a change legitimately moves an output, and say
so in the change's notes.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads


def main() -> int:
    refs = {}
    for name in workloads.NAMES:
        workdir = run.ROOT / ".perfbench_work" / f"record-{name}-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            wl = workloads.build(name, workloads.DEFAULT_SEED, workdir)
            plan = {"src": str(run.SRC), "tasks": [t.argv for t in wl.tasks], "warmup": False, "passes": 1, "trace": False}
            rows = run.run_worker(plan, workdir)["passes"][0]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        refs[name] = {t.id: workloads.reference_of(t, row["out"]) for t, row in zip(wl.tasks, rows)}
        print(f"{name}: {len(rows)} outputs, exit codes {sorted({row['rc'] for row in rows})}")
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's own test: quick mode runs one tiny pass of every workload
at the default seed, traced and untraced, and checks the output schema and
every output check, with no timing assertions.

    python3 -m pytest perfbench/test_quick.py
"""

import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def test_quick_mode_passes_every_check():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick"],
        cwd=HERE.parent,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert proc.stdout.strip().splitlines()[-1] == "quick: ok"

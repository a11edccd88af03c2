"""Self-test of the benchmark, run with `python -m pytest bench`.

It is kept out of the package's own test suite because it exercises the
benchmark harness, not speclust.
"""

import subprocess
import sys
from pathlib import Path


def test_smoke_mode_emits_every_metric_and_passes_every_check():
    bench = Path(__file__).resolve().parent
    done = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--smoke"],
        cwd=bench.parent, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert done.stdout.strip().endswith("smoke passed")

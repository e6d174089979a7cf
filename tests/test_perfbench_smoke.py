"""The benchmark's own checks, run as a test so that any change to a pinned
verdict digest fails the suite: ``perfbench/selfcheck.py`` regenerates
each workload's inputs, checks the oracle, runs a small pass of every
workload and compares the verdict digests with ``perfbench/digests.json``.
It takes about 4 s on a 2-vCPU machine (3.4-4.2 s in five runs)."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selfcheck_passes():
    done = subprocess.run(
        [sys.executable, "perfbench/selfcheck.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]

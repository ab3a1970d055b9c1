"""The benchmark's smoke run passes on this tree.

``perfbench/run.py --smoke`` runs every workload at small sizes, untraced
and traced, and checks that a corrupted copy of each output is caught. It
reads ``src`` and ``BENCHMARK.json`` from its working directory and writes
its reports there, so it runs from a temporary directory that links both
back to the checkout.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_smoke_run_passes(tmp_path):
    for name in ("src", "BENCHMARK.json"):
        (tmp_path / name).symlink_to(ROOT / name)
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "smoke self-check passed"

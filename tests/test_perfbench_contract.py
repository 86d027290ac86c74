"""The traced ``certify`` benchmark calls and patches these package names."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_certify_child_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "certify_child.py"), "6", "5", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["cert"]["pass"] is True
    assert doc["lam"] == 4
    assert "stability.kth_root_ratio_box" in {span["name"] for span in doc["spans"]}

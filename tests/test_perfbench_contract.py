"""The benchmark's workloads call and patch these package names."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

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


def test_table1_workload_check_passes(monkeypatch):
    # The judged table1 op and its check, as the benchmark runs them.
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    orders = workloads.TABLE1_ORDERS
    rows = workloads.table1_run(orders, SimpleNamespace(lib=workloads.library()))
    problems, _ = workloads.table1_check(orders, rows)
    assert problems == []

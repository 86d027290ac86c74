"""The benchmark's workloads call and patch these package names."""

import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from relroots import FVector, HVector, InputError, RatPoly, RootSet, find_roots

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


def test_records_the_controls_replace_are_dataclasses():
    # The benchmark's negative controls corrupt an HVector and a RootSet
    # with dataclasses.replace, which also runs their validation.
    assert all(dataclasses.is_dataclass(cls) for cls in (FVector, HVector, RootSet))
    h = HVector(values=(1, 2), n=3, m=3)
    assert dataclasses.replace(h, values=(1, 3)) == HVector(values=(1, 3), n=3, m=3)
    with pytest.raises(InputError):
        dataclasses.replace(h, values=(2, 3))
    f = FVector(values=(1, 3), n=3, m=3)
    assert dataclasses.replace(f, values=(1, 2)).values == (1, 2)
    rs = find_roots(RatPoly([-2, 0, 1]))
    short = dataclasses.replace(rs, roots=rs.roots[:-1], residuals=rs.residuals[:-1])
    assert (short.roots, short.residuals) == (rs.roots[:1], rs.residuals[:1])

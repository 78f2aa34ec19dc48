"""Checks of the benchmark itself, on its smoke mode (a few hundred elements).

    python3 -m pytest perfbench

Each smoke run takes a few seconds; the whole module well under a minute.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    *_, details, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    details = json.loads(details)
    assert len(details["csv_sha256"]) == 64
    assert details["fail_rate"] == 0.0
    assert {"nproc", "threads", "cpu", "python", "numpy", "scipy"} <= set(details["environment"])
    if trace:
        # the traced repetition wrote the same CSV bytes as the untraced one
        assert details["repetitions"] == {"untraced": 1, "traced": 1}


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", SPEC["workloads"][0]["name"],
                     "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_excludes_direct_children():
    tracer = spans.Tracer()

    def leaf():
        time.sleep(0.02)

    def middle():
        tracer.call("leaf", leaf, (), {})
        tracer.call("leaf", leaf, (), {})
        time.sleep(0.01)

    tracer.call("root", middle, (), {})
    st = tracer.self_times()
    assert st["leaf"][1] == 2 and st["root"][1] == 1
    assert 0.04 <= st["leaf"][0] < 0.06
    assert 0.01 <= st["root"][0] < 0.03
    total = tracer.ends[0] - tracer.starts[0]
    assert sum(s for s, _ in st.values()) == pytest.approx(total)

"""Smoke tests of the benchmark harness at tiny sizes, with no timing gates.

They run the benchmark as the contract in ``BENCHMARK.json`` invokes it and
check the shape of its result, so the harness cannot silently rot.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT, size="smoke"):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", size]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_result_contract(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values())
    elif workload == "dpa-hardened":
        # final attack + MTD + evolution over checkpoints 100, 200, 300
        assert values["cpa.cpa_attack.trace_rows"] == 300 + 2 * (100 + 200 + 300)
        assert values["feistel.vec.calls"] > 0
    elif workload == "analyze-vcd":
        assert values["feistel.vec.calls"] == 0
        assert values["cpa.cpa_attack.calls"] == 0
        assert values["metrics.svf_all.modules"] > 0
    else:
        assert values["metrics.welch_t.calls"] == 2 * (64 * 63 // 2)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("ttest-sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout

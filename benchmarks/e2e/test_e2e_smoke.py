"""Quick end-to-end benchmark smoke: every workload, untraced and traced.

Short runs (``--seconds 1``) through the real ``run.py`` entry point.
Checks the output contract, not the numbers: every emitted metric is
declared in BENCHMARK.json under a valid name, the outputs are correct,
and the traced run attributes its time to layers. Run with::

    pytest benchmarks/e2e/test_e2e_smoke.py -m perf
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.perf
@pytest.mark.parametrize(
    "workload", [workload["name"] for workload in SPEC["workloads"]]
)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_contract(workload, trace):
    result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    kind = "per_layer" if trace else "end_to_end"
    declared = {metric["name"]: metric["unit"] for metric in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(NAME.fullmatch(name) for name in result["metrics"])
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0  # error_rate == 0
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        assert values["trace.coverage"] > 0
    else:
        assert all(value > 0 for value in values.values())

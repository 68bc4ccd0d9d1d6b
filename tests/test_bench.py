"""The benchmark runs on this tree and reads every per-layer metric it declares.

``bench/spans.py`` wraps functions of ``hiertune`` by name, and each workload
calls the library its own way (``full-space`` calls ``rtn.build_full_space``
and ``rtn.build_multiweek_full_space``), so a rename there would break the
benchmark without breaking any other test.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["pso-threads", "pattern-transfer", "full-space"])
def test_traced_benchmark_round_is_correct_and_complete(workload):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
            "--seconds", "0", "--trace", "1"]
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in declared} <= result["metrics"].keys()

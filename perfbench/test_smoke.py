"""Smoke check of the benchmark harness: every workload at a tiny size.

Runs each workload of BENCHMARK.json untraced and traced at 1% of its input
size, and checks that the result line is well formed, that every output
check passed, and that the metric names are exactly the ones BENCHMARK.json
lists. It also checks that the benchmark refuses to run, without printing a
result, in a directory that holds only the benchmark. Takes about a minute:

    python3 perfbench/test_smoke.py
    python -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--scale", "0.01"],
        cwd=root, capture_output=True, text=True, timeout=180,
    )


def test_every_workload_at_tiny_size():
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["failed"] == 0, proc.stdout
            assert result["attempted"] >= 1
            assert set(result["metrics"]) == {m["name"] for m in SPEC[kind]}
            for m in SPEC[kind]:
                got = result["metrics"][m["name"]]
                assert got["unit"] == m["unit"] and math.isfinite(got["value"]), (workload, m, got)


def test_refuses_without_the_program():
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_work") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(bare) / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(Path(bare), SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    test_every_workload_at_tiny_size()
    test_refuses_without_the_program()
    print("perfbench smoke check passed")

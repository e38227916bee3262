#!/usr/bin/env python3
"""Self-test of the benchmark: result schema and exact call counts.

    python3 perfbench/selftest.py

For every workload it makes one short untraced run, whose result line
must carry exactly the end-to-end metrics of BENCHMARK.json with their
units, and two traced runs with the same seed, whose `*.calls` metrics
must be identical and whose metrics must be exactly the per-layer ones.
It sets no timing bound.  Exit code 0 when every assertion holds.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}"
    return json.loads(proc.stdout.splitlines()[-1])


def check_schema(result: dict, spec: list[dict], label: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True and result["failed"] == 0, label
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    want = {metric["name"]: metric["unit"] for metric in spec}
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert got == want, f"{label}: metrics differ from BENCHMARK.json: {set(got) ^ set(want)}"
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), f"{label}: {name}={value}"


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in bench["workloads"]):
        check_schema(run(workload, 0), bench["end_to_end"], f"{workload} untraced")
        first, second = run(workload, 1), run(workload, 1)
        for result in (first, second):
            check_schema(result, bench["per_layer"], f"{workload} traced")
        calls = {
            name: (first["metrics"][name]["value"], second["metrics"][name]["value"])
            for name in first["metrics"] if name.endswith(".calls")
        }
        differ = {name: pair for name, pair in calls.items() if pair[0] != pair[1]}
        assert not differ, f"{workload}: call counts differ between traced runs: {differ}"
        print(f"ok  {workload}: schema, {len(calls)} call counts repeat exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main())

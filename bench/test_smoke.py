"""Tiny-size smoke run of every benchmark workload.

Run from the repository root: ``python3 -m pytest bench/test_smoke.py``
(about two minutes). Checks that every declared metric is emitted, that no
operation fails, that every span name maps to a declared per-layer metric,
and that the traced counts repeat exactly for a seed.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 7


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=300, cwd=BENCH.parent)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    res = run(workload, 0)
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared("end_to_end")
    assert res["correct"] and res["attempted"] >= 1
    assert res["failed"] / res["attempted"] == 0.0  # fail_ratio
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_metrics(workload):
    first = run(workload, 1)
    spans = json.loads((BENCH / "out" / f"trace-{workload}-seed{SEED}.json").read_text())
    second = run(workload, 1)
    layer = declared("per_layer")
    assert {k: v["unit"] for k, v in first["metrics"].items()} == layer
    assert first["correct"] and second["correct"]
    assert {f"{s[0]}.self_s" for s in spans["spans"]} <= set(layer)
    counts = [name for name, unit in layer.items() if unit != "s"]
    assert {k: first["metrics"][k]["value"] for k in counts} == \
        {k: second["metrics"][k]["value"] for k in counts}

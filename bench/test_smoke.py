"""Smoke test of the benchmark at a tiny size (one round per run).

    python3 -m pytest bench/test_smoke.py -q

Checks that every metric BENCHMARK.json names is printed, with its unit,
for every workload and both modes; that the workload metrics of the
rationale are printed; and that a corrupted reference value makes the run
report failures.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY_SECONDS = "0.5"
SIM_METRICS = ("trials_per_s", "probes_per_s", "probes_per_s.M16",
               "probes_per_s.M128")
BOUNDS_METRICS = ("report_ms_p50", "report_ms_p90", "capacity_evals_per_s")


def run_bench(workload: str, trace: int, *extra: str):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", TINY_SECONDS, "--trace", str(trace), *extra],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return "\n".join(lines[:-1]), json.loads(lines[-1])


def printed(text: str, name: str, unit: str) -> float:
    match = re.search(rf"^\s+{re.escape(name)}\s+(\S+) {re.escape(unit)}$",
                      text, re.M)
    assert match, f"{name} [{unit}] not printed"
    return float(match.group(1))


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    text, result = run_bench(workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"]
            for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, unit in want.items():
        printed(text, name, unit)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert printed(text, "fail_rate", "ratio") == 0
        for name in SIM_METRICS if workload.startswith("sim") else BOUNDS_METRICS:
            assert printed(text, name, "ms" if "_ms_" in name else "1/s") > 0


def test_corrupted_reference_value_counts_as_failure():
    ref = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    # 1e-9 is ten times the capacity tolerance
    ref["capacity"] = [[c + 1e-9 for c in row] for row in ref["capacity"]]
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    path = work / "corrupted-reference.json"
    path.write_text(json.dumps(ref), encoding="utf-8")
    try:
        text, result = run_bench("bounds_requests", 0, "--reference", str(path))
    finally:
        path.unlink()
    assert not result["correct"] and result["failed"] > 0
    assert printed(text, "fail_rate", "ratio") > 0

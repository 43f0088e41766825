"""Smoke test of the benchmark at n = 100: every metric is printed with its unit.

Run with: python3 -m pytest perfbench/test_smoke.py
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def bench(*args: str) -> tuple[list[str], dict]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "3",
         "--seconds", "1", "--tiny", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = out.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])["workloads"]


def printed(lines: list[str], workload: str, name: str, unit: str) -> bool:
    start = next(i for i, line in enumerate(lines) if line.startswith(f"workload {workload}:"))
    block = []
    for line in lines[start + 1:]:
        if not line.startswith("  "):
            break
        block.append(line)
    pattern = re.compile(rf"^  {re.escape(name)}\s+-?[0-9.e+-]+\s+{re.escape(unit)}(\s|$)")
    return any(pattern.match(line) for line in block)


def test_end_to_end_metrics_printed_with_units():
    lines, results = bench("--trace", "0")
    assert set(results) == set(run.WORKLOADS)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    for workload, result in results.items():
        assert result["correct"] is True
        assert result["attempted"] >= len(run.WORKLOADS[workload].cycle)
        for name, unit in run.END_TO_END_UNITS.items():
            assert printed(lines, workload, name, unit), (workload, name)
        assert {k: v["unit"] for k, v in result["metrics"].items()} == gated
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert sum(line.startswith("  partitions sha256 ") for line in lines) == len(run.WORKLOADS)


def test_per_layer_metrics_printed_with_units():
    lines, results = bench("--trace", "1")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
    assert layers == run.PER_LAYER_UNITS
    for workload, result in results.items():
        assert result["correct"] is True
        for name, unit in layers.items():
            assert printed(lines, workload, name, unit), (workload, name)
        assert {k: v["unit"] for k, v in result["metrics"].items()} == layers
        assert 0 < result["metrics"]["trace.coverage"]["value"] <= 1


def test_refuses_without_program(tmp_path):
    bare = tmp_path / "checkout"
    (bare / "perfbench").mkdir(parents=True)
    for path in HERE.glob("*.py"):
        (bare / "perfbench" / path.name).write_text(path.read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "0", "--seconds", "1"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""

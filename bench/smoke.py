"""Smoke test of the benchmark itself; not part of the pytest suite.

    python3 bench/smoke.py

Runs every workload of BENCHMARK.json for one second, untraced and
traced, and asserts that every named metric is emitted with its unit
and that no correctness check fails (fail_rate 0). It then copies the
benchmark without the program into a scratch directory and asserts that
it refuses to run there.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(command: list[str], cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*command, "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_result(spec: dict, workload: str, trace: int) -> list[str]:
    named = spec["per_layer"] if trace else spec["end_to_end"]
    proc = run(spec["command"], ROOT, workload, trace)
    if proc.returncode:
        return [f"exit {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"fail_rate not 0: {result['failed']} of {result['attempted']} checks failed")
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in named}:
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ {m['name'] for m in named})}")
    for m in named:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"] or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{m['name']}: {got}")
        elif not trace and value <= 0:
            problems.append(f"{m['name']} is {value}; end-to-end metrics are never 0")
    return problems


def check_refuses_without_program(spec: dict) -> list[str]:
    bare = ROOT / "bench" / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run(spec["command"], bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["ran without the program's sources"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check_result(spec, workload, trace)
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {workload} trace={trace}", *problems, sep="\n    ")
    problems = check_refuses_without_program(spec)
    failures += bool(problems)
    print(f"{'FAIL' if problems else 'ok  '} refuses to run without src/", *problems, sep="\n    ")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

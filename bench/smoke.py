"""Fast self-check of the benchmark itself.

    python3 bench/smoke.py

Runs every workload of BENCHMARK.json at its smallest size, untraced and
traced, and fails when a named metric is missing or has the wrong unit,
when a traced function could not be found, or when the traced self times
of an op do not add up to its wall time (run.py exits 1 then).  It also
checks that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = run(ROOT, w["name"], trace)
            where = f"{w['name']} --trace {trace}"
            if done.returncode != 0:
                problems.append(f"{where}: exit {done.returncode}: {done.stderr.strip()[-300:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} attempted={result['attempted']}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m.get("unit") for name, m in result["metrics"].items()}
            for name in sorted(set(want) | set(got)):
                if want.get(name) != got.get(name):
                    problems.append(f"{where}: metric {name}: unit {got.get(name)!r}, expected {want.get(name)!r}")
            for line in done.stdout.splitlines():
                if line.startswith("warning:"):
                    problems.append(f"{where}: {line}")
            print(f"ok: {where}: {len(got)} metrics, {result['attempted']} ops, {result['failed']} failed")

    # without the program's sources the benchmark must fail, not report
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, spec["workloads"][0]["name"], 0)
        if done.returncode == 0 or done.stdout.strip():
            problems.append(f"bare checkout: exit {done.returncode}, stdout {done.stdout[-200:]!r}")
        else:
            print(f"ok: bare checkout refused with exit {done.returncode}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print(f"FAIL: {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

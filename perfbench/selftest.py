#!/usr/bin/env python3
"""Fast self-test of the benchmark itself.

    python3 perfbench/selftest.py

Every workload runs twice untraced and twice traced on its tiny inputs
(`--size tiny`).  Each run must pass its checks and report exactly the
metrics BENCHMARK.json lists, and the traced counts must repeat exactly.
Last, the benchmark must refuse to run, without printing a result, in a
directory that holds only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import END_TO_END
from tracing import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT_UNITS = ("count", "ratio")


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    declared = {0: [(m["name"], m["unit"]) for m in spec["end_to_end"]],
                1: [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]}
    if declared[0] != list(END_TO_END) or declared[1] != list(PER_LAYER):
        problems.append("BENCHMARK.json metric lists differ from run.py / tracing.py")
    units = {0: dict(END_TO_END), 1: {name: unit for name, unit, _ in PER_LAYER}}

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            runs = []
            for _ in range(2):
                proc = bench(ROOT, workload, trace)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    problems.append(f"{workload} trace={trace}: exit {proc.returncode}\n"
                                    f"{proc.stderr}")
                    break
                result = json.loads(lines[-1])
                runs.append(result)
                if not result["correct"] or result["failed"]:
                    problems.append(f"{workload} trace={trace}: checks failed\n{proc.stderr}")
                got = {name: m["unit"] for name, m in result["metrics"].items()}
                if got != units[trace]:
                    problems.append(f"{workload} trace={trace}: metrics {sorted(got)}")
            if len(runs) == 2:
                a, b = (r["metrics"] for r in runs)
                for name, m in a.items():
                    if m["unit"] in EXACT_UNITS and m["value"] != b[name]["value"]:
                        problems.append(f"{workload}: {name} {m['value']} then "
                                        f"{b[name]['value']}")
            print(f"{workload} trace={trace}: {len(runs)} runs", flush=True)

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench(bare, "poly_dense", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print(f"bare directory: exit {proc.returncode}")

    for line in problems:
        print(f"FAIL {line}", file=sys.stderr)
    print("selftest passed" if not problems else f"selftest failed ({len(problems)})")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

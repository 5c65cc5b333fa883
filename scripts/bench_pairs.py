#!/usr/bin/env python3
"""Interleaved benchmark pairs: a base checkout against a changed one.

    python3 scripts/bench_pairs.py BASE CHANGE --workload poly_dense --pairs 10
    python3 scripts/bench_pairs.py . . --size tiny --pairs 1 --seconds 1   # A/A

Each pair runs `perfbench/run.py --trace 0` of both checkouts, each with its
own benchmark and its own src/, on one seed (`--seed`, plus the pair's
number).  The sides alternate which runs first, so drift on the machine
falls on both.  Every run's last line of output is its JSON result.

Per workload and end-to-end metric of BENCHMARK.json (read from this
checkout, never written) it prints each side's median and quartiles, the
change's wins and its percent change of the median, whether a claimed gain
holds (at least 9 wins in 10, and a median gap wider than the base's
quartile spread) and whether the metric stays within its bound (the median
worse by at most that fraction of the base's).  Every pair is printed too,
and last each checkout's line count of src/ (`wc -l src/hcolor/*.py`).
It exits 1 when a run fails, is not `correct` or has `failed` > 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout: Path, workload: str, seed: int, seconds: float, size: str) -> dict:
    """One benchmark run of a checkout: its JSON result, or {"error": why}."""
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0", "--size", size]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": f"last line is not JSON: {lines[-1]!r}"}
    if not result.get("correct") or result.get("failed", 1) > 0:
        result["error"] = f"correct={result.get('correct')} failed={result.get('failed')}"
    return result


def src_lines(checkout: Path) -> int:
    """The lines of the checkout's src/hcolor/*.py, as `wc -l` counts them."""
    return sum(p.read_bytes().count(b"\n") for p in (checkout / "src" / "hcolor").glob("*.py"))


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def compare(base: list[float], change: list[float], better: str, bound: float) -> dict:
    """The pairs' summary for one metric: quartiles, wins, percent change,
    and whether the claim rule and the bound hold."""
    sign = 1 if better == "lower" else -1  # sign * (base - change) > 0: the change is better
    b1, b2, b3 = quartiles(base)
    c1, c2, c3 = quartiles(change)
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    gain = sign * (b2 - c2)
    return {"base": (b2, b1, b3), "change": (c2, c1, c3), "wins": wins, "pairs": len(base),
            "percent": 100.0 * (c2 - b2) / b2 if b2 else 0.0,
            "claim": wins * 10 >= 9 * len(base) and gain > b3 - b1,
            "bound": -gain <= bound * abs(b2)}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=Path, help="checkout of the base commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; every workload of BENCHMARK.json when absent")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args()
    sides = {"base": args.base.resolve(), "change": args.change.resolve()}

    failed = False
    for workload in args.workload or names:
        runs: dict[str, list[dict]] = {"base": [], "change": []}
        print(f"{workload}: {args.pairs} pairs of {args.seconds:g} s, size {args.size}")
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                result = run_once(sides[side], workload, seed, args.seconds, args.size)
                runs[side].append(result)
                if "error" in result:
                    failed = True
                    print(f"  FAIL pair {i + 1} {side}: {result['error']}")
            values = "  ".join(
                f"{name} {runs['base'][-1]['metrics'][name]['value']:.4g}"
                f" -> {runs['change'][-1]['metrics'][name]['value']:.4g}"
                for name in (m["name"] for m in spec["end_to_end"])
                if all("metrics" in runs[s][-1] for s in sides))
            print(f"  pair {i + 1} seed {seed} ({order[0]} first): {values}")
        if any("metrics" not in r for side in runs.values() for r in side):
            continue
        print(f"  {'metric':<13} {'base median [q1-q3]':<30} {'change median [q1-q3]':<30} "
              f"{'change':>8} {'wins':>6}  claim  bound")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base, change = ([r["metrics"][name]["value"] for r in runs[s]] for s in sides)
            got = compare(base, change, metric["better"], metric["bound"])
            cells = ["{:.4g} [{:.4g}-{:.4g}]".format(*got[s]) for s in sides]
            print(f"  {name:<13} {cells[0]:<30} {cells[1]:<30} {got['percent']:+7.1f}% "
                  f"{got['wins']:>2}/{got['pairs']:<3}  {'holds' if got['claim'] else 'no':<5}  "
                  f"{'holds' if got['bound'] else 'BROKEN'} ({metric['bound']:g})")
    lines = {side: src_lines(path) for side, path in sides.items()}
    print(f"src/ lines: base {lines['base']}, change {lines['change']} "
          f"({lines['change'] - lines['base']:+d})")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""hcolor benchmark: closed-loop workloads, end to end or traced per layer.

    python3 perfbench/run.py --workload triad_refute --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One caller in one process submits each input after the previous verdict
returns.  `--trace 0` repeats passes over the workload's inputs until
`--seconds` have gone by and reports the end-to-end metrics; `--trace 1`
runs one traced pass, then one untraced pass of the same inputs, and
reports the per-layer metrics.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  Details and
spans go to .perfbench_out/ at the root of the checkout.  `--workload all`
runs every workload in its own process and prints one table.

The library is imported from src/ of the checkout and nowhere else: with
no src/hcolor the benchmark exits with status 2 before printing a result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

from tracing import PER_LAYER, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"

# the library modules the workloads use; the tracer looks for wrapped names in
# each, so a function is wrapped wherever it is bound
MODULES = ("errors", "digraph", "minpath", "spectree", "homsolver", "algebra",
           "polysearch", "classify")
SETUP_REPEATS = 5
END_TO_END = (("wall_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"),
              ("item_p50_ms", "ms"), ("item_tail_ms", "ms"))


def import_hcolor() -> dict[str, object]:
    """A fresh import of every hcolor module from the checkout's src/."""
    for name in [m for m in sys.modules if m == "hcolor" or m.startswith("hcolor.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"hcolor.{name}") for name in MODULES}
    where = Path(mods["classify"].__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise RuntimeError(f"hcolor imported from {where}, not from {SRC}")
    return mods


def set_up(workload, tiny: bool):
    """Import plus input generation, repeated; returns the last set and the
    median time of one set-up."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        mods = import_hcolor()
        hc = SimpleNamespace(**mods)
        inputs = workload.inputs(hc, tiny)
        times.append(time.perf_counter() - t0)
    return mods, hc, inputs, statistics.median(times)


def run_pass(workload, hc, inputs, order, tracer=None):
    """Submit every input in order; each waits for the previous verdict.

    Returns the pass's wall time, the seconds per input, the outputs and
    the errors by input index.
    """
    outs: list = [None] * len(inputs)
    errors: dict[int, str] = {}
    item_s = [0.0] * len(inputs)
    start = time.perf_counter()
    for i in order:
        if tracer is not None:
            tracer.item = i
        t0 = time.perf_counter()
        try:
            outs[i] = workload.run(hc, inputs[i][1])
        except Exception:  # a failed input is counted, the run goes on
            errors[i] = traceback.format_exc()
        item_s[i] = time.perf_counter() - t0
    return time.perf_counter() - start, item_s, outs, errors


def check_pass(workload, hc, inputs, outs, errors, recorded, first):
    """Failures by input index, and the output digest of every input.

    The first pass runs the workload's checks and compares each digest with
    the recorded one (`recorded` None: record mode, no comparison); later
    passes must reproduce the first pass's digests.
    """
    failures: dict[int, str] = {}
    digests: dict[str, str] = {}
    for i, (key, item) in enumerate(inputs):
        if i in errors:
            failures[i] = errors[i]
            continue
        digests[key] = workload.digest(hc, outs[i])
        if first is not None:
            same = digests[key] == first.get(key)
            problem = None if same else "output differs from the first pass"
        else:
            problem = workload.check(item, outs[i])
            if problem is None and recorded is not None:
                want = recorded.get(key)
                if want is None:
                    problem = "no recorded digest"
                elif want != digests[key]:
                    problem = f"digest {digests[key]} differs from the recorded {want}"
        if problem:
            failures[i] = problem
    return failures, digests


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it (the
    maximum when there are fewer than eleven): value, percentile, beyond."""
    xs = sorted(samples)
    j = len(xs) - 11 if len(xs) >= 11 else len(xs) - 1
    return xs[j], 100.0 * (j + 1) / len(xs), len(xs) - 1 - j


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    return {"git_revision": git_revision(), "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "loadavg_at_start": os.getloadavg()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(args) -> int:
    env = environment()
    workload = WORKLOADS[args.workload]
    tiny = args.size == "tiny"
    recorded = None if args.record else json.loads(DIGESTS.read_text()).get(workload.name, {})
    mods, hc, inputs, setup_s = set_up(workload, tiny)
    order = list(range(len(inputs)))
    random.Random(args.seed).shuffle(order)

    walls, item_s = [], []  # per pass: wall seconds; seconds per input
    attempted = failed = 0
    problems: list[str] = []
    first = None
    tracer = Tracer() if args.trace else None
    start = time.perf_counter()
    while True:
        if walls:
            inputs = workload.inputs(hc, tiny)  # fresh objects, no warm caches
        if tracer is not None and not walls:
            tracer.install(mods)
            try:
                wall, times, outs, errors = run_pass(workload, hc, inputs, order, tracer)
            finally:
                tracer.restore()
            stages: dict[str, float] = {}
            for out in outs:
                for stage, seconds in (workload.stage_timings(out) if out else {}).items():
                    stages[stage] = stages.get(stage, 0.0) + seconds
        else:
            wall, times, outs, errors = run_pass(workload, hc, inputs, order)
        walls.append(wall)
        item_s.append(times)
        failures, digests = check_pass(workload, hc, inputs, outs, errors, recorded, first)
        attempted += len(inputs)
        failed += len(failures)
        for i, why in sorted(failures.items()):
            problems.append(f"pass {len(walls)} {inputs[i][0]}: {why}")
        if first is None:
            first = digests
            overall = workload.check_all(outs, tiny)
            if overall:
                problems.append(overall)
        done = len(walls) == 2 if tracer is not None else \
            time.perf_counter() - start >= args.seconds
        if done:
            break

    if tracer is not None:
        units = {name: unit for name, unit, _ in PER_LAYER}
        values = tracer.metrics()
        values["classify.width_certificates.s"] = stages.get("width_certificates", 0.0)
        values["classify.siggers.s"] = stages.get("siggers", 0.0)
        values["trace.wall_s"] = walls[0]
        values["trace.untraced_wall_s"] = walls[1]
        values["trace.overhead_s"] = walls[0] - walls[1]
    else:
        # one sample per input (its median over the passes), so the tail's
        # rank depends on the input set and not on how many passes fit
        per_input = [statistics.median(ts) for ts in zip(*item_s)]
        tail_s, tail_pct, beyond = tail(per_input)
        values = {"wall_s": statistics.median(walls), "peak_rss_mb": peak_rss_mb(),
                  "setup_s": setup_s,
                  "item_p50_ms": 1e3 * statistics.median(per_input),
                  "item_tail_ms": 1e3 * tail_s}
        units = dict(END_TO_END)
        print(f"item_tail_ms is p{tail_pct:.1f} of {len(per_input)} inputs ({beyond} beyond "
              f"it), each the median over {len(walls)} passes")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    if args.record:
        table = json.loads(DIGESTS.read_text())
        table.setdefault(workload.name, {}).update(first)
        DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(first)} digests for {workload.name}")

    correct = not problems
    for line in problems:
        print(f"FAIL {line}", file=sys.stderr)
    print(f"env {json.dumps(env)}")
    print(f"{workload.name}: correct={correct} attempted={attempted} failed={failed} "
          f"failed_frac={failed / attempted:.4f}")
    for name, m in metrics.items():
        value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
        print(f"  {name} = {value} {m['unit']}")

    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-{args.size}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.tsv.gz")
    detail = {"env": env, "workload": workload.name, "size": args.size, "seed": args.seed,
              "pass_s": walls, "digests": first, "problems": problems, "metrics": metrics}
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process (so peak RSS is per workload)."""
    rows, ok = [], True
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        ok &= result["correct"]
        for metric, m in result["metrics"].items():
            rows.append((name, metric, m["value"], m["unit"]))
        rows.append((name, "failed_frac", result["failed"] / result["attempted"], "ratio"))
    for name, metric, value, unit in rows:
        print(f"{name:14s} {metric:38s} {value:14.6g} {unit}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="chooses the order in which the inputs are submitted")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="untraced: keep repeating passes until this much time has gone by")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few small inputs, for the self-test")
    parser.add_argument("--record", action="store_true",
                        help="write this run's output digests to digests.json")
    args = parser.parse_args(argv)
    if not (SRC / "hcolor" / "__init__.py").is_file():
        print(f"error: no hcolor sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

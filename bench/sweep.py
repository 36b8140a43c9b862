"""Run the benchmark over several seeds and judge its spread.

    python3 -m bench.sweep --seeds 1-10 [--workloads grow,erase]
                           [--trace-seed 1] [--out FILE]

Each (workload, seed) runs in its own process, one at a time, with the
``run_seconds`` of ``BENCHMARK.json``.  For every end-to-end metric the
sweep prints the median, the quartiles and the spread, the distance
between the quartiles as a share of the median, and flags a spread
above a third of the metric's bound.  ``--trace-seed`` adds one traced
run per workload; ``--out`` writes all of it, with the run context, as
a point of the benchmark trajectory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from . import ROOT
from .__main__ import RUNS, context


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The result line, plus the printed metrics (the line before it) as ``table``."""
    cmd = [sys.executable, "-m", "bench", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stdout}{proc.stderr}")
    result["table"] = json.loads(lines[-2])["table"]
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(prog="python3 -m bench.sweep")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    point = {"context": context(RUNS), "run_seconds": spec["run_seconds"],
             "seeds": _seeds(args.seeds), "workloads": {}}
    for workload in args.workloads.split(","):
        results = [run(workload, s, spec["run_seconds"], 0) for s in point["seeds"]]
        entry = {"end_to_end": {}}
        print(f"{workload}: {len(results)} runs")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, q2, q3, rel = spread(values)
            loose = rel > bound / 3
            steady &= not loose
            print(f"  {name:<14} median {q2:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g}"
                  f" spread {rel:6.2%} of bound {bound:.0%}{'  LOOSE' if loose else ''}")
            entry["end_to_end"][name] = {
                "median": q2, "q1": q1, "q3": q3, "spread": rel,
                "unit": results[0]["metrics"][name]["unit"], "values": values}
        # the workload's own metrics from the printed table, same summary
        entry["printed"] = {}
        for name, row in results[0]["table"].items():
            if name in bounds or row is None:
                continue
            values = [r["table"][name]["value"] for r in results]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            entry["printed"][name] = {"median": q2, "q1": q1, "q3": q3,
                                      "unit": row["unit"], "values": values}
        if args.trace_seed is not None:
            traced = run(workload, args.trace_seed, spec["run_seconds"], 1)
            entry["per_layer"] = {"seed": args.trace_seed, **{
                k: v["value"] for k, v in traced["metrics"].items()}}
        point["workloads"][workload] = entry
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(point, indent=1) + "\n")
    print("steady" if steady else "NOT steady: a spread exceeds a third of its bound")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

"""Run one workload for a given time and print its metrics.

    python3 -m bench --workload grow --seed 1 --seconds 10 --trace 0

Passes of the workload repeat while another one fits in ``--seconds``
(at least one; two with ``--trace 1``, which alternates untraced and
traced passes to measure the tracing overhead).  Each pass runs in a
process of its own (``passrun.py``).  The line before last of stdout
holds every printed metric as JSON, the last line is the result; the
exit code is 1 when any correctness check failed.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import pickle
import platform
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import cryptography

from . import ROOT
from .report import end_to_end, per_layer, specific
from .selftest import problems as selftest_problems
from .workloads import WORKLOADS, Pass

RUNS = ROOT / "bench" / ".runs"
FLUSH_POLICY = ("the store's own: fsync on every block file, log append and "
                "manifest rewrite")
DEADLINE_S = 160        # a pass still running this long after the start is killed


def fs_type(path: Path) -> str:
    """Filesystem type of the mount holding ``path``, from /proc/self/mounts."""
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts") as fh:
            for line in fh:
                fields = line.split()
                mount = fields[1].replace("\\040", " ")
                if str(path).startswith(mount) and len(mount) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def context(work: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "store_fs": fs_type(work),
        "flush_policy": FLUSH_POLICY,
        "timing_note": "timings come from a shared container sandbox, "
                       "not from a dedicated device",
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def run_pass(workload: str, work: Path, seed: int, pass_no: int, trace: bool,
             timeout: float) -> Pass:
    """Run one pass in a child process and return what it measured."""
    out = work / f"pass-{pass_no}.pickle"
    cmd = [sys.executable, "-m", "bench.passrun", workload, str(work), str(seed),
           str(pass_no), str(int(trace)), str(out)]
    # a session of its own, so a timeout also stops the auditor it runs
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        _, err = proc.communicate()
    if proc.returncode == 0 and out.is_file():
        with open(out, "rb") as fh:
            return pickle.load(fh)
    failed = Pass(traced=trace)
    failed.check(False, f"pass process exited {proc.returncode}: {err.strip()[-500:]}")
    return failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="python3 -m bench")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    problems = selftest_problems(args.seed)
    work = RUNS / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    info = context(work)
    passes = []
    start = time.perf_counter()

    def another() -> bool:
        # a pass that would end past --seconds is not started
        done = time.perf_counter() - start
        return len(passes) < 1 + args.trace \
            or done + done / len(passes) <= args.seconds

    try:
        while another():
            p = run_pass(args.workload, work, args.seed, len(passes),
                         bool(args.trace and len(passes) % 2),
                         DEADLINE_S - (time.perf_counter() - start))
            passes.append(p)
            if p.failed:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems += [f"pass {i}: {what}" for i, p in enumerate(passes)
                 for what in p.problems]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    correct = not problems and failed == 0

    print(f"workload {args.workload}, seed {args.seed}, {len(passes)} passes "
          f"in {time.perf_counter() - start:.1f} s, trace {args.trace}")
    for key, value in info.items():
        print(f"  {key}: {value}")
    plain = [p for p in passes if not p.traced]
    e2e = end_to_end(plain)
    print(f"{'metric':<34}{'value':>14}  {'unit':<6}{'samples':>8}")
    rows = dict(e2e) | specific(plain)
    rows["fail_frac"] = (failed / attempted if attempted else 1.0, "ratio", attempted)
    for name, row in rows.items():
        if row is None:
            print(f"  {name:<32}{'n/a':>14}")
        else:
            print(f"  {name:<32}{_fmt(row[0]):>14}  {row[1]:<6}{row[2]:>8}")
    rejects = Counter()
    for p in passes:
        rejects.update(p.rejects)
    print(f"  mempool rejects by class: {dict(rejects) or 'none'}")
    for line in problems:
        print(f"  FAILED: {line}")

    if args.trace:
        layers = per_layer(passes)
        print("per layer (median of traced passes):")
        for name, (value, unit) in layers.items():
            print(f"  {name:<40}{_fmt(value):>14}  {unit}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        spans_out = RUNS / f"spans-{args.workload}.json.gz"
        with gzip.open(spans_out, "wt") as fh:
            json.dump([{"pass": i, "spans": [
                [s[0], s[1], s[2], s[3], s[4], s[5] if isinstance(s[5], (int, str))
                 or s[5] is None else s[5].hex()] for s in p.spans]}
                for i, p in enumerate(passes) if p.traced], fh)
        print(f"  spans written to {spans_out.relative_to(ROOT)}")
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in e2e.items()}

    print(json.dumps({"table": {name: dict(zip(("value", "unit", "samples"), row))
                                if row else None for name, row in rows.items()}}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

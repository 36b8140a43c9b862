"""Child process of the ``audit`` workload: a fresh interpreter, so the
library's signature cache starts empty, as it does for an auditor or a
restarted node.

``python3 -m bench.auditor verify STORE TRACE`` reads the store and runs
``verify_chain`` twice (cold, then warm cache); ``load`` runs
``BlockStore.load_chain`` once.  One JSON line goes to stdout.  Times
are scaled by the host-speed gauge: it ticks before each segment
``verify_chain`` takes, and around ``load_chain``.  A traced verify
leaves the gauge out, as its ticks would count as time in ``verify``.
"""

from __future__ import annotations

import json
import sys
import time

from mutachain import BlockStore, verify_chain

from .gauge import AROUND, Gauge
from .trace import Tracer

clock = time.perf_counter


def _verify(store: BlockStore, tracer: Tracer | None) -> dict:
    """Time ``segments()`` plus ``verify_chain`` and each segment within."""
    gauge = Gauge()
    t0 = clock()
    segments = store.segments()
    t1 = clock()
    took: list[float] = []

    def paced():
        # verify_chain asks for the next segment once it is done with
        # the last one, so the time until the next request is the segment's
        for seg in segments:
            if tracer is None:
                gauge.tick()
            else:
                tracer.req = seg[1].height
            start = clock()
            yield seg
            took.append(clock() - start)

    report = verify_chain(paced(), store.params)
    raw = clock() - t0 - gauge.spent
    f = [cpu for cpu, _ in gauge.factors()] or [1.0] * len(took)
    return {
        "raw_s": raw, "s": raw * gauge.factor()[0], "segments_s": t1 - t0,
        # gap segments replay in a fraction of the time; left in, they
        # would put the median between two clusters of half the samples
        "seg_ms": {seg[1].height: took[k] * 1e3 * f[k]
                   for k, seg in enumerate(segments[:len(took)]) if seg[0]},
        "gaps": [block.height for blocks, block in segments if blocks is None],
        "report": {"ok": report.ok, "height": report.height,
                   "present": report.present, "deleted": report.deleted,
                   "problem": report.problem},
    }


def main(mode: str, root: str, trace: bool) -> dict:
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    with BlockStore(root) as store:
        if mode == "verify":
            cold = _verify(store, tracer)
            warm = _verify(store, tracer)
            out = {"cold_s": cold["s"], "warm_s": warm["s"],
                   "raw_s": cold["raw_s"] + warm["raw_s"],
                   "segments_s": cold["segments_s"], "seg_ms": cold["seg_ms"],
                   "gaps": cold["gaps"],
                   "cold": cold["report"], "warm": warm["report"]}
        else:
            gauge = Gauge()
            gauge.tick(AROUND)
            t0 = clock()
            chain = store.load_chain()
            raw = clock() - t0
            gauge.tick(AROUND)
            out = {"load_s": raw * gauge.factor()[0], "raw_s": raw,
                   "gauge_us": gauge.median_us(), "height": chain.height}
    if tracer is not None:
        tracer.uninstall()
        # signatures are tagged with the mode: each child starts cold
        out["spans"] = [(n, a, b, p, r,
                         f"{mode}:{note.hex()}" if isinstance(note, bytes) else note)
                        for n, a, b, p, r, note in tracer.spans]
    return out


if __name__ == "__main__":
    mode, root, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    if mode not in ("verify", "load"):
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(main(mode, root, trace)))

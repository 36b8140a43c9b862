"""Metrics from the passes of one run.

End-to-end metrics come from untraced passes (every pass when tracing
is off), from times the passes scaled by the host-speed gauge;
``wall_seg_per_s`` and ``gauge_us`` show the unscaled rate and the
gauge's reading beside them.  Per-layer metrics come from traced
passes, unscaled, as the median of their per-pass values.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from .gauge import NOMINAL_CPU_S
from .trace import LAYER_OF, LAYERS, self_times, top_level_s

# reported by every workload, in the result line with --trace 0
END_TO_END = {
    "setup_s": "s", "seg_per_s": "1/s", "seg_ms_p50": "ms", "seg_ms_p95": "ms",
    "peak_rss_mb": "MB",
}

# printed beside them where the workload does the work they time
SPECIFIC = {
    "erase_ms_p50": "ms", "erase_ms_p95": "ms", "verify_cold_s": "s",
    "verify_warm_s": "s", "load_s": "s", "steps_per_s": "1/s",
    "catchup_ms_p50": "ms", "wall_seg_per_s": "1/s", "gauge_us": "us",
}

# per-layer metrics reported for the lo and the hi window each
WINDOWED = {
    "mempool.submit_us_p50": "us", "mempool.submit_us_p95": "us",
    "mempool.build_ms_p50": "ms", "mempool.observe_us_p50": "us",
    "mempool.pick_ratio": "ratio", "mempool.backlog_max": "count",
    "ledger.append_ms_p50": "ms", "ledger.prune_us_p50": "us",
    "ledger.copy_us_p50": "us", "ledger.copies_per_seg": "count",
    "crypto.validate_calls": "count", "crypto.validate_us_total": "us",
    "crypto.sig_calls_per_tx": "ratio", "crypto.cache_hit_ratio": "ratio",
    "crypto.verify_cold_us_p50": "us", "crypto.verify_warm_us_p50": "us",
    "codec.decode_us_per_block": "us", "codec.bytes_per_seg": "bytes",
    "store.append_ms_p50": "ms", "store.bytes_written_per_seg": "bytes",
    "store.fsyncs_per_seg": "count", "store.manifest_bytes": "bytes",
    "store.prune_ms_p50": "ms", "store.bytes_erased": "bytes",
    "simnet.step_ms_p50": "ms", "simnet.msgs_per_seg": "count",
    "mempool.rejects": "count", "verify.gap_segments": "count",
    "simnet.sync_count": "count", "simnet.fill_blocks": "count",
}

# each of these times or sizes one operation over the whole history
WHOLE_PASS = {
    "store.segments_s": "s", "store.disk_bytes_per_payload_byte": "ratio",
    "verify.replay_s": "s",
}

SELF = {f"self_s.{layer}": "s" for layer in LAYERS + ("bench",)}
OVERHEAD = {"trace.overhead_s": "s", "trace.overhead_frac": "ratio"}


def per_layer_names() -> dict[str, str]:
    names = {f"{name}.{w}": unit for name, unit in WINDOWED.items()
             for w in ("lo", "hi")}
    return names | WHOLE_PASS | SELF | OVERHEAD


def pct(values, q: float) -> float:
    """Linear-interpolated percentile; 0 for no samples."""
    v = sorted(values)
    if not v:
        return 0.0
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def end_to_end(passes) -> dict[str, tuple[float, str, int]]:
    """Metric -> (value, unit, samples).

    Rates and latency percentiles pool every pass of the run; setup_s
    is the median over passes, peak_rss_mb the largest pass's peak.
    """
    hi = [ms for p in passes for h, ms in p.seg_ms.items()
          if p.windows[1][0] <= h <= p.windows[1][1]]
    segments = sum(p.segments for p in passes)
    out = {
        "setup_s": (median([p.setup_s for p in passes]), len(passes)),
        "seg_per_s": (_rate(segments, sum(p.work_s for p in passes)), segments),
        "seg_ms_p50": (pct(hi, 0.50), len(hi)),
        "seg_ms_p95": (pct(hi, 0.95), len(hi)),
        "peak_rss_mb": (max((p.rss_mb for p in passes), default=0.0), len(passes)),
    }
    return {k: (v, END_TO_END[k], n) for k, (v, n) in out.items()}


def specific(passes) -> dict[str, tuple[float, str, int] | None]:
    """Workload-specific metrics; None where the workload has no samples."""
    def pooled(key, q):
        samples = [x for p in passes for x in p.timings.get(key, [])]
        return (pct(samples, q), len(samples)) if samples else None

    steps = sum(p.info.get("steps", 0) for p in passes)
    segments = sum(p.segments for p in passes)
    out = {
        "erase_ms_p50": pooled("erase_ms", 0.50),
        "erase_ms_p95": pooled("erase_ms", 0.95),
        "verify_cold_s": pooled("verify_cold_s", 0.50),
        "verify_warm_s": pooled("verify_warm_s", 0.50),
        "load_s": pooled("load_s", 0.50),
        "steps_per_s": (_rate(steps, sum(p.work_s for p in passes)), steps)
        if steps else None,
        "catchup_ms_p50": pooled("catchup_ms", 0.50),
        "wall_seg_per_s": (_rate(segments, sum(p.raw_s for p in passes)), segments),
        "gauge_us": (median([p.gauge_us for p in passes]), len(passes)),
    }
    return {k: (v[0], SPECIFIC[k], v[1]) if v else None for k, v in out.items()}


def _window_metrics(p, by, w) -> dict[str, float]:
    lo, hi = w

    def spans(name, key=4):
        return [s for s in by[name] if s[key] is not None and lo <= s[key] <= hi]

    def us(ss):
        return [(s[2] - s[1]) / 1e3 for s in ss]

    rows = [r for h, r in p.rows.items() if lo <= h <= hi]
    segs = sum(r["segs"] for r in rows) or 1

    def mean_row(key):
        vals = [r[key] for r in rows if key in r]
        return sum(vals) / len(vals) if vals else 0.0

    sigs = spans("verify_signature")
    seen: set = set()
    cold, warm = [], []
    for s in by["verify_signature"]:          # call order: first sight is the miss
        first = s[5] not in seen
        seen.add(s[5])
        if lo <= s[4] <= hi:
            (cold if first else warm).append((s[2] - s[1]) / 1e3)
    distinct = len({s[5] for s in sigs})
    queued = sum(r.get("queued", 0) for r in rows)
    decodes = spans("PermanentBlock.decode_from", 5)
    decode_us = sum(us(decodes)) + sum(us(spans("RemovableBlock.decode", 5)))
    return {
        "mempool.submit_us_p50": pct(us(spans("Mempool.submit")), 0.50),
        "mempool.submit_us_p95": pct(us(spans("Mempool.submit")), 0.95),
        "mempool.build_ms_p50": pct(us(spans("Mempool.build_candidate")), 0.5) / 1e3,
        "mempool.observe_us_p50": pct(us(spans("Mempool.observe_segment")), 0.5),
        # a queued transaction is either placed or still queued afterwards
        "mempool.pick_ratio": 1 - sum(r.get("backlog", 0) for r in rows) / queued
        if queued else 0.0,
        "mempool.backlog_max": max((r.get("backlog", 0) for r in rows), default=0),
        "ledger.append_ms_p50": pct(us(spans("Chain.append_segment")), 0.5) / 1e3,
        "ledger.prune_us_p50": pct(us(spans("Chain.prune")), 0.5),
        "ledger.copy_us_p50": pct(us(spans("Chain.copy")), 0.5),
        "ledger.copies_per_seg": len(spans("Chain.copy")) / segs,
        "crypto.validate_calls": len(spans("validate_stateless")),
        "crypto.validate_us_total": sum(us(spans("validate_stateless"))),
        "crypto.sig_calls_per_tx": len(sigs) / distinct if distinct else 0.0,
        "crypto.cache_hit_ratio": 1 - distinct / len(sigs) if sigs else 0.0,
        "crypto.verify_cold_us_p50": pct(cold, 0.5),
        "crypto.verify_warm_us_p50": pct(warm, 0.5),
        "codec.decode_us_per_block": decode_us / len(decodes) if decodes else 0.0,
        "codec.bytes_per_seg": mean_row("seg_bytes"),
        "store.append_ms_p50": pct(us(spans("BlockStore.append_segment")), 0.5) / 1e3,
        "store.bytes_written_per_seg": mean_row("written"),
        "store.fsyncs_per_seg": len(spans("fsync")) / segs,
        "store.manifest_bytes": max((r.get("manifest", 0) for r in rows), default=0),
        "store.prune_ms_p50": pct(us(spans("BlockStore.prune")), 0.5) / 1e3,
        "store.bytes_erased": sum(r.get("erased", 0) for r in rows),
        "simnet.step_ms_p50": pct(us(spans("SimNet.step")), 0.5) / 1e3,
        "simnet.msgs_per_seg": len(spans("SimNet.send")) / segs,
        "mempool.rejects": sum(r.get("rejects", 0) for r in rows),
        # the audit history's gaps, plus those replayed by syncs
        "verify.gap_segments": sum(r.get("gaps", 0) for r in rows)
        + sum(s[5] or 0 for s in spans("replay_segments")),
        "simnet.sync_count": sum(r.get("syncs", 0) for r in rows),
        "simnet.fill_blocks": sum(s[5] or 0 for s in spans("SimNet.send")),
    }


def layer_metrics(p) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    by = defaultdict(list)
    for s in p.spans:
        by[s[0]].append(s)
    out = {}
    for suffix, w in zip(("lo", "hi"), p.windows):
        out.update({f"{k}.{suffix}": v for k, v in _window_metrics(p, by, w).items()})
    verify_top = [s for s in p.spans if LAYER_OF[s[0]] == "verify"
                  and (s[3] < 0 or LAYER_OF[p.spans[s[3]][0]] != "verify")]
    payload = p.info.get("payload_bytes", 0)
    out.update({
        "store.segments_s": median(p.timings.get("segments_s", [])),
        "store.disk_bytes_per_payload_byte":
            p.info.get("store_bytes", 0) / payload if payload else 0.0,
        "verify.replay_s": sum(s[2] - s[1] for s in verify_top) / 1e9,
    })
    own = self_times(p.spans)
    out.update({f"self_s.{layer}": own.get(layer, 0.0) for layer in LAYERS})
    out["self_s.bench"] = p.raw_s - top_level_s(p.spans)
    return out


def per_layer(passes) -> dict[str, tuple[float, str]]:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    units = per_layer_names()
    # a run that failed before its first traced pass reports zeros
    each = [layer_metrics(p) for p in traced] or [dict.fromkeys(units, 0.0)]
    out = {k: (median([m[k] for m in each]), units[k]) for k in each[0]}
    # pass times at the gauge's nominal speed, so the host's drift between
    # a traced and an untraced pass does not count as overhead
    def scaled(p):
        return p.raw_s * NOMINAL_CPU_S * 1e6 / p.gauge_us if p.gauge_us else p.raw_s

    base = median([scaled(p) for p in plain])
    over = median([scaled(p) for p in traced]) - base
    out["trace.overhead_s"] = (over, "s")
    out["trace.overhead_frac"] = (over / base if base else 0.0, "ratio")
    return out

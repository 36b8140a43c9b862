"""The four workloads, each as one pass: set up, run the timed part, check.

Every pass grows or replays a chain from genesis in one process on one
thread.  Clients run a closed loop: one batch of transactions goes out,
the segment carrying it is committed, then the next batch goes out.
The host-speed gauge (``gauge.py``) runs after every timed step, and
every time a pass reports is scaled by it; ``raw_s`` keeps the wall
time of the timed steps.  Where a pass writes a store, an
``FsyncMeter`` splits each time into fsync waits and the rest, which
the gauge scales apart.

* ``grow``: a miner loop without deletions.
* ``erase``: the same loop where half the intervals are erased.
* ``audit``: a stored history with half its intervals erased, verified
  and loaded by fresh child processes (cold signature cache).
* ``rejoin``: three SimNet nodes with deletions; node 2 leaves and
  rejoins ten times, catching up by spine and fill sync over gaps.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from mutachain import (
    NULL_HASH,
    BlockStore,
    Chain,
    IntervalStatus,
    Mempool,
    SimNet,
    build_permanent_block,
    build_removable_block,
    compute_p_list,
    verify_chain,
)
from mutachain.errors import MempoolRejection, MutachainError
from mutachain.mempool import MAX_BLOCK_TXS

from . import ROOT
from .gauge import AROUND, FsyncMeter, Gauge, scaled
from .gen import Plan, make_plan
from .trace import Tracer

HEIGHT = 300            # segments per grow/erase/audit pass
HI_WINDOW = 200         # top heights whose latencies give seg_ms_p50/p95
REJOIN_BATCHES = 240    # client batches per rejoin pass
REJOIN_CYCLES = 10      # offline/online rounds of node 2 per rejoin pass
MAX_INTERVAL_BLOCKS = 2  # room for 8 fresh removables plus 6 re-included
CATCHUP_STEPS = 60      # a rejoin that takes longer counts as failed

clock = time.perf_counter


@dataclass
class Pass:
    """What one pass measured, counted and found wrong."""

    traced: bool = False
    setup_s: float = 0.0
    raw_s: float = 0.0                 # wall time of the timed steps
    work_s: float = 0.0                # the same, scaled by the gauge
    segments: int = 0                  # segments through the main path
    windows: tuple = ((0, 0), (0, 0))  # request ids of the lo and hi windows
    seg_ms: dict = field(default_factory=dict)      # request id -> ms
    timings: dict = field(default_factory=dict)     # metric -> list of samples
    gauge_us: float = 0.0              # median CPU gauge reading
    rss_mb: float = 0.0                # peak resident memory of the pass
    rows: dict = field(default_factory=dict)        # request id -> loop counters
    rejects: Counter = field(default_factory=Counter)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def check(self, ok: bool, what: str, count: int = 1) -> None:
        """Count ``count`` operations, failed unless ``ok``."""
        self.attempted += count
        if not ok:
            self.failed += count
            self.problems.append(what)


def _fresh_dir(work: Path, name: str) -> Path:
    d = work / name
    if d.exists():
        shutil.rmtree(d)
    return d


def _store_files(root: Path) -> list[Path]:
    return sorted(p for p in root.rglob("*") if p.is_file())


def _windows(n: int, hi: int) -> tuple:
    """Request ids of the lo window (the rest) and the hi window (top ``hi``)."""
    return ((1, n - hi), (n - hi + 1, n))


# ----------------------------------------------------------------------
# grow and erase: one miner, one store


def mine(work: Path, seed: int, pass_no: int, tracer: Tracer | None,
         *, deletes: bool) -> Pass:
    out = Pass(windows=_windows(HEIGHT, HI_WINDOW))
    meter = FsyncMeter()
    meter.install()
    gauge, setup = Gauge(work), Gauge(work)
    setup.tick(AROUND)
    s0 = meter.stamp()
    plan = make_plan(seed, pass_no, HEIGHT, deletes=deletes)
    batches = [b.removables + b.body + plan.deletion_txs(i, lambda j: j + 1)
               for i, b in enumerate(plan.batches)]
    root = _fresh_dir(work, "store")
    store = BlockStore(root, create=True)
    chain = Chain.bootstrap(plan.genesis)
    store.append_segment((), chain.block_at(0))
    pool = Mempool()
    s1 = meter.stamp()
    setup.tick(AROUND)
    out.setup_s = scaled(s0, s1, setup.factor())

    # a deletion starts with its first submitted transaction: the
    # prepare, or the delete itself on the sole-owner path
    starts: dict[int, list[int]] = {}      # batch -> intervals it starts erasing
    for i, b in enumerate(plan.batches):
        if b.prepare is not None:
            starts.setdefault(i, []).append(b.prepare[1] + 1)
        for _, target, via_prepare in b.deletes:
            if not via_prepare:
                starts.setdefault(i, []).append(target + 1)
    started: dict[int, int] = {}         # interval -> step its deletion started
    steps: list[tuple] = []         # stamps: start, appended, pruned
    prunes: list[tuple] = []        # interval, step, stamp its prune returned
    pruned: list[int] = []
    manifest = root / "manifest.json"

    if tracer is not None:
        tracer.install()
    try:
        for i, txs in enumerate(batches):
            h = i + 1
            if tracer is not None:
                tracer.req = h
            rejected = 0
            a = meter.stamp()
            for tx in txs:
                try:
                    pool.submit(tx, chain)
                except MempoolRejection as exc:
                    out.rejects[type(exc).__name__] += 1
                    rejected += 1
            queued = len(pool)
            interval, block = pool.build_candidate(chain, MAX_INTERVAL_BLOCKS)
            chain.append_segment(interval, block)
            pool.observe_segment(interval, block, chain)
            store.append_segment(interval, block)
            b = meter.stamp()
            dropped = chain.prune()
            for x in dropped:
                store.prune(x)
                prunes.append((x, i, meter.stamp()))
            steps.append((a, b, meter.stamp()))
            gauge.tick()
            for x in starts.get(i, ()):
                started[x] = i
            pruned += dropped
            seg_bytes = len(block.encoded) + sum(len(rb.encoded) for rb in interval)
            out.rows[h] = {
                "segs": 1, "queued": queued, "backlog": len(pool), "rejects": rejected,
                "seg_bytes": seg_bytes,
                "interval_bytes": seg_bytes - len(block.encoded),
                "erased": sum(out.rows[x]["interval_bytes"] for x in dropped),
                "written": seg_bytes + manifest.stat().st_size,
                "manifest": manifest.stat().st_size,
            }
            confirmed = sum(1 for tx in txs if chain.tx_confirmed(tx.txid))
            out.check(confirmed == len(txs),
                      f"segment {h}: {len(txs) - confirmed} of {len(txs)} "
                      f"submitted transactions unconfirmed", len(txs))
            out.attempted += 1 + len(dropped)   # the append and its prunes raise on failure
    except MutachainError as exc:
        out.check(False, f"miner loop: {type(exc).__name__}: {exc}")
    finally:
        if tracer is not None:
            tracer.uninstall()
        meter.uninstall()
    f = gauge.factors()
    took = [scaled(a, c, f[k]) for k, (a, _, c) in enumerate(steps)]
    out.raw_s = sum(c[0] - a[0] for a, _, c in steps)
    out.work_s = sum(took)
    out.gauge_us = gauge.median_us()
    out.segments = chain.height
    out.seg_ms = {k + 1: scaled(a, b, f[k]) * 1e3 for k, (a, b, _) in enumerate(steps)}
    # a deletion takes the steps from its first transaction's to the one
    # whose prune erased it, that last one until its prune returned
    before = list(itertools.accumulate(took, initial=0.0))
    out.timings["erase_ms"] = [
        (before[k] - before[started[x]] + scaled(steps[k][0], at, f[k])) * 1e3
        for x, k, at in prunes if k < len(steps)]
    out.info["store_bytes"] = sum(p.stat().st_size for p in _store_files(root))
    out.info["payload_bytes"] = _live_payload_bytes(chain)

    expected = plan.erased()
    out.check(sorted(pruned) == sorted(t + 1 for t, _ in expected),
              f"{len(pruned)} intervals pruned, {len(expected)} deletions planned",
              len(expected))
    if deletes:
        _check_erasure(out, plan, chain, store, root, len(expected))
    store.close()
    return out


def _live_payload_bytes(chain: Chain) -> int:
    return sum(len(tx.payload.data) for x in range(chain.height + 1)
               for tx in chain.interval_txs(x))


def _check_erasure(out: Pass, plan: Plan, chain: Chain, store: BlockStore,
                   root: Path, deletions: int) -> None:
    """Erased bytes are gone from disk, bystanders live, history verifies."""
    erased = [tx.payload.data for _, txs in plan.erased() for tx in txs]
    disk = b"\x00".join(p.read_bytes() for p in _store_files(root))
    found = sum(1 for data in erased if data in disk)
    out.check(found == 0, f"{found} erased payloads still on disk")
    bystanders = [tx.txid for i in range(len(plan.batches))
                  for tx in plan.bystanders(i)]
    lost = sum(1 for txid in bystanders if not chain.tx_confirmed(txid))
    out.check(lost == 0, f"{lost} of {len(bystanders)} bystander transactions lost")
    report = verify_chain(store.segments(), store.params)
    out.check(report.ok and report.deleted == deletions,
              f"stored history: {report} (expected {deletions} deleted)")


# ----------------------------------------------------------------------
# audit: a stored history, verified and loaded by fresh processes


def build_history(plan: Plan, store: BlockStore, rows: dict, gauge: Gauge) -> Chain:
    """Commit the plan straight to a chain and store, no mempool: the
    segment builders place bystander duplicates where a miner would.
    The gauge ticks after every segment."""
    chain = Chain.bootstrap(plan.genesis)
    store.append_segment((), chain.block_at(0))
    for i, b in enumerate(plan.batches):
        h = i + 1
        txs = plan.bystanders(i) + b.removables
        interval, anchor = [], chain.tip_hash
        for at in range(0, len(txs), MAX_BLOCK_TXS):
            rb = build_removable_block(h, len(interval) + 1, anchor,
                                       txs[at:at + MAX_BLOCK_TXS])
            interval.append(rb)
            anchor = rb.block_hash
        block = build_permanent_block(
            height=h, prev_permanent=chain.tip_hash,
            prev_removable=anchor if interval else NULL_HASH,
            interval_len=len(interval), p_list=compute_p_list(txs),
            txs=b.body + plan.deletion_txs(i, lambda j: j + 1))
        chain.append_segment(interval, block)
        store.append_segment(interval, block)
        for x in chain.prune():
            store.prune(x)
        rows[h] = {"segs": 1, "seg_bytes": len(block.encoded)
                   + sum(len(rb.encoded) for rb in interval)}
        gauge.tick()
    return chain


def run_child(mode: str, root: Path, trace: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, "-m", "bench.auditor", mode, str(root), str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"auditor {mode} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def audit(work: Path, seed: int, pass_no: int, tracer: Tracer | None) -> Pass:
    out = Pass(windows=_windows(HEIGHT, HI_WINDOW))
    meter = FsyncMeter()
    meter.install()
    gauge = Gauge(work)
    s0 = meter.stamp()
    plan = make_plan(seed, pass_no, HEIGHT, deletes=True)
    root = _fresh_dir(work, "store")
    with BlockStore(root, create=True) as store:
        chain = build_history(plan, store, out.rows, gauge)
    s1 = meter.stamp()
    meter.uninstall()
    # less the gauge's own ticks, which ran inside the set-up
    out.setup_s = scaled(s0, (s1[0] - gauge.spent, s1[1]), gauge.factor())
    deletions = len(plan.erased())

    try:
        ver = run_child("verify", root, tracer is not None)
        load = run_child("load", root, tracer is not None)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        out.check(False, f"auditor: {exc}")
        return out
    # the children's own clocks leave out interpreter start-up
    out.raw_s = ver["raw_s"] + load["raw_s"]
    out.work_s = ver["cold_s"] + ver["warm_s"] + load["load_s"]
    out.gauge_us = load["gauge_us"]
    out.segments = 3 * (chain.height + 1)
    out.seg_ms = {int(h): ms for h, ms in ver["seg_ms"].items()}
    for h in ver["gaps"]:
        out.rows[h]["gaps"] = 1
    out.timings.update(verify_cold_s=[ver["cold_s"]], verify_warm_s=[ver["warm_s"]],
                       load_s=[load["load_s"]], segments_s=[ver["segments_s"]])
    out.info.update(store_bytes=sum(p.stat().st_size for p in _store_files(root)),
                    payload_bytes=_live_payload_bytes(chain))
    for r in (ver["cold"], ver["warm"]):
        out.check(r["ok"] and r["deleted"] == deletions and r["height"] == HEIGHT,
                  f"audit verify: {r} (expected {deletions} deleted)")
    out.check(load["height"] == HEIGHT, f"load_chain reached height {load['height']}")
    if tracer is not None:
        for part in (ver, load):
            base = len(out.spans)
            out.spans += [(n, a, b, p + base if p >= 0 else -1, r, note)
                          for n, a, b, p, r, note in part["spans"]]

    # an interval removed without delete evidence must fail the audit
    segments = [(chain.interval_record(x).blocks, chain.block_at(x))
                for x in range(chain.height + 1)]
    victim = next(x for x, (blocks, _) in enumerate(segments)
                  if blocks and chain.delete_record(x) is None)
    segments[victim] = (None, segments[victim][1])
    forged = verify_chain(segments)
    out.check(not forged.ok, f"history missing interval {victim} passed: {forged}")
    return out


# ----------------------------------------------------------------------
# rejoin: three SimNet nodes, node 2 drops out and catches up


def rejoin(work: Path, seed: int, pass_no: int, tracer: Tracer | None) -> Pass:
    n = REJOIN_BATCHES
    out = Pass(windows=_windows(n, n // 2))
    gauge, setup = Gauge(), Gauge()
    setup.tick(AROUND)
    t = clock()
    plan = make_plan(seed, pass_no, n, deletes=True)
    net = SimNet(3, plan.genesis, max_interval_blocks=MAX_INTERVAL_BLOCKS)
    out.setup_s = clock() - t
    setup.tick(AROUND)
    out.setup_s *= setup.factor()[0]

    period = n // REJOIN_CYCLES
    leave = {period * c + 1 for c in range(REJOIN_CYCLES)}
    come_back = {i + period // 2 for i in leave}
    landed: dict[int, int] = {}            # batch -> height on node 0
    node0, node2 = net.nodes[0], net.nodes[2]
    steps: list[tuple[float, float, float]] = []   # start, submitted, confirmed
    catchups: list[tuple[int, float]] = []         # step, seconds

    def step(limit: int, done) -> bool:
        for _ in range(limit):
            if done():
                return True
            net.step()
        return done()

    if tracer is not None:
        tracer.install()
    try:
        for i, b in enumerate(plan.batches):
            if tracer is not None:
                tracer.req = i + 1
            tip, seen = node0.chain.height, len(net.events)
            txs = b.removables + b.body + plan.deletion_txs(i, landed.__getitem__)
            start = clock()
            if i in leave:
                out.check(step(CATCHUP_STEPS, lambda: len(node2.mempool) == 0),
                          f"batch {i}: node 2 kept a backlog")
                net.set_online(2, False)
            if i in come_back:
                t0 = clock()
                net.set_online(2, True)
                ok = step(CATCHUP_STEPS, lambda: node2.chain.tip_hash in (
                    node0.chain.tip_hash, net.nodes[1].chain.tip_hash))
                catchups.append((i, clock() - t0))
                out.check(ok, f"batch {i}: node 2 did not catch up")
            rejected = 0
            t0 = clock()
            for tx in txs:
                try:
                    net.submit(tx, via=0)
                except MempoolRejection as exc:
                    out.rejects[type(exc).__name__] += 1
                    rejected += 1
            ok = step(CATCHUP_STEPS, lambda: all(
                node0.chain.tx_confirmed(tx.txid) for tx in txs))
            steps.append((start, t0, clock()))
            gauge.tick()
            out.check(ok, f"batch {i} not confirmed on node 0", len(txs))
            first = txs[0].txid
            landed[i] = h = next(x for x in range(node0.chain.height, 0, -1)
                                 if first in node0.chain.interval_record(x).txids)
            blocks = node0.chain.interval_blocks(h)
            out.rows[i + 1] = {
                "segs": node0.chain.height - tip, "rejects": rejected,
                "syncs": sum(1 for e in net.events[seen:] if e["ev"] == "sync"),
                "seg_bytes": len(node0.chain.block_at(h).encoded)
                + sum(len(rb.encoded) for rb in blocks)}
    except (MutachainError, StopIteration) as exc:
        out.check(False, f"rejoin loop: {type(exc).__name__}: {exc}")
    finally:
        if tracer is not None:
            tracer.uninstall()
    # SimNet keeps no store: every step is CPU time
    f = [cpu for cpu, _ in gauge.factors()]
    out.raw_s = sum(t2 - t0 for t0, _, t2 in steps)
    out.work_s = sum((t2 - t0) * f[k] for k, (t0, _, t2) in enumerate(steps))
    out.gauge_us = gauge.median_us()
    out.seg_ms = {k + 1: (t2 - t1) * 1e3 * f[k] for k, (_, t1, t2) in enumerate(steps)}
    out.segments = node0.chain.height
    out.timings["catchup_ms"] = [s * 1e3 * f[k] for k, s in catchups if k < len(steps)]
    out.info["steps"] = net.step_no
    syncs = len(catchups)

    bad = Counter(e["ev"] for e in net.events
                  if e["ev"] in ("sync-abort", "reject", "tx-reject"))
    out.check(not bad, f"network events: {dict(bad)}", syncs)
    # the last proposer's block may still be in flight: nodes agree on
    # every block they all hold and lag by at most that one block
    online = [nd for nd in net.nodes if nd.online]
    low = min(nd.chain.height for nd in online)
    tips = {nd.chain.block_at(low).block_hash for nd in online}
    spread = max(nd.chain.height for nd in online) - low
    out.check(len(tips) == 1 and spread <= 1,
              f"online nodes disagree: {len(tips)} tips at height {low}, "
              f"heights spread {spread}")
    deleted = sum(1 for x in range(node0.chain.height + 1)
                  if node0.chain.interval_status(x) is IntervalStatus.DELETED)
    out.check(deleted == len(plan.erased()),
              f"node 0 erased {deleted} intervals, {len(plan.erased())} planned")
    return out


WORKLOADS = {
    "grow": lambda work, seed, p, tr: mine(work, seed, p, tr, deletes=False),
    "erase": lambda work, seed, p, tr: mine(work, seed, p, tr, deletes=True),
    "audit": audit,
    "rejoin": rejoin,
}

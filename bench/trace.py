"""Span tracing from outside the library.

``Tracer.install`` swaps public functions and methods of mutachain for
wrappers that record one span per call: name, start, end, parent span
and request id.  The request id is whatever the workload last set in
``Tracer.req``, normally the height of the segment being worked on.
Spans stay in memory until the run ends; ``uninstall`` puts the
originals back, so untraced passes run the unmodified code.

Module-level functions are replaced in every module that imported them
by name, so calls between layers (``Chain.append_segment`` calling
``validate_stateless`` calling ``verify_signature``) nest as they run.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

from mutachain import blocks, crypto, ledger, mempool, simnet, store, tx, verify

# (owner, attribute, layer); a layer is the module whose code the call runs
TARGETS = (
    (mempool.Mempool, "submit", "mempool"),
    (mempool.Mempool, "build_candidate", "mempool"),
    (mempool.Mempool, "observe_segment", "mempool"),
    (ledger.Chain, "append_segment", "ledger"),
    (ledger.Chain, "append_gap_segment", "ledger"),
    (ledger.Chain, "prune", "ledger"),
    (ledger.Chain, "copy", "ledger"),
    (tx, "validate_stateless", "crypto"),
    (crypto, "verify_signature", "crypto"),
    (blocks.PermanentBlock, "decode_from", "codec"),
    (blocks.RemovableBlock, "decode", "codec"),
    (store.BlockStore, "append_segment", "store"),
    (store.BlockStore, "prune", "store"),
    (store.BlockStore, "segments", "store"),
    (store.BlockStore, "load_chain", "store"),
    (store.BlockStore, "rebuild", "store"),
    (os, "fsync", "store"),
    (verify, "verify_chain", "verify"),
    (verify, "replay_segments", "verify"),
    (verify, "gaps_without_evidence", "verify"),
    (simnet.SimNet, "step", "simnet"),
    (simnet.SimNet, "send", "simnet"),
    (simnet.SimNet, "submit", "simnet"),
    (simnet.SimNode, "handle", "simnet"),
    (simnet.SimNode, "propose", "simnet"),
)

LAYERS = ("mempool", "ledger", "crypto", "codec", "store", "verify", "simnet")


def _name(owner, attr: str) -> str:
    return f"{owner.__name__}.{attr}" if isinstance(owner, type) else attr


LAYER_OF = {_name(owner, attr): layer for owner, attr, layer in TARGETS}


# extra detail kept with a span, where a metric needs more than its timing
NOTES = {
    "verify_signature": lambda args, result: args[2][:16],
    "PermanentBlock.decode_from": lambda args, result: result.header.height,
    "RemovableBlock.decode": lambda args, result: result.interval,
    "replay_segments": lambda args, result: sum(
        1 for blocks, _ in args[0] if blocks is None),
    "SimNet.send": lambda args, result: (
        sum(len(b) for b in args[3].fills.values())
        if isinstance(args[3], simnet.FillResponse) else 0),
}


class Tracer:
    """Collects spans as tuples (name, start_ns, end_ns, parent, req, note)."""

    def __init__(self):
        self.spans: list = []
        self.req = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter_ns, self
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans[idx] = (name, start, clock(), parent, tracer.req, None)
                raise
            end = clock()
            stack.pop()
            spans[idx] = (name, start, end, parent, tracer.req,
                          note(args, result) if note else None)
            return result
        return traced

    def install(self) -> None:
        # a module run with ``python -m`` is __main__ under its spec's name
        modules = [m for n, m in list(sys.modules.items())
                   if (getattr(getattr(m, "__spec__", None), "name", None) or n).startswith(
                       ("mutachain", "bench"))]
        for owner, attr, _ in TARGETS:
            name = _name(owner, attr)
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            for mod in modules + [owner]:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, value))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def self_times(spans) -> dict[str, float]:
    """Seconds each layer spent in its own code, children excluded."""
    child = [0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    out: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        out[LAYER_OF[s[0]]] += (s[2] - s[1] - child[i]) / 1e9
    return out


def top_level_s(spans) -> float:
    return sum(s[2] - s[1] for s in spans if s[3] < 0) / 1e9

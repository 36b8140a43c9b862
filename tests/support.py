"""Hand-rolled builders shared across the test modules.

Segments are assembled here without going through the mempool, so tests
can produce shapes the honest pipeline never emits: wrong p_lists,
missing duplicates, forged links, out-of-order sequence numbers.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path

import pytest

from mutachain import (
    NULL_HASH,
    Chain,
    ChainParams,
    KeyPair,
    Node,
    OutPoint,
    PermanentBlock,
    SimNode,
    Transaction,
    build_permanent_block,
    build_register,
    build_removable,
    build_removable_block,
    compute_p_list,
    digest,
    keypair_from_seed,
)
from mutachain import tx as txmod
from mutachain.simnet import BlockAnnounce, FillResponse
from mutachain.store import FRAME_HEAD, log_frame

MARK = digest(b"test-entity:")[:8]


def kp(name: str) -> KeyPair:
    """Deterministic throwaway key pair, distinct per name."""
    return keypair_from_seed(digest(MARK + name.encode()))


ALICE = kp("alice")
BOB = kp("bob")
CAROL = kp("carol")
DAN = kp("dan")
EVE = kp("eve")


def fresh_chain(*members: KeyPair, params: ChainParams | None = None) -> Chain:
    """Chain with a genesis that registers every given key."""
    return Chain.bootstrap(tuple(build_register(k) for k in members), params)


def reg(chain: Chain, k: KeyPair) -> OutPoint:
    return chain.register_outpoint(k.pubkey)


def rem(chain: Chain, k: KeyPair, data: bytes) -> Transaction:
    return build_removable(k, reg(chain, k), data)


@pytest.fixture()
def cold_cache():
    """No signature verdict is left from earlier work in this process, so
    each signature checked reaches Ed25519.  Call the value to drop the
    verdicts that building a test's own chain left."""
    txmod._VERDICTS.clear()
    yield txmod._VERDICTS.clear
    txmod._VERDICTS.clear()


def count_signature_checks(monkeypatch):
    """The argument tuples of every Ed25519 check from here on."""
    calls = []
    real = txmod.verify_signature

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(txmod, "verify_signature", counted)
    return calls


def record_deliveries(monkeypatch) -> dict:
    """``{node id: {(height, txid)}}`` of every removable body handed to
    each node from here on, in an announcement or a sync reply.  Only an
    online node's ``handle`` runs, so this is what reached each node."""
    seen = defaultdict(set)
    real = SimNode.handle

    def handle(node, sender, msg, net):
        bodies = {}
        if isinstance(msg, BlockAnnounce):
            bodies = {msg.block.height: msg.removable_blocks}
        elif isinstance(msg, FillResponse):
            bodies = msg.fills
        seen[node.id].update((height, tx.txid) for height, rbs in bodies.items()
                             for rb in rbs for tx in rb.txs)
        real(node, sender, msg, net)
    monkeypatch.setattr(SimNode, "handle", handle)
    return seen


def record_bodies(monkeypatch) -> dict:
    """``{block hash: (removable blocks, block)}``, the fullest copy of
    each segment that any node's chain took from here on: a node that
    synced past a deleted interval took it without its body."""
    kept = {}
    real = Node.extend

    def extend(node, segments):
        segments = list(segments)
        dropped = real(node, segments)
        for blocks, block in segments:
            blocks = tuple(blocks or ())
            old = kept.get(block.block_hash)
            if old is None or len(blocks) > len(old[0]):
                kept[block.block_hash] = (blocks, block)
        return dropped
    monkeypatch.setattr(Node, "extend", extend)
    return kept


# dangling reference, fine for tests that never touch a chain
REF_DUMMY = OutPoint(digest(MARK + b"dummy-register"), 0)


def attach_stores(net, stores: dict) -> None:
    """Give each node of ``net`` that ``stores`` names its store, rebuilt
    from the node's chain."""
    for i, store in stores.items():
        net.nodes[i].store = store
        store.rebuild(net.nodes[i].chain)


def rem_raw(k: KeyPair, data: bytes) -> Transaction:
    return build_removable(k, REF_DUMMY, data)


def make_segment(chain: Chain, removable_txs=(), body_txs=(), *,
                 per_block: int = 8, p_list=None, interval_len=None,
                 prev_removable=None, prev_permanent=None, height=None):
    """Build (interval, permanent block) on top of ``chain``'s tip.

    Keyword overrides poke specific fields out of shape; with none
    given the segment is valid whenever its transactions are.
    """
    h = chain.height + 1 if height is None else height
    interval = []
    anchor = chain.tip_hash
    removable_txs = tuple(removable_txs)
    for at in range(0, len(removable_txs), per_block):
        blk = build_removable_block(h, len(interval) + 1, anchor,
                                    removable_txs[at:at + per_block])
        interval.append(blk)
        anchor = blk.block_hash
    if p_list is None:
        p_list = compute_p_list(removable_txs)
    if interval_len is None:
        interval_len = len(interval)
    if prev_removable is None:
        prev_removable = anchor if interval else NULL_HASH
    if prev_permanent is None:
        prev_permanent = chain.tip_hash
    block = build_permanent_block(
        height=h, prev_permanent=prev_permanent,
        prev_removable=prev_removable, interval_len=interval_len,
        p_list=p_list, txs=tuple(body_txs))
    return tuple(interval), block


def extend(chain: Chain, removable_txs=(), body_txs=(), **overrides):
    """Append one hand-built segment; returns (interval, block)."""
    interval, block = make_segment(chain, removable_txs, body_txs, **overrides)
    chain.append_segment(interval, block)
    return interval, block


def segment_spans(log: bytes) -> list:
    """``(start, body, end)`` of each segment of a log of whole segments,
    by height: ``body`` is where its body frame starts, or None when its
    header counts no removable blocks."""
    spans, pos = [], 0
    while pos < len(log):
        size = FRAME_HEAD.unpack_from(log, pos)[0]
        block = PermanentBlock.decode(log[pos + FRAME_HEAD.size:pos + FRAME_HEAD.size + size])
        end = pos + FRAME_HEAD.size + size
        body = end if block.header.interval_len else None
        if body is not None:
            end += FRAME_HEAD.size + FRAME_HEAD.unpack_from(log, body)[0]
        spans.append((pos, body, end))
        pos = end
    return spans


def body_frames(log: bytes) -> dict:
    """``{x: (start, end)}`` of each body frame of a log of whole segments."""
    return {x: (body, end) for x, (_, body, end) in enumerate(segment_spans(log))
            if body is not None}


def erased_frame(start: int, end: int) -> bytes:
    """What a prune writes over the body frame at ``start:end``."""
    return log_frame(bytes(end - start - FRAME_HEAD.size))


def erase_body(root, data: bytes) -> int:
    """Overwrite the body frame holding ``data`` in the store at ``root``
    with an erased frame behind the store's back, as a prune without a
    delete would; return the interval's height."""
    path = Path(root) / "permanent.log"
    log = path.read_bytes()
    x, (start, end) = next((x, span) for x, span in body_frames(log).items()
                           if data in log[span[0]:span[1]])
    path.write_bytes(log[:start] + erased_frame(start, end) + log[end:])
    return x


def store_holds(root, data: bytes) -> bool:
    """Whether any file of the store at ``root`` holds ``data``."""
    return any(data in p.read_bytes() for p in Path(root).rglob("*") if p.is_file())

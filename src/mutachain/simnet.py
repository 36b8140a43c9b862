"""Deterministic in-process network of mining nodes.

Time is a step counter.  Each step delivers every message queued in the
previous step (per sender-receiver FIFO, receivers and senders walked
in id order), then the slot's proposer assembles and announces a
segment.  Nothing is random and nothing reads the clock, so a scenario
replays to byte-identical reports.

Offline nodes receive nothing; messages addressed to them while down
are lost, which is what forces the catch-up on rejoin.  It takes one
round trip: a block locator (the node's blocks at tip, tip-1, tip-2,
tip-4, ... and genesis) is answered with the peer's spine above the
last block both hold and the bodies of the intervals the peer still
holds, read from one snapshot of the peer.  Deleted intervals are
never sent, a rejoining node just sees the delete evidence in the
spine.  A suffix on the node's tip extends its chain in place, all or
nothing; only a fork below the tip rebuilds from genesis.  A reply
takes two steps, one per hop; a node still waiting after that asks
again at the next announcement.  A node back online is such a node:
until a reply has landed it holds gossip and announcements, to judge
them once it has caught up and not against its stale tip, and it
proposes nothing unless no other online node has caught up.

Byzantine behaviour is modelled at proposal time: a node's ``fault``
hook rewrites the segment it proposes, or withholds it, and honest
nodes must reject what it announces.  ``fault_wrong_p_list`` and
``fault_unauthorized_delete`` (bound to a key) are two such hooks.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, replace

# replay through the module: a wrapper set on verify.replay_segments sees it
from . import verify
from .blocks import PermanentBlock, RemovableBlock, compute_tx_root
from .crypto import KeyPair
from .errors import AlreadyKnown, MempoolRejection, MutachainError
from .ledger import Chain, ChainParams, IntervalStatus
from .mempool import Mempool
from .tx import Transaction, build_delete

REPLY_STEPS = 2   # a reply lands this many steps after its request, one per hop


@dataclass(frozen=True)
class TxGossip:
    tx: Transaction


@dataclass(frozen=True)
class BlockAnnounce:
    removable_blocks: tuple[RemovableBlock, ...]
    block: PermanentBlock


@dataclass(frozen=True)
class SyncRequest:
    locator: tuple[tuple[int, bytes], ...]   # (height, block hash), tip first


@dataclass(frozen=True)
class FillResponse:
    blocks: tuple[PermanentBlock, ...]   # the spine, empty if nothing to send
    fills: dict  # height -> tuple[RemovableBlock, ...]


class SimNode:
    def __init__(self, node_id: int, chain: Chain, store=None):
        self.id = node_id
        self.chain = chain
        self.mempool = Mempool()
        self.store = store
        self.online = True
        # (chain, interval, block) -> (interval, block), or None to propose nothing
        self.fault = None
        self._asked: int | None = None   # step of the unanswered SyncRequest
        self._backlog: list[BlockAnnounce | TxGossip] = []   # held meanwhile

    # ------------------------------------------------------------------

    def history_segments(self):
        return [(self.chain.interval_blocks(x), self.chain.block_at(x))
                for x in range(self.chain.height + 1)]

    def _append(self, removable_blocks, block, net: "SimNet") -> bool:
        try:
            self.chain.append_segment(removable_blocks, block)
        except MutachainError as exc:
            net.log(self.id, ev="reject", height=block.height,
                    err=type(exc).__name__)
            return False
        self.mempool.observe_segment(removable_blocks, block, self.chain)
        net.log(self.id, ev="append", height=block.height)
        kept = net.archive.get(block.block_hash)
        # a late joiner appends deleted intervals without bodies; keep
        # the fullest copy ever seen
        if kept is None or len(removable_blocks) > len(kept[0]):
            net.archive[block.block_hash] = (tuple(removable_blocks), block)
        self._store_and_prune([(removable_blocks, block)], net)
        return True

    def _store_and_prune(self, segments, net: "SimNet") -> None:
        """Persist segments just appended to the chain, then drop every
        interval whose delete has matured, in memory and on disk."""
        if self.store is not None:
            for removable_blocks, block in segments:
                self.store.append_segment(removable_blocks, block)
            # marked at once, so the store names the node's tip: a
            # simulated node has no idle point to defer the mark to
            self.store.mark()
        dropped = self.chain.prune()
        if dropped:
            if self.store is not None:
                for x in dropped:
                    self.store.prune(x)
            net.log(self.id, ev="prune", intervals=dropped)

    # ------------------------------------------------------------------
    # message handling

    def _admit(self, tx: Transaction, net: "SimNet") -> None:
        try:
            self.mempool.submit(tx, self.chain)
        except AlreadyKnown:
            pass
        except MempoolRejection as exc:
            net.log(self.id, ev="tx-reject", err=type(exc).__name__)

    def handle(self, sender: int, msg, net: "SimNet") -> None:
        if isinstance(msg, TxGossip):
            if self._asked is None:
                self._admit(msg.tx, net)
            else:
                # judged against a stale tip it could be lost for good
                self._backlog.append(msg)
        elif isinstance(msg, BlockAnnounce):
            h = msg.block.height
            if h <= self.chain.height:
                return
            if self._asked is None and h == self.chain.height + 1 \
                    and msg.block.header.prev_permanent == self.chain.tip_hash:
                self._append(msg.removable_blocks, msg.block, net)
                self._release_backlog(net)
                return
            # behind, forked while isolated, or mid-handshake: applied
            # after the reply lands, so no announced block is lost
            self._backlog.append(msg)
            if self._asked is None or net.step_no > self._asked + REPLY_STEPS:
                self._asked = net.step_no
                tip = self.chain.height     # locator: tip, tip-1, tip-2, tip-4, ..., 0
                heights = dict.fromkeys(max(tip - (1 << k >> 1), 0)
                                        for k in range(tip.bit_length() + 2))
                net.send(self.id, sender, SyncRequest(tuple(
                    (h, self.chain.block_at(h).block_hash) for h in heights)))
        elif isinstance(msg, SyncRequest):
            # the spine above the highest locator block on this chain, from
            # height 1 if that block is below the asker's tip (a fork), with
            # every body still held; empty if nothing here is newer or shared
            tip, asker = self.chain.height, msg.locator[0][0]
            shared = next((h for h, hash_ in msg.locator
                           if 0 <= h <= tip and self.chain.block_at(h).block_hash == hash_), None)
            blocks = ()
            if shared is not None and tip > asker:
                start = shared + 1 if shared == asker else 1
                blocks = tuple(map(self.chain.block_at, range(start, tip + 1)))
            fills = {b.height: self.chain.interval_blocks(b.height) for b in blocks}
            net.send(self.id, sender, FillResponse(
                blocks, {h: rbs for h, rbs in fills.items() if rbs}))
        elif isinstance(msg, FillResponse):
            self._finish_sync(msg, sender, net)

    def _finish_sync(self, reply: FillResponse, peer: int, net: "SimNet") -> None:
        self._asked = None
        tip = self.chain.height
        if reply.blocks:
            onto = self.chain if reply.blocks[0].height == tip + 1 else None
            segments = [((), self.chain.block_at(0))] if onto is None else []
            segments += [(reply.fills.get(b.height) if b.header.interval_len else (), b)
                         for b in reply.blocks]
            try:
                rebuilt = verify.replay_segments(segments, self.chain.params, onto=onto)
            except MutachainError as exc:
                net.log(self.id, ev="sync-abort", peer=peer, err=type(exc).__name__)
                # the blocks held for this sync go with it; gossip stays
                self._backlog = [m for m in self._backlog if isinstance(m, TxGossip)]
                self._release_backlog(net)
                return
            if rebuilt.height > tip:
                # only what this node did not hold leaves the mempool: a
                # fork's shared prefix is already observed
                for removable_blocks, block in segments:
                    if block.height > tip or block.block_hash \
                            != self.chain.block_at(block.height).block_hash:
                        self.mempool.drop_confirmed(removable_blocks, block)
                if onto is None:
                    self.chain = rebuilt
                    if self.store is not None:
                        self.store.rebuild(rebuilt)
                    segments = []
                net.log(self.id, ev="sync", peer=peer, height=self.chain.height)
                self._store_and_prune(segments, net)
        self._release_backlog(net)

    def _release_backlog(self, net: "SimNet") -> None:
        """Apply what was held while catching up, in arrival order: each
        announced block that extends the tip, and each gossiped tx."""
        backlog, self._backlog = self._backlog, []
        for msg in backlog:
            if isinstance(msg, TxGossip):
                self._admit(msg.tx, net)
            elif msg.block.height == self.chain.height + 1 \
                    and msg.block.header.prev_permanent == self.chain.tip_hash:
                self._append(msg.removable_blocks, msg.block, net)

    # ------------------------------------------------------------------
    # proposing

    def propose(self, net: "SimNet") -> None:
        interval, block = self.mempool.build_candidate(
            self.chain, net.max_interval_blocks)
        if self.fault is not None:
            mutated = self.fault(self.chain, interval, block)
            if mutated is None:
                return
            interval, block = mutated
        net.log(self.id, ev="propose", height=block.height,
                interval_blocks=len(interval), body=len(block.txs))
        # a corrupted segment fails here and the node's own chain stays
        # put, but the announcement still goes out for others to judge
        self._append(interval, block, net)
        net.broadcast(self.id, BlockAnnounce(interval, block))


def fault_wrong_p_list(chain, interval, block):
    """Name a signer in the p_list that the interval does not hold."""
    fake = bytes(31) + b"\x7f"
    p_list = tuple(sorted(set(block.header.p_list) ^ {fake}))
    return interval, replace(block, header=replace(block.header, p_list=p_list))


def fault_unauthorized_delete(key: KeyPair, chain, interval, block):
    """Add a delete signed by ``key`` of the first interval it does not
    own alone; propose nothing when there is none."""
    for x in range(1, chain.height + 1):
        rec = chain.interval_record(x)
        if rec.status is IntervalStatus.PRESENT and rec.length > 0 \
                and chain.delete_record(x) is None and rec.p_list != (key.pubkey,):
            txs = block.txs + (build_delete(key, x),)
            return interval, replace(block, txs=txs, header=replace(
                block.header, tx_root=compute_tx_root(txs)))
    return None


class SimNet:
    """The message fabric plus the global step loop."""

    def __init__(self, num_nodes: int, genesis_txs=(),
                 params: ChainParams | None = None, *,
                 max_interval_blocks: int = 1, propose_period: int = 1,
                 stores: dict | None = None):
        self.params = params or ChainParams()
        self.max_interval_blocks = max_interval_blocks
        self.propose_period = propose_period
        base = Chain.bootstrap(genesis_txs, self.params)
        self.nodes: list[SimNode] = []
        for i in range(num_nodes):
            store = (stores or {}).get(i)
            node = SimNode(i, base.copy(), store=store)
            if store is not None:
                store.rebuild(node.chain)
            self.nodes.append(node)
        self.step_no = 0
        self.events: list[dict] = []
        self._queues: dict[tuple[int, int], deque] = {}
        # instrumentation, not part of the protocol: full bodies of
        # every segment any node accepted (never pruned), and which
        # removable bodies were ever handed to each node
        self.archive: dict[bytes, tuple] = {}
        self.body_deliveries: dict[int, set] = {i: set() for i in range(num_nodes)}

    # ------------------------------------------------------------------
    # fabric

    def log(self, node_id: int, **fields) -> None:
        entry = {"step": self.step_no, "node": node_id}
        entry.update(fields)
        self.events.append(entry)

    def send(self, sender: int, receiver: int, msg) -> None:
        if not self.nodes[receiver].online:
            return
        self._queues.setdefault((sender, receiver), deque()).append(msg)

    def broadcast(self, sender: int, msg) -> None:
        for node in self.nodes:
            if node.id != sender:
                self.send(sender, node.id, msg)

    def submit(self, tx: Transaction, via: int = 0) -> None:
        """Hand a transaction to one node and gossip it to the rest."""
        node = self.nodes[via]
        node.mempool.submit(tx, node.chain)
        self.broadcast(via, TxGossip(tx))

    def set_online(self, node_id: int, online: bool) -> None:
        node = self.nodes[node_id]
        if online and not node.online:
            # like a request gone unanswered: it asks at the next announcement
            node._asked = self.step_no - REPLY_STEPS - 1
        node.online = online
        if not online:
            # the reply to a pending SyncRequest is lost with the queue
            node._asked, node._backlog = None, []
            for key in list(self._queues):
                if key[1] == node_id:
                    del self._queues[key]

    def step(self, count: int = 1) -> None:
        for _ in range(count):
            self._deliver()
            if self.step_no % self.propose_period == 0:
                slot = self.step_no // self.propose_period
                proposer = self.nodes[slot % len(self.nodes)]
                # alone: no other online node is caught up to answer it
                if proposer.online and proposer._asked is not None and not any(
                        n.online and n._asked is None
                        for n in self.nodes if n is not proposer):
                    proposer._asked = None
                    proposer._release_backlog(self)
                if proposer.online and proposer._asked is None:
                    proposer.propose(self)
            self.step_no += 1

    def _deliver(self) -> None:
        batch, self._queues = self._queues, {}
        for sender, receiver in sorted(batch):
            node = self.nodes[receiver]
            for msg in batch[(sender, receiver)]:
                if node.online:
                    self._record_bodies(receiver, msg)
                    node.handle(sender, msg, self)

    def _record_bodies(self, receiver: int, msg) -> None:
        seen = self.body_deliveries[receiver]
        if isinstance(msg, BlockAnnounce):
            for rb in msg.removable_blocks:
                for tx in rb.txs:
                    seen.add((msg.block.height, tx.txid))
        elif isinstance(msg, FillResponse):
            for height, blocks in msg.fills.items():
                for rb in blocks:
                    for tx in rb.txs:
                        seen.add((height, tx.txid))

    # ------------------------------------------------------------------
    # reporting

    def report(self) -> dict:
        nodes = []
        for node in self.nodes:
            chain = node.chain
            intervals = {}
            for x in range(1, chain.height + 1):
                rec = chain.interval_record(x)
                if rec.length > 0:
                    intervals[str(x)] = rec.status.value
            nodes.append({
                "id": node.id,
                "online": node.online,
                "height": chain.height,
                "tip": chain.tip_hash.hex(),
                "intervals": intervals,
                "mempool": len(node.mempool),
            })
        return {"steps": self.step_no, "events": self.events, "nodes": nodes}

    def report_json(self) -> str:
        return json.dumps(self.report(), sort_keys=True, indent=2) + "\n"

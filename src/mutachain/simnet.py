"""Deterministic in-process network of mining nodes.

Time is a step counter.  Each step delivers every message queued in
the previous step, ordered by sender id, then receiver id, then the
order it was sent in; then the slot's proposer assembles and announces
a segment.  Nothing is random and nothing reads the clock, so a
scenario replays to byte-identical reports.

Offline nodes receive nothing; messages addressed to them while down
are lost, which is what forces the catch-up on rejoin.  It takes one
round trip: a block locator (the node's tip and genesis blocks) is
answered with the peer's spine above that tip if the peer holds it,
else from genesis if the peer shares genesis, and the bodies of the
intervals the peer still holds, read from one snapshot of the peer.
Two chains that share a block share genesis, so no other entry would
change the answer.  Deleted intervals are never sent, a rejoining node
just sees the delete evidence in the spine.  A suffix on the node's
tip extends its chain in place, all or nothing; only a fork below the
tip, which the peer sends from genesis, rebuilds the chain.  Every
append and sync goes through ``Node.extend``, which observes, stores
and prunes; a ``SimNode`` adds only its network state and its event
log.  A reply takes two steps, one per hop; a node still waiting after
that asks again at the next announcement.  A node back online is such
a node: until a reply has landed it holds gossip and announcements, to
judge them once it has caught up and not against its stale tip, and it
proposes nothing unless no other online node has caught up.

Gossip and announcements take one path: ``handle`` holds each in the
node's backlog, and ``_release_backlog`` admits or appends what it
holds, at once for a caught-up node, after the reply for one that is
catching up.

The net holds protocol state only: nodes, one message list, the step
counter and the event log.  It keeps no copy of a body and no record
of what it delivered, so a body every node has pruned is held by
nothing the net reaches.  Tests that need such a record wrap
``SimNode.handle`` or ``Node.extend`` themselves.

Byzantine behaviour is modelled at proposal time: a node's ``fault``
hook rewrites the segment it proposes, or withholds it (logged as a
``withhold`` event), and honest nodes must reject what it announces.
``fault_wrong_p_list`` and ``fault_unauthorized_delete`` (bound to a
key) are two such hooks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from operator import itemgetter

from .blocks import PermanentBlock, RemovableBlock, compute_tx_root
from .crypto import KeyPair
from .errors import AlreadyKnown, MempoolRejection, MutachainError
from .ledger import Chain, ChainParams, IntervalStatus
from .mempool import Mempool
from .node import Node
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
    locator: tuple[tuple[int, bytes], ...]   # (height, block hash): tip, then genesis


@dataclass(frozen=True)
class FillResponse:
    blocks: tuple[PermanentBlock, ...]   # the spine, empty if nothing to send
    fills: dict  # height -> tuple[RemovableBlock, ...]


class SimNode(Node):
    def __init__(self, node_id: int, chain: Chain):
        super().__init__(chain, Mempool())
        self.id = node_id
        self.online = True
        # (chain, interval, block) -> (interval, block), or None to propose nothing
        self.fault = None
        self._asked: int | None = None   # step of the unanswered SyncRequest
        self._backlog: list[BlockAnnounce | TxGossip] = []   # held meanwhile

    # ------------------------------------------------------------------

    def _grow(self, segments, net: "SimNet", done: dict, failed: dict) -> bool:
        """Extend the chain, logging ``done`` then any prune, or
        ``failed`` with the broken rule; False if refused."""
        tip = self.chain.height
        try:
            dropped = self.extend(segments)
        except MutachainError as exc:
            if self.chain.height > tip:
                raise   # the chain took the segments and the store failed
            net.log(self.id, **failed, err=type(exc).__name__)
            return False
        if self.chain.height > tip:
            net.log(self.id, **done, height=self.chain.height)
        if dropped:
            net.log(self.id, ev="prune", intervals=dropped)
        return True

    def _extends(self, block: PermanentBlock) -> bool:
        return block.height == self.chain.height + 1 \
            and block.header.prev_permanent == self.chain.tip_hash

    # ------------------------------------------------------------------
    # message handling

    def handle(self, sender: int, msg, net: "SimNet") -> None:
        if isinstance(msg, (TxGossip, BlockAnnounce)):
            announce = isinstance(msg, BlockAnnounce)
            if announce and msg.block.height <= self.chain.height:
                return
            # held until caught up: gossip judged against a stale tip could
            # be lost for good, and a block that does not extend the tip
            # waits for the reply.  A caught-up node (_asked is None) holds
            # nothing else, since a sync's end and the "alone" rule release
            # the backlog and going offline clears it.
            self._backlog.append(msg)
            if self._asked is None and (not announce or self._extends(msg.block)):
                self._release_backlog(net)
            elif announce and (self._asked is None
                               or net.step_no > self._asked + REPLY_STEPS):
                self._asked = net.step_no
                net.send(self.id, sender, SyncRequest(tuple(   # one entry if tip is genesis
                    {h: self.chain.block_at(h).block_hash for h in (self.chain.height, 0)}.items())))
        elif isinstance(msg, SyncRequest):
            # the spine above the asker's tip if this chain holds it, else
            # from genesis if that is shared (a fork), with every body still
            # held; empty if nothing here is newer or shared
            tip, asker = self.chain.height, msg.locator[0][0]
            shared = next((h for h, hash_ in msg.locator
                           if 0 <= h <= tip and self.chain.block_at(h).block_hash == hash_), None)
            blocks = ()
            if shared is not None and tip > asker:
                start = shared + 1 if shared == asker else 0
                blocks = tuple(map(self.chain.block_at, range(start, tip + 1)))
            fills = {b.height: rbs for b in blocks
                     if (rbs := self.chain.interval_blocks(b.height))}
            net.send(self.id, sender, FillResponse(blocks, fills))
        elif isinstance(msg, FillResponse):
            self._finish_sync(msg, sender, net)

    def _finish_sync(self, reply: FillResponse, peer: int, net: "SimNet") -> None:
        self._asked = None
        segments = [(reply.fills.get(b.height) if b.header.interval_len else (), b)
                    for b in reply.blocks]
        if segments and not self._grow(segments, net, {"ev": "sync", "peer": peer},
                                       {"ev": "sync-abort", "peer": peer}):
            # the blocks held for this sync go with it; gossip stays
            self._backlog = [m for m in self._backlog if isinstance(m, TxGossip)]
        self._release_backlog(net)

    def _release_backlog(self, net: "SimNet") -> None:
        """Apply what was held, in arrival order: each announced block
        that extends the tip, and each gossiped tx.  The only place a
        node admits gossip or appends an announced block."""
        backlog, self._backlog = self._backlog, []
        for msg in backlog:
            if isinstance(msg, TxGossip):
                try:
                    self.mempool.submit(msg.tx, self.chain)
                except AlreadyKnown:
                    pass
                except MempoolRejection as exc:
                    net.log(self.id, ev="tx-reject", err=type(exc).__name__)
            elif self._extends(msg.block):
                self._grow([(msg.removable_blocks, msg.block)], net, {"ev": "append"},
                           {"ev": "reject", "height": msg.block.height})

    # ------------------------------------------------------------------
    # proposing

    def propose(self, net: "SimNet") -> None:
        interval, block = self.mempool.build_candidate(
            self.chain, net.max_interval_blocks)
        if self.fault is not None:
            mutated = self.fault(self.chain, interval, block)
            if mutated is None:
                net.log(self.id, ev="withhold", height=block.height)
                return
            interval, block = mutated
        net.log(self.id, ev="propose", height=block.height,
                interval_blocks=len(interval), body=len(block.txs))
        # a corrupted segment fails here and the node's own chain stays
        # put, but the announcement still goes out for others to judge
        self._grow([(interval, block)], net, {"ev": "append"},
                   {"ev": "reject", "height": block.height})
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
                 max_interval_blocks: int = 1, propose_period: int = 1):
        self.params = params or ChainParams()
        self.max_interval_blocks = max_interval_blocks
        self.propose_period = propose_period
        base = Chain.bootstrap(genesis_txs, self.params)
        self.nodes = [SimNode(i, base.copy()) for i in range(num_nodes)]
        self.step_no = 0
        self.events: list[dict] = []
        self._queue: list[tuple[int, int, object]] = []   # (sender, receiver, msg)

    # ------------------------------------------------------------------
    # fabric

    def log(self, node_id: int, **fields) -> None:
        self.events.append({"step": self.step_no, "node": node_id, **fields})

    def send(self, sender: int, receiver: int, msg) -> None:
        if self.nodes[receiver].online:
            self._queue.append((sender, receiver, msg))

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
            node._backlog = []
            self._queue = [m for m in self._queue if m[1] != node_id]

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
        batch, self._queue = self._queue, []
        batch.sort(key=itemgetter(0, 1))     # stable: each pair in the order sent
        for sender, receiver, msg in batch:
            self.nodes[receiver].handle(sender, msg, self)

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

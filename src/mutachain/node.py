"""One node's chain, mempool and store, grown on one path.

``Node.extend`` is the only way a node's chain grows, whether by a
mined segment, an announced one or a synced history: the segments are
replayed all or nothing, the mempool observes what is new, the store
persists it, and every matured interval is erased from the chain and
from disk.  ``Node.prune`` is that last step on its own, and the one
place in the package that prunes.
"""

from __future__ import annotations

# replay through the module: a wrapper set on verify.replay_segments sees it
from . import verify
from .ledger import Chain


class Node:
    def __init__(self, chain: Chain, mempool=None, store=None):
        self.chain = chain
        self.mempool = mempool
        self.store = store

    def history_segments(self):
        return [(self.chain.interval_blocks(x), self.chain.block_at(x))
                for x in range(self.chain.height + 1)]

    def extend(self, segments) -> list[int]:
        """Grow the chain by (interval_blocks, permanent_block) pairs and
        return the intervals pruned after it.

        Pairs that start at tip+1 extend the chain in place, all or
        nothing.  Pairs that start lower are a fork from genesis: it is
        replayed on a fresh chain and replaces this one only when it is
        taller, and otherwise nothing changes.  The first broken rule
        raises its error and leaves the node as it was; a store failure
        after that raises too, with the chain already grown.
        """
        segments = list(segments)
        tip = self.chain.height
        fork = segments[0][1].height <= tip
        grown = verify.replay_segments(segments, self.chain.params,
                                       onto=None if fork else self.chain)
        if grown.height <= tip:
            return []
        if self.mempool is not None:
            # only what this node did not hold: a fork's shared prefix
            # was observed when it was appended
            for removable_blocks, block in segments:
                if block.height > tip or block.block_hash \
                        != self.chain.block_at(block.height).block_hash:
                    self.mempool.observe_segment(removable_blocks, block, grown)
        self.chain = grown
        if self.store is not None and fork:
            self.store.rebuild(grown)
        elif self.store is not None:
            for removable_blocks, block in segments:
                self.store.append_segment(removable_blocks, block)
        return self.prune()

    def prune(self) -> list[int]:
        """Erase every interval whose delete has matured, from the chain
        and from the store; return the intervals erased."""
        dropped = self.chain.prune()
        if self.store is not None:
            for x in dropped:
                self.store.prune(x)
        return dropped

"""Deterministic workload inputs, derived from the run seed alone.

Keys are ``digest(seed‖pass‖i)`` and payloads are digests of the seed
and their position, so one seed always yields byte-identical
transactions and a different seed yields different ones.  Each pass of
a run takes its own ``pass_no``: passes do the same amount of work, but
none of them finds the previous pass's signatures in the library's
verify cache.

A plan is a list of batches, one per segment the client waits for.
Batches repeat a four-step cycle when deletions are on:

* ``4k``: a shared interval, two removables from each of 4 signers
  (the p_list limit);
* ``4k+1``: a sole-owner interval, 8 removables from one signer;
* ``4k+2``: the first signer of ``4k`` prepares its deletion, and the
  interval's signers add fresh data, so the 6 bystander duplicates the
  miner re-includes still fit under the p_list limit;
* ``4k+3``: the prepared delete of ``4k``, the sole-owner delete of
  ``4k+1``, and a fresh 4-signer interval.

Half the intervals are thus erased, and every transaction a batch
submits fits in the next segment, so the mempool never builds a
backlog.  Without deletions every batch is a fresh 4-signer interval.
Registrations of late keys, info records and consent grants ride in
the spine in both cases.

Deletion transactions name the height where their target batch landed;
``deletion_txs`` signs them once that height is known, which the
multi-node workload learns only at run time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from mutachain import (
    KeyPair,
    OutPoint,
    Transaction,
    build_consent,
    build_delete,
    build_info,
    build_prepare,
    build_register,
    build_removable,
    digest,
    keypair_from_seed,
)

KEYS = 64
GENESIS_KEYS = 48
SIGNERS_PER_SEG = 4          # MAX_P_LIST
TXS_PER_SIGNER = 2
SOLE_OWNER_TXS = 8
PAYLOAD_SIZE = 64
REGISTER_EVERY = 8           # one late key registers every 8 batches
INFO_EVERY = 40
CONSENT_EVERY = 5
PURPOSES = ("analytics", "billing", "marketing", "research")


def _tag(kind: str, seed: int, pass_no: int, *more: int) -> bytes:
    fields = "/".join(str(v) for v in (seed, pass_no) + more)
    return f"mutachain-bench/{kind}/{fields}".encode()


@dataclass(frozen=True)
class Batch:
    """One segment's worth of client transactions."""

    removables: tuple[Transaction, ...]
    body: tuple[Transaction, ...]
    prepare: tuple[int, int] | None               # (key, target batch)
    deletes: tuple[tuple[int, int, bool], ...]    # (key, target batch, via prepare)


@dataclass(frozen=True)
class Plan:
    keys: tuple[KeyPair, ...]
    genesis: tuple[Transaction, ...]
    batches: tuple[Batch, ...]

    def register_ref(self, key: int) -> OutPoint:
        return OutPoint(build_register(self.keys[key]).txid, 0)

    def deletion_txs(self, i: int, height_of: Callable[[int], int]
                     ) -> tuple[Transaction, ...]:
        """Prepare and delete transactions of batch ``i``, naming the
        heights where their target batches landed."""
        b = self.batches[i]
        out = []
        if b.prepare is not None:
            key, target = b.prepare
            out.append(build_prepare(self.keys[key], self.register_ref(key),
                                     height_of(target)))
        for key, target, via_prepare in b.deletes:
            ref = None
            if via_prepare:
                prep = build_prepare(self.keys[key], self.register_ref(key),
                                     height_of(target))
                ref = OutPoint(prep.txid, 0)
            out.append(build_delete(self.keys[key], height_of(target), ref))
        return tuple(out)

    def bystanders(self, i: int) -> tuple[Transaction, ...]:
        """Transactions of other signers in the interval batch ``i``
        prepares to delete: the duplicates that must be re-included."""
        b = self.batches[i]
        if b.prepare is None:
            return ()
        key, target = b.prepare
        owner = self.keys[key].pubkey
        return tuple(tx for tx in self.batches[target].removables
                     if tx.signer != owner)

    def erased(self) -> list[tuple[int, tuple[Transaction, ...]]]:
        """(target batch, transactions whose bytes must vanish) per delete."""
        out = []
        for b in self.batches:
            for key, target, _ in b.deletes:
                owner = self.keys[key].pubkey
                out.append((target, tuple(
                    tx for tx in self.batches[target].removables
                    if tx.signer == owner)))
        return out


def make_plan(seed: int, pass_no: int, batches: int, *, deletes: bool) -> Plan:
    rng = random.Random(digest(_tag("plan", seed, pass_no)))
    keys = tuple(keypair_from_seed(digest(_tag("key", seed, pass_no, i)))
                 for i in range(KEYS))
    genesis = tuple(build_register(k) for k in keys[:GENESIS_KEYS])
    refs = [OutPoint(tx.txid, 0) for tx in genesis]
    refs += [OutPoint(build_register(k).txid, 0) for k in keys[GENESIS_KEYS:]]

    registered = list(range(GENESIS_KEYS))
    infos: list[OutPoint] = []
    consents: dict[tuple[int, int], OutPoint] = {}
    signers: list[tuple[int, ...]] = []
    out: list[Batch] = []

    def removables(i: int, who: tuple[int, ...], per: int):
        txs = []
        for key in who:
            for j in range(per):
                payload = b"".join(
                    digest(_tag("payload", seed, pass_no, i, key, j, part))
                    for part in range(PAYLOAD_SIZE // 32))
                txs.append(build_removable(keys[key], refs[key], payload))
        return tuple(txs)

    for i in range(batches):
        # a cycle runs only if its deletes mature before the plan ends:
        # ChainParams() prunes 2 segments after the delete (batch 4k+3)
        cycle = deletes and (i - i % 4) + 5 < batches
        step = i % 4
        prepare = None
        dels: tuple[tuple[int, int, bool], ...] = ()
        if cycle and step == 1:
            who = (rng.choice(registered),)
            rem = removables(i, who, SOLE_OWNER_TXS)
        elif cycle and step == 2:
            who = signers[i - 2]
            prepare = (who[0], i - 2)
            rem = removables(i, who, TXS_PER_SIGNER)
        else:
            who = tuple(rng.sample(registered, SIGNERS_PER_SEG))
            rem = removables(i, who, TXS_PER_SIGNER)
            if cycle and step == 3:
                dels = ((signers[i - 3][0], i - 3, True),
                        (signers[i - 2][0], i - 2, False))
        signers.append(who)

        body = []
        new_keys, new_infos = [], []
        late = GENESIS_KEYS + i // REGISTER_EVERY
        if i % REGISTER_EVERY == REGISTER_EVERY - 1 and late < KEYS:
            body.append(build_register(keys[late]))
            new_keys.append(late)
        if i % INFO_EVERY == INFO_EVERY // 4:
            key = rng.choice(registered)
            info = build_info(keys[key], refs[key],
                              _tag("controller", seed, pass_no, i), PURPOSES)
            body.append(info)
            new_infos.append(OutPoint(info.txid, 0))
        if i % CONSENT_EVERY == CONSENT_EVERY - 1 and infos:
            key = rng.choice(registered)
            which = rng.randrange(len(infos))
            spend = consents.get((key, which), refs[key])
            grant = build_consent(keys[key], spend, infos[which],
                                  rng.randrange(1, 1 << len(PURPOSES)))
            consents[(key, which)] = OutPoint(grant.txid, 0)
            body.append(grant)
        out.append(Batch(rem, tuple(body), prepare, dels))
        # confirmed by the end of this batch, so usable from the next
        registered += new_keys
        infos += new_infos
    return Plan(keys, genesis, tuple(out))


def fingerprint(plan: Plan) -> bytes:
    """Digest over every transaction a plan can submit, in order."""
    acc = [tx.encoded for tx in plan.genesis]
    for i, b in enumerate(plan.batches):
        acc += [tx.encoded for tx in b.removables + b.body]
        acc += [tx.encoded for tx in plan.deletion_txs(i, lambda t: t + 1)]
    return digest(b"".join(acc))

"""Independent reference implementations the acceptance suite checks against.

Nothing here calls into the package's validation logic: hashes come
from hashlib, signatures from the cryptography primitives, and the
rules are re-derived from scratch in the plainest possible Python.
Canonical byte layouts (``tx.encoded``, ``header.encoded``) are reused,
since their correctness is established by the round-trip tests; what
is independently re-derived is every acceptance and authorization rule.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey

from mutachain import (
    NULL_HASH,
    OutPoint,
    PermanentBlock,
    build_consent,
    build_delete,
    build_info,
    build_permanent_block,
    build_prepare,
    build_register,
    build_removable,
    build_removable_block,
    digest,
    keypair_from_seed,
)

NULL32 = b"\x00" * 32


def sha(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def sig_ok(tx) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(tx.signer).verify(
            tx.signature, tx.signing_payload)
        return True
    except (InvalidSignature, ValueError):
        return False


class SingleLinkOracle:
    """A plain one-hash-link blockchain validator.

    Accepts exactly the histories a degenerate chain (every interval
    empty) should accept: consecutive heights, previous-block link,
    no removable machinery at all, and the spine transaction rules.
    """

    def __init__(self):
        self.height = -1
        self.tip = NULL32
        self.seen: set[bytes] = set()
        self.registered: dict[bytes, bytes] = {}        # pubkey -> register txid
        self.infos: dict[bytes, tuple] = {}             # txid -> (purposes,)
        self.consents: dict[tuple, dict] = {}           # (subject, info) -> state

    def accept(self, block) -> bool:
        hdr = block.header
        if hdr.height != self.height + 1:
            return False
        if hdr.prev_permanent != self.tip:
            return False
        if hdr.interval_len != 0 or hdr.prev_removable != NULL32 or hdr.p_list:
            return False
        if hdr.tx_root != sha(b"".join(sha(tx.encoded) for tx in block.txs)):
            return False
        staged = (dict(self.registered), dict(self.infos),
                  {k: dict(v) for k, v in self.consents.items()}, set(self.seen))
        registered, infos, consents, seen = staged
        for tx in block.txs:
            if not self._apply_tx(tx, registered, infos, consents, seen):
                return False
        self.registered, self.infos, self.consents, self.seen = staged
        self.height += 1
        self.tip = sha(hdr.encoded)
        return True

    def _apply_tx(self, tx, registered, infos, consents, seen) -> bool:
        txid = sha(tx.encoded)
        if txid in seen:
            return False
        if tx.value != 0 and tx.kind != 6:
            return False
        if not sig_ok(tx):
            return False
        if tx.kind == 1:      # register
            if tx.inputs or tx.output_count != 1 or tx.payload is not None:
                return False
            if tx.signer in registered:
                return False
            registered[tx.signer] = txid
        elif tx.kind == 5:    # info
            if len(tx.inputs) != 1 or tx.output_count != 1:
                return False
            p = tx.payload.purposes
            if not 1 <= len(p) <= 64 or len(set(p)) != len(p):
                return False
            if not self._spends_register(tx, registered):
                return False
            infos[txid] = tuple(p)
        elif tx.kind == 6:    # consent
            if len(tx.inputs) != 1 or tx.output_count != 1:
                return False
            ref = tx.payload.info_ref
            purposes = infos.get(ref.txid)
            if purposes is None or ref.index != 0:
                return False
            if tx.value >> len(purposes):
                return False
            key = (tx.signer, ref.txid)
            state = consents.get(key)
            reg = registered.get(tx.signer)
            if reg is None:
                return False
            spent = (tx.inputs[0].txid, tx.inputs[0].index)
            if state is not None and state["open"] is not None:
                if spent != state["open"]:
                    return False
            else:
                if spent != (reg, 0):
                    return False
            consents[key] = {"open": (txid, 0) if tx.value else None}
        else:
            # removable blocks do not exist on this chain, so nothing a
            # prepare or delete could name does either; removables are
            # not spine transactions at all
            return False
        seen.add(txid)
        return True

    @staticmethod
    def _spends_register(tx, registered) -> bool:
        reg = registered.get(tx.signer)
        return reg is not None and tx.inputs[0].txid == reg \
            and tx.inputs[0].index == 0

    def accept_all(self, blocks) -> bool:
        return all(self.accept(block) for block in blocks)


def authorization_rule(signers: frozenset, deleter, prepared_by_deleter: bool) -> bool:
    """The deletion rule table, stated directly.

    A delete is valid when the interval's signer set is exactly the
    deleter (fast path), or the deleter confirmed a prepare for it,
    which in turn requires membership.
    """
    if signers == frozenset([deleter]):
        return True
    return prepared_by_deleter and deleter in signers


def full_history_no_loss_violations(chain, bodies) -> list[str]:
    """Naive never-pruning replay: re-derive every removable transaction
    ever confirmed from ``bodies`` (block hash -> (removable blocks,
    block), every body recorded before its prune), then flag each
    transaction of a non-deleting entity that no Present interval
    carries anymore.
    """
    owners: dict[bytes, bytes] = {}            # removable txid -> signer
    locations: dict[bytes, set[int]] = {}      # removable txid -> intervals
    for x in range(1, chain.height + 1):
        block = chain.block_at(x)
        if block.header.interval_len == 0:
            continue
        recorded = bodies.get(block.block_hash)
        assert recorded is not None, f"no body recorded for interval {x}"
        for rb in recorded[0]:
            for tx in rb.txs:
                owners[tx.txid] = tx.signer
                locations.setdefault(tx.txid, set()).add(x)

    deleting = {rec.signer for x in range(chain.height + 1)
                if (rec := chain.delete_record(x)) is not None}
    present = {x for x in range(1, chain.height + 1)
               if chain.interval_record(x).blocks is not None}

    violations = []
    for txid, signer in owners.items():
        if signer in deleting:
            continue
        if not (locations[txid] & present):
            violations.append(
                f"tx {txid.hex()[:12]} of a non-deleting entity has no "
                f"present copy (was in {sorted(locations[txid])})")
    return violations


class _DegenerateFlow:
    """Naive bookkeeping for generating spine-only transactions."""

    def __init__(self, rng: random.Random, tag: str):
        self.rng = rng
        self.keys = [keypair_from_seed(digest(f"{tag}-k{i}".encode()))
                     for i in range(5)]
        self.registered: dict[bytes, OutPoint] = {}
        self.infos: list[tuple[bytes, int]] = []
        self.consents: dict[tuple, OutPoint | None] = {}
        self.serial = 0

    def fresh_key(self):
        pool = [k for k in self.keys if k.pubkey not in self.registered]
        return self.rng.choice(pool) if pool else None

    def any_key(self):
        pool = [k for k in self.keys if k.pubkey in self.registered]
        return self.rng.choice(pool) if pool else None

    def valid_tx(self):
        rng = self.rng
        roll = rng.random()
        k = self.any_key()
        if roll < 0.35 or k is None:
            k = self.fresh_key()
            if k is None:
                return None
            tx = build_register(k)
            self.registered[k.pubkey] = OutPoint(tx.txid, 0)
            return tx
        if roll < 0.65 or not self.infos:
            n = rng.randint(1, 4)
            purposes = tuple(f"p{self.serial}-{j}" for j in range(n))
            self.serial += 1
            tx = build_info(k, self.registered[k.pubkey], b"ctl", purposes)
            self.infos.append((tx.txid, n))
            return tx
        info_txid, n = rng.choice(self.infos)
        key = (k.pubkey, info_txid)
        anchor = self.consents.get(key) or self.registered[k.pubkey]
        value = rng.randrange(1 << n)
        tx = build_consent(k, anchor, OutPoint(info_txid, 0), value)
        self.consents[key] = OutPoint(tx.txid, 0) if value else None
        return tx

    def invalid_tx(self):
        rng = self.rng
        k = self.any_key()
        if k is None:
            k = self.keys[0]
            return build_info(k, OutPoint(digest(b"nowhere"), 0), b"c", ("p",))
        ref = self.registered[k.pubkey]
        fault = rng.randrange(7)
        if fault == 0:
            return build_register(k)                      # duplicate
        if fault == 1 and self.infos:
            info_txid, n = rng.choice(self.infos)
            anchor = self.consents.get((k.pubkey, info_txid)) or ref
            return build_consent(k, anchor, OutPoint(info_txid, 0), 1 << n)
        if fault == 2 and self.infos:
            info_txid, _ = rng.choice(self.infos)
            return build_consent(k, OutPoint(digest(b"stale"), 0),
                                 OutPoint(info_txid, 0), 1)
        if fault == 3:
            return build_prepare(k, ref, rng.randint(1, 3))
        if fault == 4:
            return build_delete(k, rng.randint(1, 3))
        if fault == 5:
            return build_removable(k, ref, b"does not belong here")
        return build_info(k, ref, b"c", ("dup", "dup"))


def forged_hidden_duplicate_history() -> list[tuple]:
    """A history that erases a bystander's data, as (interval_blocks,
    permanent_block) segments with every body present.

    A and B share interval 1 and A prepares it; interval 2 holds only
    A's filler.  A deletes interval 1 although B's transaction has no
    copy anywhere else, then deletes interval 2 as its sole owner.  The
    segments are assembled with the block builders alone, so no chain
    rule is consulted; a verifier must reject the history whichever of
    intervals 1 and 2 it receives as gaps.
    """
    a = keypair_from_seed(digest(b"forged-hidden-dup:A"))
    b = keypair_from_seed(digest(b"forged-hidden-dup:B"))
    reg_a, reg_b = build_register(a), build_register(b)
    ref_a = OutPoint(sha(reg_a.encoded), 0)
    ref_b = OutPoint(sha(reg_b.encoded), 0)
    prep = build_prepare(a, ref_a, 1)
    plan = [
        ((), (reg_a, reg_b)),                                            # 0
        ((build_removable(a, ref_a, b"a's data"),
          build_removable(b, ref_b, b"b's data")), ()),                  # 1
        ((build_removable(a, ref_a, b"a's filler"),), (prep,)),          # 2
        ((), (build_delete(a, 1, OutPoint(sha(prep.encoded), 0)),)),     # 3
        ((), (build_delete(a, 2),)),                                     # 4
        ((), ()),                                                        # 5
        ((), ()),                                                        # 6
    ]
    segments = []
    tip = NULL_HASH
    for height, (removable_txs, body) in enumerate(plan):
        interval = ()
        anchor = tip
        if removable_txs:
            rb = build_removable_block(height, 1, tip, removable_txs)
            interval, anchor = (rb,), rb.block_hash
        block = build_permanent_block(
            height=height, prev_permanent=tip,
            prev_removable=anchor if interval else NULL_HASH,
            interval_len=len(interval),
            p_list=tuple(sorted({tx.signer for tx in removable_txs})),
            txs=body)
        segments.append((interval, block))
        tip = block.block_hash
    return segments


def degenerate_sequence(rng: random.Random, tag: str) -> list[PermanentBlock]:
    """Random spine-only history: every interval empty, roughly half
    of the sequences carrying one planted fault somewhere."""
    flow = _DegenerateFlow(rng, tag)
    n_blocks = rng.randint(2, 4)
    plant = rng.random() < 0.55
    fault_at = rng.randrange(n_blocks) if plant else -1
    blocks: list[PermanentBlock] = []
    tip = NULL_HASH
    for h in range(n_blocks):
        txs = []
        want = rng.randint(1, 2) if h == 0 else rng.randint(0, 3)
        for _ in range(want):
            tx = flow.valid_tx()
            if tx is not None:
                txs.append(tx)
        header_fault = None
        if h == fault_at:
            if rng.random() < 0.5:
                txs.insert(rng.randint(0, len(txs)), flow.invalid_tx())
            else:
                header_fault = rng.choice(
                    ["height", "prev", "prev_removable", "interval_len",
                     "p_list", "root"])
        kwargs = dict(height=h, prev_permanent=tip,
                      prev_removable=NULL_HASH, interval_len=0,
                      p_list=(), txs=tuple(txs))
        if header_fault == "height":
            kwargs["height"] = h + 1 + rng.randint(0, 2)
        elif header_fault == "prev":
            kwargs["prev_permanent"] = digest(f"{tag}-forged-{h}".encode())
        elif header_fault == "prev_removable":
            kwargs["prev_removable"] = digest(f"{tag}-ghost-{h}".encode())
        elif header_fault == "interval_len":
            kwargs["interval_len"] = 1
        elif header_fault == "p_list":
            kwargs["p_list"] = (flow.keys[0].pubkey,)
        block = build_permanent_block(**kwargs)
        if header_fault == "root":
            hdr = dataclasses.replace(block.header,
                                      tx_root=digest(f"{tag}-root".encode()))
            block = PermanentBlock(hdr, block.txs)
        blocks.append(block)
        tip = block.block_hash
    return blocks


def random_scenario(rng: random.Random, *, max_entities: int = 6,
                    steps: int = 40, nodes: int = 3,
                    late_node: int | None = None) -> str:
    """A random but well-formed scenario script.

    Submissions use ``try`` so the chain's own rules arbitrate; deletes
    ride the prepare machinery by naming random recent intervals.  When
    ``late_node`` is given, that node is down for the whole action
    phase and rejoins only for the settle steps at the end.
    """
    names = [f"E{i}" for i in range(rng.randint(2, max_entities))]
    lines = [
        f"params confirm_depth={rng.choice([1, 2])} "
        f"delete_lock={rng.choice([0, 1])}",
        f"nodes {nodes}",
        "schedule 1",
        "period 2",
        "entity " + " ".join(names),
        "genesis " + " ".join(names),
    ]
    if late_node is not None:
        lines.append(f"offline {late_node}")
    label = 0
    budget = steps
    height = 0                       # one proposal lands every two steps
    writers: dict[int, list[str]] = {}
    armed: list[tuple[str, int]] = []
    targeted: set[int] = set()
    while budget > 0:
        roll = rng.random()
        live = [x for x in writers if x not in targeted]
        if roll < 0.50 or not live:
            # a burst of erasable data, often from several entities,
            # so the next interval has a multi-key signer list
            burst = rng.sample(names, k=min(len(names), rng.randint(1, 3)))
            for who in burst:
                data = rng.getrandbits(128).to_bytes(16, "little").hex()
                lines.append(f"try removable {who} d{label} data={data}")
                label += 1
            height += 1
            writers[height] = burst
        elif roll < 0.70:
            x = rng.choice(live)
            who = rng.choice(writers[x])
            lines.append(f"try prepare {who} {x}")
            height += 1
            armed.append((who, x))
        elif roll < 0.88 and armed:
            who, x = armed.pop(rng.randrange(len(armed)))
            lines.append(f"try delete {who} {x}")
            height += 1
            targeted.add(x)
        else:
            # blind shot, usually refused: wrong interval, wrong signer
            who = rng.choice(names)
            x = rng.randint(1, max(height, 1))
            verb = rng.choice(["prepare", "delete"])
            lines.append(f"try {verb} {who} {x}")
            height += 1
        lines.append("step 2")
        budget -= 2
    # settle: long enough that admitted transactions all get mined, so
    # a rejoining node sees a finished history rather than a moving one
    lines.append("step 12" if late_node is not None else "step 6")
    if late_node is not None:
        lines.append(f"online {late_node}")
        lines.append("step 10")
    return "\n".join(lines) + "\n"

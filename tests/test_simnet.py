"""Simulated network: gossip, convergence, catch-up sync, faults."""

import gc
import json
import types
from dataclasses import replace
from functools import partial

import pytest

from mutachain import (
    BlockStore,
    Chain,
    ChainParams,
    IntervalStatus,
    SimNet,
    SimNode,
    build_delete,
    build_prepare,
    build_register,
    build_removable,
    run_scenario,
    verify_chain,
)
from mutachain import verify
from mutachain.errors import CorruptStore
from mutachain.simnet import (
    BlockAnnounce,
    FillResponse,
    SyncRequest,
    TxGossip,
    fault_unauthorized_delete,
    fault_wrong_p_list,
)
from support import (
    ALICE, BOB, CAROL, attach_stores, cold_cache, count_signature_checks, make_segment,
    record_deliveries, store_holds,
)

FAST = ChainParams(confirm_depth=1, delete_lock=0)


def genesis():
    return (build_register(ALICE), build_register(BOB))


def rem(net, k, data, via=0):
    chain = net.nodes[via].chain
    return build_removable(k, chain.register_outpoint(k.pubkey), data)


def converged(net):
    tips = {n.chain.tip_hash for n in net.nodes if n.online}
    return len(tips) == 1


def test_a_step_delivers_by_sender_then_receiver_each_pair_in_the_order_sent(monkeypatch):
    net = SimNet(3, genesis(), FAST)
    handled = []
    real = SimNode.handle

    def handle(node, sender, msg, net):
        if isinstance(msg, str):    # handle ignores a message of no known type
            handled.append((sender, node.id, msg))
            if msg == "b":
                net.send(node.id, sender, "reply")
        real(node, sender, msg, net)
    monkeypatch.setattr(SimNode, "handle", handle)
    sends = [(2, 0, "a"), (1, 0, "b"), (1, 2, "c"), (2, 0, "d"), (0, 1, "e")]
    for sender, receiver, msg in sends:
        net.send(sender, receiver, msg)
    net.step()
    in_order = [(0, 1, "e"), (1, 0, "b"), (1, 2, "c"), (2, 0, "a"), (2, 0, "d")]
    assert handled == in_order
    # a message sent during delivery waits for the next step
    net.step()
    assert handled[5:] == [(0, 1, "reply")]
    # going offline drops only what is queued for that node
    for sender, receiver, msg in sends:
        net.send(sender, receiver, msg)
    net.set_online(1, False)
    net.step()
    assert handled[6:] == in_order[1:]


def test_gossip_and_proposals_converge():
    net = SimNet(3, genesis(), FAST, propose_period=2)
    net.submit(rem(net, ALICE, b"m"))
    net.submit(rem(net, BOB, b"n"))
    net.step(6)
    assert converged(net)
    assert all(n.chain.height >= 1 for n in net.nodes)
    rec = net.nodes[2].chain.interval_record(1)
    assert rec.length == 1
    assert {tx.payload.data for tx in net.nodes[2].chain.interval_txs(1)} \
        == {b"m", b"n"}


def test_proposers_rotate_by_slot():
    net = SimNet(3, genesis(), FAST, propose_period=1)
    net.step(3)
    proposals = [e for e in net.events if e["ev"] == "propose"]
    assert [e["node"] for e in proposals] == [0, 1, 2]


def test_deletion_lifecycle_across_the_network():
    net = SimNet(3, genesis(), FAST, propose_period=2)
    net.submit(rem(net, ALICE, b"mine"))
    net.step(2)
    prep = build_prepare(ALICE,
                         net.nodes[0].chain.register_outpoint(ALICE.pubkey), 1)
    net.submit(prep)
    net.step(2)
    from mutachain import OutPoint
    net.submit(build_delete(ALICE, 1, OutPoint(prep.txid, 0)))
    net.step(6)
    assert converged(net)
    for node in net.nodes:
        assert node.chain.interval_status(1) is IntervalStatus.DELETED
        assert node.chain.interval_blocks(1) is None
        assert node.chain.delete_record(1) is not None


def test_offline_node_syncs_on_rejoin():
    net = SimNet(3, genesis(), FAST, propose_period=2)
    net.submit(rem(net, ALICE, b"while two is away"))
    net.set_online(2, False)
    net.step(6)
    assert net.nodes[2].chain.height == 0
    net.set_online(2, True)
    net.step(8)
    assert converged(net)
    assert net.nodes[2].chain.height == net.nodes[0].chain.height
    assert any(e["ev"] == "sync" and e["node"] == 2 for e in net.events)


def test_rejoined_node_sees_gap_not_deleted_bodies(monkeypatch):
    delivered = record_deliveries(monkeypatch)
    net = SimNet(3, genesis(), FAST, propose_period=2)
    # node 2 is away before the doomed interval even confirms
    net.set_online(2, False)
    net.submit(rem(net, ALICE, b"erase me"))
    net.step(2)
    net.submit(build_delete(ALICE, 1))
    net.step(8)   # delete confirms and interval 1 is pruned chain-wide
    assert net.nodes[0].chain.interval_blocks(1) is None
    net.set_online(2, True)
    net.step(8)
    assert converged(net)
    late = net.nodes[2].chain
    assert late.interval_status(1) is IntervalStatus.DELETED
    assert late.interval_blocks(1) is None
    # the wire never carried interval 1's body to the late joiner
    assert all(h != 1 for h, _ in delivered[2])
    segments = [(late.interval_record(x).blocks, late.block_at(x))
                for x in range(late.height + 1)]
    assert verify_chain(segments, late.params).ok


def test_sync_aborts_when_a_live_interval_is_withheld():
    net = SimNet(3, genesis(), FAST, propose_period=2)
    net.set_online(2, False)
    net.submit(rem(net, ALICE, b"kept"))
    net.step(6)
    peer = net.nodes[0].chain
    assert peer.interval_record(1).length == 1 and peer.delete_record(1) is None
    late = net.nodes[2]
    late.handle(0, FillResponse(tuple(peer.block_at(h)      # every body withheld
                                      for h in range(1, peer.height + 1)), {}), net)
    assert late.chain.height == 0
    assert net.events[-1]["ev"] == "sync-abort"
    assert net.events[-1]["err"] == "MissingDeleteEvidence"


def test_mid_sync_announcements_are_not_lost():
    net = SimNet(3, genesis(), FAST, propose_period=2)
    net.set_online(2, False)
    net.submit(rem(net, ALICE, b"one"))
    net.step(4)
    net.set_online(2, True)
    # keep proposing while node 2 is mid-handshake
    net.submit(rem(net, BOB, b"two"))
    net.step(10)
    assert converged(net)
    assert net.nodes[2].chain.height == net.nodes[0].chain.height


def test_wrong_p_list_fault_is_rejected_by_honest_nodes():
    net = SimNet(3, genesis(), FAST, propose_period=2)
    net.submit(rem(net, ALICE, b"bait"))
    net.nodes[0].fault = fault_wrong_p_list
    net.step(2)   # node 0's slot: corrupted proposal goes out
    rejects = [e for e in net.events if e["ev"] == "reject"]
    assert rejects and all(e["err"] == "PListMismatch" for e in rejects)
    assert all(n.chain.height == 0 for n in net.nodes)
    net.nodes[0].fault = None
    net.step(8)
    assert converged(net) and net.nodes[1].chain.height >= 1


def test_unauthorized_delete_fault_is_rejected():
    net = SimNet(3, (build_register(ALICE), build_register(BOB),
                     build_register(CAROL)), FAST, propose_period=2)
    net.submit(rem(net, ALICE, b"a"))
    net.submit(rem(net, BOB, b"b"))
    net.step(2)
    net.nodes[1].fault = partial(fault_unauthorized_delete, CAROL)
    net.step(2)   # node 1's slot
    rejects = {e["err"] for e in net.events if e["ev"] == "reject"}
    assert rejects & {"NotSoleOwnerAndNoPrepare", "UnknownRegisterRef"}
    for node in net.nodes:
        assert node.chain.delete_record(1) is None


def test_fault_hook_can_corrupt_anything():
    import dataclasses
    from mutachain import digest

    def flip_root(chain, interval, block):
        if block.height == 1:
            hdr = dataclasses.replace(block.header, tx_root=digest(b"lie"))
            return interval, dataclasses.replace(block, header=hdr)
        return interval, block

    net = SimNet(3, genesis(), FAST, propose_period=2)
    net.nodes[0].fault = flip_root
    net.submit(rem(net, ALICE, b"x"))
    net.step(2)
    rejects = {e["err"] for e in net.events if e["ev"] == "reject"}
    assert "BlockShapeError" in rejects


def test_gossiped_transaction_peers_refuse_is_logged_on_each_receiver():
    net = SimNet(3, genesis(), FAST, propose_period=2)
    forged = replace(rem(net, ALICE, b"never signed"), signature=bytes(64))
    net.broadcast(0, TxGossip(forged))
    net.step()
    rejects = [(e["node"], e["err"]) for e in net.events if e["ev"] == "tx-reject"]
    assert rejects == [(1, "StatelessInvalid"), (2, "StatelessInvalid")]
    assert all(forged.txid not in n.mempool for n in net.nodes)


def test_fault_hook_returning_none_withholds_the_proposal():
    net = SimNet(3, genesis(), FAST)
    net.nodes[0].fault = lambda chain, interval, block: None
    net.submit(rem(net, ALICE, b"held back"))
    sent = spy_sends(net)
    net.step()   # node 0's slot
    assert not [e for e in net.events if e["ev"] == "propose"]
    assert [(e["node"], e["height"]) for e in net.events
            if e["ev"] == "withhold"] == [(0, 1)]
    assert all(n.chain.height == 0 for n in net.nodes)
    assert not [msg for _, _, msg in sent if isinstance(msg, BlockAnnounce)]


def reachable_bytes(root) -> list:
    """Every bytes value reachable from ``root`` through the objects it
    holds, by a walk over ``gc.get_referents``.  Classes, modules and
    functions are not entered: through them every object is reachable."""
    found, seen, todo = [], set(), [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, (bytes, bytearray)):
            found.append(bytes(obj))
        else:
            todo.extend(gc.get_referents(obj))
    return found


ERASURES = """
params confirm_depth=1 delete_lock=0
nodes 3
schedule 1
period 2
entity A
entity B
genesis A B

removable A erased-by-a-restricted-delete
removable B bystander-copy-lives-on
step 2
removable A erased-on-the-fast-path
step 2
prepare A 1
step 2
delete A 1
delete A 2
step 6
"""


def test_erased_payloads_leave_every_object_of_the_network():
    net = run_scenario(ERASURES).net
    assert converged(net)
    for node in net.nodes:
        assert node.chain.delete_record(1).prepare is not None     # restricted
        assert node.chain.delete_record(2).prepare is None         # fast path
        assert node.chain.interval_blocks(1) is None and node.chain.interval_blocks(2) is None
    held = reachable_bytes(net)
    for payload in (b"erased-by-a-restricted-delete", b"erased-on-the-fast-path"):
        assert not [b for b in held if payload in b], payload
    # positive control: the bystander's copy is live, and the walk finds it
    assert [b for b in held if b"bystander-copy-lives-on" in b]


def test_report_is_deterministic():
    def run():
        net = SimNet(3, genesis(), FAST, propose_period=2)
        net.submit(rem(net, ALICE, b"same every time"))
        net.step(5)
        return net.report_json()
    assert run() == run()


# ----------------------------------------------------------------------
# rejoin by locator: only the missed suffix travels and is replayed


def spy_replays(monkeypatch):
    """(heights replayed, chain extended or None) for each sync's own
    replay; the appends of the backlog it releases are not recorded."""
    calls, armed = [], []
    real, finish = verify.replay_segments, SimNode._finish_sync

    def spy(segments, params=None, *, onto=None):
        if armed:
            armed.clear()
            segments = list(segments)
            calls.append(([block.height for _, block in segments], onto))
        return real(segments, params, onto=onto)

    def spy_finish(node, reply, peer, net):
        armed[:] = [True] if reply.blocks else []   # a reply with blocks replays once
        finish(node, reply, peer, net)
    monkeypatch.setattr(verify, "replay_segments", spy)
    monkeypatch.setattr(SimNode, "_finish_sync", spy_finish)
    return calls


def spy_sends(net):
    sent = []
    real = net.send

    def spy(sender, receiver, msg):
        sent.append((sender, receiver, msg))
        real(sender, receiver, msg)
    net.send = spy
    return sent


def away_and_back(stores=None, fork=False, own_slot=False):
    """Node 2 holds Alice's interval 1, then misses its delete, an
    interval born and pruned while it is away, and Bob's live data.
    With ``fork`` it mines a block of its own on its old tip while away.
    It comes back just before a peer's slot, so the first news is an
    announcement, or with ``fork`` or ``own_slot`` in its own slot."""
    net = SimNet(3, genesis(), FAST, propose_period=2)
    attach_stores(net, stores or {})
    net.submit(rem(net, ALICE, b"held by two"))
    net.step(12)
    late = net.nodes[2]
    assert late.chain.interval_blocks(1) is not None
    old_tip = late.chain.height
    assert 5 <= old_tip <= 8
    net.set_online(2, False)
    erased = rem(net, ALICE, b"born and erased while two is away")
    net.submit(erased)
    net.step(4)
    peer = net.nodes[0].chain
    x = next(h for h in range(1, peer.height + 1)
             if erased.txid in peer.interval_record(h).txids)
    net.submit(build_delete(ALICE, 1))
    net.submit(build_delete(ALICE, x))
    net.submit(rem(net, BOB, b"live in the suffix"))
    net.step(6)
    assert peer.interval_blocks(1) is None and peer.interval_blocks(x) is None
    if fork:
        # data of its own, so its block differs from the peers' at that
        # height; they are far past it and ignore the announcement
        late.mempool.submit(rem(net, BOB, b"mined by two alone", via=2), late.chain)
        late.propose(net)
        assert late.chain.height == old_tip + 1
    while net.step_no % 6 != (4 if fork or own_slot else 1):
        net.step()
    net.set_online(2, True)
    return net, old_tip, x


def test_rejoin_sends_and_replays_only_the_missed_suffix(monkeypatch):
    replays = spy_replays(monkeypatch)
    net, old_tip, _ = away_and_back()
    delivered = record_deliveries(monkeypatch)    # from node 2's return
    sent = spy_sends(net)
    net.step(9)
    assert converged(net)
    late = net.nodes[2]
    assert late.chain.height > old_tip + 2
    assert any(e["ev"] == "sync" and e["node"] == 2 for e in net.events)
    assert replays and all(min(heights) > old_tip for heights, _ in replays)
    assert all(onto is late.chain for _, onto in replays)
    heights = {h for h, _ in delivered[2]}
    assert heights and min(heights) > old_tip
    locator = [m.locator for s, _, m in sent if s == 2 and isinstance(m, SyncRequest)][0]
    assert [h for h, _ in locator] == [old_tip, 0]
    assert all(late.chain.block_at(h).block_hash == bh for h, bh in locator)


def test_suffix_gap_pruned_while_away_is_accepted_through_its_delete(monkeypatch):
    replays = spy_replays(monkeypatch)
    net, old_tip, x = away_and_back()
    delivered = record_deliveries(monkeypatch)    # from node 2's return
    net.step(9)
    assert converged(net)
    late = net.nodes[2].chain
    assert not any(e["ev"] == "sync-abort" for e in net.events)
    assert late.interval_status(x) is IntervalStatus.DELETED
    assert late.interval_blocks(x) is None and late.delete_record(x) is not None
    assert all(h != x for h, _ in delivered[2])
    assert any(x in heights and onto is late for heights, onto in replays)
    # the delete of interval 1, which node 2 held, matured while it was
    # away: the rejoin prunes it
    assert late.interval_blocks(1) is None


def test_suffix_sync_with_a_withheld_live_interval_changes_nothing():
    net = SimNet(3, genesis(), FAST, propose_period=2)
    net.submit(rem(net, ALICE, b"held"))
    net.step(4)
    late = net.nodes[2]
    net.set_online(2, False)
    net.submit(build_delete(ALICE, 1))
    net.submit(rem(net, BOB, b"withheld"))
    net.step(6)
    peer, tip = net.nodes[0].chain, late.chain.height
    assert peer.height > tip + 1
    before = late.chain.copy()
    late.handle(0, FillResponse(tuple(peer.block_at(h)      # every body withheld
                                      for h in range(tip + 1, peer.height + 1)), {}), net)
    assert net.events[-1]["ev"] == "sync-abort"
    assert net.events[-1]["err"] == "MissingDeleteEvidence"
    assert vars(late.chain) == vars(before)


def test_rejoined_store_matches_a_store_rebuilt_from_the_peer(tmp_path):
    stores = {i: BlockStore(tmp_path / f"node{i}", create=True) for i in range(3)}
    try:
        net, _, x = away_and_back(stores)
        net.step(9)
        assert converged(net)
        late = net.nodes[2]
        assert not store_holds(late.store.root, b"held by two")
        late.store.close()      # the mark is written when the session ends
        with BlockStore(tmp_path / "rebuilt", create=True) as fresh:
            fresh.rebuild(net.nodes[0].chain)
            # the same segments under the same mark; the digests differ,
            # as the frame the late node erased in place keeps the body's
            # length, while a rebuild, which never held it, stores none
            assert late.store.segments() == fresh.segments()
            late_mark, fresh_mark = (json.loads((st.root / "manifest.json").read_text())
                                     for st in (late.store, fresh))
            assert late_mark.pop("log_bytes") > fresh_mark.pop("log_bytes")
            assert late_mark == fresh_mark
        assert verify_chain(late.store.segments(), FAST).ok
    finally:
        for st in stores.values():
            st.close()


def test_fork_below_the_tip_rebuilds_from_genesis(tmp_path, monkeypatch):
    replays = spy_replays(monkeypatch)
    stores = {i: BlockStore(tmp_path / f"node{i}", create=True) for i in range(3)}
    try:
        net, old_tip, x = away_and_back(stores, fork=True)
        delivered = record_deliveries(monkeypatch)    # from node 2's return
        net.step(10)
        assert converged(net)
        late = net.nodes[2]
        assert any(e["ev"] == "propose" and e["node"] == 2
                   and e["height"] == old_tip + 1 for e in net.events)
        assert [(heights[0], onto) for heights, onto in replays] == [(0, None)]
        assert late.chain.interval_blocks(x) is None
        assert all(h != x for h, _ in delivered[2])
        late.store.close()      # the mark is written when the session ends
        with BlockStore(tmp_path / "rebuilt", create=True) as fresh:
            fresh.rebuild(net.nodes[0].chain)
            assert late.store.digest() == fresh.digest()
    finally:
        for st in stores.values():
            st.close()


def test_a_store_failing_after_the_chain_took_a_segment_is_no_rejection(tmp_path):
    with BlockStore(tmp_path / "s", create=True) as store:
        net = SimNet(3, genesis(), FAST)
        attach_stores(net, {0: store})
        # the store is one block ahead of node 0's chain
        store.append_segment(*make_segment(Chain.bootstrap(genesis(), FAST)))
        with pytest.raises(CorruptStore):
            net.step()      # node 0 proposes height 1
        assert net.nodes[0].chain.height == 1
        assert not any(e["ev"] == "reject" for e in net.events)


def test_node_back_in_its_own_slot_mines_nothing_until_it_has_caught_up(monkeypatch):
    replays = spy_replays(monkeypatch)
    net, old_tip, _ = away_and_back(own_slot=True)
    seen = len(net.events)
    net.step(10)
    assert converged(net)
    late = net.nodes[2]
    # no block on its stale tip, so no fork: one suffix replay onto its chain
    mine = [e["ev"] for e in net.events[seen:]
            if e["node"] == 2 and e["ev"] in ("propose", "sync")]
    assert mine[0] == "sync" and "propose" in mine
    assert len(replays) == 1
    heights, onto = replays[0]
    assert heights[0] == old_tip + 1 and onto is late.chain


def test_node_back_with_no_peer_online_keeps_proposing():
    net = SimNet(3, genesis(), FAST, propose_period=1)
    net.step(3)
    for i in range(3):
        net.set_online(i, False)
    net.set_online(2, True)
    seen = len(net.events)
    net.step(6)
    assert [e["node"] for e in net.events[seen:] if e["ev"] == "propose"] == [2, 2]
    # the next node back catches up from it before it proposes, and then
    # both keep proposing
    net.set_online(0, True)
    seen = len(net.events)
    net.step(9)
    first = [e["ev"] for e in net.events[seen:]
             if e["node"] == 0 and e["ev"] in ("propose", "sync")]
    assert first[0] == "sync" and "propose" in first
    assert any(e["ev"] == "propose" and e["node"] == 2 for e in net.events[seen:])
    a, b = net.nodes[0].chain, net.nodes[2].chain
    low = min(a.height, b.height)
    assert low > 5 and a.block_at(low).block_hash == b.block_at(low).block_hash


def test_nodes_back_together_to_an_empty_network_propose_and_converge():
    # neither can catch up from the other, so neither may wait for it
    for back in ((0, 2), (2, 0)):
        net = SimNet(3, genesis(), FAST, propose_period=1)
        net.step(3)
        for i in range(3):
            net.set_online(i, False)
        for i in back:
            net.set_online(i, True)
        seen = len(net.events)
        net.step(9)
        proposers = {e["node"] for e in net.events[seen:] if e["ev"] == "propose"}
        assert proposers == {0, 2}
        a, b = net.nodes[0].chain, net.nodes[2].chain
        low = min(a.height, b.height)
        assert low > 4 and a.block_at(low).block_hash == b.block_at(low).block_hash


def test_locator_with_no_common_block_syncs_nothing():
    net = SimNet(3, genesis(), FAST, propose_period=2)
    # node 1 runs a chain from another genesis
    net.nodes[1].chain = Chain.bootstrap((build_register(CAROL),), FAST)
    sent = spy_sends(net)
    net.step(8)
    assert any(isinstance(m, SyncRequest) for _, _, m in sent)
    assert all(not m.blocks and not m.fills for _, _, m in sent if isinstance(m, FillResponse))
    assert not any(e["ev"] in ("sync", "sync-abort") for e in net.events)


# ----------------------------------------------------------------------
# one round trip: spine and bodies come from one snapshot of the peer


def test_delete_landing_mid_handshake_does_not_abort_the_sync():
    net = SimNet(3, genesis(), FAST, propose_period=1)
    net.set_online(2, False)
    net.submit(rem(net, ALICE, b"sole owner"))
    net.step(4)
    net.set_online(2, True)
    net.step(1)
    # the peer confirms this delete and prunes interval 1 while node 2
    # is still catching up
    net.submit(build_delete(ALICE, 1))
    net.step(6)
    assert not any(e["ev"] == "sync-abort" for e in net.events)
    assert any(e["ev"] == "sync" and e["node"] == 2 for e in net.events)
    # every node agrees up to the block the last proposer still has in flight
    low = min(n.chain.height for n in net.nodes)
    assert low >= 5 and len({n.chain.block_at(low).block_hash for n in net.nodes}) == 1
    assert net.nodes[2].chain.interval_blocks(1) is None


def test_gossip_reaching_a_rejoining_node_is_not_lost():
    # the setup of the test above: Alice's delete is gossiped to node 2
    # after it comes back and before it has caught up
    net = SimNet(3, genesis(), FAST, propose_period=1)
    net.set_online(2, False)
    net.submit(rem(net, ALICE, b"sole owner"))
    net.step(4)
    net.set_online(2, True)
    net.step(1)
    delete = build_delete(ALICE, 1)
    net.submit(delete)
    net.step(6)
    late = net.nodes[2]
    assert not any(e["ev"] == "tx-reject" and e["node"] == 2 for e in net.events)
    assert delete.txid in late.mempool or late.chain.tx_confirmed(delete.txid)


def test_node_with_no_common_block_keeps_proposing():
    net = SimNet(3, genesis(), FAST, propose_period=2)
    net.nodes[1].chain = Chain.bootstrap((build_register(CAROL),), FAST)
    backlog = []
    for _ in range(60):
        net.step()
        backlog.append(len(net.nodes[1]._backlog))
    assert any(e["ev"] == "propose" and e["node"] == 1 for e in net.events)
    assert max(backlog) <= 1


def test_node_that_drops_mid_handshake_asks_again():
    net = SimNet(3, genesis(), FAST, propose_period=2)
    net.set_online(2, False)
    net.submit(rem(net, ALICE, b"missed"))
    net.step(6)
    net.set_online(2, True)
    sent = spy_sends(net)
    while not any(s == 2 and isinstance(m, SyncRequest) for s, _, m in sent):
        net.step()
    net.set_online(2, False)     # the peer's reply is lost
    net.step(3)
    net.set_online(2, True)
    for _ in range(30):
        net.step()
        if net.nodes[2].chain.height == net.nodes[0].chain.height:
            break
    assert net.nodes[2].chain.height == net.nodes[0].chain.height
    assert net.nodes[2].chain.tip_hash == net.nodes[0].chain.tip_hash


def test_sync_drops_what_the_synced_segments_confirm():
    net = SimNet(3, genesis(), FAST, propose_period=2)
    carol = build_register(CAROL)
    for i in (1, 2):
        net.nodes[i].mempool.submit(carol, net.nodes[i].chain)
    net.set_online(2, False)
    net.step(8)
    assert net.nodes[1].chain.registered(CAROL.pubkey)
    net.set_online(2, True)
    net.step(40)
    late = net.nodes[2]
    assert any(e["ev"] == "sync" and e["node"] == 2 for e in net.events)
    assert late.chain.registered(CAROL.pubkey)
    assert len(late.mempool) == 0


def test_synced_node_mines_the_copies_a_prepare_it_synced_past_owes():
    net = SimNet(3, genesis(), FAST, propose_period=2)
    bob = rem(net, BOB, b"bystander")
    net.submit(rem(net, ALICE, b"doomed"))
    net.submit(bob)
    net.step(2)                             # interval 1: Alice and Bob
    net.set_online(2, False)
    net.max_interval_blocks = 0             # the prepare is mined without its copy
    net.submit(build_prepare(ALICE, net.nodes[0].chain.register_outpoint(ALICE.pubkey), 1))
    net.step(4)
    assert net.nodes[0].chain.prepares_for(ALICE.pubkey, 1)
    assert bob.txid in net.nodes[0].mempool
    net.set_online(2, True)
    net.step(6)
    late = net.nodes[2]
    assert any(e["ev"] == "sync" and e["node"] == 2 for e in net.events)
    assert late.chain.prepares_for(ALICE.pubkey, 1) and bob.txid in late.mempool
    # the peers that owed the copy leave before mining it
    net.set_online(0, False)
    net.set_online(1, False)
    net.max_interval_blocks = 1
    net.step(6)                             # one slot of node 2's
    copies = [x for x in range(2, late.chain.height + 1)
              if bob in late.chain.interval_txs(x)]
    assert copies and bob.txid not in late.mempool


def test_a_transaction_reaches_ed25519_once_across_the_network(cold_cache, monkeypatch):
    # three mempools and three segment appends check it; one of them pays
    net = SimNet(3, genesis(), FAST, propose_period=2)
    tx = rem(net, ALICE, b"checked once")
    calls = count_signature_checks(monkeypatch)
    net.submit(tx)
    net.step(6)
    assert converged(net)
    assert all(tx in n.chain.interval_txs(1) for n in net.nodes)
    assert calls == [(tx.signer, tx.signing_payload, tx.signature)]

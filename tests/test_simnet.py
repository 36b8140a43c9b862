"""Simulated network: gossip, convergence, catch-up sync, faults."""

from functools import partial

from mutachain import (
    BlockStore,
    Chain,
    ChainParams,
    IntervalStatus,
    SimNet,
    build_delete,
    build_prepare,
    build_register,
    build_removable,
    verify_chain,
)
from mutachain import verify
from mutachain.simnet import (
    FillResponse,
    SyncRequest,
    fault_unauthorized_delete,
    fault_wrong_p_list,
)
from support import ALICE, BOB, CAROL

FAST = ChainParams(confirm_depth=1, delete_lock=0)


def genesis():
    return (build_register(ALICE), build_register(BOB))


def rem(net, k, data, via=0):
    chain = net.nodes[via].chain
    return build_removable(k, chain.register_outpoint(k.pubkey), data)


def converged(net):
    tips = {n.chain.tip_hash for n in net.nodes if n.online}
    return len(tips) == 1


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


def test_rejoined_node_sees_gap_not_deleted_bodies():
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
    assert all(h != 1 for h, _ in net.body_deliveries[2])
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


def test_archive_keeps_full_bodies_for_auditing():
    net = SimNet(3, genesis(), FAST, propose_period=2)
    net.submit(rem(net, ALICE, b"kept in the archive"))
    net.step(4)
    bodies = [blocks for blocks, _ in net.archive.values() if blocks]
    assert any(tx.payload.data == b"kept in the archive"
               for blocks in bodies for rb in blocks for tx in rb.txs)


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
    """(heights replayed, chain extended or None) for each sync replay."""
    calls = []
    real = verify.replay_segments

    def spy(segments, params=None, *, onto=None):
        segments = list(segments)
        calls.append(([block.height for _, block in segments], onto))
        return real(segments, params, onto=onto)
    monkeypatch.setattr(verify, "replay_segments", spy)
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
    net = SimNet(3, genesis(), FAST, propose_period=2, stores=stores)
    net.submit(rem(net, ALICE, b"held by two"))
    net.step(12)
    late = net.nodes[2]
    assert late.chain.interval_blocks(1) is not None
    old_tip = late.chain.height
    assert 5 <= old_tip <= 8
    net.set_online(2, False)
    net.body_deliveries[2].clear()
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
    sent = spy_sends(net)
    net.step(9)
    assert converged(net)
    late = net.nodes[2]
    assert late.chain.height > old_tip + 2
    assert any(e["ev"] == "sync" and e["node"] == 2 for e in net.events)
    assert replays and all(min(heights) > old_tip for heights, _ in replays)
    assert all(onto is late.chain for _, onto in replays)
    delivered = {h for h, _ in net.body_deliveries[2]}
    assert delivered and min(delivered) > old_tip
    locator = [m.locator for s, _, m in sent if s == 2 and isinstance(m, SyncRequest)][0]
    assert [h for h, _ in locator] == [old_tip, old_tip - 1, old_tip - 2, old_tip - 4, 0]
    assert all(late.chain.block_at(h).block_hash == bh for h, bh in locator)


def test_suffix_gap_pruned_while_away_is_accepted_through_its_delete(monkeypatch):
    replays = spy_replays(monkeypatch)
    net, old_tip, x = away_and_back()
    net.step(9)
    assert converged(net)
    late = net.nodes[2].chain
    assert not any(e["ev"] == "sync-abort" for e in net.events)
    assert late.interval_status(x) is IntervalStatus.DELETED
    assert late.interval_blocks(x) is None and late.delete_record(x) is not None
    assert all(h != x for h, _ in net.body_deliveries[2])
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
        assert not (late.store.root / "interval_1.blk").exists()
        with BlockStore(tmp_path / "rebuilt", create=True) as fresh:
            fresh.rebuild(net.nodes[0].chain)
            assert late.store.digest() == fresh.digest()
        assert verify_chain(late.store.segments(), FAST).ok
    finally:
        for st in stores.values():
            st.close()


def test_fork_below_the_tip_rebuilds_from_genesis(tmp_path, monkeypatch):
    replays = spy_replays(monkeypatch)
    stores = {i: BlockStore(tmp_path / f"node{i}", create=True) for i in range(3)}
    try:
        net, old_tip, x = away_and_back(stores, fork=True)
        net.step(10)
        assert converged(net)
        late = net.nodes[2]
        assert any(e["ev"] == "propose" and e["node"] == 2
                   and e["height"] == old_tip + 1 for e in net.events)
        assert [(heights[0], onto) for heights, onto in replays] == [(0, None)]
        assert late.chain.interval_blocks(x) is None
        assert all(h != x for h, _ in net.body_deliveries[2])
        with BlockStore(tmp_path / "rebuilt", create=True) as fresh:
            fresh.rebuild(net.nodes[0].chain)
            assert late.store.digest() == fresh.digest()
    finally:
        for st in stores.values():
            st.close()


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

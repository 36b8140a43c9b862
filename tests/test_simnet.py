"""Simulated network: gossip, convergence, catch-up sync, faults."""

from mutachain import (
    ChainParams,
    IntervalStatus,
    SimNet,
    build_delete,
    build_prepare,
    build_register,
    build_removable,
    verify_chain,
)
from mutachain.simnet import FillResponse, SyncSpine
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
    late._syncing = True
    late.handle(0, SyncSpine(tuple(peer.block_at(h)
                                   for h in range(1, peer.height + 1))), net)
    late.handle(0, FillResponse({}), net)      # every body withheld
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
    net.nodes[0].byzantine = "wrong_p_list"
    net.step(2)   # node 0's slot: corrupted proposal goes out
    rejects = [e for e in net.events if e["ev"] == "reject"]
    assert rejects and all(e["err"] == "PListMismatch" for e in rejects)
    assert all(n.chain.height == 0 for n in net.nodes)
    net.nodes[0].byzantine = None
    net.step(8)
    assert converged(net) and net.nodes[1].chain.height >= 1


def test_unauthorized_delete_fault_is_rejected():
    net = SimNet(3, (build_register(ALICE), build_register(BOB),
                     build_register(CAROL)), FAST, propose_period=2)
    net.submit(rem(net, ALICE, b"a"))
    net.submit(rem(net, BOB, b"b"))
    net.step(2)
    net.nodes[1].byzantine = "unauthorized_delete"
    net.nodes[1].byzantine_key = CAROL
    net.step(2)   # node 1's slot
    rejects = {e["err"] for e in net.events if e["ev"] == "reject"}
    assert rejects & {"NotSoleOwnerAndNoPrepare", "UnknownRegisterRef"}
    for node in net.nodes:
        assert node.chain.delete_record(1) is None


def test_mutate_block_hook_can_corrupt_anything():
    import dataclasses
    from mutachain import digest

    def flip_root(node_id, interval, block):
        if block.height == 1 and node_id == 0:
            hdr = dataclasses.replace(block.header, tx_root=digest(b"lie"))
            return interval, dataclasses.replace(block, header=hdr)
        return interval, block

    net = SimNet(3, genesis(), FAST, propose_period=2, mutate_block=flip_root)
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

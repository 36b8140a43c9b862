"""The line-oriented scenario format and the bundled scripts."""

from pathlib import Path

import pytest

from mutachain import IntervalStatus, entity_keypair, run_scenario, verify_chain
from mutachain.errors import ScenarioError
from mutachain.simnet import fault_unauthorized_delete

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def read(name: str) -> str:
    return (SCENARIOS / name).read_text()


def test_entity_keys_are_stable_across_runs():
    assert entity_keypair("A").pubkey == entity_keypair("A").pubkey
    assert entity_keypair("A").pubkey != entity_keypair("B").pubkey


def test_minimal_scenario():
    sc = run_scenario("""
        # two parties, one interval
        entity A B
        genesis A B
        period 2
        removable A note
        removable B memo
        step 4
    """)
    chain = sc.net.nodes[0].chain
    assert chain.height >= 1
    assert {tx.payload.data for tx in chain.interval_txs(1)} == {b"note", b"memo"}
    assert "note" in sc.labels and "memo" in sc.labels


def test_unknown_directive_reports_its_line():
    # an unknown word, a missing argument, a number that is not one, a
    # size the network divides by or that mines nothing, a negative step,
    # a chain parameter out of range or unknown, a fault no node can
    # have, a node the network lacks, an interval no u32 holds
    for bad in ("frobnicate A", "nodes", "step x", "nodes 0", "period 0",
                "schedule 0", "schedule -1", "step -3",
                "params confirm_depth=-3", "params foo=1", "byzantine 0 melt",
                "byzantine 0 unauthorized_delete", "offline -1",
                "removable A m via=-1", "online 3",
                "prepare A -1", "delete A 5000000000"):
        with pytest.raises(ScenarioError) as err:
            run_scenario(f"entity A\ngenesis A\n{bad}\n")
        assert err.value.line_no == 3


def test_byzantine_directive_sets_and_clears_each_fault():
    sc = run_scenario("""
        entity A B C
        genesis A B C
        period 2
        removable A a
        removable B b
        step 2
        # node 1 deletes interval 1 with C's key, which owns none of it
        byzantine 1 unauthorized_delete key=C
        step 2
        byzantine 1
        # node 2 names a signer the interval does not hold
        byzantine 2 wrong_p_list
        removable A c
        step 2
        byzantine 2
        step 6
        byzantine 0 unauthorized_delete key=C
    """)
    net = sc.net
    # each faulty block fails on its own node, then on both peers
    rejects = [(e["step"], e["err"]) for e in net.events if e["ev"] == "reject"]
    rogue, wrong = "NotSoleOwnerAndNoPrepare", "PListMismatch"
    assert rejects == [(2, rogue), (3, rogue), (3, rogue), (4, wrong), (5, wrong), (5, wrong)]
    assert net.nodes[1].fault is None and net.nodes[2].fault is None
    assert net.nodes[0].fault.func is fault_unauthorized_delete
    assert net.nodes[0].fault.args[0].pubkey == sc.entities["C"].pubkey
    assert len({n.chain.tip_hash for n in net.nodes}) == 1
    chain = net.nodes[0].chain
    assert chain.height >= 3 and chain.delete_record(1) is None


def test_unauthorized_delete_with_nothing_to_delete_withholds_the_proposal():
    sc = run_scenario("""
        entity A
        genesis A
        byzantine 0 unauthorized_delete key=A
        step 4
    """)
    # node 0 holds slots 0 and 3; no interval has data for it to delete
    withheld = [(e["step"], e["node"], e["height"])
                for e in sc.net.events if e["ev"] == "withhold"]
    assert withheld == [(0, 0, 1), (3, 0, 3)]
    proposals = [e["node"] for e in sc.net.events if e["ev"] == "propose"]
    assert proposals == [1, 2]
    assert all(n.chain.height == 2 for n in sc.net.nodes)


@pytest.mark.parametrize("bad, cause", [
    ("try", "try needs a directive"),
    ("params confirm_depth", "params takes key=value pairs only"),
    ("info A terms", "info needs purposes=a,b,..."),
    ("info A terms purposes=a,,b", "info needs purposes=a,b,..."),
    ("consent A nolabel 1", "unknown info label 'nolabel'"),
    ("byzantine 0 unauthorized_delete key=Z", "unknown entity 'Z'"),
])
def test_malformed_line_fails_naming_line_and_cause(bad, cause):
    with pytest.raises(ScenarioError) as err:
        run_scenario(f"entity A\ngenesis A\n{bad}\n")
    assert err.value.line_no == 3
    assert str(err.value) == f"line 3: {cause}"


def test_config_after_actions_rejected():
    with pytest.raises(ScenarioError):
        run_scenario("entity A\ngenesis A\nstep\nnodes 5\n")


def test_unknown_entity_rejected():
    with pytest.raises(ScenarioError):
        run_scenario("entity A\ngenesis B\n")


def test_try_prefix_tolerates_rejection():
    sc = run_scenario("""
        entity A
        genesis A
        try delete A 7
        step
    """)
    assert sc.rejected and sc.rejected[0][1] == "AdmissionFailed"


def test_a_refused_info_leaves_its_label_as_it_was():
    with pytest.raises(ScenarioError) as err:
        run_scenario("entity A B\ngenesis A B\ntry info A terms purposes=x,x\n"
                     "consent B terms 1\n")
    assert str(err.value) == "line 4: unknown info label 'terms'"
    sc = run_scenario("""
        entity A B
        genesis A B
        info A terms purposes=x
        try info A terms purposes=y,y
        step 2
        consent B terms 1
        step 2
    """)
    assert [no for no, _ in sc.rejected] == [5]
    info = sc.labels["terms"]
    assert sc.net.nodes[0].chain.info_record(info).purposes == ("x",)
    assert sc.net.nodes[0].chain.consent_grant(sc.entities["B"].pubkey, info) == 1
    with pytest.raises(ScenarioError):
        run_scenario("entity A\ngenesis A\ndelete A 7\n")


def test_hex_data_and_via_routing():
    sc = run_scenario("""
        entity A
        genesis A
        nodes 3
        period 2
        removable A blob data=00ff10 via=1
        step 4
    """)
    chain = sc.net.nodes[0].chain
    assert chain.interval_txs(1)[0].payload.data == b"\x00\xff\x10"


def test_bundled_deletion_scenario():
    sc = run_scenario(read("deletion.scn"))
    for node in sc.net.nodes:
        chain = node.chain
        assert chain.height == 4
        assert chain.interval_status(1) is IntervalStatus.DELETED
        assert chain.interval_blocks(1) is None
        assert chain.interval_status(2) is IntervalStatus.PRESENT
        assert chain.interval_status(3) is IntervalStatus.PRESENT
        assert chain.delete_record(1).height == 3


def test_consent_scenario():
    sc = run_scenario(read("consent.scn"))
    chain = sc.net.nodes[0].chain
    subject = sc.entities["S"].pubkey
    info = sc.labels["terms"]
    state = chain.consent_chain(subject, info)
    assert [e.value for e in state.history] == [1, 3, 0]
    assert chain.consent_grant(subject, info) == 0


def test_rejoin_scenario_all_nodes_verify():
    sc = run_scenario(read("rejoin.scn"))
    tips = {n.chain.tip_hash for n in sc.net.nodes}
    assert len(tips) == 1
    for node in sc.net.nodes:
        chain = node.chain
        segments = [(chain.interval_record(x).blocks, chain.block_at(x))
                    for x in range(chain.height + 1)]
        assert verify_chain(segments, chain.params).ok


def test_unregistered_entity_is_named_with_its_line():
    for bad in ("removable A note", "prepare A 1", "info A schema purposes=x",
                "consent A schema 1"):
        with pytest.raises(ScenarioError) as err:
            run_scenario(f"entity A B\ngenesis B\ninfo B schema purposes=x\n{bad}\n")
        assert err.value.line_no == 4
        assert "A is not registered" in str(err.value)

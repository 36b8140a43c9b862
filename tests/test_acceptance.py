"""End-to-end guarantees, one test per advertised property.

Each test checks the package against an independent oracle from
``oracles.py`` where one applies, enforces a wall-clock budget, and
prints a single PASS line.  Run with ``pytest -v -s tests/test_acceptance.py``
to see the per-criterion lines.
"""

import hashlib
import json
import random
import time
from pathlib import Path

import pytest

from mutachain import (
    NULL_HASH,
    BlockStore,
    ChainParams,
    IntervalStatus,
    OutPoint,
    SimNet,
    TxKind,
    build_delete,
    build_info,
    build_consent,
    build_permanent_block,
    build_prepare,
    build_register,
    build_removable,
    digest,
    header_overhead,
    run_scenario,
    verify_chain,
)
from mutachain.errors import ConsentInputSpent, MutachainError

from oracles import (
    SingleLinkOracle,
    authorization_rule,
    degenerate_sequence,
    full_history_no_loss_violations,
    random_scenario,
)
from support import (
    ALICE, BOB, CAROL, attach_stores, extend, fresh_chain, kp, record_bodies, record_deliveries,
    reg, rem,
)

DATA = Path(__file__).parent / "data"
SCENARIOS = Path(__file__).parent.parent / "scenarios"
FAST = ChainParams(confirm_depth=1, delete_lock=0)


def conclude(n: int, label: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, (
        f"criterion {n} took {elapsed:.1f}s, budget is {budget:.0f}s")
    print(f"criterion {n} ({label}): PASS ({elapsed:.2f}s)")


def test_criterion_1_header_overhead():
    t0 = time.perf_counter()
    empty = header_overhead(0)
    assert empty["second_link"] + empty["interval_len"] == 33
    assert empty == {"second_link": 32, "interval_len": 1,
                     "p_list": 0, "total": 33}
    full = header_overhead(4)
    assert 161 <= full["total"] <= 162
    assert full == {"second_link": 32, "interval_len": 1,
                    "p_list": 1 + 4 * 32, "total": 162}

    # cross-check against the wire: a real 4-key header costs exactly
    # the reported total beyond the single-link fields (height, one
    # link, tx root); the empty case carries one extra count byte that
    # the accounting attributes to the p_list
    keys = tuple(sorted(kp(f"ovh{i}").pubkey for i in range(4)))
    h0 = build_permanent_block(height=1, prev_permanent=NULL_HASH,
                               prev_removable=NULL_HASH, interval_len=0,
                               p_list=(), txs=()).header
    h4 = build_permanent_block(height=1, prev_permanent=NULL_HASH,
                               prev_removable=digest(b"anchor"),
                               interval_len=4, p_list=keys, txs=()).header
    single_link = 4 + 32 + 32
    assert len(h4.encoded) - single_link == full["total"]
    assert len(h4.encoded) - len(h0.encoded) == 4 * 32
    assert len(h0.encoded) == single_link + 32 + 1 + 1
    conclude(1, "header overhead 33 B / 162 B", t0, 1.0)


def test_criterion_2_deletion_walkthrough_golden():
    t0 = time.perf_counter()
    sc = run_scenario((SCENARIOS / "deletion.scn").read_text())
    golden = (DATA / "deletion_golden.json").read_text()
    assert sc.net.report_json() == golden

    chain = sc.net.nodes[0].chain
    a = sc.entities["A"].pubkey
    b = sc.entities["B"].pubkey

    # state one: the prepare for interval 1 sits in spine block 2, and
    # interval 2 carries B's transaction again, byte for byte
    preps = [tx for tx in chain.block_at(2).txs if tx.kind is TxKind.PREPARE]
    assert len(preps) == 1
    assert preps[0].signer == a and preps[0].payload.interval == 1
    assert [tx.txid for tx in chain.interval_txs(2)] == [sc.labels["n"]]
    assert chain.interval_record(2).p_list == (b,)

    # state two: interval 1 is physically gone, justified by a delete
    # confirmed in spine block 3, and the chain still verifies
    rec = chain.interval_record(1)
    assert rec.status is IntervalStatus.DELETED and rec.blocks is None
    dels = [tx for tx in chain.block_at(3).txs if tx.kind is TxKind.DELETE]
    assert len(dels) == 1
    assert dels[0].signer == a and dels[0].payload.interval == 1
    assert chain.delete_record(1).height == 3
    for node in sc.net.nodes:
        assert node.chain.height == 4
        report = verify_chain(node.history_segments())
        assert report.ok and report.present == 2 and report.deleted == 1
    conclude(2, "two-entity deletion walkthrough", t0, 1.0)


def test_criterion_3_degenerate_chain_equivalence():
    t0 = time.perf_counter()
    accepts = rejects = 0
    for i in range(1000):
        rng = random.Random(0x3D0000 + i)
        blocks = degenerate_sequence(rng, f"deg{i}")
        expected = SingleLinkOracle().accept_all(blocks)
        got = verify_chain(((), b) for b in blocks).ok
        assert got == expected, (
            f"sequence {i}: package says {got}, single-link oracle "
            f"says {expected}")
        if expected:
            accepts += 1
        else:
            rejects += 1
    assert accepts >= 200 and rejects >= 200, (accepts, rejects)
    conclude(3, "all-empty intervals behave like a single-link chain",
             t0, 10.0)


def test_criterion_4_no_loss_for_non_deleting_entities(monkeypatch):
    t0 = time.perf_counter()
    bodies = record_bodies(monkeypatch)
    with_deletion = with_bystanders = 0
    for i in range(200):
        rng = random.Random(0xA40000 + i)
        bodies.clear()
        sc = run_scenario(random_scenario(rng))
        chain = sc.net.nodes[0].chain
        bad = full_history_no_loss_violations(chain, bodies)
        assert not bad, f"scenario {i}: " + "; ".join(bad)
        deleting = {r.signer for x in range(chain.height + 1)
                    if (r := chain.delete_record(x)) is not None}
        deleted = [x for x in range(1, chain.height + 1)
                   if chain.interval_record(x).status is IntervalStatus.DELETED]
        with_deletion += bool(deleted)
        with_bystanders += any(
            tx.signer not in deleting
            for x in deleted
            for rb in bodies[chain.block_at(x).block_hash][0]
            for tx in rb.txs)
    # the property must actually bite: most runs delete, and a healthy
    # share erased intervals that held other entities' data
    assert with_deletion >= 100, with_deletion
    assert with_bystanders >= 60, with_bystanders
    conclude(4, f"no data loss for bystanders ({with_deletion}/200 deleted, "
                f"{with_bystanders} with bystander data)", t0, 60.0)


def _delete_accepted(signers: frozenset, deleter: str,
                     attempt_prepare: bool) -> bool:
    """Drive one authorization case through a real chain."""
    pool = {"A": ALICE, "B": BOB, "C": CAROL}
    chain = fresh_chain(ALICE, BOB, CAROL, params=FAST)
    txs = [rem(chain, pool[n], f"auth {n}".encode()) for n in sorted(signers)]
    extend(chain, txs)       # interval 1, the deletion target
    extend(chain, txs)       # duplicates, so only authorization decides
    key = pool[deleter]
    prepared = False
    if attempt_prepare:
        try:
            extend(chain, (), [build_prepare(key, reg(chain, key), 1)])
            prepared = True
        except MutachainError:
            pass
    ref = None
    if prepared:
        ref = OutPoint(chain.prepares_for(key.pubkey, 1)[0].txid, 0)
    try:
        extend(chain, (), [build_delete(key, 1, ref)])
        return True
    except MutachainError:
        return False


def test_criterion_5_authorization_rule_table():
    t0 = time.perf_counter()
    names = ("A", "B", "C")
    subsets = [frozenset(s) for s in (
        {"A"}, {"B"}, {"C"}, {"A", "B"}, {"A", "C"}, {"B", "C"},
        {"A", "B", "C"})]
    accepted = refused = 0
    for signers in subsets:
        for deleter in names:
            for attempt in (False, True):
                keys = {n: {"A": ALICE, "B": BOB, "C": CAROL}[n]
                        for n in names}
                pubkeys = frozenset(keys[n].pubkey for n in signers)
                expected = authorization_rule(
                    pubkeys, keys[deleter].pubkey,
                    attempt and deleter in signers)
                got = _delete_accepted(signers, deleter, attempt)
                assert got == expected, (
                    f"signers {sorted(signers)}, deleter {deleter}, "
                    f"prepare {attempt}: package {got}, rule {expected}")
                if expected:
                    accepted += 1
                else:
                    refused += 1
    assert accepted and refused
    conclude(5, f"deletion authorization table "
                f"({accepted} allowed / {refused} refused)", t0, 5.0)


def test_criterion_6_consent_lifecycle():
    t0 = time.perf_counter()
    chain = fresh_chain(ALICE, BOB, params=FAST)
    info = build_info(ALICE, reg(chain, ALICE), b"svc", ("analytics", "ads"))
    extend(chain, (), [info])
    info_out = OutPoint(info.txid, 0)

    observed = []
    c1 = build_consent(BOB, reg(chain, BOB), info_out, 1)
    extend(chain, (), [c1])
    observed.append(chain.consent_grant(BOB.pubkey, info.txid))
    c2 = build_consent(BOB, OutPoint(c1.txid, 0), info_out, 3)
    extend(chain, (), [c2])
    observed.append(chain.consent_grant(BOB.pubkey, info.txid))
    c3 = build_consent(BOB, OutPoint(c2.txid, 0), info_out, 0)
    extend(chain, (), [c3])
    observed.append(chain.consent_grant(BOB.pubkey, info.txid))
    assert observed == [1, 3, 0]

    # a spent consent output stays spent
    stale = build_consent(BOB, OutPoint(c1.txid, 0), info_out, 2)
    with pytest.raises(ConsentInputSpent):
        extend(chain, (), [stale])

    trail = chain.consent_chain(BOB.pubkey, info.txid)
    assert [e.value for e in trail.history] == [1, 3, 0]
    assert [e.txid for e in trail.history] == [c1.txid, c2.txid, c3.txid]
    heights = [e.height for e in trail.history]
    assert heights == sorted(heights) and len(set(heights)) == 3
    assert not trail.live
    conclude(6, "consent 1 -> 3 -> 0 with audit trail", t0, 1.0)


def test_criterion_7_late_join_sync_equivalence(tmp_path, monkeypatch):
    t0 = time.perf_counter()
    delivered = record_deliveries(monkeypatch)
    runs_with_deletion = 0
    for i in range(50):
        rng = random.Random(0xC70000 + i)
        delivered.clear()
        sc = run_scenario(random_scenario(rng, steps=30, late_node=2))
        net = sc.net
        ref, late = net.nodes[0], net.nodes[2]
        assert late.chain.height == ref.chain.height
        assert late.chain.tip_hash == ref.chain.tip_hash

        digests = []
        for tag, node in (("ref", ref), ("late", late)):
            with BlockStore(tmp_path / f"run{i}-{tag}", create=True) as st:
                st.rebuild(node.chain)
                digests.append(st.digest())
        assert digests[0] == digests[1], f"scenario {i}: ledgers differ"

        gone = {x for x in range(1, ref.chain.height + 1)
                if ref.chain.interval_record(x).status is IntervalStatus.DELETED}
        received = {h for h, _ in delivered[late.id]}
        assert not (gone & received), (
            f"scenario {i}: late node was sent bodies of deleted "
            f"intervals {sorted(gone & received)}")
        # positive control: the same tap shows every surviving interval
        # arriving, or mined by the late node itself (a synced node mines
        # the copies a prepare it synced past owes), so silence about the
        # deleted ones is meaningful
        needed = {x for x in range(1, ref.chain.height + 1)
                  if ref.chain.interval_record(x).length > 0
                  and ref.chain.interval_record(x).status is IntervalStatus.PRESENT}
        own = {e["height"] for e in net.events
               if e["ev"] == "propose" and e["node"] == late.id}
        assert needed <= received | own, f"scenario {i}: sync was incomplete"
        if gone:
            runs_with_deletion += 1
    assert runs_with_deletion >= 10, runs_with_deletion
    conclude(7, f"late joiner converges without deleted bodies "
                f"({runs_with_deletion}/50 runs deleted)", t0, 60.0)


def _present_anywhere(root: Path, needle: bytes) -> bool:
    return any(needle in path.read_bytes()
               for path in sorted(root.rglob("*")) if path.is_file())


def test_criterion_8_physical_erasure(tmp_path):
    t0 = time.perf_counter()
    markers = {name: digest(b"marker:" + name.encode())[:16]
               for name in ("doomed1", "doomed2", "bystander", "later")}
    assert len(set(markers.values())) == 4

    stores = {i: BlockStore(tmp_path / f"node{i}", create=True)
              for i in range(3)}
    try:
        net = SimNet(3, (build_register(ALICE), build_register(BOB)),
                     FAST, propose_period=2)
        attach_stores(net, stores)
        a_ref = net.nodes[0].chain.register_outpoint(ALICE.pubkey)
        b_ref = net.nodes[0].chain.register_outpoint(BOB.pubkey)
        net.submit(build_removable(ALICE, a_ref, b"one " + markers["doomed1"]))
        net.submit(build_removable(ALICE, a_ref, b"two " + markers["doomed2"]))
        net.submit(build_removable(BOB, b_ref, b"note " + markers["bystander"]))
        net.step(2)
        # negative control: the doomed payloads really are on disk now
        for st in stores.values():
            assert _present_anywhere(st.root, markers["doomed1"])
            assert _present_anywhere(st.root, markers["doomed2"])

        net.submit(build_prepare(ALICE, a_ref, 1))
        net.step(2)
        prep = net.nodes[0].chain.prepares_for(ALICE.pubkey, 1)[0]
        net.submit(build_removable(ALICE, a_ref, b"kept " + markers["later"]))
        net.submit(build_delete(ALICE, 1, OutPoint(prep.txid, 0)))
        net.step(4)

        chain = net.nodes[0].chain
        assert chain.interval_record(1).status is IntervalStatus.DELETED
        digests = set()
        for st in stores.values():
            assert not _present_anywhere(st.root, markers["doomed1"])
            assert not _present_anywhere(st.root, markers["doomed2"])
            assert _present_anywhere(st.root, markers["bystander"])
            assert _present_anywhere(st.root, markers["later"])
            report = verify_chain(st.segments())
            assert report.ok and report.deleted == 1
            digests.add(st.digest())
        assert len(digests) == 1
    finally:
        for st in stores.values():
            st.close()
    conclude(8, "deleted payload bytes gone from every store", t0, 10.0)


def _run_with_digest(text: str, root: Path):
    sc = run_scenario(text)
    with BlockStore(root, create=True) as st:
        st.rebuild(sc.net.nodes[0].chain)
        return sc.net.report_json(), st.digest()


def test_criterion_9_determinism(tmp_path):
    t0 = time.perf_counter()
    cases = {name: (SCENARIOS / f"{name}.scn").read_text()
             for name in ("deletion", "consent", "rejoin")}
    cases["generated"] = random_scenario(random.Random(0x900001),
                                         steps=30, late_node=2)
    # pinned across commits: a changed outcome fails here until the
    # golden file is updated and the change is stated
    golden = json.loads((DATA / "scenario_golden.json").read_text())
    assert set(golden) == set(cases)
    for name, text in cases.items():
        first = _run_with_digest(text, tmp_path / f"{name}-1")
        second = _run_with_digest(text, tmp_path / f"{name}-2")
        assert first[0] == second[0], f"{name}: reports differ across runs"
        assert first[1] == second[1], f"{name}: store digests differ"
        assert hashlib.sha256(first[0].encode()).hexdigest() \
            == golden[name]["report_sha256"], f"{name}: report differs from the golden file"
        assert first[1] == golden[name]["store_digest"], \
            f"{name}: store digest differs from the golden file"
    conclude(9, "same seed, byte-identical reports and stores", t0, 10.0)

"""End-to-end flows through the command line."""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from mutachain.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture()
def runner():
    return CliRunner()


def run(runner, *args, expect=0):
    result = runner.invoke(main, [str(a) for a in args])
    if result.exit_code != expect:   # pragma: no cover - debugging aid
        raise AssertionError(
            f"exit {result.exit_code} (wanted {expect}) for {args}:\n"
            f"{result.output}\n{result.exception!r}")
    return result.output


def boot(runner, store, *, depth=1, lock=0):
    run(runner, "init", "--store", store,
        "--confirm-depth", depth, "--delete-lock", lock)
    run(runner, "key", "new", "alice", "--store", store)
    run(runner, "key", "new", "bob", "--store", store)
    run(runner, "register", "alice", "--store", store)
    run(runner, "register", "bob", "--store", store)
    run(runner, "mine", "--store", store)


def test_init_and_status(runner, tmp_path):
    store = tmp_path / "chain"
    out = run(runner, "init", "--store", store)
    assert "initialized" in out
    out = run(runner, "status", "--store", store)
    assert "height 0" in out
    assert "confirm_depth 2, delete_lock 1" in out


def test_key_management(runner, tmp_path):
    store = tmp_path / "chain"
    run(runner, "init", "--store", store)
    out = run(runner, "key", "new", "alice", "--store", store)
    assert "alice" in out
    seeded = run(runner, "key", "new", "fixed", "--store", store,
                 "--seed", "11" * 32)
    assert "fixed" in seeded
    listing = run(runner, "key", "list", "--store", store)
    assert "alice" in listing and "fixed" in listing


def test_full_deletion_flow_erases_bytes_on_disk(runner, tmp_path):
    store = tmp_path / "chain"
    boot(runner, store)
    run(runner, "removable", "alice", "very private note", "--store", store)
    run(runner, "removable", "bob", "bobs business", "--store", store)
    run(runner, "mine", "--store", store)                     # interval 2
    out = run(runner, "status", "--store", store)
    assert "interval 2: present, 1 block(s)" in out

    run(runner, "prepare", "alice", 2, "--store", store)
    run(runner, "mine", "--store", store)                     # re-includes bob
    run(runner, "delete", "alice", 2, "--store", store)
    run(runner, "mine", "--store", store)
    out = run(runner, "mine", "--store", store)               # ages the delete
    assert "pruned [2]" in out                                # mine auto-prunes
    assert "nothing to prune" in run(runner, "prune", "--store", store)

    scan = b"".join(p.read_bytes() for p in Path(store).rglob("*")
                    if p.is_file())
    assert b"very private note" not in scan
    assert b"bobs business" in scan                           # re-included copy

    out = run(runner, "status", "--store", store)
    assert "interval 2: deleted" in out
    assert "valid" in run(runner, "verify", "--store", store)


def test_show_interval(runner, tmp_path):
    store = tmp_path / "chain"
    boot(runner, store)
    run(runner, "removable", "alice", "deadbeef", "--hex", "--store", store)
    run(runner, "mine", "--store", store)
    out = run(runner, "show", 2, "--store", store)
    assert "deadbeef" in out
    out = run(runner, "show", 9, "--store", store, expect=1)


def test_consent_lifecycle(runner, tmp_path):
    store = tmp_path / "chain"
    boot(runner, store)
    run(runner, "info", "bob", "terms", "--purposes", "analytics,ads",
        "--store", store)
    run(runner, "mine", "--store", store)
    run(runner, "consent", "alice", "terms", 3, "--store", store)
    run(runner, "mine", "--store", store)
    out = run(runner, "consent-status", "alice", "terms", "--store", store)
    assert "analytics" in out and "ads" in out
    run(runner, "consent", "alice", "terms", 0, "--store", store)
    run(runner, "mine", "--store", store)
    out = run(runner, "consent-status", "alice", "terms", "--store", store)
    assert "(nothing)" in out


def test_verify_flags_manipulation(runner, tmp_path):
    store = tmp_path / "chain"
    boot(runner, store)
    run(runner, "removable", "alice", "evidence", "--store", store)
    run(runner, "mine", "--store", store)
    assert "valid" in run(runner, "verify", "--store", store)
    # rip out the interval body behind the store's back
    blk = next(Path(store).glob("interval_*.blk"))
    blk.unlink()
    out = run(runner, "verify", "--store", store, expect=1)
    assert "invalid" in out or "MissingDeleteEvidence" in out


def test_overhead_table(runner):
    out = run(runner, "overhead", "--p-list", 4)
    assert "second_link" in out and "32" in out
    assert "162" in out
    out = run(runner, "overhead")
    assert "33" in out


def test_scenario_command(runner, tmp_path):
    report = tmp_path / "report.json"
    store = tmp_path / "scnstore"
    out = run(runner, "scenario", SCENARIOS / "deletion.scn",
              "--report", report, "--store-into", store)
    assert "store digest" in out
    data = json.loads(report.read_text())
    assert [n["height"] for n in data["nodes"]] == [4, 4, 4]
    assert data["nodes"][0]["intervals"]["1"] == "deleted"
    # the scenario store holds a verifiable chain
    assert "valid" in run(runner, "verify", "--store", store)


def test_mine_reports_rejected_queue_state(runner, tmp_path):
    store = tmp_path / "chain"
    boot(runner, store)
    out = run(runner, "mine", "--store", store)   # nothing queued
    assert "0 body tx(s)" in out


def test_unregistered_key_is_refused_by_name(runner, tmp_path):
    store = tmp_path / "chain"
    run(runner, "init", "--store", store)
    run(runner, "key", "new", "carol", "--store", store)
    out = run(runner, "removable", "carol", "hello", "--store", store, expect=1)
    assert "carol is not registered on the chain yet" in out


def test_queue_keeps_submission_order_across_mines(runner, tmp_path):
    store = tmp_path / "chain"
    run(runner, "init", "--store", store)
    names = [f"k{i}" for i in range(10)]
    for name in names:
        run(runner, "key", "new", name, "--store", store)
        run(runner, "register", name, "--store", store)
    run(runner, "mine", "--store", store)
    for name in names[:9]:
        run(runner, "removable", name, f"from {name}", "--store", store)
    run(runner, "mine", "--store", store)        # four signers fit: k0..k3
    late = run(runner, "removable", "k9", "from k9", "--store", store).split()[-1]
    queue = sorted(p.name for p in (store / "pending").glob("*.tx"))
    assert len(queue) == 6
    assert len({name.split("_")[0] for name in queue}) == 6
    assert queue[-1].split("_")[1].startswith(late)
    run(runner, "mine", "--store", store)        # the next four are older
    shown = run(runner, "show", 3, "--store", store)
    for name in names[4:8]:
        assert f"from {name}".encode().hex() in shown
    assert b"from k9".hex() not in shown


def _lose_interval_file(store):
    run(CliRunner(), "removable", "alice", "lost", "--store", store)
    run(CliRunner(), "mine", "--store", store)
    next(store.glob("interval_*.blk")).unlink()


def _unnumbered_queue_file(store):
    run(CliRunner(), "removable", "alice", "one", "--store", store)
    queued, = (store / "pending").glob("*.tx")
    queued.rename(queued.with_name("zz_note.tx"))


def _undecodable_queue_file(store):
    (store / "pending" / "000009_x.tx").write_text("garbage\n")
    # status counts the queue files without decoding them
    assert "pending 1" in run(CliRunner(), "status", "--store", store)


def _write_seed(text):
    def corrupt(store):
        (store / "keys" / "alice.seed").write_text(text)
    return corrupt


STORE = object()   # stands for the booted store's path


@pytest.mark.parametrize("setup, args, named", [
    pytest.param(None, ("removable", "alice", "zz", "--hex", STORE),
                 "DATA 'zz' is not hex", id="hex-data"),
    pytest.param(None, ("key", "new", "carol", "--seed", "zz", STORE),
                 "--seed 'zz' is not hex", id="hex-seed"),
    pytest.param(None, ("key", "new", "carol", "--seed", "11", STORE),
                 "EncodingError", id="short-seed"),
    pytest.param(_write_seed("zz\n"), ("register", "alice", STORE),
                 "alice.seed 'zz' is not hex", id="seed-file-not-hex"),
    pytest.param(_write_seed("zz\n"), ("key", "list", STORE),
                 "alice.seed 'zz' is not hex", id="seed-file-listed"),
    pytest.param(_write_seed("1111\n"), ("register", "alice", STORE),
                 "EncodingError", id="seed-file-short"),
    pytest.param(None, ("overhead", "--p-list", 5),
                 "--p-list 5 is outside 0..4", id="p-list-above"),
    pytest.param(None, ("overhead", "--p-list", -1),
                 "--p-list -1 is outside 0..4", id="p-list-below"),
    pytest.param(None, ("show", 99, STORE),
                 "UnknownInterval: interval 99", id="show-unknown-interval"),
    pytest.param(_lose_interval_file, ("status", STORE),
                 "MissingDeleteEvidence", id="status-lost-interval"),
    pytest.param(_unnumbered_queue_file, ("removable", "alice", "two", STORE),
                 "queue file pending/zz_note.tx", id="unnumbered-queue-file"),
    pytest.param(_undecodable_queue_file, ("removable", "alice", "three", STORE),
                 "Error: queue file pending/000009_x.tx does not decode: ",
                 id="undecodable-queue-file"),
])
def test_bad_input_fails_by_name(runner, tmp_path, setup, args, named):
    store = tmp_path / "chain"
    boot(runner, store)
    if setup is not None:
        setup(store)
    argv = []
    for a in args:
        argv += ["--store", str(store)] if a is STORE else [str(a)]
    result = runner.invoke(main, argv)
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), repr(result.exception)
    assert named in result.output


def test_bad_chain_params_write_no_store(runner, tmp_path):
    store = tmp_path / "chain"
    out = run(runner, "init", "--store", store, "--delete-lock", -1, expect=1)
    assert "InvalidParams: delete_lock -1 is not an int >= 0" in out
    assert not store.exists()
    scn = tmp_path / "bad.scn"
    scn.write_text("entity A\nparams confirm_depth=-3\ngenesis A\n")
    out = run(runner, "scenario", scn, "--store-into", store, expect=1)
    assert "ScenarioError: line 2" in out
    assert not store.exists()


@pytest.mark.parametrize("args", [
    pytest.param(("key", "new", "../outside"), id="new-parent-dir"),
    pytest.param(("key", "new", "sub/inner"), id="new-subdir"),
    pytest.param(("key", "new", ".hidden"), id="new-dotfile"),
    pytest.param(("key", "new", ""), id="new-empty"),
    pytest.param(("register", "../outside"), id="load-parent-dir"),
])
def test_key_names_must_be_plain_file_stems(runner, tmp_path, args):
    store = tmp_path / "chain"
    run(runner, "init", "--store", store)
    (store / "outside.seed").write_text("11" * 32 + "\n")   # bait for a load
    out = run(runner, *args, "--store", store, expect=1)
    assert "Error: key name" in out and "is not a plain file stem" in out
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*.seed")) \
        == ["chain/outside.seed"]


@pytest.mark.parametrize("text", ["{bad", '{"terms": 5}', "[]"])
@pytest.mark.parametrize("args", [
    pytest.param(("consent", "alice", "terms", 1), id="consent"),
    pytest.param(("consent-status", "alice", "terms"), id="consent-status"),
    pytest.param(("info", "bob", "terms", "--purposes", "ads"), id="info"),
])
def test_corrupt_labels_file_fails_by_name(runner, tmp_path, args, text):
    store = tmp_path / "chain"
    boot(runner, store)
    (store / "labels.json").write_text(text)
    result = runner.invoke(main, [str(a) for a in args] + ["--store", str(store)])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), repr(result.exception)
    assert result.output.startswith("Error: labels.json ")
    assert not list((store / "pending").glob("*.tx"))   # nothing was queued

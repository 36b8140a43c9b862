"""Command line front end: a store-backed node plus scenario tooling.

State lives in a store directory (``--store``, default ``./chainstore``):
block data managed by ``BlockStore``, key seeds under ``keys/``, queued
transactions under ``pending/``, and the info-label registry in
``labels.json``.  A command that reads the chain runs in one session:
the store opened and its chain loaded and verified once, trusting the
signatures the store marks as checked; ``verify`` checks them all.
Bad input ends a command with exit 1 and an error that names it, never
a traceback; ``main`` names any ``MutachainError`` as
``Error: <Class>: message``.
Submission commands sign through ``Chain.sign``, which picks the input
spent, and number each queue file one above the highest queued, so
``mine`` takes the queue in submission order.  The session's chain and
store make a ``Node``, the one path a simulated node grows by too:
``mine`` extends it, which stores the segment and prunes matured
deletions from chain and disk, then drops the files of confirmed
transactions; ``prune`` runs that last step alone.
"""

from __future__ import annotations

import json
import os
import re
from contextlib import contextmanager
from pathlib import Path

import click

from .blocks import MAX_P_LIST, header_overhead
from .crypto import KeyPair, keypair_from_seed
from .errors import DecodingError, MempoolRejection, MutachainError, UnknownRegisterRef
from .ledger import Chain, ChainParams, labels_for_mask
from .mempool import Mempool
from .node import Node
from .scenario import run_scenario
from .store import BlockStore
from .tx import Transaction, TxKind
from .verify import verify_chain


def _store_opt(fn):
    return click.option(
        "--store", "-s", "store_dir", default="./chainstore",
        envvar="MUTACHAIN_STORE", show_default=True,
        help="Store directory.")(fn)


@contextmanager
def _session(store_dir: str):
    """The open store and its verified chain."""
    with BlockStore(store_dir) as store:
        yield store, store.load_chain()


def _unhex(text: str, what: str) -> bytes:
    try:
        return bytes.fromhex(text)
    except ValueError:
        raise click.ClickException(f"{what} {text!r} is not hex") from None


def _seed_key(path: Path) -> KeyPair:
    """The key pair of a seed file that only its owner can read."""
    mode = path.stat().st_mode & 0o777
    if mode & 0o077:
        raise click.ClickException(
            f"key file {path.name} has mode {mode:o}; run: chmod 600 {path}")
    seed = _unhex(path.read_text(errors="replace").strip(), f"key file {path.name}")
    return keypair_from_seed(seed)


def _key_path(store_dir: str, name: str) -> Path:
    if not re.fullmatch(r"\w[\w.-]*", name, re.ASCII):
        raise click.ClickException(f"key name {name!r} is not a plain file stem")
    return Path(store_dir) / "keys" / f"{name}.seed"


def _load_key(store_dir: str, name: str) -> KeyPair:
    path = _key_path(store_dir, name)
    if not path.exists():
        raise click.ClickException(f"no key named {name!r} (try: key new {name})")
    return _seed_key(path)


def _labels(store_dir: str) -> dict:
    path = Path(store_dir) / "labels.json"
    try:
        labels = json.loads(path.read_text()) if path.exists() else {}
    except ValueError as exc:
        raise click.ClickException(f"{path.name} is not valid JSON: {exc}") from None
    if not isinstance(labels, dict) or not all(isinstance(v, str) for v in labels.values()):
        raise click.ClickException(f"{path.name} does not map labels to txid strings")
    return labels


def _info_txid(store_dir: str, label: str) -> bytes:
    labels = _labels(store_dir)
    if label not in labels:
        raise click.ClickException(f"unknown info label {label!r}")
    return _unhex(labels[label], f"labels.json entry {label!r}")


def _pending(store_dir: str, chain: Chain, report=None) -> tuple[Mempool, list[tuple[Path, Transaction]]]:
    """The queue files in order, and a pool holding the copies that the
    confirmed prepares of ``chain`` still owe, then those queue files
    that ``chain`` still admits.  A file that does not decode fails the
    command, unless ``report`` is given: then it is handed a line naming
    that file, and one naming each file ``chain`` refuses and why."""
    queue = Path(store_dir) / "pending"
    queue.mkdir(exist_ok=True)
    pool, queued = Mempool(), []
    for h in range(1, chain.height + 1):
        pool.observe_segment((), chain.block_at(h), chain)
    for path in sorted(queue.glob("*.tx")):
        try:
            tx = Transaction.decode(path.read_bytes())
        except DecodingError as exc:
            why = f"queue file pending/{path.name} does not decode: {exc}"
            if report is None:
                raise click.ClickException(why) from None
            report(why)
            continue
        queued.append((path, tx))
        try:
            pool.submit(tx, chain)
        except MempoolRejection as exc:
            if report is not None:
                cause = getattr(exc, "cause", None)
                report(f"queue file pending/{path.name} is refused: {type(exc).__name__}"
                       + (f" ({type(cause).__name__})" if cause else ""))
    return pool, queued


def _submit(store_dir: str, name: str, kind: TxKind, **fields) -> Transaction:
    """Queue a ``kind`` transaction signed by NAME, admitted after the queue."""
    kp = _load_key(store_dir, name)
    with _session(store_dir) as (_, chain):
        try:
            tx = chain.sign(kind, kp, **fields)
        except UnknownRegisterRef:
            raise click.ClickException(f"{name} is not registered on the chain yet")
        pool, queued = _pending(store_dir, chain)
        pool.submit(tx, chain)
        last = queued[-1][0].name if queued else "0_"
        try:
            n = int(last.split("_")[0]) + 1
        except ValueError:
            raise click.ClickException(
                f"queue file pending/{last} is not named NNNNNN_<txid>.tx") from None
        path = Path(store_dir) / "pending" / f"{n:06d}_{tx.txid.hex()[:12]}.tx"
        path.write_bytes(tx.encoded)
    click.echo(f"queued {tx.kind.name.lower()} {tx.txid.hex()[:12]}")
    return tx


class _Main(click.Group):
    """The command group that ends any command raising a
    ``MutachainError`` with exit 1 and the error's class and message."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except MutachainError as exc:
            raise click.ClickException(f"{type(exc).__name__}: {exc}") from exc


@click.group(cls=_Main)
def main() -> None:
    """A chain with verifiably deletable block intervals."""


@main.command()
@_store_opt
@click.option("--confirm-depth", default=2, show_default=True,
              help="Blocks a delete must age before pruning.")
@click.option("--delete-lock", default=1, show_default=True,
              help="Blocks an interval must age before pruning.")
def init(store_dir: str, confirm_depth: int, delete_lock: int) -> None:
    """Create a store with an empty genesis."""
    chain = Chain.bootstrap((), ChainParams(confirm_depth=confirm_depth,
                                            delete_lock=delete_lock))
    with BlockStore(store_dir, create=True) as store:
        store.rebuild(chain)
    click.echo(f"initialized {store_dir} (genesis {chain.tip_hash.hex()[:12]})")


@main.group()
def key() -> None:
    """Manage signing keys."""


@key.command("new")
@_store_opt
@click.argument("name")
@click.option("--seed", "seed_hex", default=None,
              help="32-byte hex seed (random when omitted).")
def key_new(store_dir: str, name: str, seed_hex: str | None) -> None:
    """Create a keypair and store its seed."""
    path = _key_path(store_dir, name)
    path.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
    seed = _unhex(seed_hex, "--seed") if seed_hex is not None else os.urandom(32)
    kp = keypair_from_seed(seed)
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
    except FileExistsError:
        raise click.ClickException(f"key {name!r} already exists")
    with os.fdopen(fd, "w") as out:
        out.write(seed.hex() + "\n")
    click.echo(f"{name}: {kp.pubkey.hex()}")


@key.command("list")
@_store_opt
def key_list(store_dir: str) -> None:
    """List stored keys."""
    d = Path(store_dir) / "keys"
    for path in sorted(d.glob("*.seed")) if d.exists() else []:
        click.echo(f"{path.stem}: {_seed_key(path).pubkey.hex()}")


@main.command()
@_store_opt
@click.argument("name")
def register(store_dir: str, name: str) -> None:
    """Queue a register transaction for a stored key."""
    _submit(store_dir, name, TxKind.REGISTER)


@main.command()
@_store_opt
@click.argument("name")
@click.argument("data")
@click.option("--hex", "is_hex", is_flag=True, help="DATA is hex, not text.")
def removable(store_dir: str, name: str, data: str, is_hex: bool) -> None:
    """Queue erasable data signed by NAME."""
    payload = _unhex(data, "DATA") if is_hex else data.encode("utf-8")
    _submit(store_dir, name, TxKind.REMOVABLE, data=payload)


@main.command()
@_store_opt
@click.argument("name")
@click.argument("interval", type=int)
def prepare(store_dir: str, name: str, interval: int) -> None:
    """Queue a deletion announcement for INTERVAL."""
    _submit(store_dir, name, TxKind.PREPARE, interval=interval)


@main.command()
@_store_opt
@click.argument("name")
@click.argument("interval", type=int)
def delete(store_dir: str, name: str, interval: int) -> None:
    """Queue a deletion of INTERVAL (uses a confirmed prepare if present)."""
    _submit(store_dir, name, TxKind.DELETE, interval=interval)


@main.command()
@_store_opt
@click.argument("name")
@click.argument("label")
@click.option("--purposes", required=True,
              help="Comma-separated purpose labels, bit order.")
@click.option("--controller", default=None, help="Controller identifier.")
def info(store_dir: str, name: str, label: str, purposes: str,
         controller: str | None) -> None:
    """Queue a consent schema and remember it as LABEL."""
    labels = _labels(store_dir)
    purpose_labels = tuple(purposes.split(","))
    if "" in purpose_labels:
        raise click.ClickException(f"--purposes {purposes!r} has an empty label")
    tx = _submit(store_dir, name, TxKind.INFO, purposes=purpose_labels,
                 controller=(controller or name).encode("utf-8"))
    labels[label] = tx.txid.hex()
    (Path(store_dir) / "labels.json").write_text(
        json.dumps(labels, sort_keys=True, indent=2) + "\n")


@main.command()
@_store_opt
@click.argument("name")
@click.argument("info_label")
@click.argument("value", type=int)
def consent(store_dir: str, name: str, info_label: str, value: int) -> None:
    """Queue a consent for INFO_LABEL; VALUE is the purpose bitmask."""
    _submit(store_dir, name, TxKind.CONSENT,
            info=_info_txid(store_dir, info_label), value=value)


@main.command()
@_store_opt
@click.option("--max-interval-blocks", default=1, show_default=True,
              type=click.IntRange(min=0),
              help="Removable block budget for this segment.")
def mine(store_dir: str, max_interval_blocks: int) -> None:
    """Assemble queued transactions into the next segment."""
    with _session(store_dir) as (store, chain):
        pool, queued = _pending(store_dir, chain)
        interval, block = pool.build_candidate(chain, max_interval_blocks)
        dropped = Node(chain, pool, store).extend([(interval, block)])
        for path, tx in queued:
            if chain.tx_confirmed(tx.txid):
                path.unlink()
    click.echo(f"mined height {block.height}: {len(interval)} interval "
               f"block(s), {len(block.txs)} body tx(s)"
               + (f", pruned {dropped}" if dropped else ""))


@main.command()
@_store_opt
def prune(store_dir: str) -> None:
    """Erase every interval whose deletion has matured."""
    with _session(store_dir) as (store, chain):
        dropped = Node(chain, store=store).prune()
    click.echo(f"pruned {dropped}" if dropped else "nothing to prune")


@main.command()
@_store_opt
def status(store_dir: str) -> None:
    """Tip, parameters, queue, each queue file refused, and per-interval status."""
    with _session(store_dir) as (_, chain):
        p = chain.params
        click.echo(f"height {chain.height}, tip {chain.tip_hash.hex()[:16]}")
        click.echo(f"confirm_depth {p.confirm_depth}, delete_lock {p.delete_lock}")
        click.echo(f"pending {len(list(Path(store_dir).glob('pending/*.tx')))}")
        _pending(store_dir, chain, report=click.echo)
        for x in range(1, chain.height + 1):
            rec = chain.interval_record(x)
            if rec.length == 0:
                continue
            d = chain.delete_record(x)
            extra = f" (delete confirmed at {d.height})" if d is not None else ""
            click.echo(f"interval {x}: {rec.status.value}, "
                       f"{rec.length} block(s){extra}")


@main.command()
@_store_opt
@click.argument("interval", type=int)
def show(store_dir: str, interval: int) -> None:
    """Dump one interval's contents."""
    with _session(store_dir) as (_, chain):
        rec = chain.interval_record(interval)
    click.echo(f"interval {interval}: {rec.status.value}, {rec.length} block(s)")
    click.echo("p_list: " + (", ".join(k.hex()[:16] for k in rec.p_list)
                             or "(empty)"))
    for rb in rec.blocks or ():
        click.echo(f"  block {interval}.{rb.seq} {rb.block_hash.hex()[:16]}")
        for tx in rb.txs:
            click.echo(f"    {tx.txid.hex()[:12]} by {tx.signer.hex()[:12]}"
                       f" data={tx.payload.data.hex()}")


@main.command("consent-status")
@_store_opt
@click.argument("name")
@click.argument("info_label")
def consent_status(store_dir: str, name: str, info_label: str) -> None:
    """Current grant for NAME under INFO_LABEL."""
    kp = _load_key(store_dir, name)
    info_txid = _info_txid(store_dir, info_label)
    with _session(store_dir) as (_, chain):
        rec = chain.info_record(info_txid)
        if rec is None:
            raise click.ClickException("info is not confirmed yet")
        state = chain.consent_chain(kp.pubkey, info_txid)
        value = chain.consent_grant(kp.pubkey, info_txid)
        granted = labels_for_mask(rec, value)
    click.echo(f"value {value}: " + (", ".join(granted) or "(nothing)"))
    for ev in (state.history if state else ()):
        click.echo(f"  height {ev.height}: value {ev.value} ({ev.txid.hex()[:12]})")


@main.command()
@_store_opt
def verify(store_dir: str) -> None:
    """Re-verify the whole stored history, every signature included."""
    # an audit: the store's own tip mark is not trusted here
    with BlockStore(store_dir) as store:
        report = verify_chain(store.segments(), store.params)
    if not report.ok:
        raise click.ClickException(str(report))
    click.echo(str(report))


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--report", "report_path", default=None,
              help="Write the run report JSON here instead of stdout.")
@click.option("--store-into", default=None,
              help="Write node 0's final chain into a fresh store.")
def scenario(file: str, report_path: str | None, store_into: str | None) -> None:
    """Execute a scenario file on a simulated network."""
    try:
        source = Path(file).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise click.ClickException(f"scenario file {file} is not UTF-8: {exc}") from None
    scn = run_scenario(source)
    text = scn.net.report_json()
    if report_path:
        try:
            Path(report_path).write_text(text)
        except OSError as exc:
            raise click.ClickException(
                f"cannot write report {report_path}: {exc.strerror}") from None
        click.echo(f"report written to {report_path}")
    else:
        click.echo(text, nl=False)
    if store_into:
        with BlockStore(store_into, create=True) as store:
            store.rebuild(scn.net.nodes[0].chain)
            click.echo(f"store digest {store.digest()}")


@main.command()
@click.option("--p-list", "p_list_size", default=0, show_default=True,
              help="Interval signer count to price in.")
def overhead(p_list_size: int) -> None:
    """Per-block byte cost of removability."""
    if not 0 <= p_list_size <= MAX_P_LIST:
        raise click.ClickException(f"--p-list {p_list_size} is outside 0..{MAX_P_LIST}")
    parts = header_overhead(p_list_size)
    for field in ("second_link", "interval_len", "p_list"):
        click.echo(f"{field:13} {parts[field]:4d} B")
    click.echo(f"{'total':13} {parts['total']:4d} B")


if __name__ == "__main__":
    main()

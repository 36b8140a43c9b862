"""Command line front end: a store-backed node plus scenario tooling.

State lives in a store directory (``--store``, default ``./chainstore``):
block data managed by ``BlockStore``, key seeds under ``keys/``, queued
transactions under ``pending/``, and the info-label registry in
``labels.json``.  Submission commands validate against the stored chain
and queue the transaction; ``mine`` turns the queue into the next
segment; ``prune`` erases every interval whose deletion has matured.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import click

from .blocks import header_overhead
from .crypto import KeyPair, keypair_from_seed
from .errors import MempoolRejection, MutachainError, UnknownRegisterRef
from .ledger import Chain, ChainParams
from .mempool import Mempool
from .scenario import run_scenario
from .store import BlockStore
from .tx import (
    OutPoint,
    Transaction,
    TxKind,
    build_consent,
    build_delete,
    build_info,
    build_prepare,
    build_register,
    build_removable,
)
from .verify import verify_chain


def _store_opt(fn):
    return click.option(
        "--store", "-s", "store_dir", default="./chainstore",
        envvar="MUTACHAIN_STORE", show_default=True,
        help="Store directory.")(fn)


def _open_store(store_dir: str) -> BlockStore:
    try:
        return BlockStore(store_dir)
    except MutachainError as exc:
        raise click.ClickException(str(exc))


def _load_key(store_dir: str, name: str) -> KeyPair:
    path = Path(store_dir) / "keys" / f"{name}.seed"
    if not path.exists():
        raise click.ClickException(f"no key named {name!r} (try: key new {name})")
    return keypair_from_seed(bytes.fromhex(path.read_text().strip()))


def _labels(store_dir: str) -> dict:
    path = Path(store_dir) / "labels.json"
    return json.loads(path.read_text()) if path.exists() else {}


def _save_labels(store_dir: str, labels: dict) -> None:
    (Path(store_dir) / "labels.json").write_text(
        json.dumps(labels, sort_keys=True, indent=2) + "\n")


def _pending_dir(store_dir: str) -> Path:
    d = Path(store_dir) / "pending"
    d.mkdir(exist_ok=True)
    return d


def _pending_files(store_dir: str) -> list[Path]:
    return sorted(_pending_dir(store_dir).glob("*.tx"))


def _load_pending(store_dir: str) -> list[tuple[Path, Transaction]]:
    out = []
    for path in _pending_files(store_dir):
        out.append((path, Transaction.decode(path.read_bytes())))
    return out


def _queue_tx(store_dir: str, chain: Chain, tx: Transaction) -> None:
    pool = Mempool()
    for _, queued in _load_pending(store_dir):
        try:
            pool.submit(queued, chain)
        except MempoolRejection:
            pass
    try:
        pool.submit(tx, chain)
    except MempoolRejection as exc:
        raise click.ClickException(f"rejected: {type(exc).__name__}: {exc}")
    n = len(_pending_files(store_dir)) + 1
    path = _pending_dir(store_dir) / f"{n:06d}_{tx.txid.hex()[:12]}.tx"
    path.write_bytes(tx.encoded)
    click.echo(f"queued {tx.kind.name.lower()} {tx.txid.hex()[:12]}")


def _input_for(chain: Chain, kind: TxKind, kp: KeyPair, name: str,
               **where) -> OutPoint | None:
    try:
        return chain.input_for(kind, kp.pubkey, **where)
    except UnknownRegisterRef:
        raise click.ClickException(f"{name} is not registered on the chain yet")


@click.group()
def main() -> None:
    """A chain with verifiably deletable block intervals."""


@main.command()
@_store_opt
@click.option("--confirm-depth", default=2, show_default=True,
              help="Blocks a delete must age before pruning.")
@click.option("--delete-lock", default=1, show_default=True,
              help="Minimum height gap between interval and delete.")
def init(store_dir: str, confirm_depth: int, delete_lock: int) -> None:
    """Create a store with an empty genesis."""
    params = ChainParams(confirm_depth=confirm_depth, delete_lock=delete_lock)
    try:
        with BlockStore(store_dir, create=True) as store:
            chain = Chain.bootstrap((), params)
            store.set_params(params)
            store.append_segment((), chain.block_at(0))
    except MutachainError as exc:
        raise click.ClickException(str(exc))
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
    d = Path(store_dir) / "keys"
    d.mkdir(parents=True, exist_ok=True)
    path = d / f"{name}.seed"
    if path.exists():
        raise click.ClickException(f"key {name!r} already exists")
    seed = bytes.fromhex(seed_hex) if seed_hex else os.urandom(32)
    try:
        kp = keypair_from_seed(seed)
    except MutachainError as exc:
        raise click.ClickException(str(exc))
    path.write_text(seed.hex() + "\n")
    click.echo(f"{name}: {kp.pubkey.hex()}")


@key.command("list")
@_store_opt
def key_list(store_dir: str) -> None:
    """List stored keys."""
    d = Path(store_dir) / "keys"
    for path in sorted(d.glob("*.seed")) if d.exists() else []:
        kp = keypair_from_seed(bytes.fromhex(path.read_text().strip()))
        click.echo(f"{path.stem}: {kp.pubkey.hex()}")


@main.command()
@_store_opt
@click.argument("name")
def register(store_dir: str, name: str) -> None:
    """Queue a register transaction for a stored key."""
    kp = _load_key(store_dir, name)
    with _open_store(store_dir) as store:
        chain = store.load_chain()
        _queue_tx(store_dir, chain, build_register(kp))


@main.command()
@_store_opt
@click.argument("name")
@click.argument("data")
@click.option("--hex", "is_hex", is_flag=True, help="DATA is hex, not text.")
def removable(store_dir: str, name: str, data: str, is_hex: bool) -> None:
    """Queue erasable data signed by NAME."""
    kp = _load_key(store_dir, name)
    payload = bytes.fromhex(data) if is_hex else data.encode("utf-8")
    with _open_store(store_dir) as store:
        chain = store.load_chain()
        ref = _input_for(chain, TxKind.REMOVABLE, kp, name)
        _queue_tx(store_dir, chain, build_removable(kp, ref, payload))


@main.command()
@_store_opt
@click.argument("name")
@click.argument("interval", type=int)
def prepare(store_dir: str, name: str, interval: int) -> None:
    """Queue a deletion announcement for INTERVAL."""
    kp = _load_key(store_dir, name)
    with _open_store(store_dir) as store:
        chain = store.load_chain()
        ref = _input_for(chain, TxKind.PREPARE, kp, name)
        _queue_tx(store_dir, chain, build_prepare(kp, ref, interval))


@main.command()
@_store_opt
@click.argument("name")
@click.argument("interval", type=int)
def delete(store_dir: str, name: str, interval: int) -> None:
    """Queue a deletion of INTERVAL (uses a confirmed prepare if present)."""
    kp = _load_key(store_dir, name)
    with _open_store(store_dir) as store:
        chain = store.load_chain()
        ref = _input_for(chain, TxKind.DELETE, kp, name, interval=interval)
        _queue_tx(store_dir, chain, build_delete(kp, interval, prepare_ref=ref))


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
    kp = _load_key(store_dir, name)
    with _open_store(store_dir) as store:
        chain = store.load_chain()
        ref = _input_for(chain, TxKind.INFO, kp, name)
        tx = build_info(kp, ref, (controller or name).encode("utf-8"),
                        tuple(purposes.split(",")))
        _queue_tx(store_dir, chain, tx)
    labels = _labels(store_dir)
    labels[label] = tx.txid.hex()
    _save_labels(store_dir, labels)


@main.command()
@_store_opt
@click.argument("name")
@click.argument("info_label")
@click.argument("value", type=int)
def consent(store_dir: str, name: str, info_label: str, value: int) -> None:
    """Queue a consent for INFO_LABEL; VALUE is the purpose bitmask."""
    kp = _load_key(store_dir, name)
    labels = _labels(store_dir)
    if info_label not in labels:
        raise click.ClickException(f"unknown info label {info_label!r}")
    info_txid = bytes.fromhex(labels[info_label])
    with _open_store(store_dir) as store:
        chain = store.load_chain()
        spend = _input_for(chain, TxKind.CONSENT, kp, name, info=info_txid)
        tx = build_consent(kp, spend, OutPoint(info_txid, 0), value)
        _queue_tx(store_dir, chain, tx)


@main.command()
@_store_opt
@click.option("--max-interval-blocks", default=1, show_default=True,
              help="Removable block budget for this segment.")
def mine(store_dir: str, max_interval_blocks: int) -> None:
    """Assemble queued transactions into the next segment."""
    with _open_store(store_dir) as store:
        chain = store.load_chain()
        pool = Mempool()
        files = {}
        for path, tx in _load_pending(store_dir):
            files[tx.txid] = path
            try:
                pool.submit(tx, chain)
            except MempoolRejection:
                pass
        interval, block = pool.build_candidate(chain, max_interval_blocks)
        try:
            chain.append_segment(interval, block)
        except MutachainError as exc:
            raise click.ClickException(f"candidate failed: {exc}")
        store.append_segment(interval, block)
        confirmed = {tx.txid for tx in block.txs}
        for rb in interval:
            confirmed.update(tx.txid for tx in rb.txs)
        for txid in confirmed:
            path = files.get(txid)
            if path is not None:
                path.unlink()
        dropped = chain.prune()
        for x in dropped:
            store.prune(x)
    click.echo(f"mined height {block.height}: {len(interval)} interval "
               f"block(s), {len(block.txs)} body tx(s)"
               + (f", pruned {dropped}" if dropped else ""))


@main.command()
@_store_opt
def prune(store_dir: str) -> None:
    """Erase every interval whose deletion has matured."""
    with _open_store(store_dir) as store:
        chain = store.load_chain()
        dropped = chain.prune()
        for x in dropped:
            store.prune(x)
    click.echo(f"pruned {dropped}" if dropped else "nothing to prune")


@main.command()
@_store_opt
def status(store_dir: str) -> None:
    """Tip, parameters, and per-interval status."""
    with _open_store(store_dir) as store:
        chain = store.load_chain()
        p = chain.params
        click.echo(f"height {chain.height}, tip {chain.tip_hash.hex()[:16]}")
        click.echo(f"confirm_depth {p.confirm_depth}, delete_lock {p.delete_lock}")
        click.echo(f"pending {len(_pending_files(store_dir))}")
        for x in range(1, chain.height + 1):
            rec = chain.interval_record(x)
            if rec.length == 0:
                continue
            extra = ""
            d = chain.delete_record(x)
            if d is not None:
                extra = f" (delete confirmed at {d.height})"
            click.echo(f"interval {x}: {rec.status.value}, "
                       f"{rec.length} block(s){extra}")


@main.command()
@_store_opt
@click.argument("interval", type=int)
def show(store_dir: str, interval: int) -> None:
    """Dump one interval's contents."""
    with _open_store(store_dir) as store:
        chain = store.load_chain()
        rec = chain.interval_record(interval)
        click.echo(f"interval {interval}: {rec.status.value}, "
                   f"{rec.length} block(s)")
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
    labels = _labels(store_dir)
    if info_label not in labels:
        raise click.ClickException(f"unknown info label {info_label!r}")
    info_txid = bytes.fromhex(labels[info_label])
    with _open_store(store_dir) as store:
        chain = store.load_chain()
        rec = chain.info_record(info_txid)
        if rec is None:
            raise click.ClickException("info is not confirmed yet")
        state = chain.consent_chain(kp.pubkey, info_txid)
        value = chain.consent_grant(kp.pubkey, info_txid)
        granted = [label for k, label in enumerate(rec.purposes)
                   if value >> k & 1]
        click.echo(f"value {value}: " + (", ".join(granted) or "(nothing)"))
        for ev in (state.history if state else ()):
            click.echo(f"  height {ev.height}: value {ev.value}"
                       f" ({ev.txid.hex()[:12]})")


@main.command()
@_store_opt
def verify(store_dir: str) -> None:
    """Re-verify the whole stored history."""
    with _open_store(store_dir) as store:
        report = verify_chain(store.segments(), store.params)
    click.echo(str(report))
    if not report.ok:
        raise SystemExit(1)


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--report", "report_path", default=None,
              help="Write the run report JSON here instead of stdout.")
@click.option("--store-into", default=None,
              help="Write node 0's final chain into a fresh store.")
def scenario(file: str, report_path: str | None, store_into: str | None) -> None:
    """Execute a scenario file on a simulated network."""
    try:
        scn = run_scenario(Path(file).read_text())
    except MutachainError as exc:
        raise click.ClickException(str(exc))
    text = scn.net.report_json()
    if report_path:
        Path(report_path).write_text(text)
        click.echo(f"report written to {report_path}")
    else:
        click.echo(text, nl=False)
    if store_into:
        try:
            with BlockStore(store_into, create=True) as store:
                store.rebuild(scn.net.nodes[0].chain)
                click.echo(f"store digest {store.digest()}")
        except MutachainError as exc:
            raise click.ClickException(str(exc))


@main.command()
@click.option("--p-list", "p_list_size", default=0, show_default=True,
              help="Interval signer count to price in.")
def overhead(p_list_size: int) -> None:
    """Per-block byte cost of removability."""
    parts = header_overhead(p_list_size)
    for field in ("second_link", "interval_len", "p_list"):
        click.echo(f"{field:13} {parts[field]:4d} B")
    click.echo(f"{'total':13} {parts['total']:4d} B")


if __name__ == "__main__":
    main()

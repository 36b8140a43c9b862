"""Line-oriented scenario files driving a simulated network.

A scenario is a plain text script.  Blank lines and ``#`` comments are
ignored; every other line is one directive.  Configuration directives
come first, then any mix of transaction and control directives:

=====================================  ===================================
directive                              effect
=====================================  ===================================
``params confirm_depth=N
delete_lock=N``                        chain parameters
``nodes N``                            network size (default 3)
``schedule N``                         max removable blocks per interval
``period N``                           steps between proposals
``entity NAME``                        create a keypair (deterministic)
``genesis NAME...``                    put register txs in the genesis
``register NAME``                      submit a register
``removable NAME LABEL [data=HEX]``    submit erasable data
``prepare NAME INTERVAL``              announce a deletion
``delete NAME INTERVAL``               request a deletion (the matching
                                       confirmed prepare, if any, is
                                       referenced automatically)
``info NAME LABEL purposes=A,B[,..]
[controller=TEXT]``                    publish a consent schema
``consent NAME INFOLABEL VALUE``       grant/update/revoke (0 revokes)
``step [N]``                           advance the network N steps
``offline N`` / ``online N``           drop / restore a node
``byzantine N wrong_p_list``,
``byzantine N unauthorized_delete
key=NAME``                             set node N's fault hook
``byzantine N``                        clear it
=====================================  ===================================

Transaction directives take ``via=N`` to choose the submitting node and
may be prefixed with ``try`` to tolerate a mempool rejection instead of
failing the scenario; ``Chain.sign`` on that node's chain picks the
input each spends.  A node id outside ``0..N-1``, a size below 1, a
negative step or a value its wire field cannot hold fails its line.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import partial

from .crypto import KeyPair, digest, keypair_from_seed
from .errors import EncodingError, MempoolRejection, ScenarioError, UnknownRegisterRef
from .ledger import ChainParams
from .simnet import SimNet, fault_unauthorized_delete, fault_wrong_p_list
from .tx import TxKind, build_register

CONFIG_DIRECTIVES = {"params", "nodes", "schedule", "period", "entity", "genesis"}
ACTION_DIRECTIVES = {"register", "removable", "prepare", "delete", "info",
                     "consent", "step", "offline", "online", "byzantine"}


def entity_keypair(name: str) -> KeyPair:
    """Stable per-name keys so reruns produce identical bytes."""
    return keypair_from_seed(digest(b"entity:" + name.encode("utf-8")))


@dataclass
class Scenario:
    net: SimNet
    entities: dict[str, KeyPair]
    labels: dict[str, bytes] = field(default_factory=dict)   # label -> txid
    rejected: list[tuple[int, str]] = field(default_factory=list)


class _Parser:
    def __init__(self, text: str):
        self.entities: dict[str, KeyPair] = {}
        self.genesis_names: list[str] = []
        self.nodes = 3
        self.schedule = 1
        self.period = 1
        self.params = ChainParams()
        self.lines = []
        for no, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                self.lines.append((no, line.split()))

    def fail(self, no: int, message: str):
        raise ScenarioError(message, line_no=no)

    @staticmethod
    def options(tokens: list[str]) -> tuple[list[str], dict[str, str]]:
        plain, opts = [], {}
        for tok in tokens:
            if "=" in tok:
                key, value = tok.split("=", 1)
                opts[key] = value
            else:
                plain.append(tok)
        return plain, opts

    def run(self) -> Scenario:
        scn: Scenario | None = None
        for no, tokens in self.lines:
            word = tokens[0]
            tolerate = word == "try"
            if tolerate:
                tokens = tokens[1:]
                if not tokens:
                    self.fail(no, "try needs a directive")
                word = tokens[0]
            try:
                if word in CONFIG_DIRECTIVES:
                    if scn is not None:
                        self.fail(no, f"{word} must come before the first action")
                    self.configure(no, word, tokens[1:])
                    continue
                if word not in ACTION_DIRECTIVES:
                    self.fail(no, f"unknown directive {word!r}")
                if scn is None:
                    scn = self.start()
                self.act(scn, no, word, tokens[1:], tolerate)
            except (IndexError, ValueError) as exc:   # missing or non-numeric argument
                self.fail(no, f"malformed {word} directive: {exc}")
        return scn if scn is not None else self.start()

    def configure(self, no: int, word: str, args: list[str]) -> None:
        plain, opts = self.options(args)
        if word == "params":
            if plain:
                self.fail(no, "params takes key=value pairs only")
            values = {}
            for key, value in opts.items():
                if key not in {f.name for f in fields(ChainParams)}:
                    self.fail(no, f"unknown parameter {key!r}")
                values[key] = int(value)
            self.params = ChainParams(**values)
        elif word in ("nodes", "period", "schedule"):
            # SimNet.step divides by the first two; schedule 0 mines no interval
            if int(plain[0]) < 1:
                self.fail(no, f"{word} must be at least 1")
            setattr(self, word, int(plain[0]))
        elif word == "entity":
            for name in plain:
                self.entities.setdefault(name, entity_keypair(name))
        elif word == "genesis":
            for name in plain:
                if name not in self.entities:
                    self.fail(no, f"unknown entity {name!r}")
                self.genesis_names.append(name)

    def start(self) -> Scenario:
        genesis_txs = tuple(build_register(self.entities[name])
                            for name in self.genesis_names)
        net = SimNet(self.nodes, genesis_txs, self.params,
                     max_interval_blocks=self.schedule,
                     propose_period=self.period)
        return Scenario(net=net, entities=self.entities)

    # ------------------------------------------------------------------

    def entity(self, no: int, name: str) -> KeyPair:
        kp = self.entities.get(name)
        if kp is None:
            self.fail(no, f"unknown entity {name!r}")
        return kp

    def node_id(self, no: int, text: str) -> int:
        n = int(text)
        if not 0 <= n < self.nodes:
            self.fail(no, f"node {n} is not one of 0..{self.nodes - 1}")
        return n

    def act(self, scn: Scenario, no: int, word: str, args: list[str],
            tolerate: bool) -> None:
        net = scn.net
        plain, opts = self.options(args)
        if word == "step":
            if plain and int(plain[0]) < 0:
                self.fail(no, f"step {plain[0]} is negative")
            net.step(int(plain[0]) if plain else 1)
            return
        if word in ("offline", "online"):
            net.set_online(self.node_id(no, plain[0]), word == "online")
            return
        if word == "byzantine":
            node = net.nodes[self.node_id(no, plain[0])]
            mode = plain[1] if len(plain) > 1 else None
            if mode is None:
                node.fault = None
            elif mode == "wrong_p_list":
                node.fault = fault_wrong_p_list
            elif mode == "unauthorized_delete":
                if "key" not in opts:
                    self.fail(no, "unauthorized_delete needs key=NAME")
                node.fault = partial(fault_unauthorized_delete,
                                     self.entity(no, opts["key"]))
            else:
                self.fail(no, f"unknown fault {mode!r}")
            return

        via = self.node_id(no, opts.get("via", "0"))
        kp = self.entity(no, plain[0])
        payload = {}
        if word == "removable":
            payload["data"] = bytes.fromhex(opts["data"]) if "data" in opts \
                else plain[1].encode("utf-8")
        elif word in ("prepare", "delete"):
            payload["interval"] = int(plain[1])
        elif word == "info":
            purposes = opts.get("purposes", "").split(",")
            if "" in purposes:
                self.fail(no, "info needs purposes=a,b,...")
            payload.update(purposes=tuple(purposes),
                          controller=opts.get("controller", plain[0]).encode("utf-8"))
        elif word == "consent":
            if plain[1] not in scn.labels:
                self.fail(no, f"unknown info label {plain[1]!r}")
            payload.update(info=scn.labels[plain[1]], value=int(plain[2]))
        try:
            tx = net.nodes[via].chain.sign(TxKind[word.upper()], kp, **payload)
        except UnknownRegisterRef:
            self.fail(no, f"{plain[0]} is not registered yet")
        except EncodingError as exc:
            self.fail(no, f"{word} cannot be encoded: {exc}")
        try:
            net.submit(tx, via=via)
        except MempoolRejection as exc:
            if not tolerate:
                raise ScenarioError(
                    f"{word} rejected: {type(exc).__name__}: {exc}",
                    line_no=no)
            scn.rejected.append((no, type(exc).__name__))
            return
        if word in ("removable", "info"):
            scn.labels[plain[1]] = tx.txid


def run_scenario(text: str) -> Scenario:
    """Parse and execute a scenario, returning the final state."""
    return _Parser(text).run()

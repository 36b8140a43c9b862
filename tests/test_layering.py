"""Only ledger.py reaches into a Chain's private members; every other
module goes through its public methods, and the ledger hands no Chain
table to code outside Chain.  Only the verifier feeds a chain interval
bodies it never saw, and only the node prunes."""

import ast
import builtins
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mutachain"


def chain_private_members() -> set[str]:
    tree = ast.parse((SRC / "ledger.py").read_text())
    chain = next(node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == "Chain")
    names = set()
    for node in ast.walk(chain):
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "self":
            names.add(node.attr)
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def test_only_the_ledger_touches_private_chain_members():
    private = chain_private_members()
    assert {"_intervals", "_write"} <= private
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "ledger.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in private \
                    and not (isinstance(node.value, ast.Name) and node.value.id == "self"):
                offenders.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert offenders == []


def test_only_the_verifier_appends_gap_segments():
    callers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "append_gap_segment" \
                    and isinstance(node.ctx, ast.Load):
                callers.append(path.name)
    assert callers == ["verify.py"]


def callers(attr: str) -> set[tuple[str, str | None]]:
    """(module, innermost enclosing function) of each ``.attr(...)`` call
    in the package, leaving out calls on a ``Node(...)`` built in place."""
    found = set()

    def walk(node, where, fn):
        if isinstance(node, ast.FunctionDef):
            fn = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == attr:
            on = node.func.value
            if not (isinstance(on, ast.Call) and isinstance(on.func, ast.Name)
                    and on.func.id == "Node"):
                found.add((where, fn))
        for child in ast.iter_child_nodes(node):
            walk(child, where, fn)
    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), path.name, None)
    return found


def test_only_the_node_prunes():
    # Chain.prune and BlockStore.prune run only from Node.prune, which
    # Node.extend ends with; segments are appended only by the node, the
    # store's rebuild, the verifier's replay and the chain's own genesis
    assert callers("prune") == {("node.py", "prune"), ("node.py", "extend")}
    assert callers("append_segment") == {
        ("node.py", "extend"), ("store.py", "rebuild"),
        ("verify.py", "_replay"), ("ledger.py", "bootstrap")}


@pytest.mark.parametrize("table, expected", [
    # an interval's txids enter the duplicate index when close_interval
    # records the interval and leave it when prune drops its body
    ("_dup_index", {"close_interval", "prune"}),
    # only a permanent body transaction is kept whole: an interval
    # transaction kept there would outlive its erased interval
    ("_confirmed", {"apply_body_tx"}),
    # a prepare is indexed by its signer and interval as it confirms
    ("_prepares", {"apply_body_tx"}),
], ids=["_dup_index", "_confirmed", "_prepares"])
def test_a_table_is_written_only_by_its_named_writers(table, expected):
    # every other rule, admission, candidate assembly and replay alike,
    # only reads the table
    def is_table(node) -> bool:
        return isinstance(node, ast.Attribute) and node.attr == table \
            and isinstance(node.value, ast.Name) and node.value.id == "self"

    tree = ast.parse((SRC / "ledger.py").read_text())
    chain = next(node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == "Chain")
    writers = set()
    for method in chain.body:
        if not isinstance(method, ast.FunctionDef) or method.name == "__init__":
            continue
        for node in ast.walk(method):
            targets = []
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
                targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) \
                    else [node.target]
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr == "_write":
                    targets = node.args[:1]
                elif is_table(node.func.value) and node.func.attr in (
                        "pop", "popitem", "update", "setdefault", "clear", "__setitem__"):
                    targets = [node.func.value]
            if any(is_table(t) or (isinstance(t, ast.Subscript) and is_table(t.value))
                   for t in targets):
                writers.add(method.name)
    assert writers == expected


def test_no_chain_table_is_handed_to_code_outside_the_chain():
    # a rule that reads or writes a table lives in Chain, so no call in
    # the ledger passes one of Chain's tables to a function defined
    # elsewhere; builtins such as len and dict only count or copy
    tree = ast.parse((SRC / "ledger.py").read_text())
    chain = next(node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == "Chain")
    init = next(node for node in chain.body
                if isinstance(node, ast.FunctionDef) and node.name == "__init__")
    tables = {node.target.attr for node in ast.walk(init)
              if isinstance(node, ast.AnnAssign) and isinstance(node.value, ast.Dict)}
    assert {"_intervals", "_confirmed", "_consents", "_dup_index"} <= tables
    methods = {node.name for node in chain.body if isinstance(node, ast.FunctionDef)}

    def is_table(node) -> bool:
        return isinstance(node, ast.Attribute) and node.attr in tables \
            and isinstance(node.value, ast.Name) and node.value.id == "self"

    offenders = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in dir(builtins):
            continue
        if isinstance(func, ast.Attribute) and func.attr in methods \
                and isinstance(func.value, ast.Name) and func.value.id == "self":
            continue
        if any(is_table(arg) for arg in node.args + [kw.value for kw in node.keywords]):
            offenders.append(f"ledger.py:{node.lineno} {ast.unparse(func)}")
    assert offenders == []

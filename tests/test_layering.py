"""Only ledger.py reaches into a Chain's private members; every other
module goes through its public methods.  Only the verifier feeds a
chain interval bodies it never saw."""

import ast
from pathlib import Path

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

"""Only the two node factories make proof nodes.

Each rule's conclusion is stated once, in ``hll._conclude`` and
``ll._ll_conclude``, and only the factories ``hll._node`` and ``ll._ll_node``
call the node classes with a conclusion they computed from those.  Any other
``HllProof(...)`` or ``LlProof(...)`` call in ``src/`` states a conclusion of
its own, which can drift from the rule the checker holds it to.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hornlog"
NODE_CLASSES = {"HllProof", "LlProof"}
FACTORIES = {("hll.py", "_node"), ("ll.py", "_ll_node")}


def node_calls(source: str) -> list[str]:
    """Every call of a node class, as a bare name or as an attribute, with the
    function it sits in (``-`` at module level)."""
    found = []

    def visit(tree, where):
        for child in ast.iter_child_nodes(tree):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in NODE_CLASSES:
                    found.append(f"{child.lineno}:{where}:{name}")
            visit(child, inner)

    visit(ast.parse(source), "-")
    return sorted(found, key=lambda call: int(call.split(":")[0]))


def test_guard_finds_node_calls():
    source = '''
LEAF = HllProof(HllRule.I, sequent)

def _node(rule, premises):
    return HllProof(rule, conclude(rule, premises), premises)

def shortcut(premise):
    def inner():
        return hll.HllProof(HllRule.LTENSOR, premise.conclusion, (premise,))
    return LlProof(LlRule.I, LlSequent((x,), x)), inner

FORMAT = ProofFormat(HllProof, HornSequent)
'''
    assert node_calls(source) == ["2:-:HllProof", "5:_node:HllProof", "9:inner:HllProof", "10:shortcut:LlProof"]


def test_only_the_factories_make_nodes():
    found = [
        f"{path.name}:{call}"
        for path in sorted(SRC.glob("*.py"))
        for call in node_calls(path.read_text())
        if (path.name, call.split(":")[1]) not in FACTORIES
    ]
    assert found == []

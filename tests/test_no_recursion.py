"""No function in ``src/hornlog`` calls itself by name.

Proof trees, programs and prover searches are as deep as the runs they
describe, so a recursive walker fails on valid paper-scale objects at
Python's recursion limit.  Traversals go through ``hll.walk``, ``hll.fold``
or an explicit stack instead.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hornlog"


def _callee(func: ast.expr) -> str | None:
    """The name a call goes to when it can be a call of the enclosing
    function: a bare name, or a method called on ``self`` or ``cls``."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in ("self", "cls"):
        return func.attr
    return None


def self_calls(source: str) -> list[str]:
    """Every function or nested closure whose body calls it by name."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if any(isinstance(n, ast.Call) and _callee(n.func) == fn.name for n in ast.walk(fn)):
                found.append(f"{fn.lineno}:{fn.name}")
    return found


def test_guard_finds_recursive_functions_closures_and_methods():
    source = '''
def size(node):
    return 1 + sum(size(p) for p in node.premises)

def paths(proof):
    def visit(node):
        for p in node.premises:
            visit(p)
    visit(proof)

class Walker:
    def walk(self, node):
        return [self.walk(p) for p in node.premises]

class Error(ValueError):
    def __init__(self, message):
        super().__init__(message)

def build(edges):
    return Program.build(edges)
'''
    assert self_calls(source) == ["2:size", "6:visit", "12:walk"]


def test_no_function_in_src_calls_itself():
    found = [
        f"{path.name}:{where}"
        for path in sorted(SRC.glob("*.py"))
        for where in self_calls(path.read_text())
    ]
    assert found == []

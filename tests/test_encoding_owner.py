"""Only ``encoding.py`` names the encoding's literals.

How a machine becomes formulas is decided in one module: ``MachineEncoding``
holds the instruction formulas, the killer families, the zero-test branch
edges and the goal.  Any other module that calls ``label_literal``,
``counter_literal`` or ``killer_literal`` rebuilds one of those shapes on its
own, and the two copies can drift apart.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hornlog"
LITERAL_MAKERS = {"label_literal", "counter_literal", "killer_literal"}


def literal_calls(source: str) -> list[str]:
    """Every call of a literal maker, as a bare name or as an attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in LITERAL_MAKERS:
                found.append(f"{node.lineno}:{name}")
    return sorted(found, key=lambda where: int(where.split(":")[0]))


def test_guard_finds_literal_calls():
    source = '''
def goto(ctx, j):
    return SimpleProduct.of(ctx.label_literal(j))

def kill(enc, m, i):
    return enc.ctx.killer_literal(m), counter_literal(i)

def fine(enc, index):
    return enc.branches(index), enc.goal
'''
    assert literal_calls(source) == ["3:label_literal", "6:killer_literal", "6:counter_literal"]


def test_only_the_encoding_names_literals():
    found = [
        f"{path.name}:{where}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "encoding.py"
        for where in literal_calls(path.read_text())
    ]
    assert found == []

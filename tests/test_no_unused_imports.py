"""Every name a module in ``src/hornlog`` imports is used in that module.

A deleted helper or wrapper leaves its imports behind; this guard finds
them.  ``__init__.py`` re-exports by design and ``__future__`` imports are
compiler switches, so neither counts.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hornlog"


def unused_imports(source: str) -> list[str]:
    """Every imported name that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}:{name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1]) if name not in used]


def test_guard_finds_unused_imports():
    source = '''
from __future__ import annotations

import json
import os.path
from typing import Iterable, Union
from .syntax import Printed as Base, formula_text

class Bang(Base):
    formula: Iterable

def dump(x):
    return json.dumps(x)
'''
    assert unused_imports(source) == ["5:os", "6:Union", "7:formula_text"]


def test_no_module_in_src_imports_an_unused_name():
    found = [
        f"{path.name}:{where}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
        for where in unused_imports(path.read_text())
    ]
    assert found == []

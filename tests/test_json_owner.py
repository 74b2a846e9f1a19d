"""Only ``hll.py`` and ``programs.py`` read and write JSON.

Proofs of both calculi are one table, read and written by one codec in
``hll.py``; programs are read and written in ``programs.py``.  Any other
module that imports ``json`` keeps a file format of its own, and the two
copies can drift apart.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hornlog"
JSON_OWNERS = {"hll.py", "programs.py"}


def json_imports(source: str) -> list[str]:
    """Every absolute import of ``json`` or one of its submodules."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"{node.lineno}:{name}" for name in names if name.split(".")[0] == "json"]
    return found


def test_guard_finds_json_imports():
    source = '''
import json
from json import loads
import os, json.decoder
from .json import dumps
import jsonschema

def late():
    import json as j
'''
    assert json_imports(source) == ["2:json", "3:json", "4:json.decoder", "9:json"]


def test_only_the_codecs_import_json():
    found = [
        f"{path.name}:{where}"
        for path in sorted(SRC.glob("*.py"))
        if path.name not in JSON_OWNERS
        for where in json_imports(path.read_text())
    ]
    assert found == []

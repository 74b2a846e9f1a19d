"""Only ``syntax.py`` parses text.

The grammar of products, formulas, sequents and flat context members lives in
``syntax.py``, and every other layer reads text through its public parsers.
Any other module that imports the tokenizer or a private ``_parse_*`` helper
builds a grammar of its own, and the two can drift apart.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hornlog"
GRAMMAR_NAMES = {"TokenStream", "tokenize"}


def grammar_imports(source: str) -> list[str]:
    """Every imported name that is the tokenizer or a private parser."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [
                f"{node.lineno}:{alias.name}"
                for alias in node.names
                if alias.name.split(".")[-1] in GRAMMAR_NAMES or alias.name.split(".")[-1].startswith("_parse_")
            ]
    return found


def test_guard_finds_grammar_imports():
    source = '''
from .syntax import TokenStream, parse_member
from .syntax import (
    _parse_bare_product as bare,
    canonical_zone,
)
import hornlog.syntax.tokenize
from hornlog.syntax import _parse_formula_rest

def late():
    from .syntax import tokenize
'''
    assert grammar_imports(source) == [
        "2:TokenStream", "3:_parse_bare_product", "7:hornlog.syntax.tokenize", "8:_parse_formula_rest", "11:tokenize",
    ]


def test_only_syntax_imports_the_grammar():
    found = [
        f"{path.name}:{where}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "syntax.py"
        for where in grammar_imports(path.read_text())
    ]
    assert found == []

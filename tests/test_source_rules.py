"""Where ``src/hornlog`` may state a fact.  Each rule finds one kind of import
or call and names its owners: modules, or ``module:function`` pairs matched
against a finding's second field; a finding anywhere else fails with the
rule's reason.  Each rule also runs on a seeded source with known findings."""

import ast
from collections import namedtuple
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hornlog"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def imports(tree: ast.AST) -> list[tuple[int, str | None, str, str]]:
    """Per imported name, by line: (line, absolute module or None for a
    relative import, the name as written, the name the import binds)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name, a.name, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module if node.level == 0 else None
            found += [(node.lineno, module, a.name, a.asname or a.name) for a in node.names]
    return sorted(found, key=lambda item: item[0])


def calls(tree: ast.AST) -> list[tuple[ast.Call, str | None, tuple]]:
    """Every call in source order: (call, the bare name or last attribute it
    calls, the functions it sits in, outermost first)."""
    found, stack = [], [(tree, ())]
    while stack:
        node, within = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                found.append((child, name, within))
            stack.append((child, within + (child,) if isinstance(child, FUNCTIONS) else within))
    return sorted(found, key=lambda item: (item[0].lineno, item[0].col_offset))


def where(within: tuple) -> str:
    return within[-1].name if within else "-"


def grammar_imports(tree):
    return [
        f"{line}:{name}" for line, _, name, _ in imports(tree)
        if name.split(".")[-1] in ("TokenStream", "tokenize") or name.split(".")[-1].startswith("_parse_")
    ]


def unused_imports(tree):
    bound = {}
    for line, module, _, name in imports(tree):
        if module != "__future__":
            bound.setdefault(name, line)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}:{name}" for name, line in bound.items() if name not in used]


def split_calls(tree):
    return [
        f"{c.lineno}:{where(within)}" for c, name, within in calls(tree)
        if name == "PlainImplication" and c.args and getattr(c.args[0], "attr", None) == "antecedent"
    ]


def self_calls(tree):
    """Functions whose body calls them by name: bare, or as a method of self or cls."""
    found = {}
    for c, name, within in calls(tree):
        target = c.func if isinstance(c.func, ast.Name) else getattr(c.func, "value", None)
        if isinstance(target, ast.Name) and (target is c.func or target.id in ("self", "cls")):
            found.update((fn.lineno, f"{fn.lineno}:{fn.name}") for fn in within if fn.name == name)
    return [found[line] for line in sorted(found)]


# A rule: its finder, its owners, why, and a seeded source with its findings.
Rule = namedtuple("Rule", "find owners reason seed expected")
RULES = {
    "json_owner": Rule(
        lambda tree: [f"{line}:{m}" for line, m, _, _ in imports(tree) if m and m.split(".")[0] == "json"],
        ("hll.py", "programs.py"),
        "Proofs are read and written by one codec in hll.py, programs in programs.py; "
        "any other module importing json keeps a file format of its own that can drift apart.", '''
import json
from json import loads
import os, json.decoder
from .json import dumps
import jsonschema

def late():
    import json as j
''', ["2:json", "3:json", "4:json.decoder", "9:json"]),
    "node_owner": Rule(
        lambda tree: [f"{c.lineno}:{where(w)}:{n}" for c, n, w in calls(tree) if n in ("HllProof", "LlProof")],
        ("hll.py:_node", "ll.py:_ll_node"),
        "Each rule's conclusion is stated once, and only the factories hll._node and ll._ll_node "
        "make nodes from it; any other HllProof(...) or LlProof(...) states a conclusion of its own.", '''
LEAF = HllProof(HllRule.I, sequent)

def _node(rule, premises):
    return HllProof(rule, conclude(rule, premises), premises)

def shortcut(premise):
    def inner():
        return hll.HllProof(HllRule.LTENSOR, premise.conclusion, (premise,))
    return LlProof(LlRule.I, LlSequent((x,), x)), inner

FORMAT = ProofFormat(HllProof, HornSequent)
''', ["2:-:HllProof", "5:_node:HllProof", "9:inner:HllProof", "10:shortcut:LlProof"]),
    "encoding_owner": Rule(
        lambda tree: [
            f"{c.lineno}:{n}" for c, n, _ in calls(tree) if n in ("label_literal", "counter_literal", "killer_literal")
        ],
        ("encoding.py",),
        "MachineEncoding holds the instruction formulas, killer families, zero-test branch edges and "
        "goal; any other module naming the encoding's literals rebuilds one of those shapes.", '''
def goto(j):
    return SimpleProduct.of(label_literal(j))

def kill(m, i):
    return encoding.killer_literal(m), counter_literal(i)

def fine(enc, index):
    return enc.branches(index), enc.goal
''', ["3:label_literal", "6:killer_literal", "6:counter_literal"]),
    "grammar_owner": Rule(
        grammar_imports, ("syntax.py",),
        "The grammar lives in syntax.py and other layers read text through its public parsers; "
        "any other module importing the tokenizer or a _parse_* helper builds a grammar of its own.", '''
from .syntax import TokenStream, parse_member
from .syntax import (
    _parse_bare_product as bare,
    canonical_zone,
)
import hornlog.syntax.tokenize
from hornlog.syntax import _parse_formula_rest

def late():
    from .syntax import tokenize
''', ["2:TokenStream", "3:_parse_bare_product", "7:hornlog.syntax.tokenize", "8:_parse_formula_rest", "11:tokenize"]),
    "no_recursion": Rule(
        self_calls, (),
        "Proofs, programs and prover searches are as deep as the runs they describe, so a recursive "
        "walker fails at Python's recursion limit; use hll.walk, hll.fold or an explicit stack.", '''
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
''', ["2:size", "6:visit", "12:walk"]),
    "no_unused_imports": Rule(
        unused_imports, ("__init__.py",),
        "A deleted helper leaves its imports behind; __init__.py re-exports by design and "
        "__future__ imports are compiler switches, so neither counts.", '''
from __future__ import annotations

import json
import os.path
from typing import Iterable, Union
from .syntax import Printed as Base, formula_text

class Bang(Base):
    formula: Iterable

def dump(x):
    return json.dumps(x)
''', ["5:os", "6:Union", "7:formula_text"]),
    "split_owner": Rule(
        split_calls, ("syntax.py",),
        "A choice implication states its fork edges once, as OplusImplication.branches; any other "
        "PlainImplication(f.antecedent, ...) splits a choice by hand.", '''
def fork(f, residual):
    return [PlainImplication(f.antecedent, y) for y in (f.left, f.right)]

def moves(node):
    edge = syntax.PlainImplication(node.principal.antecedent, node.frame)
    return edge, PlainImplication(x, y), OplusImplication(f.antecedent, f.left, f.right)

def fine(f):
    return f.branches
''', ["3:fork", "6:moves"]),
}


@pytest.mark.parametrize("name", RULES)
def test_rule_finds_its_seeded_findings(name):
    rule = RULES[name]
    assert rule.find(ast.parse(rule.seed)) == rule.expected


@pytest.mark.parametrize("name", RULES)
def test_rule_holds_in_src(name):
    rule = RULES[name]
    found = [
        f"{path.name}:{finding}"
        for path in sorted(SRC.glob("*.py"))
        for finding in rule.find(ast.parse(path.read_text()))
        if path.name not in rule.owners and f"{path.name}:{finding.split(':')[1]}" not in rule.owners
    ]
    assert found == [], rule.reason

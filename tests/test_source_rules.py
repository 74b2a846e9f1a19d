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


def located(tree: ast.AST):
    """Every node below ``tree`` with the functions it sits in, outermost first."""
    stack = [(tree, ())]
    while stack:
        node, within = stack.pop()
        for child in ast.iter_child_nodes(node):
            yield child, within
            stack.append((child, within + (child,) if isinstance(child, FUNCTIONS) else within))


def calls(tree: ast.AST) -> list[tuple[ast.Call, str | None, tuple]]:
    """Every call in source order: (call, the bare name or last attribute it
    calls, the functions it sits in, outermost first)."""
    found = []
    for child, within in located(tree):
        if isinstance(child, ast.Call):
            func = child.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            found.append((child, name, within))
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


def antecedent_calls(cls: str):
    """A finder of ``cls(<expr>.antecedent, ...)`` calls, by line and enclosing function."""
    return lambda tree: [
        f"{c.lineno}:{where(within)}" for c, name, within in calls(tree)
        if name == cls and c.args and getattr(c.args[0], "attr", None) == "antecedent"
    ]


def node_calls(tree):
    """Calls that make a proof node: a node class, by name or through a proof
    format, and ``replace`` with a new conclusion; by line, the functions
    they sit in (dotted, outermost first) and the name called."""
    return [
        f"{c.lineno}:{'.'.join(fn.name for fn in within) or '-'}:{name}" for c, name, within in calls(tree)
        if name in ("HllProof", "LlProof", "node")
        or (name == "replace" and any(k.arg == "conclusion" for k in c.keywords))
    ]


def checked_writes(tree):
    """Writes of a proof node's ``checked`` mark, by line and the functions
    they sit in (dotted, outermost first): an assignment to ``.checked`` or
    to ``[...]["checked"]``, ``setattr`` or ``object.__setattr__`` on the
    name ``"checked"``, or a ``checked=`` keyword."""
    found = [
        (c, within) for c, name, within in calls(tree)
        if (name in ("setattr", "__setattr__") and len(c.args) > 1 and getattr(c.args[1], "value", None) == "checked")
        or any(k.arg == "checked" for k in c.keywords)
    ] + [
        (node, within) for node, within in located(tree)
        if isinstance(getattr(node, "ctx", None), ast.Store)
        and "checked" in (getattr(node, "attr", None), getattr(getattr(node, "slice", None), "value", None))
    ]
    return [f"{node.lineno}:{'.'.join(fn.name for fn in within) or '-'}"
            for node, within in sorted(found, key=lambda item: item[0].lineno)]


def self_calls(tree):
    """Functions whose body calls them by name: bare, or as a method of self or cls."""
    found = {}
    for c, name, within in calls(tree):
        target = c.func if isinstance(c.func, ast.Name) else getattr(c.func, "value", None)
        if isinstance(target, ast.Name) and (target is c.func or target.id in ("self", "cls")):
            found.update((fn.lineno, f"{fn.lineno}:{fn.name}") for fn in within if fn.name == name)
    return [found[line] for line in sorted(found)]


def debug_checks(tree):
    """``assert`` statements and reads of ``__debug__``, by line and the
    functions they sit in (dotted, outermost first)."""
    found = [
        (node, within) for node, within in located(tree)
        if isinstance(node, ast.Assert) or getattr(node, "id", None) == "__debug__"
    ]
    return [f"{node.lineno}:{'.'.join(fn.name for fn in within) or '-'}"
            for node, within in sorted(found, key=lambda item: (item[0].lineno, item[0].col_offset))]


def stated(node) -> str | None:
    """The name a ``Name``, an attribute's last part or a definition states."""
    return getattr(node, "id", getattr(node, "attr", getattr(node, "name", None)))


def member_equality(tree):
    """In the classes descending from ``Printed`` (by base name, within the
    source): a ``@dataclass`` without ``eq=False``, by line and class, and a
    definition of ``__eq__`` or ``__hash__``, by line and ``class.name``."""
    family, found = {"Printed"}, []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef) or (node.name != "Printed" and not {*map(stated, node.bases)} & family):
            continue
        family.add(node.name)
        found += [
            (deco.lineno, node.name) for deco in node.decorator_list
            if stated(getattr(deco, "func", deco)) == "dataclass"
            and not any(k.arg == "eq" and getattr(k.value, "value", None) is False for k in getattr(deco, "keywords", ()))
        ]
        for item in node.body:
            for target in [item] if isinstance(item, FUNCTIONS) else getattr(item, "targets", []):
                if stated(target) in ("__eq__", "__hash__"):
                    found.append((item.lineno, f"{node.name}.{stated(target)}"))
    return [f"{line}:{name}" for line, name in sorted(found)]


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
        node_calls,
        ("hll.py:draw", "ll.py:specialize.combine"),
        "Each rule's conclusion is stated once, and only the one factory hll.draw makes a node of "
        "either calculus from it, ll.specialize alone rewriting conclusions it has checked; any other "
        "HllProof(...), LlProof(...), form.node(...) or replace(..., conclusion=...) states a "
        "conclusion of its own.", '''
LEAF = HllProof(HllRule.I, sequent)

def draw(form, rule, premises, *values):
    return form.node(rule, form.conclude(rule, premises, *values), premises, *values)

def shortcut(premise):
    def inner():
        return hll.HllProof(HllRule.LTENSOR, premise.conclusion, (premise,))
    return LlProof(LlRule.I, LlSequent((x,), x)), inner

FORMAT = ProofFormat(HllProof, HornSequent)

def read(form, rule, parts, below):
    return form.node(rule, form.sequent(*parts), below), draw(form, rule, below)

def rewrite(node, rest):
    return replace(node, conclusion=rest), replace(node, premises=()), dataclasses.replace(node, conclusion=rest)
''', ["2:-:HllProof", "5:draw:node", "9:shortcut.inner:HllProof", "10:shortcut:LlProof",
      "15:read:node", "18:rewrite:replace", "18:rewrite:replace"]),
    "checked_owner": Rule(
        checked_writes, ("hll.py:draw",),
        "check_tree skips a node marked checked, so only the one factory hll.draw, which draws a "
        "node of either calculus exactly as check_tree does and marks it only over checked premises, "
        "may set the mark; a mark set anywhere else vouches for a node nobody checked.", '''
class HllProof:
    checked: bool = field(default=False, init=False)

def draw(form, rule, premises, *values):
    node = form.node(rule, form.conclude(rule, premises, *values), premises, *values)
    object.__setattr__(node, "checked", all(p.checked for p in premises))
    return node

def trust(node):
    node.checked = True
    node.__dict__["checked"] = True
    def inner():
        setattr(node, "checked", True)
    return replace(node, checked=True), vars(node).update(checked=True), inner

def fine(node):
    return node.checked, node.premises[0].checked, getattr(node, "checked"), walk(node, lambda n: n.checked)
''', ["7:draw", "11:trust", "12:trust", "14:trust.inner", "15:trust", "15:trust"]),
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
    return enc.edges[index], enc.goal
''', ["3:label_literal", "6:killer_literal", "6:counter_literal"]),
    "halting_owner": Rule(
        lambda tree: [
            f"{c.lineno}:{where(within)}" for c, name, within in calls(tree) if name == "halting_configuration"
        ],
        ("minsky.py",),
        "A halting run is judged once, by minsky.validate_halting_run: a run of the machine that ends "
        "at the halting configuration; any other module comparing with halting_configuration() states "
        "that judgment again and can drift from it.", '''
def search(machine, init):
    target = machine.halting_configuration()

def computation_to_program(enc, run):
    if run.configs[-1] != enc.machine.halting_configuration():
        raise ValueError(run)

def gate(machine, run):
    def inner():
        return minsky.halting_configuration, HALT_LABEL
    return validate_halting_run(machine, run), inner
''', ["3:search", "6:computation_to_program"]),
    "zone_owner": Rule(
        lambda tree: [f"{c.lineno}:{where(within)}" for c, name, within in calls(tree) if name == "canonical_zone"],
        ("syntax.py", "ll.py:__post_init__"),
        "A canonical zone grows through syntax.zone_insert and syntax.zone_merge and shrinks through "
        "multiset_minus, each linear in the zone; canonical_zone sorts it whole, which only unsorted input, "
        "a sequent built from outside, needs.", '''
def _conclude(p, f):
    return canonical_zone(p.linear + (f,)), syntax.canonical_zone(p.banged + p.banged)

class LlSequent:
    def __post_init__(self):
        object.__setattr__(self, "context", canonical_zone(self.context))

def fine(p, q, f):
    return zone_insert(p.linear, f), zone_merge(p.banged, q.banged), canonical_zone
''', ["3:_conclude", "3:_conclude", "7:__post_init__"]),
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
    "no_debug_checks": Rule(
        debug_checks, (),
        "python -O strips assert statements and sets __debug__ to False, so a check written with "
        "either vanishes there and a wrong result goes out as a right one; raise AssertionError(...) "
        "or another error explicitly.", '''
def check(report):
    assert report.ok, report
    if not report.ok:
        raise AssertionError(report)

class Prover:
    def prove(self):
        def inner():
            assert False
        return inner, isinstance(self, AssertionError)

assert __debug__
if __debug__ and check(None):
    pass
''', ["3:check", "10:prove.inner", "13:-", "13:-", "14:-"]),
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
        antecedent_calls("PlainImplication"), ("syntax.py",),
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
    "joint_owner": Rule(
        antecedent_calls("OplusImplication"), ("programs.py:build",),
        "HornProgram.build states what a divergent pair charges once, as the joint choice in "
        "HornProgram.charges; any other OplusImplication(f.antecedent, ...) rebuilds it from the pair.", '''
def used_formula(self, parent, child):
    (_, f1), (_, f2) = self.children[parent]
    return OplusImplication(f1.antecedent, f1.consequent, f2.consequent)

def build(root, edges):
    joint = syntax.OplusImplication(f1.antecedent, f1.consequent, f2.consequent)

def fine(program, v, l_i, l_j, k_m, f):
    return program.charges[v], OplusImplication(l_i, l_j, k_m), PlainImplication(f.antecedent, f.left)
''', ["4:used_formula", "7:build"]),
    "trusted_owner": Rule(
        lambda tree: [f"{c.lineno}:{where(within)}" for c, name, within in calls(tree) if name == "_trusted"],
        ("syntax.py", "minsky.py:_step"),
        "A _trusted constructor skips its class's checks, so only the module that defines the class may "
        "call it, where the values are known good: syntax.py for frames and products, minsky._step for the "
        "configurations a move makes; a call anywhere else vouches for a value nobody checked.", '''
def tensor(self, other):
    return SimpleProduct._trusted(merge(self.entries, other.entries))

def _step(instruction, config):
    return Configuration._trusted(instruction.target, config.counters)

def start(counters):
    def inner():
        return syntax.Frame._trusted(())
    return minsky.Configuration._trusted(1, counters), inner

def fine(config, frame):
    return Configuration(1, (0,)), Frame.of("a"), trusted(frame), frame._trusted
''', ["3:tensor", "6:_step", "10:inner", "11:start"]),
    "member_equality": Rule(
        member_equality,
        ("syntax.py:Printed.__eq__", "syntax.py:Printed.__hash__", "syntax.py:Frame.__eq__", "syntax.py:Frame.__hash__"),
        "A member is equal to another exactly when both are of one kind and print alike, as Printed states "
        "once; a frame, possibly empty, compares its entries.  A dataclass member without eq=False, or an "
        "__eq__ or __hash__ of its own, compares fields instead and can drift from its printed text.", '''
class Printed:
    def __eq__(self, other):
        return type(self) is type(other) and self.text == other.text

@dataclass(frozen=True)
class Implication(Printed):
    antecedent: SimpleProduct

@dataclasses.dataclass(frozen=True, eq=False)
class Bang(syntax.Printed):
    __hash__ = object.__hash__

@dataclass
class Tagged(Bang):
    def __eq__(self, other):
        return self.tag == other.tag

@dataclass(frozen=True, eq=True)
class Sequent:
    def __hash__(self):
        return 0

@dataclass(frozen=True, eq=False)
class Fine(Implication):
    text: str
''', ["3:Printed.__eq__", "6:Implication", "12:Bang.__hash__", "14:Tagged", "16:Tagged.__eq__"]),
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

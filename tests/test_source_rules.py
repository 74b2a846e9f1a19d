"""Where ``src/hornlog`` may state a fact.  Each rule finds one kind of import
or call and names its owners: modules, or ``module:function`` pairs matched
against a finding's second field; a finding anywhere else fails with the
rule's reason.  Each rule also runs on a seeded source with known findings."""

import ast
import re
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
    format, called or given to a ``__new__``, and ``replace`` with a new
    conclusion or new premises; by line, the functions they sit in (dotted,
    outermost first) and the name called."""
    node_class = ("HllProof", "LlProof", "node")
    return [
        f"{c.lineno}:{'.'.join(fn.name for fn in within) or '-'}:{name}" for c, name, within in calls(tree)
        if name in node_class
        or (name == "__new__" and any(stated(n) in node_class for n in (getattr(c.func, "value", None), *c.args[:1])))
        or (name == "replace" and any(k.arg in ("conclusion", "premises") for k in c.keywords))
    ]


def checked_writes(tree):
    """Writes of a proof node's ``checked`` mark, by line and the functions
    they sit in (dotted, outermost first): an assignment to ``.checked`` or
    to ``[...]["checked"]``, ``setattr`` or ``object.__setattr__`` on the
    name ``"checked"``, a ``checked=`` keyword, or a method of a ``__dict__``
    or ``vars(...)`` called with the name ``"checked"`` anywhere in its arguments."""
    found = [
        (c, within) for c, name, within in calls(tree)
        if (name in ("setattr", "__setattr__") and len(c.args) > 1 and getattr(c.args[1], "value", None) == "checked")
        or any(k.arg == "checked" for k in c.keywords)
        or (stated(getattr(c.func, "value", None)) == "__dict__"
            or stated(getattr(getattr(c.func, "value", None), "func", None)) == "vars")
        and any(getattr(n, "value", None) == "checked" for arg in c.args for n in ast.walk(arg))
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


def generated_classes(tree):
    """Imports of ``dataclasses``, by line, and ``@dataclass`` decorators,
    bare, called or read from a module, by line and class."""
    found = [(line, name) for line, module, name, _ in imports(tree)
             if (module or "").split(".")[0] == "dataclasses"]
    found += [(deco.lineno, node.name) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
              for deco in node.decorator_list if stated(getattr(deco, "func", deco)) == "dataclass"]
    return [f"{line}:{name}" for line, name in sorted(found)]


def match_args_bindings(tree):
    """Statements of a class body that bind ``__match_args__`` (an assignment,
    annotated or augmented, or one of a tuple's targets), by line and class."""
    found = [
        (item.lineno, node.name) for node in ast.walk(tree) if isinstance(node, ast.ClassDef) for item in node.body
        if any(getattr(n, "id", None) == "__match_args__" and isinstance(n.ctx, ast.Store)
               for target in getattr(item, "targets", [getattr(item, "target", None)]) if target
               for n in ast.walk(target) if isinstance(n, ast.Name))
    ]
    return [f"{line}:{name}" for line, name in sorted(found)]


def slow_lookups(tree):
    """Attribute reads on ``HllRule`` or ``LlRule`` inside a function, by
    line and the function they sit in, and each import or attribute read of
    ``functools.cached_property``, by line."""
    found = [
        (node.lineno, where(within)) for node, within in located(tree)
        if within and isinstance(node, ast.Attribute) and stated(node.value) in ("HllRule", "LlRule")
    ] + [(line, "cached_property") for line, module, name, _ in imports(tree)
         if (module, name) == ("functools", "cached_property")] + [
        (node.lineno, "cached_property") for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "cached_property" and stated(node.value) == "functools"
    ]
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
        ("hll.py:draw",),
        "Each rule's conclusion is stated once, and only the one factory hll.draw makes a node of "
        "either calculus from it; any other HllProof(...), LlProof(...), form.node(...), "
        "object.__new__(form.node) or "
        "replace(..., conclusion=...) states a conclusion of its own, and replace(..., premises=...) "
        "keeps one its new premises may not draw.", '''
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

def fill(form, rule, cls):
    blank = object.__new__(form.node)
    return blank, hll.HllProof.__new__(LlProof), object.__new__(cls), Frame.__new__(cls)
''', ["2:-:HllProof", "5:draw:node", "9:shortcut.inner:HllProof", "10:shortcut:LlProof",
      "15:read:node", "18:rewrite:replace", "18:rewrite:replace", "18:rewrite:replace",
      "21:fill:__new__", "22:fill:__new__"]),
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

def fill(node, names, values):
    node.__dict__.update({"rule": None, "checked": True})
    vars(node).setdefault("checked", True)
    node.__dict__.update(zip((*names, "checked"), values)), node.__dict__.update(zip(names, values))
''', ["7:draw", "11:trust", "12:trust", "14:trust.inner", "15:trust", "15:trust", "21:fill", "22:fill", "23:fill"]),
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
        ("syntax.py", "ll.py:__init__"),
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
    "no_generated_code": Rule(
        generated_classes, (),
        "dataclasses compiles each class's methods through exec at every import, and imports inspect, "
        "which every command pays for before it reads its input; a value class derives from syntax.Value, "
        "whose methods read one field tuple per class.", '''
import dataclasses
from dataclasses import dataclass, field
import os, dataclasses as dc
from .dataclasses import record
from .syntax import Value

@dataclass(frozen=True)
class Point:
    x: int

@dc.dataclass
class Pair(Value):
    __match_args__ = ("left",)

@record
class Fine(Value):
    def late(self):
        from dataclasses import replace
        return replace(self)
''', ["2:dataclasses", "3:dataclass", "3:field", "4:dataclasses", "8:Point", "12:Pair", "19:replace"]),
    "slow_lookup": Rule(
        slow_lookups, (),
        "In Python 3.11 the enum metaclass's __getattr__ sends every attribute read on HllRule or LlRule "
        "through the slow getattr hook, and functools.cached_property takes a lock on every first access; "
        "code run once per node names a rule by the module-level name bound next to its enum, or a table "
        "built at import, and computes a value once through syntax.lazy.", '''
from functools import cached_property, partial
import functools, enum

RULES = {HllRule.I: 0, ll.LlRule.LOPLUS: 1, I: 2}

def conclude(rule):
    if rule is HllRule.I or rule in (LlRule.LIMP, hll.HllRule.CUT):
        return [r for r in HllRule], rule is I, rule.value
    def inner():
        return HllRule.__members__

class Proof:
    @functools.cached_property
    def text(self):
        return RULES[self.rule], self.rule is LOPLUS, functools.partial
''', ["2:cached_property", "8:conclude", "8:conclude", "8:conclude", "11:inner", "14:cached_property"]),
    "fields_from_annotations": Rule(
        match_args_bindings, ("syntax.py:Value",),
        "A value class's fields are the names its class body annotates, which Value.__init_subclass__ reads "
        "into __match_args__ for the constructor, equality, hash and repr; a class body that states "
        "__match_args__ as well lists its fields a second time, which can drift from the annotations.  "
        "Value itself states the empty list a class without fields inherits.", '''
class Point(Value):
    __match_args__ = ("x", "y")
    x: int
    y: int

class Pair(syntax.Value):
    __match_args__: tuple[str, ...] = ("left", "right")
    left, __match_args__ = 1, ("left",)

class Outer:
    class Inner(Value):
        __match_args__ += ("z",)

    def fine(self):
        __match_args__ = ()
        return self.__match_args__, {self.__match_args__: 1}

class Fine(Value):
    x: int
    y: int = 0
    names = Point.__match_args__

def subclass(cls, own):
    cls.__match_args__ = tuple(own)
''', ["3:Point", "8:Pair", "9:Pair", "13:Inner"]),
}


@pytest.mark.parametrize("name", RULES)
def test_rule_finds_its_seeded_findings(name):
    rule = RULES[name]
    assert rule.find(ast.parse(rule.seed)) == rule.expected


def oldest_python() -> tuple[int, int]:
    """The oldest interpreter ``pyproject.toml`` admits, as ``requires-python = ">=3.N"`` states it."""
    pyproject = (SRC.parents[1] / "pyproject.toml").read_text()
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.M).groups()
    return int(major), int(minor)


def test_src_parses_with_the_oldest_supported_grammar():
    """CI runs one later interpreter, whose parser takes newer forms too; ``feature_version``
    refuses some of them (``except*`` among them, though not every one), as the seed shows."""
    assert oldest_python() == (3, 10)
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=oldest_python())
    ast.parse("match x:\n    case 1:\n        pass\n", feature_version=oldest_python())
    for path in sorted(SRC.glob("*.py")):
        ast.parse(path.read_text(), filename=path.name, feature_version=oldest_python())


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


# --- The kernel --------------------------------------------------------------
#
# Every verdict hornlog gives rests on these functions, and on nothing that
# produces what they judge: the LCF-style kernel of the two proof calculi,
# with hll.draw the only maker and marker of a node (node_owner and
# checked_owner above), the zone helpers their conclusions use, the program
# verifier and the run validator.
KERNEL = (
    "hll.py:gate", "hll.py:draw", "hll.py:check_tree", "hll.py:_conclude",
    "ll.py:_ll_conclude", "ll.py:_tag_clash",
    "syntax.py:multiset_minus", "syntax.py:zone_insert", "syntax.py:zone_merge",
    "programs.py:verify_strong_solution", "programs.py:evaluate",
    "minsky.py:validate_computation", "minsky.py:validate_halting_run",
)
# What makes the objects the kernel judges; a module name stands for all of it.
PRODUCERS = (
    "programs.py:prove_bounded", "programs.py:ProgramBuilder.unfold", "minsky.py:search_halting",
    "ll.py:push_oplus_down", "ll.py:specialize", "ll.py:_resolve", "ll.py:_translate", "bridge.py",
    "encoding.py",
)


def index(modules: dict[str, ast.Module]):
    """The definitions of the modules (``module:name``, ``module:Class.name``
    for a method, ``module:Class`` for a class, or a module-level name bound
    by assignment), each with the code it runs and its class, if a method; the
    classes, each to the names of its bases; and ``resolve(module, cls, node,
    called)``, the definitions a name or attribute read in a module may be.  A
    bare name resolves within its module or through a relative import; ``mod.f``
    through an imported module; ``C.m``, ``self.m`` and ``cls.m`` to the method
    the class defines or inherits, ``super().m`` to its bases'; a class to
    itself and its constructor methods; a module-level name read as ``x.m`` to
    itself; any other ``x.m(...)`` to every method named ``m``.  A class runs
    its class-level statements: annotations, assignments, decorators."""
    bodies, methods, classes = {}, {}, {}
    names = {}  # (module, bare name) to a set of definitions, a module, or the (module, name) it imports
    for module, tree in modules.items():
        for top in tree.body:
            if isinstance(top, ast.ClassDef):
                ident = f"{module}:{top.name}"
                names[module, top.name], classes[ident] = {ident}, [stated(base) for base in top.bases]
                own = [s for s in top.body if not isinstance(s, FUNCTIONS)]
                bodies[ident] = ast.Module(own + [ast.Expr(d) for d in top.decorator_list], []), ident
                for fn in top.body:
                    if isinstance(fn, FUNCTIONS):
                        bodies[f"{ident}.{fn.name}"] = fn, ident
                        methods.setdefault(fn.name, set()).add(f"{ident}.{fn.name}")
                continue
            if isinstance(top, FUNCTIONS):
                bound = [top.name]
            else:  # a module-level assignment binds its names to its value
                bound = [t.id for t in getattr(top, "targets", [getattr(top, "target", None)]) if isinstance(t, ast.Name)]
            for name in bound:
                bodies[f"{module}:{name}"], names[module, name] = (top, None), {f"{module}:{name}"}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                for a in node.names:
                    names[module, a.asname or a.name] = (f"{node.module}.py", a.name) if node.module else f"{a.name}.py"

    def lookup(module, name):
        found = names.get((module, name))
        while isinstance(found, tuple):
            found = names.get(found)
        return found

    def lineage(cls):  # a class and its bases within the modules, nearest first
        line = [cls]
        for c in line:
            module = c.split(":")[0]
            line += [b for base in classes[c] for b in (lookup(module, base) or ()) if b in classes and b not in line]
        return line

    def members(owners, *wanted):  # the methods of those names each owner defines or inherits
        return {next((f"{c}.{name}" for c in lineage(owner) if f"{c}.{name}" in bodies), None)
                for owner in owners for name in wanted} - {None}

    def resolve(module, cls, node, called):
        if isinstance(node, ast.Name):
            found = lookup(module, node.id)
            found = found if isinstance(found, set) else set()
            return found | members(found & classes.keys(), "__init__", "__new__", "__post_init__")
        if not isinstance(node, ast.Attribute):
            return set()
        base = node.value
        if isinstance(base, ast.Call) and stated(base.func) == "super":
            return members(lineage(cls)[1:], node.attr) if cls else set()
        found = lookup(module, base.id) if isinstance(base, ast.Name) else None
        if isinstance(found, str):  # a module
            return resolve(found, None, ast.Name(node.attr), called)
        if isinstance(base, ast.Name) and base.id in ("self", "cls") and cls:
            found = {cls}
        if found:
            return (found - classes.keys()) | members(found & classes.keys(), node.attr)
        return methods.get(node.attr, set()) if called else set()

    return bodies, classes, resolve


def call_graph(modules: dict[str, ast.Module]) -> dict[str, set[str]]:
    """Each definition of the modules (see ``index``) to those it may call or
    hand on.  A nested function is its outermost definition's body.  Calls
    made implicitly, by an operator or a property, are not followed."""
    bodies, classes, resolve = index(modules)
    graph = {}
    for ident, (top, cls) in bodies.items():
        module, graph[ident] = ident.split(":")[0], set()
        bases = {id(node.value) for node in ast.walk(top) if isinstance(node, ast.Attribute)}
        for node in ast.walk(top):
            if id(node) in bases:  # resolved with its attribute
                continue
            if isinstance(node, ast.Call):
                graph[ident] |= resolve(module, cls, node.func, True)
            elif isinstance(getattr(node, "ctx", None), ast.Load):
                graph[ident] |= resolve(module, cls, node, False)
        if ident in classes:  # its bases, as classes, not as constructors called
            for base in classes[ident]:
                graph[ident] |= resolve(module, None, ast.Name(base), False) & classes.keys()
        graph[ident].discard(ident)
    return graph


def producer_paths(modules: dict[str, ast.Module], kernel=KERNEL, producers=PRODUCERS) -> list[str]:
    """Per kernel member that reaches a producer, the first call path to
    one, breadth first; or the member itself if no module defines it."""
    graph, found = call_graph(modules), []
    for start in kernel:
        if start not in graph:
            found.append(f"{start} undefined")
            continue
        parent, queue = {start: None}, [start]
        for ident in queue:
            if ident in producers or ident.split(":")[0] in producers:
                path = [ident]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                found.append(" -> ".join(reversed(path)))
                break
            for callee in sorted(graph[ident] - parent.keys()):
                parent[callee] = ident
                queue.append(callee)
    return found


KERNEL_SEED = {
    "check.py": '''
from . import build
from .build import grow as grown, Tree

class Failure(ValueError):
    def __init__(self, message):
        super().__init__(message)

class Leaf(Tree):
    def __init__(self, root):
        super().__init__(root)

def judge(proof):
    return walk(proof), build.size(proof)

def walk(proof):
    return [grown(p) for p in proof]

def mark(node):
    return node.unfold()

def fine(tree):
    if not tree:
        raise Failure("empty")
    return tree.goal, Tree.height(tree), build.unfold

def leaf(root):
    return Leaf(root)

FACTORY = lambda node: build.prove(node)

def bound(node):
    return FACTORY(node)
''',
    "build.py": '''
from .encode import normal

def grow(p):
    return prove(p)

def size(p):
    return p.height()

def prove(p):
    return p

def unfold(p):
    return p

class Tree:
    def __init__(self, root):
        self.root = normal(root)

    def height(self):
        return self.root

    def unfold(self):
        return self.height()

    @property
    def goal(self):
        return prove(self)
''',
    "encode.py": '''
def normal(x):
    return x
''',
}
KERNEL_SEED_FINDINGS = [
    "check.py:judge -> check.py:walk -> build.py:grow -> build.py:prove",
    "check.py:mark -> build.py:Tree.unfold",
    "check.py:leaf -> check.py:Leaf.__init__ -> build.py:Tree.__init__ -> encode.py:normal",
    "check.py:bound -> check.py:FACTORY -> build.py:prove",
    "check.py:absent undefined",
]


def test_kernel_independence_finds_its_seeded_findings():
    modules = {name: ast.parse(source) for name, source in KERNEL_SEED.items()}
    kernel = ("check.py:judge", "check.py:mark", "check.py:fine", "check.py:leaf", "check.py:bound", "check.py:absent")
    assert producer_paths(modules, kernel, ("build.py:prove", "build.py:Tree.unfold", "encode.py")) \
        == KERNEL_SEED_FINDINGS


def test_kernel_reaches_no_producer_in_src():
    modules = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert producer_paths(modules) == [], (
        "A checker that calls what makes the objects it judges shares that code's faults, so it "
        "could pass them; the kernel's static call closure must not reach a producer.")


def test_readme_states_the_kernel():
    """The README names each kernel member and the lines their definitions span."""
    modules = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    spans = {f"{module}:{top.name}": top.end_lineno - top.lineno + 1
             for module, tree in modules.items() for top in tree.body if isinstance(top, FUNCTIONS)}
    readme = (SRC.parents[1] / "README.md").read_text(encoding="utf-8")
    section = " ".join(readme.split("\n## The kernel\n", 1)[1].split("\n## ", 1)[0].split())
    assert f"{len(KERNEL)} functions, {sum(spans[ident] for ident in KERNEL)} lines of `src/`" in section
    assert [ident for ident in KERNEL if f"`{ident.replace('.py:', '.')}`" not in section] == []


# --- Reachability ------------------------------------------------------------
#
# src/ holds only what a command, a checker or the bench reaches: every
# definition is reached from cli.main, from a name perfbench/ reads, or from
# a LIBRARY entry, which states on its line why it stays without a caller.
BENCH = SRC.parents[1] / "perfbench"
LIBRARY = {
    "syntax.py:parse_product": "a public reader: the text of one product",
    "syntax.py:parse_formula": "a public reader: the text of one implication",
    "syntax.py:parse_member": "a public reader: the text of any one zone member",
    "ll.py:ll_cbang": "the ninth flat builder, for the theorem's converse (ROADMAP item 2)",
}


def dotted(node) -> str | None:
    """``a.b.c`` for a chain of attributes on a name; None for any other node."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def bench_reads(modules: dict[str, ast.Module], tracer: str, workloads: str) -> dict[str, set[str]]:
    """Each ``hornlog`` name the bench reads (``module.py:path``) to the
    definitions of ``modules`` it resolves to: the functions the tracer's
    ``WRAPPED`` names, and every longest attribute chain the workloads read
    from a hornlog import (``ll.ll_i``, ``hornlog.MachineEncoding.build``,
    ``SimpleProduct.of``)."""
    wrapped = next(node.value for node in ast.parse(tracer).body
                   if isinstance(node, ast.Assign) and stated(node.targets[0]) == "WRAPPED")
    reads = [(f"{module}.py", path) for module, path in ast.literal_eval(wrapped)]
    tree = ast.parse(workloads)
    heads = {}  # a name the workloads bind to a hornlog module, or to a name in one
    for _, module, name, bound in imports(tree):
        if (module or "").split(".")[0] != "hornlog":
            continue
        home = f"{module.partition('.')[2] or '__init__'}.py"
        if name == module:  # import hornlog
            heads[bound] = (home, None)
        elif home == "__init__.py" and f"{name}.py" in modules:  # from hornlog import ll
            heads[bound] = (f"{name}.py", None)
        else:  # from hornlog[.syntax] import name
            heads[bound] = (home, name)
    inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    for node in ast.walk(tree):
        head, _, rest = ((dotted(node) if id(node) not in inner else None) or "").partition(".")
        if head in heads:
            module, name = heads[head]
            path = ".".join(part for part in (name, rest) if part)
            if path:
                reads.append((module, path))
    _, _, resolve = index(modules)
    return {f"{module}:{path}": resolve(module, None, ast.parse(path, mode="eval").body, False)
            for module, path in sorted(set(reads))}


def unreached(modules: dict[str, ast.Module], roots) -> list[str]:
    """Each root no module defines (``<root> undefined``), then every
    definition of the modules that no root reaches.  Every dunder, property
    and ``lazy`` attribute is a root too: the graph does not follow the
    implicit calls that run them."""
    graph, (bodies, _, _) = call_graph(modules), index(modules)
    implicit = [
        ident for ident, (top, _) in bodies.items()
        if ident.split(":")[1].split(".")[-1][:2] == ident[-2:] == "__"
        or {*map(stated, getattr(top, "decorator_list", ()))} & {"property", "lazy"}
    ]
    found = [f"{root} undefined" for root in roots if root not in graph]
    reached = {root for root in (*roots, *implicit) if root in graph}
    queue = list(reached)
    for ident in queue:
        queue += sorted(graph[ident] - reached)
        reached |= graph[ident]
    return found + sorted(graph.keys() - reached)


def src_modules() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def bench_reads_of_src() -> dict[str, set[str]]:
    return bench_reads(src_modules(), (BENCH / "tracer.py").read_text(), (BENCH / "workloads.py").read_text())


def test_every_name_the_bench_reads_resolves_in_src():
    assert [name for name, found in bench_reads_of_src().items() if not found] == [], (
        "The bench wraps and calls these names; a function deleted from src/ while the bench "
        "still names it fails the bench run.")


def test_src_holds_only_what_a_command_a_checker_or_the_bench_reaches():
    roots = ["cli.py:main", *LIBRARY, *(ident for found in bench_reads_of_src().values() for ident in found)]
    assert unreached(src_modules(), roots) == [], (
        "A definition no command, checker or bench run reaches is dead code; delete it, or list it "
        "in LIBRARY with the reason it stays.")


def test_no_command_runs_the_reference_normalizer_or_the_program_composers():
    """``push_oplus_down`` is the reference the translation's fold is tested
    against, and ``compose`` and ``strong_fork`` are kept for the bench; a
    command that comes to run one of them must revisit its form."""
    unreached_from_cli = unreached(src_modules(), ["cli.py:main"])
    reached = [ident for ident in ("ll.py:push_oplus_down", "ll.py:specialize", "ll.py:unadjacent_choice_paths",
                                   "programs.py:compose", "programs.py:strong_fork")
               if ident not in unreached_from_cli]
    assert reached == []


REACH_SEED = {
    "__init__.py": '''
from .shapes import Shape, grow
''',
    "cli.py": '''
import re
from .shapes import Shape

_NAME_RE = re.compile(r"[a-z]+")

def main(argv):
    return [Shape(a).area for a in argv if _NAME_RE.match(a)]

def unused(argv):
    return main(argv)
''',
    "shapes.py": '''
Side = tuple[int, int]

class Shape:
    sides: Side

    def __init__(self, text):
        self.text = text

    @property
    def area(self):
        return self._measure()

    def _measure(self):
        return len(self.text)

    def __repr__(self):
        return quoted(self.text)

    def scale(self):
        return Shape(self.text * 2)

def quoted(text):
    return repr(text)

def grow(shape):
    return shape.scale()

def shrink(shape):
    return shape
''',
}
REACH_SEED_TRACER = 'WRAPPED = (("shapes", "shrink"), ("shapes", "Shape.gone"))\n'
REACH_SEED_WORKLOADS = '''
import hornlog
from hornlog import shapes
from hornlog.shapes import Shape

def op(text):
    return hornlog.grow(Shape(text)), shapes.Shape.area
'''


def test_reachability_finds_its_seeded_findings():
    modules = {name: ast.parse(source) for name, source in REACH_SEED.items()}
    reads = bench_reads(modules, REACH_SEED_TRACER, REACH_SEED_WORKLOADS)
    assert reads == {
        "__init__.py:grow": {"shapes.py:grow"},
        "shapes.py:Shape": {"shapes.py:Shape", "shapes.py:Shape.__init__"},
        "shapes.py:Shape.area": {"shapes.py:Shape.area"},
        "shapes.py:Shape.gone": set(),
        "shapes.py:shrink": {"shapes.py:shrink"},
    }
    # A dead function and a LIBRARY entry naming nothing are found; a method
    # reached only through a property, a function reached only through a
    # dunder, a constant used only as _NAME_RE.match and an alias used only in
    # a class-level annotation are not.
    assert unreached(modules, ["cli.py:main", "shapes.py:gone"]) == [
        "shapes.py:gone undefined", "cli.py:unused", "shapes.py:Shape.scale", "shapes.py:grow", "shapes.py:shrink"]
    roots = ["cli.py:main", *(ident for found in reads.values() for ident in found)]
    assert unreached(modules, roots) == ["cli.py:unused"]

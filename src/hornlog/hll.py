"""The zoned sequent calculus for Horn sequents, its checker, and the
compiler from checked derivations to tree-like Horn programs.

Nine rules: two axioms (identity and a single implication step), a regrouping
no-op, a frame rule that tensors the same product onto input and goal, the
two-premise choice rule, the three bang rules, and cut.  A node is fixed by
its inference: rule, premises, principal (an axiom's too: the product of
``I``, the implication of ``H``) and rule parameter.  Each rule's conclusion
is stated once, in ``_conclude``.  One factory, ``draw``, makes every node of
either calculus, for the builders, the normalizer and the proof-file reader
alike, writing its fields and ``checked`` mark in one step, so a proof is
checked once, when built; ``check_tree`` trusts the mark, redrawing the rest.

The compiler spells its program out with ``ProgramBuilder.unfold``, as the
prover does its witnesses, so vertices are numbered in preorder.  A key is
the list of proofs still to be emitted: a single-step axiom gives one edge,
the choice rule its two, a cut queues its first premise and then its second,
an identity axiom gives nothing, and every other rule passes to its premise.
Both calculi's proofs are traversed only by ``walk`` and ``fold`` here, so
depth never meets the recursion limit.

Both calculi's proof files are one flat table of inferences under the
end-sequent, read and written here by one codec that each calculus
configures with a ``ProofFormat``.  Each field names the kind of member it
holds, not a parser: one ``syntax.member_parser`` per table parses each text,
and each distinct product text, once, checked once against each kind citing
it; an error's text is built only when raised.  The format says which rules
take each rule parameter, rejected on any other; an omitted frame is empty.
"""

from __future__ import annotations

import json
from enum import Enum
from functools import partial
from operator import attrgetter
from typing import Callable

from .programs import HornProgram, ProgramBuilder, json_document
from .syntax import (
    FormatError,
    Frame,
    HornFormula,
    HornSequent,
    Member,
    OplusImplication,
    PlainImplication,
    SimpleProduct,
    Value,
    lazy,
    multiset_minus,
    member_parser,
    of_kind,
    zone_insert,
    zone_merge,
)


class Rule(Enum):
    """An inference rule of either calculus.  Rules are compared by identity,
    as every enum member is, and hash by it too: ``Enum.__hash__`` runs in
    Python, and every node built looks its rule up.  Per-node code names a rule
    by the module name bound next to its enum: in Python 3.11 ``HllRule.X``
    takes the enum metaclass's ``__getattr__`` hook, ten times a global read."""

    __hash__ = object.__hash__


class HllRule(Rule):
    I = "I"
    LTENSOR = "LTENSOR"
    H = "H"
    M = "M"
    OPLUS_H = "OPLUS_H"
    LBANG = "LBANG"
    WBANG = "WBANG"
    CBANG = "CBANG"
    CUT = "CUT"


I, LTENSOR, H, M, OPLUS_H, LBANG, WBANG, CBANG, CUT = HllRule  # the members, bound once

# Each rule's premise count and its principal's kind (None: it has none).
_RULES = {
    I: (0, SimpleProduct), H: (0, PlainImplication), LTENSOR: (1, None), M: (1, None), LBANG: (1, HornFormula),
    WBANG: (1, HornFormula), CBANG: (1, HornFormula), OPLUS_H: (2, OplusImplication), CUT: (2, None),
}


class HllProof(Value):
    rule: HllRule
    conclusion: HornSequent
    premises: tuple[HllProof, ...] = ()
    principal: Member | None = None  # I (a product), H, OPLUS_H, LBANG, WBANG, CBANG
    frame: Frame | None = None  # M (a SimpleProduct), OPLUS_H (maybe empty)
    checked = False  # not a field; set by draw alone


class CheckFailure(Value):
    path: tuple[int, ...]  # premise indices from the root
    rule: str
    reason: str

    def __str__(self) -> str:
        where = "root" if not self.path else ".".join(str(i) for i in self.path)
        return f"{self.rule} at {where}: {self.reason}"


class CheckResult(Value):
    ok: bool
    failure: CheckFailure | None = None

    def __str__(self) -> str:
        return "valid" if self.ok else str(self.failure)


class InvalidProof(ValueError):
    """An inference that draws no conclusion, and its row if read from a proof file."""

    def __init__(self, rule: str, reason: str, row: int | None = None):
        self.reason = reason
        super().__init__(f"{rule}: {reason}" if row is None else f"{rule} at node {row}: {reason}")


def _conclude(rule: HllRule, premises: tuple, principal, frame) -> HornSequent | str:
    """The conclusion ``rule`` draws from its premises, or the side condition
    that fails.  Premise zones are canonical, and stay so through the zone
    helpers: a member is removed or inserted by bisection, two zones merged."""
    f, sequent = principal, HornSequent.of_canonical
    if rule is I:
        return sequent(f, (), (), f)
    if rule is H:
        return sequent(f.antecedent, (f,), (), f.consequent)
    p = premises[0].conclusion
    if rule is LTENSOR:  # regrouping is invisible in canonical form
        return p
    if rule is M:
        if not isinstance(frame, SimpleProduct):
            return "frame rule needs a non-empty frame product"
        return sequent(p.input.tensor(frame), p.linear, p.banged, p.goal.tensor(frame))
    if rule is OPLUS_H:
        q = premises[1].conclusion
        if (q.linear, q.banged, q.goal) != (p.linear, p.banged, p.goal):
            return "premises must share both zones and the goal"
        if frame is None or {p.input, q.input} != {f.left.tensor(frame), f.right.tensor(frame)}:
            return "premise inputs must be the two consequents tensored with the frame"
        return sequent(f.antecedent.tensor(frame), zone_insert(p.linear, f), p.banged, p.goal)
    if rule is LBANG:
        linear = multiset_minus(p.linear, f)
        if linear is None:
            return "premise must carry the principal linearly"
        return sequent(p.input, linear, zone_insert(p.banged, f), p.goal)
    if rule is WBANG:
        return sequent(p.input, p.linear, zone_insert(p.banged, f), p.goal)
    if rule is CBANG:
        banged = multiset_minus(p.banged, f)
        if banged is None or f not in banged:
            return "premise banged zone must hold two copies of the principal"
        return sequent(p.input, p.linear, banged, p.goal)
    if rule is CUT:
        q = premises[1].conclusion
        if q.input != p.goal:
            return "second premise input must be the first premise's goal"
        return sequent(p.input, zone_merge(p.linear, q.linear), zone_merge(p.banged, q.banged), q.goal)
    raise AssertionError(rule)


def walk(tree, premises=attrgetter("premises")):
    """Yield ``(node, trail)`` for every node of a proof tree in preorder,
    premises left to right.  The trail is None at the root and otherwise
    ``(parent_trail, parent, premise_index)``."""
    stack = [(tree, None)]
    while stack:
        node, trail = stack.pop()
        yield node, trail
        below = premises(node)
        for i in range(len(below) - 1, -1, -1):
            stack.append((below[i], (trail, node, i)))


def path_of(trail) -> tuple[int, ...]:
    """The premise indices from the root to the node a trail leads to."""
    path = []
    while trail is not None:
        trail, _, index = trail
        path.append(index)
    return tuple(reversed(path))


def fold(tree, combine, premises=attrgetter("premises")):
    """Post-order fold without recursion: ``combine(node, premise_results)``
    gives each node's result, premises taken left to right."""
    order, stack = [], [tree]
    while stack:  # preorder, last premise first: reversed, it is post-order
        node = stack.pop()
        below = premises(node)
        order.append((node, below))
        stack.extend(below)
    results: list = []
    for node, below in reversed(order):
        start = len(results) - len(below)
        done = results[start:]
        del results[start:]
        results.append(combine(node, done))
    return results[0]


def gate(form: ProofFormat, rule, premises: tuple, values: tuple) -> str | None:
    """Why an inference's premise count, principal or parameters do not fit
    its rule in the format's rule table, if they do not; ``values`` are the
    node's fields in the format's order, the principal first."""
    arity, kind = form.rules[rule]
    if len(premises) != arity:
        return f"{rule.value} takes {arity} premises, got {len(premises)}"
    if not isinstance(values[0], kind or type(None)):
        return f"{rule.value} cannot have {values[0]} as its principal"
    for i in range(1, len(values)):  # a loop, not a generator: every node built passes here
        if values[i] is not None and rule not in form.takers[form.fields[i][0]]:
            return f"{rule.value} takes no {form.fields[i][0]}"
    return None


def draw(form: ProofFormat, rule, premises: tuple, *values):
    """The node an inference draws through the format's gate and conclusion, fields and mark (checked
    when its premises, two at most, are) written in one step; InvalidProof if it draws none."""
    conclusion = gate(form, rule, premises, values) or form.conclude(rule, premises, *values)
    if isinstance(conclusion, str):
        raise InvalidProof(rule.value, conclusion)
    node = object.__new__(form.node)  # __match_args__: the fields, in the order the class annotates them
    node.__dict__.update(zip(form.node.__match_args__, (rule, conclusion, premises, *values)),
                         checked=not premises or premises[0].checked and premises[-1].checked)
    return node


def check_tree(proof, form: ProofFormat) -> CheckResult:
    """Rebuild each node of either calculus's proof tree from its own fields,
    through the format's gate and conclusion function, and compare with the
    conclusion it holds; report the first failure.  A checked subtree, so drawn by ``draw``, is skipped."""
    values_of = attrgetter(*(name for name, _, _ in form.fields))
    for node, trail in walk(proof, lambda node: () if node.checked else node.premises):
        values = values_of(node)
        drawn = node.conclusion if node.checked else (
            gate(form, node.rule, node.premises, values) or form.conclude(node.rule, node.premises, *values))
        if drawn != node.conclusion:
            reason = drawn if isinstance(drawn, str) else f"conclusion must be {drawn}"
            return CheckResult(False, CheckFailure(path_of(trail), node.rule.value, reason))
    return CheckResult(True)


def check_hll_proof(proof: HllProof) -> CheckResult:
    """Verify every node against its rule schema; report the first failure."""
    return check_tree(proof, _HLL_FORMAT)


def compile_hll_to_program(proof: HllProof) -> HornProgram:
    """Build the strong-solution witness a checked derivation describes."""
    result = check_hll_proof(proof)
    if not result.ok:
        raise ValueError(f"cannot compile an invalid proof: {result}")
    builder = ProgramBuilder()
    builder.unfold(0, (proof, None), _moves)
    return builder.build()


def _moves(pending) -> list:
    """The edges below a vertex and, for each, the proofs still pending under
    it; ``pending`` is a linked list ``(node, rest)`` of checked proofs, each
    to be emitted at every leaf of the one before."""
    while pending is not None:
        node, rest = pending
        rule = node.rule
        if rule is H:
            return [(node.principal, rest)]
        if rule is OPLUS_H:
            left, right = node.principal.branches
            # Checked: each premise's input is one side tensor the frame.
            return [
                (left if p.conclusion.input == left.consequent.tensor(node.frame) else right, (p, rest))
                for p in node.premises
            ]
        if rule is CUT:
            pending = (node.premises[0], (node.premises[1], rest))
        elif rule is I:
            pending = rest
        else:
            pending = (node.premises[0], rest)
    return []


# --- Node builders: each draws its node through ``draw`` ------------------------


def i_axiom(x: SimpleProduct) -> HllProof:
    return _node(I, (), x, None)


def h_axiom(f: PlainImplication) -> HllProof:
    return _node(H, (), f, None)


def ltensor(premise: HllProof) -> HllProof:
    return _node(LTENSOR, (premise,), None, None)


def frame_rule(premise: HllProof, v: SimpleProduct) -> HllProof:
    return _node(M, (premise,), None, v)


def oplus_h(premise1: HllProof, premise2: HllProof, f: OplusImplication, v: Frame) -> HllProof:
    return _node(OPLUS_H, (premise1, premise2), f, v)


def lbang(premise: HllProof, a: HornFormula) -> HllProof:
    return _node(LBANG, (premise,), a, None)


def wbang(premise: HllProof, a: HornFormula) -> HllProof:
    return _node(WBANG, (premise,), a, None)


def cbang(premise: HllProof, a: HornFormula) -> HllProof:
    return _node(CBANG, (premise,), a, None)


def cut(premise1: HllProof, premise2: HllProof) -> HllProof:
    return _node(CUT, (premise1, premise2), None, None)


# --- Proof files -----------------------------------------------------------------


class ProofFormat(Value):
    """How one calculus's proofs read and write as a flat table: ``formulas``
    holds each distinct member text once, ``conclusion`` the end-sequent's
    parts, and ``nodes`` the inferences in post-order, each with its
    ``rule``, its ``premises`` as indices of earlier nodes, and its
    ``fields``.  Parts and fields are ``(attribute, kind, count)``: an int,
    or a product, formula or member cited by index into ``formulas``; count
    1 is one value, 2 a pair, None a zone.  The fields are the principal, of
    the kind ``rules`` gives, and the rule parameters, each taken by the
    rules ``takers`` names.  ``node`` is the node class."""

    node: type
    conclude: Callable
    sequent: type
    rules: dict
    takers: dict
    parts: tuple
    fields: tuple

    @lazy
    def rows(self) -> dict:  # rule name: the rule, its fields, and each one's value where omitted
        return {rule.value: (rule, [(name, kind, n, Frame() if i and n == 1 and kind is SimpleProduct
                                     and rule in self.takers[name] else None)  # an empty frame is omitted
                                    for i, (name, kind, n) in enumerate(self.fields)]) for rule in self.rules}


def proof_to_json(proof, form: ProofFormat) -> str:
    formulas: dict[str, int] = {}
    nodes: list[str] = []

    def refs(value, kind, count):
        if kind is int:
            return value
        indices = [formulas.setdefault(v.text, len(formulas)) for v in ((value,) if count == 1 else value)]
        return indices[0] if count == 1 else indices

    def row(node, premises: list[int]) -> int:
        data = {"rule": node.rule._value_}  # Enum.value is a property that runs in Python
        if premises:
            data["premises"] = premises
        for name, kind, count in form.fields:
            value = getattr(node, name)
            if value is not None and not (isinstance(value, Frame) and value.is_empty):
                data[name] = refs(value, kind, count)
        nodes.append(json.dumps(data))
        return len(nodes) - 1

    fold(proof, row)
    end = json.dumps([refs(getattr(proof.conclusion, name), kind, n) for name, kind, n in form.parts])
    texts, rows = (",\n    ".join(lines) for lines in (map(json.dumps, formulas), nodes))
    return f'{{\n  "formulas": [\n    {texts}\n  ],\n  "conclusion": {end},\n  "nodes": [\n    {rows}\n  ]\n}}\n'


def _where(row: int | None, name: str) -> str:  # a row's field, or (row None) an end-sequent part
    return f"the conclusion's {name}" if row is None else f"node {row}'s {name}"


def proof_from_json(text: str, form: ProofFormat):
    """The proof a table describes, each row read as ``form.rows`` says and drawn once, each text
    parsed once; FormatError unless the table is well formed, InvalidProof (naming the row) when
    an inference draws no conclusion or the root does not draw the stated end-sequent."""
    try:
        data = json_document(text)
    except RecursionError:  # a table nests four levels deep at most
        raise FormatError("a proof is a flat table, not a nested document") from None
    texts, end, rows = map((data if isinstance(data, dict) else {}).get, ("formulas", "conclusion", "nodes"))
    if not (isinstance(texts, list) and all(isinstance(t, str) for t in texts) and isinstance(end, list)
            and len(end) == len(form.parts) and isinstance(rows, list) and rows):
        raise FormatError(f"a proof is a JSON object with a 'formulas' list of strings, a 'conclusion' list "
                          f"of {len(form.parts)} parts and a 'nodes' list")
    resolved = {kind: {} for _, kind, _ in form.parts + form.fields}  # kind -> {index: member of the kind}
    parse = member_parser()  # each text parsed once, at its first citation

    def read(refs, kind, count, row, name):
        """The value of field ``name`` of node ``row`` (None: of the end-sequent).
        Each index is parsed, and checked against each kind, at its first citation."""
        known = resolved[kind]
        if count == 1 and type(refs) is int and (kind is int or refs in known):
            return refs if kind is int else known[refs]
        if kind is int:
            raise FormatError(f"{_where(row, name)} must be an integer")
        indices = refs if count != 1 else [refs]
        if not (count == 1 and type(refs) is int and 0 <= refs < len(texts)) and not (
                isinstance(indices, list) and count in (None, len(indices)) and set(map(type, indices)) <= {int}
                and 0 <= min(indices, default=0) and max(indices, default=0) < len(texts)):
            what = "an index" if count == 1 else "a list of indices"
            raise FormatError(f"{_where(row, name)} must be {what} into 'formulas'")
        for ref in [ref for ref in indices if ref not in known]:
            try:
                known[ref] = of_kind(parse(texts[ref]), kind)
            except FormatError as exc:
                raise FormatError(f"{_where(row, name)}: formulas[{ref}] {texts[ref]!r}: {exc}") from None
        return known[refs] if count == 1 else tuple([known[ref] for ref in indices])

    conclusion = form.sequent(*(read(ref, kind, n, None, name) for (name, kind, n), ref in zip(form.parts, end)))
    keys, by_name = {"rule", "premises", *(name for name, _, _ in form.fields)}, form.rows
    built: list = []
    for i, row in enumerate(rows):
        if not (isinstance(row, dict) and row.keys() <= keys and isinstance(row.get("premises", []), list)):
            raise FormatError(f"node {i} must be a JSON object with fields among {sorted(keys)}, premises a list")
        rule, fields = by_name.get(row.get("rule"), (None, None)) if isinstance(row.get("rule"), str) else (None, None)
        if rule is None:
            raise FormatError(f"node {i}'s rule must be one of {list(by_name)}")
        values = [read(row[f], kind, n, i, f) if f in row else omitted for f, kind, n, omitted in fields]
        below = []
        for p in row.get("premises", []):
            if type(p) is not int or not 0 <= p < i or built[p] is None:
                raise FormatError(f"node {i}'s premise {p!r} is not an earlier node that is no other premise")
            below.append(built[p])
            built[p] = None  # each node is the premise of one node only
        try:
            built.append(draw(form, rule, tuple(below), *values))
        except InvalidProof as exc:
            arity, kind = form.rules[rule]
            fits = len(below) == arity and (kind is None or values[0] is not None)
            if fits and exc.reason == gate(form, rule, below, values):
                raise FormatError(f"node {i}: {exc.reason}") from None  # a field that does not fit its rule
            raise InvalidProof(rule.value, exc.reason, i) from None
    if sum(node is not None for node in built) != 1:
        raise FormatError("a proof has one root: every node but the last is the premise of a later one")
    root = built[-1]
    if root.conclusion != conclusion:
        raise InvalidProof(root.rule.value, f"conclusion must be {root.conclusion}", len(built) - 1)
    return root


_HLL_FORMAT = ProofFormat(
    HllProof, _conclude, HornSequent, _RULES, {"frame": frozenset({M, OPLUS_H})},
    parts=(("input", SimpleProduct, 1), ("linear", HornFormula, None),
           ("banged", HornFormula, None), ("goal", SimpleProduct, 1)),
    fields=(("principal", Member, 1), ("frame", SimpleProduct, 1)),
)
_node = partial(draw, _HLL_FORMAT)  # the builders' factory


def hll_proof_to_json(proof: HllProof) -> str:
    return proof_to_json(proof, _HLL_FORMAT)


def hll_proof_from_json(text: str) -> HllProof:
    return proof_from_json(text, _HLL_FORMAT)

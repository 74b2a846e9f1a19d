"""The zoned sequent calculus for Horn sequents, its checker, and the
compiler from checked derivations to tree-like Horn programs.

Nine rules: two axioms (identity and a single implication step), a regrouping
no-op, a frame rule that tensors the same product onto input and goal, the
two-premise choice rule, the three bang rules, and cut.  Each rule's
conclusion is stated once, in ``_conclude``: a node builder takes its
conclusion from there, and the checker rebuilds every node from its premises
and compares, so builders and checker cannot drift apart.  Proof nodes store
their full conclusion sequent, so each inference is checked locally, giving
precise failure positions.

The compiler spells its program out with ``ProgramBuilder.unfold``, as the
prover does its witnesses, so vertices are numbered in preorder.  A key is
the list of proofs still to be emitted: a single-step axiom gives one edge,
the choice rule its two, a cut queues its first premise and then its second,
an identity axiom gives nothing, and every other rule passes to its premise.
Both calculi's proofs are traversed only by ``walk`` and ``fold`` here, so
depth never meets the recursion limit.

Both calculi's proof files are one flat table, read and written here by one
codec that each calculus configures with a ``ProofFormat``.  Each field names
the kind of member it holds, not a parser: the reader parses each text of the
table once, with ``syntax.parse_member``, and checks it against the kind of
every field that cites it.  The format also says which rules take the rule
parameter (a frame, or a split); the reader and the checker reject it on any
other rule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter

from .programs import HornProgram, ProgramBuilder
from .syntax import (
    FormatError,
    Frame,
    HornFormula,
    HornSequent,
    OplusImplication,
    PlainImplication,
    SimpleProduct,
    canonical_zone,
    multiset_minus,
    of_kind,
    parse_member,
)


class HllRule(Enum):
    I = "I"
    LTENSOR = "LTENSOR"
    H = "H"
    M = "M"
    OPLUS_H = "OPLUS_H"
    LBANG = "LBANG"
    WBANG = "WBANG"
    CBANG = "CBANG"
    CUT = "CUT"


# Each rule's premise count and its principal's kind (None: it has none).
_RULES = {
    HllRule.I: (0, None), HllRule.H: (0, None), HllRule.LTENSOR: (1, None), HllRule.M: (1, None),
    HllRule.LBANG: (1, HornFormula), HllRule.WBANG: (1, HornFormula), HllRule.CBANG: (1, HornFormula),
    HllRule.OPLUS_H: (2, OplusImplication), HllRule.CUT: (2, None),
}


@dataclass(frozen=True)
class HllProof:
    rule: HllRule
    conclusion: HornSequent
    premises: tuple["HllProof", ...] = ()
    principal: HornFormula | None = None  # OPLUS_H, LBANG, WBANG, CBANG
    frame: Frame | None = None  # M (a SimpleProduct), OPLUS_H (maybe empty)

    def __post_init__(self):
        # The choice rule's frame may be empty; no frame means the empty one.
        if self.rule is HllRule.OPLUS_H and self.frame is None:
            object.__setattr__(self, "frame", Frame())


@dataclass(frozen=True)
class CheckFailure:
    path: tuple[int, ...]  # premise indices from the root
    rule: str
    reason: str

    def __str__(self) -> str:
        where = "root" if not self.path else ".".join(str(i) for i in self.path)
        return f"{self.rule} at {where}: {self.reason}"


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    failure: CheckFailure | None = None

    def __str__(self) -> str:
        return "valid" if self.ok else str(self.failure)


def _conclude(rule: HllRule, premises: tuple, principal, frame) -> HornSequent | str:
    """The conclusion ``rule`` draws from its premises, or the side condition
    that fails.  An axiom takes its one parameter as ``principal``: the
    product for I, the implication for H.  Premise zones are canonical, and
    so is what is left when a member is removed; a zone that gains members
    is sorted again."""
    f, sequent = principal, HornSequent.of_canonical
    if rule is HllRule.I:
        return sequent(f, (), (), f)
    if rule is HllRule.H:
        if not isinstance(f, PlainImplication):
            return "axiom formula must be a plain implication"
        return sequent(f.antecedent, (f,), (), f.consequent)
    p = premises[0].conclusion
    if rule is HllRule.LTENSOR:  # regrouping is invisible in canonical form
        return p
    if rule is HllRule.M:
        if not isinstance(frame, SimpleProduct):
            return "frame rule needs a non-empty frame product"
        return sequent(p.input.tensor(frame), p.linear, p.banged, p.goal.tensor(frame))
    if rule is HllRule.OPLUS_H:
        q = premises[1].conclusion
        if (q.linear, q.banged, q.goal) != (p.linear, p.banged, p.goal):
            return "premises must share both zones and the goal"
        if {p.input, q.input} != {f.left.tensor(frame), f.right.tensor(frame)}:
            return "premise inputs must be the two consequents tensored with the frame"
        return sequent(f.antecedent.tensor(frame), canonical_zone(p.linear + (f,)), p.banged, p.goal)
    if rule is HllRule.LBANG:
        linear = multiset_minus(p.linear, f)
        if linear is None:
            return "premise must carry the principal linearly"
        return sequent(p.input, linear, canonical_zone(p.banged + (f,)), p.goal)
    if rule is HllRule.WBANG:
        return sequent(p.input, p.linear, canonical_zone(p.banged + (f,)), p.goal)
    if rule is HllRule.CBANG:
        banged = multiset_minus(p.banged, f)
        if banged is None or f not in banged:
            return "premise banged zone must hold two copies of the principal"
        return sequent(p.input, p.linear, banged, p.goal)
    if rule is HllRule.CUT:
        q = premises[1].conclusion
        if q.input != p.goal:
            return "second premise input must be the first premise's goal"
        return sequent(p.input, canonical_zone(p.linear + q.linear), canonical_zone(p.banged + q.banged), q.goal)
    raise AssertionError(rule)


def _node(rule: HllRule, premises: tuple = (), principal=None, frame=None) -> HllProof:
    """The node ``rule`` draws from its premises; ValueError if it draws none.
    An axiom's parameter is read back from its conclusion, so it is not kept."""
    conclusion = _conclude(rule, premises, principal, frame)
    if isinstance(conclusion, str):
        raise ValueError(f"{rule.value}: {conclusion}")
    return HllProof(rule, conclusion, premises, principal if premises else None, frame)


def _check_node(node: HllProof) -> str | None:
    """None when the node's rule draws its conclusion; otherwise the mismatch."""
    c = node.conclusion
    principal = node.principal
    if node.rule is HllRule.I:
        principal = c.goal
    elif node.rule is HllRule.H:
        principal = c.linear[0] if len(c.linear) == 1 else None
    expected = _conclude(node.rule, node.premises, principal, node.frame)
    if expected == c:
        return None
    return expected if isinstance(expected, str) else f"conclusion must be {expected}"


def walk(tree):
    """Yield ``(node, trail)`` for every node of a proof tree in preorder,
    premises left to right.  The trail is None at the root and otherwise
    ``(parent_trail, parent, premise_index)``."""
    stack = [(tree, None)]
    while stack:
        node, trail = stack.pop()
        yield node, trail
        premises = node.premises
        for i in range(len(premises) - 1, -1, -1):
            stack.append((premises[i], (trail, node, i)))


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


def check_tree(proof, check_node, form: ProofFormat) -> CheckResult:
    """Check each node of either calculus's proof tree: its premise count,
    principal kind and parameter against the format's rule table, then its
    schema; report the first failure."""
    parameter = form.fields[1][0]
    for node, trail in walk(proof):
        arity, kind = form.rules[node.rule]
        if len(node.premises) != arity:
            reason = f"{node.rule.value} takes {arity} premises, got {len(node.premises)}"
        elif not isinstance(node.principal, kind or type(None)):
            reason = f"{node.rule.value} cannot have {node.principal} as its principal"
        elif node.rule not in form.takers and getattr(node, parameter) is not None:
            reason = f"{node.rule.value} takes no {parameter}"
        else:
            reason = check_node(node)
        if reason is not None:
            return CheckResult(False, CheckFailure(path_of(trail), node.rule.value, reason))
    return CheckResult(True)


def check_hll_proof(proof: HllProof) -> CheckResult:
    """Verify every node against its rule schema; report the first failure."""
    return check_tree(proof, _check_node, _HLL_FORMAT)


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
        if rule is HllRule.H:
            return [(node.conclusion.linear[0], rest)]
        if rule is HllRule.OPLUS_H:
            left, right = node.principal.branches
            # Checked: each premise's input is one side tensor the frame.
            return [
                (left if p.conclusion.input == left.consequent.tensor(node.frame) else right, (p, rest))
                for p in node.premises
            ]
        if rule is HllRule.CUT:
            pending = (node.premises[0], (node.premises[1], rest))
        elif rule is HllRule.I:
            pending = rest
        else:
            pending = (node.premises[0], rest)
    return []


# --- Node builders: each rule's conclusion comes from ``_conclude`` -------------


def i_axiom(x: SimpleProduct) -> HllProof:
    return _node(HllRule.I, principal=x)


def h_axiom(f: PlainImplication) -> HllProof:
    return _node(HllRule.H, principal=f)


def ltensor(premise: HllProof) -> HllProof:
    return _node(HllRule.LTENSOR, (premise,))


def frame_rule(premise: HllProof, v: SimpleProduct) -> HllProof:
    return _node(HllRule.M, (premise,), frame=v)


def oplus_h(premise1: HllProof, premise2: HllProof, f: OplusImplication, v: Frame) -> HllProof:
    return _node(HllRule.OPLUS_H, (premise1, premise2), f, v)


def lbang(premise: HllProof, a: HornFormula) -> HllProof:
    return _node(HllRule.LBANG, (premise,), a)


def wbang(premise: HllProof, a: HornFormula) -> HllProof:
    return _node(HllRule.WBANG, (premise,), a)


def cbang(premise: HllProof, a: HornFormula) -> HllProof:
    return _node(HllRule.CBANG, (premise,), a)


def cut(premise1: HllProof, premise2: HllProof) -> HllProof:
    return _node(HllRule.CUT, (premise1, premise2))


# --- Proof files -----------------------------------------------------------------


@dataclass(frozen=True)
class ProofFormat:
    """How one calculus's proofs read and write as a flat table: ``formulas``
    holds each distinct member text once, and ``nodes`` runs in post-order,
    each with its ``rule``, its ``premises`` as indices of earlier nodes, and
    its ``conclusion`` parts and ``fields`` as indices into ``formulas``.
    Parts and fields are ``(attribute, kind, count)``: a product, a formula or
    any member; count 1 is one index, 2 a pair, None a zone.  The fields are
    the principal, which must be of the kind ``rules`` gives, and the rule
    parameter, which only the rules in ``takers`` carry."""

    node: type
    sequent: type
    rules: dict
    takers: frozenset
    parts: tuple
    fields: tuple


def proof_to_json(proof, form: ProofFormat) -> str:
    formulas: dict[str, int] = {}
    nodes: list[str] = []

    def refs(value, count):
        indices = [formulas.setdefault(v.text, len(formulas)) for v in ((value,) if count == 1 else value)]
        return indices[0] if count == 1 else indices

    def row(node, premises: list[int]) -> int:
        data = {"rule": node.rule.value,
                "conclusion": [refs(getattr(node.conclusion, name), n) for name, _, n in form.parts]}
        if premises:
            data["premises"] = premises
        for name, _, count in form.fields:
            value = getattr(node, name)
            if value is not None and not (isinstance(value, Frame) and value.is_empty):
                data[name] = refs(value, count)
        nodes.append(json.dumps(data))
        return len(nodes) - 1

    fold(proof, row)
    texts, rows = (",\n    ".join(lines) for lines in (map(json.dumps, formulas), nodes))
    return f'{{\n  "formulas": [\n    {texts}\n  ],\n  "nodes": [\n    {rows}\n  ]\n}}\n'


def proof_from_json(text: str, form: ProofFormat):
    """The proof a table describes; FormatError unless the table is well formed."""
    try:
        data = json.loads(text)
    except RecursionError:  # a table nests four levels deep at most
        raise FormatError("a proof is a flat table, not a nested document") from None
    texts, rows = (data.get("formulas"), data.get("nodes")) if isinstance(data, dict) else (None, None)
    if not (isinstance(texts, list) and all(isinstance(t, str) for t in texts) and isinstance(rows, list) and rows):
        raise FormatError("a proof is a JSON object with a 'formulas' list of strings and a 'nodes' list")
    members: dict = {}  # index -> the member its text parses to, parsed once

    def read(i, name, kind, refs, count):
        listed = count != 1
        refs = refs if listed else [refs]
        if not (isinstance(refs, list) and count in (None, len(refs)) and set(map(type, refs)) <= {int}
                and 0 <= min(refs, default=0) and max(refs, default=0) < len(texts)):
            what = "a list of indices" if listed else "an index"
            raise FormatError(f"node {i}'s {name} must be {what} into 'formulas'")
        values = []
        for ref in refs:
            try:
                if ref not in members:
                    members[ref] = parse_member(texts[ref])
                values.append(of_kind(members[ref], kind))
            except FormatError as exc:
                raise FormatError(f"node {i}'s {name}: formulas[{ref}] {texts[ref]!r}: {exc}") from None
        return tuple(values) if listed else values[0]

    keys = {"rule", "conclusion", "premises", *(name for name, _, _ in form.fields)}
    parameter = form.fields[1][0]
    built: list = []
    for i, row in enumerate(rows):
        if not (isinstance(row, dict) and row.keys() <= keys):
            raise FormatError(f"node {i} must be a JSON object with fields among {sorted(keys)}")
        rule = next((r for r in form.rules if r.value == row.get("rule")), None)
        if rule is None:
            raise FormatError(f"node {i}'s rule must be one of {[r.value for r in form.rules]}")
        conclusion, premises = row.get("conclusion"), row.get("premises", [])
        if not (isinstance(conclusion, list) and len(conclusion) == len(form.parts) and isinstance(premises, list)):
            raise FormatError(f"node {i} needs a conclusion list of {len(form.parts)} parts and a premise list")
        parts = [read(i, name, kind, ref, n) for (name, kind, n), ref in zip(form.parts, conclusion)]
        fields = {name: read(i, name, kind, row[name], n) for name, kind, n in form.fields if name in row}
        if "principal" in fields and not isinstance(fields["principal"], form.rules[rule][1] or type(None)):
            raise FormatError(f"node {i}: {rule.value} cannot have {fields['principal']} as its principal")
        if parameter in fields and rule not in form.takers:
            raise FormatError(f"node {i}: {rule.value} takes no {parameter}")
        below = []
        for p in premises:
            if type(p) is not int or not 0 <= p < i or built[p] is None:
                raise FormatError(f"node {i}'s premise {p!r} is not an earlier node that is no other premise")
            below.append(built[p])
            built[p] = None  # each node is the premise of one node only
        built.append(form.node(rule, form.sequent(*parts), tuple(below), **fields))
    if sum(node is not None for node in built) != 1:
        raise FormatError("a proof has one root: every node but the last is the premise of a later one")
    return built[-1]


_HLL_FORMAT = ProofFormat(
    HllProof, HornSequent, _RULES, frozenset({HllRule.M, HllRule.OPLUS_H}),
    parts=(("input", SimpleProduct, 1), ("linear", HornFormula, None),
           ("banged", HornFormula, None), ("goal", SimpleProduct, 1)),
    fields=(("principal", HornFormula, 1), ("frame", SimpleProduct, 1)),
)


def hll_proof_to_json(proof: HllProof) -> str:
    return proof_to_json(proof, _HLL_FORMAT)


def hll_proof_from_json(text: str) -> HllProof:
    return proof_from_json(text, _HLL_FORMAT)

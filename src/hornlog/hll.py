"""The zoned sequent calculus for Horn sequents, its checker, and the
compiler from checked derivations to tree-like Horn programs.

Nine rules: two axioms (identity and a single implication step), a regrouping
no-op, a frame rule that tensors the same product onto input and goal, the
two-premise choice rule, the three bang rules, and cut.  Proof nodes store
their full conclusion sequent so every inference is checked locally against
its schema, giving precise failure positions.

The compiler emits one program into a single builder from an explicit
stack: an identity axiom adds nothing, a single-step axiom adds one edge, the
choice rule adds its two edges and emits each premise under its own edge, a
cut emits its second premise under each leaf of its first, and everything
else passes through to its premise.  Both calculi's proofs are traversed
only by ``walk`` and ``fold`` here, so depth never meets the recursion limit.
Both calculi's proof files are one flat table, read and written here by one
codec that each calculus configures with a ``ProofFormat``.
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
    parse_formula,
    parse_product,
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


def _check_node(node: HllProof) -> str | None:
    """None when the node instantiates its rule schema; otherwise the mismatch."""
    c = node.conclusion
    rule = node.rule

    if rule is HllRule.I:
        if c.linear or c.banged:
            return "identity sequent must have empty zones"
        if c.input != c.goal:
            return "identity requires input = goal"
        return None

    if rule is HllRule.H:
        if c.banged or len(c.linear) != 1:
            return "axiom needs exactly one linear formula and no banged zone"
        f = c.linear[0]
        if not isinstance(f, PlainImplication):
            return "axiom formula must be a plain implication"
        if f.antecedent != c.input:
            return "axiom input must be the implication's antecedent"
        if f.consequent != c.goal:
            return "axiom goal must be the implication's consequent"
        return None

    if rule is HllRule.LTENSOR:
        p = node.premises[0].conclusion
        if p.input != c.input:
            return "regrouping must keep the input multiset"
        if p.linear != c.linear or p.banged != c.banged or p.goal != c.goal:
            return "regrouping must keep zones and goal"
        return None

    if rule is HllRule.M:
        p = node.premises[0].conclusion
        v = node.frame
        if not isinstance(v, SimpleProduct):
            return "frame rule needs a non-empty frame product"
        if c.input != p.input.tensor(v):
            return f"conclusion input must be premise input tensored with {v}"
        if c.goal != p.goal.tensor(v):
            return f"conclusion goal must be premise goal tensored with {v}"
        if p.linear != c.linear or p.banged != c.banged:
            return "frame rule must keep both zones"
        return None

    if rule is HllRule.OPLUS_H:
        f = node.principal
        v = node.frame
        gamma = multiset_minus(c.linear, f)
        if gamma is None:
            return f"principal {f.text} not in the linear zone"
        if c.input != f.antecedent.tensor(v):
            return f"conclusion input must be the antecedent tensored with frame {v}"
        p1, p2 = (p.conclusion for p in node.premises)
        for p in (p1, p2):
            if p.linear != gamma:
                return "premise linear zones must be the conclusion's minus the principal"
            if p.banged != c.banged:
                return "premise banged zones must match the conclusion"
            if p.goal != c.goal:
                return "premise goals must match the conclusion"
        left, right = f.left.tensor(v), f.right.tensor(v)
        if not (
            (p1.input == left and p2.input == right)
            or (p1.input == right and p2.input == left)
        ):
            return "premise inputs must be the two consequents tensored with the frame"
        return None

    if rule is HllRule.LBANG:
        p = node.premises[0].conclusion
        a = node.principal
        banged_rest = multiset_minus(c.banged, a)
        if banged_rest is None or banged_rest != p.banged:
            return "conclusion banged zone must be the premise's plus the principal"
        linear_rest = multiset_minus(p.linear, a)
        if linear_rest is None or linear_rest != c.linear:
            return "premise must carry the principal linearly"
        if p.input != c.input or p.goal != c.goal:
            return "input and goal must be unchanged"
        return None

    if rule is HllRule.WBANG:
        p = node.premises[0].conclusion
        a = node.principal
        if multiset_minus(c.banged, a) != p.banged:
            return "conclusion banged zone must be the premise's plus the principal"
        if p.linear != c.linear or p.input != c.input or p.goal != c.goal:
            return "everything but the banged zone must be unchanged"
        return None

    if rule is HllRule.CBANG:
        p = node.premises[0].conclusion
        a = node.principal
        if a not in c.banged:
            return "principal must stay in the conclusion's banged zone"
        if p.banged != canonical_zone(c.banged + (a,)):
            return "premise banged zone must be the conclusion's plus one principal copy"
        if p.linear != c.linear or p.input != c.input or p.goal != c.goal:
            return "everything but the banged zone must be unchanged"
        return None

    if rule is HllRule.CUT:
        p1, p2 = (p.conclusion for p in node.premises)
        if p2.input != p1.goal:
            return "second premise input must be the first premise's goal"
        if c.input != p1.input:
            return "conclusion input must be the first premise's input"
        if c.goal != p2.goal:
            return "conclusion goal must be the second premise's goal"
        if c.linear != canonical_zone(p1.linear + p2.linear):
            return "conclusion linear zone must merge the premises'"
        if c.banged != canonical_zone(p1.banged + p2.banged):
            return "conclusion banged zone must merge the premises'"
        return None

    raise AssertionError(rule)


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


def check_tree(proof, check_node, rules: dict) -> CheckResult:
    """Check each node of either calculus's proof tree: its premise count and
    principal kind against ``rules``, then its schema; report the first failure."""
    for node, trail in walk(proof):
        arity, kind = rules[node.rule]
        if len(node.premises) != arity:
            reason = f"{node.rule.value} takes {arity} premises, got {len(node.premises)}"
        elif not isinstance(node.principal, kind or type(None)):
            reason = f"{node.rule.value} cannot have {node.principal} as its principal"
        else:
            reason = check_node(node)
        if reason is not None:
            return CheckResult(False, CheckFailure(path_of(trail), node.rule.value, reason))
    return CheckResult(True)


def check_hll_proof(proof: HllProof) -> CheckResult:
    """Verify every node against its rule schema; report the first failure."""
    return check_tree(proof, _check_node, _RULES)


def compile_hll_to_program(proof: HllProof) -> HornProgram:
    """Build the strong-solution witness a checked derivation describes."""
    result = check_hll_proof(proof)
    if not result.ok:
        raise ValueError(f"cannot compile an invalid proof: {result}")
    builder = ProgramBuilder()
    _emit(proof, builder)
    return builder.build()


def _emit(proof: HllProof, builder: ProgramBuilder) -> None:
    """Append the program of a checked proof under the builder's root.

    A frame (node, where, leaves) emits node at where, a vertex, a (parent,
    label) edge added only when popped, or a cut's first-premise leaves, and
    appends its leaves to leaves; so ids are issued depth-first, left first.
    """
    stack = [(proof, 0, [])]
    while stack:
        node, where, leaves = stack.pop()
        if type(where) is list:
            stack.extend((node, mid, leaves) for mid in reversed(where))
            continue
        if type(where) is tuple:
            where = builder.add_edge(*where)
        rule = node.rule
        if rule is HllRule.I:
            leaves.append(where)
        elif rule is HllRule.H:
            leaves.append(builder.add_edge(where, node.conclusion.linear[0]))
        elif rule is HllRule.OPLUS_H:
            f = node.principal
            for p in reversed(node.premises):  # checked: each input is one side tensor the frame
                y = f.left if p.conclusion.input == f.left.tensor(node.frame) else f.right
                stack.append((p, (where, PlainImplication(f.antecedent, y)), leaves))
        elif rule is HllRule.CUT:
            first, second = node.premises
            mids: list[int] = []
            stack.append((second, mids, leaves))
            stack.append((first, where, mids))
        else:
            stack.append((node.premises[0], where, leaves))


# --- Node builders (conclusions computed, for construction sites) -------------


def i_axiom(x: SimpleProduct) -> HllProof:
    return HllProof(HllRule.I, HornSequent(x, (), (), x))


def h_axiom(f: PlainImplication) -> HllProof:
    return HllProof(HllRule.H, HornSequent(f.antecedent, (f,), (), f.consequent))


def ltensor(premise: HllProof) -> HllProof:
    return HllProof(HllRule.LTENSOR, premise.conclusion, (premise,))


def frame_rule(premise: HllProof, v: SimpleProduct) -> HllProof:
    c = premise.conclusion
    conclusion = HornSequent(c.input.tensor(v), c.linear, c.banged, c.goal.tensor(v))
    return HllProof(HllRule.M, conclusion, (premise,), frame=v)


def oplus_h(premise1: HllProof, premise2: HllProof, f: OplusImplication, v: Frame) -> HllProof:
    c1 = premise1.conclusion
    conclusion = HornSequent(
        f.antecedent.tensor(v), c1.linear + (f,), c1.banged, c1.goal
    )
    return HllProof(HllRule.OPLUS_H, conclusion, (premise1, premise2), principal=f, frame=v)


def lbang(premise: HllProof, a: HornFormula) -> HllProof:
    c = premise.conclusion
    linear = multiset_minus(c.linear, a)
    if linear is None:
        raise ValueError(f"premise does not carry {a.text} linearly")
    conclusion = HornSequent(c.input, linear, c.banged + (a,), c.goal)
    return HllProof(HllRule.LBANG, conclusion, (premise,), principal=a)


def wbang(premise: HllProof, a: HornFormula) -> HllProof:
    c = premise.conclusion
    conclusion = HornSequent(c.input, c.linear, c.banged + (a,), c.goal)
    return HllProof(HllRule.WBANG, conclusion, (premise,), principal=a)


def cbang(premise: HllProof, a: HornFormula) -> HllProof:
    c = premise.conclusion
    banged = multiset_minus(c.banged, a)
    if banged is None or a not in banged:
        raise ValueError(f"premise needs two banged copies of {a.text}")
    conclusion = HornSequent(c.input, c.linear, banged, c.goal)
    return HllProof(HllRule.CBANG, conclusion, (premise,), principal=a)


def cut(premise1: HllProof, premise2: HllProof) -> HllProof:
    c1, c2 = premise1.conclusion, premise2.conclusion
    if c2.input != c1.goal:
        raise ValueError("cut premises do not chain")
    conclusion = HornSequent(
        c1.input, c1.linear + c2.linear, c1.banged + c2.banged, c2.goal
    )
    return HllProof(HllRule.CUT, conclusion, (premise1, premise2))


# --- Proof files -----------------------------------------------------------------


@dataclass(frozen=True)
class ProofFormat:
    """How one calculus's proofs read and write as a flat table: ``formulas``
    holds each distinct text once, and ``nodes`` runs in post-order, each with
    its ``rule``, its ``premises`` as indices of earlier nodes, and its
    ``conclusion`` parts and ``fields`` as indices into ``formulas``.  Parts
    and fields are ``(attribute, parser, count)``: count 1 is one index, 2 a
    pair, None a zone.  A principal must be of the kind ``rules`` gives."""

    node: type
    sequent: type
    rules: dict
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
    columns: dict = {}  # parser -> {index: value} of the texts it has read

    def read(i, name, parse, refs, count):
        listed = count != 1
        refs = refs if listed else [refs]
        if not (isinstance(refs, list) and count in (None, len(refs)) and set(map(type, refs)) <= {int}
                and 0 <= min(refs, default=0) and max(refs, default=0) < len(texts)):
            what = "a list of indices" if listed else "an index"
            raise FormatError(f"node {i}'s {name} must be {what} into 'formulas'")
        column = columns.setdefault(parse, {})
        for ref in sorted(set(refs).difference(column)):
            try:
                column[ref] = parse(texts[ref])
            except FormatError as exc:
                raise FormatError(f"node {i}'s {name}: formulas[{ref}] {texts[ref]!r}: {exc}") from None
        values = tuple(map(column.__getitem__, refs))
        return values if listed else values[0]

    keys = {"rule", "conclusion", "premises", *(name for name, _, _ in form.fields)}
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
        parts = [read(i, name, parse, ref, n) for (name, parse, n), ref in zip(form.parts, conclusion)]
        fields = {name: read(i, name, parse, row[name], n) for name, parse, n in form.fields if name in row}
        if "principal" in fields and not isinstance(fields["principal"], form.rules[rule][1] or type(None)):
            raise FormatError(f"node {i}: {rule.value} cannot have {fields['principal']} as its principal")
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
    HllProof, HornSequent, _RULES,
    parts=(("input", parse_product, 1), ("linear", parse_formula, None),
           ("banged", parse_formula, None), ("goal", parse_product, 1)),
    fields=(("principal", parse_formula, 1), ("frame", parse_product, 1)),
)


def hll_proof_to_json(proof: HllProof) -> str:
    return proof_to_json(proof, _HLL_FORMAT)


def hll_proof_from_json(text: str) -> HllProof:
    return proof_from_json(text, _HLL_FORMAT)

"""Cut-free derivations in the two-sided fragment, their normalizer, and the
translation into the zoned calculus.

Sequents here are a flat context multiset over a single product goal.  Context
members are ``syntax.py``'s own products and implications, plus two kinds of
its own: ``LlBang``, a banged implication, and ``LlOplusProduct``, a choice
product ``(Y1 + Y2)`` that exists only between the left-choice rule that
expands it and the implication-choice rule that introduces it.  Each choice
product carries an integer tag so the two rules pair by occurrence even when
equal formulas coexist; one context holds each tag at most once.

``push_oplus_down`` moves every left-choice inference down until it sits
immediately above the implication-choice inference that consumes its
principal.  The left-choice rule is invertible: ``specialize`` replaces a
tagged choice product by one of its components throughout a subproof, so a
choice moves in one step, re-expanding the consumer's second premise from its
two specializations.

``translate_ll_to_hll`` normalizes and then maps rule-for-rule into the zoned
calculus, reading a flat context as input-product/linear/banged zones.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import Union

from . import hll
from .hll import HllProof
from .syntax import (
    Choice,
    Frame,
    FormatError,
    HornFormula,
    HornSequent,
    OplusImplication,
    PlainImplication,
    Printed,
    SimpleProduct,
    TokenStream,
    _parse_bare_product,
    _parse_formula_rest,
    canonical_zone,
    multiset_minus,
    parse_product,
    tensor_all,
)


class ProofStructureError(ValueError):
    """A proof object is malformed beyond schema mismatch (corrupt input)."""


# --- Context formulas --------------------------------------------------------


@dataclass(frozen=True)
class LlBang(Printed):
    # Payload is normally an implication; a banged product is representable
    # so the checker can reject it against the side condition.
    formula: Union[HornFormula, SimpleProduct]

    @cached_property
    def text(self) -> str:
        return f"!({self.formula.text})"


@dataclass(frozen=True)
class LlOplusProduct(Choice):
    """A pending choice ``(Y1 + Y2)`` with its occurrence tag."""

    left: SimpleProduct
    right: SimpleProduct
    tag: int

    @cached_property
    def text(self) -> str:
        return f"({self.left.text} + {self.right.text})#{self.tag}"


LlFormula = Union[SimpleProduct, PlainImplication, OplusImplication, LlBang, LlOplusProduct]


@dataclass(frozen=True)
class LlSequent:
    context: tuple[LlFormula, ...]
    goal: SimpleProduct

    def __post_init__(self):
        object.__setattr__(self, "context", canonical_zone(self.context))

    def __str__(self) -> str:
        return ll_sequent_text(self)


class LlRule(Enum):
    I = "I"
    LTENSOR = "LTENSOR"
    RTENSOR = "RTENSOR"
    LIMP = "LIMP"
    LIMPOPLUS = "LIMPOPLUS"
    LOPLUS = "LOPLUS"
    LBANG = "LBANG"
    WBANG = "WBANG"
    CBANG = "CBANG"


_LL_ARITY = {
    LlRule.I: 0,
    LlRule.LTENSOR: 1,
    LlRule.LBANG: 1,
    LlRule.WBANG: 1,
    LlRule.CBANG: 1,
    LlRule.RTENSOR: 2,
    LlRule.LIMP: 2,
    LlRule.LIMPOPLUS: 2,
    LlRule.LOPLUS: 2,
}


@dataclass(frozen=True)
class LlProof:
    rule: LlRule
    conclusion: LlSequent
    premises: tuple["LlProof", ...] = ()
    principal: LlFormula | None = None
    # LTENSOR records how the principal product splits in the premise.
    split: tuple[SimpleProduct, SimpleProduct] | None = None


def _check_ll_node(node: LlProof) -> str | None:
    c = node.conclusion
    rule = node.rule
    if len(node.premises) != _LL_ARITY[rule]:
        return f"{rule.value} takes {_LL_ARITY[rule]} premises, got {len(node.premises)}"
    # Tags pair a left choice with its consumer, so one context holds each once.
    tags = [g.tag for g in c.context if isinstance(g, LlOplusProduct)]
    if len(set(tags)) != len(tags):
        duplicated = sorted(tag for tag, count in Counter(tags).items() if count > 1)
        return f"choice tags duplicated in one context: {duplicated}"

    if rule is LlRule.I:
        if len(c.context) != 1 or not isinstance(c.context[0], SimpleProduct):
            return "identity context must be a single product"
        if c.context[0] != c.goal:
            return "identity requires context product = goal"
        return None

    if rule is LlRule.LTENSOR:
        if not isinstance(node.principal, SimpleProduct) or node.split is None:
            return "product regrouping needs its principal product and split"
        x, y = node.split
        if x.tensor(y) != node.principal:
            return "split does not recombine to the principal product"
        rest = multiset_minus(c.context, node.principal)
        if rest is None:
            return "principal product not in the conclusion context"
        p = node.premises[0].conclusion
        expected = canonical_zone(rest + (x, y))
        if p.context != expected:
            return "premise context must split the principal product"
        if p.goal != c.goal:
            return "goal must be unchanged"
        return None

    if rule is LlRule.RTENSOR:
        p1, p2 = (p.conclusion for p in node.premises)
        if c.goal != p1.goal.tensor(p2.goal):
            return "goal must be the tensor of the premise goals"
        if c.context != canonical_zone(p1.context + p2.context):
            return "context must merge the premise contexts"
        return None

    if rule is LlRule.LIMP:
        f = node.principal
        if not isinstance(f, PlainImplication):
            return "left implication needs a plain implication principal"
        p1, p2 = (p.conclusion for p in node.premises)
        if p1.goal != f.antecedent:
            return "first premise must prove the antecedent"
        p2_rest = multiset_minus(p2.context, f.consequent)
        if p2_rest is None:
            return "second premise context must carry the consequent product"
        if p2.goal != c.goal:
            return "goal must come from the second premise"
        expected = canonical_zone(p1.context + p2_rest + (f,))
        if c.context != expected:
            return "conclusion context must merge premises around the principal"
        return None

    if rule is LlRule.LIMPOPLUS:
        f = node.principal
        if not isinstance(f, OplusImplication):
            return "implication-choice needs a choice implication principal"
        p1, p2 = (p.conclusion for p in node.premises)
        if p1.goal != f.antecedent:
            return "first premise must prove the antecedent"
        pending = [
            g
            for g in p2.context
            if isinstance(g, LlOplusProduct) and g.left == f.left and g.right == f.right
        ]
        if not pending:
            return "second premise context must carry the pending choice product"
        if p2.goal != c.goal:
            return "goal must come from the second premise"
        # Content-equal occurrences may coexist under different tags; the
        # conclusion determines which one was consumed.
        for occurrence in pending:
            expected = canonical_zone(p1.context + multiset_minus(p2.context, occurrence) + (f,))
            if c.context == expected:
                if any(isinstance(g, LlOplusProduct) and g.tag == occurrence.tag for g in p1.context):
                    # The conclusion would still hold the tag, so no consumer
                    # below could tell which choice this node consumed.
                    return "consumed choice tag is still pending in the first premise"
                return None
        return "conclusion context must merge premises around the principal"

    if rule is LlRule.LOPLUS:
        occ = node.principal
        if not isinstance(occ, LlOplusProduct):
            return "left choice needs a pending choice product principal"
        rest = multiset_minus(c.context, occ)
        if rest is None:
            return "principal choice product not in the conclusion context"
        p1, p2 = (p.conclusion for p in node.premises)
        if p1.context != canonical_zone(rest + (occ.left,)):
            return "first premise context must expand to the left component"
        if p2.context != canonical_zone(rest + (occ.right,)):
            return "second premise context must expand to the right component"
        if p1.goal != c.goal or p2.goal != c.goal:
            return "premise goals must match the conclusion"
        return None

    if rule in (LlRule.LBANG, LlRule.WBANG, LlRule.CBANG):
        a = node.principal
        if not isinstance(a, LlBang):
            return "bang rules need a banged principal"
        if isinstance(a.formula, SimpleProduct):
            return "only implications may be banged"
        p = node.premises[0].conclusion
        if p.goal != c.goal:
            return "goal must be unchanged"
        rest = multiset_minus(c.context, a)
        if rest is None:
            return "banged principal not in the conclusion context"
        if rule is LlRule.LBANG:
            expected = canonical_zone(rest + (a.formula,))
        elif rule is LlRule.WBANG:
            expected = canonical_zone(rest)
        else:  # CBANG
            expected = canonical_zone(rest + (a, a))
        if p.context != expected:
            return "premise context does not match the bang schema"
        return None

    raise AssertionError(rule)


def check_ll_proof(proof: LlProof) -> hll.CheckResult:
    """Verify every node against its rule schema; report the first failure."""
    return hll.check_tree(proof, _check_ll_node)


# --- Node builders ------------------------------------------------------------


def ll_i(x: SimpleProduct) -> LlProof:
    return LlProof(LlRule.I, LlSequent((x,), x))


def ll_ltensor(premise: LlProof, x: SimpleProduct, y: SimpleProduct) -> LlProof:
    principal = x.tensor(y)
    rest = multiset_minus(premise.conclusion.context, x)
    if rest is None:
        raise ValueError(f"premise lacks product {x}")
    rest = multiset_minus(rest, y)
    if rest is None:
        raise ValueError(f"premise lacks product {y}")
    conclusion = LlSequent(rest + (principal,), premise.conclusion.goal)
    return LlProof(LlRule.LTENSOR, conclusion, (premise,), principal=principal, split=(x, y))


def ll_rtensor(premise1: LlProof, premise2: LlProof) -> LlProof:
    c1, c2 = premise1.conclusion, premise2.conclusion
    conclusion = LlSequent(c1.context + c2.context, c1.goal.tensor(c2.goal))
    return LlProof(LlRule.RTENSOR, conclusion, (premise1, premise2))


def ll_limp(premise1: LlProof, premise2: LlProof, imp: PlainImplication) -> LlProof:
    c1, c2 = premise1.conclusion, premise2.conclusion
    if c1.goal != imp.antecedent:
        raise ValueError("first premise must prove the antecedent")
    rest = multiset_minus(c2.context, imp.consequent)
    if rest is None:
        raise ValueError("second premise lacks the consequent product")
    conclusion = LlSequent(c1.context + rest + (imp,), c2.goal)
    return LlProof(LlRule.LIMP, conclusion, (premise1, premise2), principal=imp)


def ll_limpoplus(premise1: LlProof, premise2: LlProof, imp: OplusImplication, tag: int) -> LlProof:
    c1, c2 = premise1.conclusion, premise2.conclusion
    if c1.goal != imp.antecedent:
        raise ValueError("first premise must prove the antecedent")
    occurrence = LlOplusProduct(imp.left, imp.right, tag)
    rest = multiset_minus(c2.context, occurrence)
    if rest is None:
        raise ValueError(f"second premise lacks the pending choice {occurrence}")
    conclusion = LlSequent(c1.context + rest + (imp,), c2.goal)
    return LlProof(LlRule.LIMPOPLUS, conclusion, (premise1, premise2), principal=imp)


def ll_loplus(premise1: LlProof, premise2: LlProof, occurrence: LlOplusProduct) -> LlProof:
    c1, c2 = premise1.conclusion, premise2.conclusion
    if c1.goal != c2.goal:
        raise ValueError("premise goals differ")
    rest1 = multiset_minus(c1.context, occurrence.left)
    rest2 = multiset_minus(c2.context, occurrence.right)
    if rest1 is None or rest2 is None or rest1 != rest2:
        raise ValueError("premise contexts do not share a frame for the choice")
    conclusion = LlSequent(rest1 + (occurrence,), c1.goal)
    return LlProof(LlRule.LOPLUS, conclusion, (premise1, premise2), principal=occurrence)


def ll_lbang(premise: LlProof, formula: HornFormula) -> LlProof:
    c = premise.conclusion
    rest = multiset_minus(c.context, formula)
    if rest is None:
        raise ValueError(f"premise lacks linear {formula.text}")
    banged = LlBang(formula)
    conclusion = LlSequent(rest + (banged,), c.goal)
    return LlProof(LlRule.LBANG, conclusion, (premise,), principal=banged)


def ll_wbang(premise: LlProof, formula: HornFormula) -> LlProof:
    banged = LlBang(formula)
    conclusion = LlSequent(premise.conclusion.context + (banged,), premise.conclusion.goal)
    return LlProof(LlRule.WBANG, conclusion, (premise,), principal=banged)


def ll_cbang(premise: LlProof, formula: HornFormula) -> LlProof:
    banged = LlBang(formula)
    c = premise.conclusion
    rest = multiset_minus(c.context, banged)
    if rest is None or banged not in rest:
        raise ValueError(f"premise needs two banged copies of {formula.text}")
    conclusion = LlSequent(rest, c.goal)
    return LlProof(LlRule.CBANG, conclusion, (premise,), principal=banged)


def _consumed_tag(node: LlProof) -> int:
    """The tag of the pending occurrence an implication-choice node consumes.

    Content-equal occurrences may coexist under different tags; the consumed
    one is the tag present in the second premise but absent from the
    conclusion.
    """
    imp = node.principal
    surviving = {
        g.tag for g in node.conclusion.context if isinstance(g, LlOplusProduct)
    }
    consumed = [
        g.tag
        for g in node.premises[1].conclusion.context
        if isinstance(g, LlOplusProduct)
        and g.left == imp.left
        and g.right == imp.right
        and g.tag not in surviving
    ]
    if len(consumed) != 1:
        raise ProofStructureError(
            "implication-choice node must consume exactly one pending occurrence"
        )
    return consumed[0]


# --- The normalizer -----------------------------------------------------------


def specialize(proof: LlProof, tag: int, side: int) -> LlProof:
    """Invert every left-choice step for a tag, committing to one component.

    The result proves the same sequent with the tagged choice product replaced
    by its chosen side, and has no left-choice node for the tag.  A tag is in
    a conclusion exactly when its left choice lies in the subtree, so only a
    node with a changed premise gets the chosen side in its conclusion.
    """
    occ = next((g for g in proof.conclusion.context if isinstance(g, LlOplusProduct) and g.tag == tag), None)
    if occ is None:
        raise ProofStructureError(f"cannot specialize: tag {tag} absent from conclusion")
    chosen = occ.left if side == 1 else occ.right

    def expands(node: LlProof) -> bool:
        return node.rule is LlRule.LOPLUS and node.principal.tag == tag

    def combine(node: LlProof, premises: list[LlProof]) -> LlProof:
        if expands(node):
            return node.premises[side - 1]
        if all(new is old for new, old in zip(premises, node.premises)):
            return node
        rest = multiset_minus(node.conclusion.context, occ)
        if rest is None:  # the subtree consumes its own choice for the tag
            return node
        conclusion = LlSequent(rest + (chosen,), node.conclusion.goal)
        return replace(node, conclusion=conclusion, premises=tuple(premises))

    result = hll.fold(proof, combine, lambda node: () if expands(node) else node.premises)
    if result is proof:
        raise ProofStructureError(f"tag {tag} vanished above its expansion (corrupt proof)")
    return result


def _consumes(node: LlProof, index: int, tag: int) -> bool:
    """Whether node consumes the choice tagged tag from its premise index."""
    return node.rule is LlRule.LIMPOPLUS and index == 1 and _consumed_tag(node) == tag


def unadjacent_choice_paths(proof: LlProof) -> list[tuple[int, ...]]:
    return [
        hll.path_of(trail)
        for node, trail in hll.walk(proof)
        if node.rule is LlRule.LOPLUS
        and (trail is None or not _consumes(trail[1], trail[2], node.principal.tag))
    ]


def _move_choice(proof: LlProof, path: tuple[int, ...]) -> LlProof:
    """Move the left choice at ``path`` onto the inference consuming its tag.

    With ``S`` the consumer's second premise, ``S`` becomes the left choice
    of ``specialize(S, tag, 1)`` and ``specialize(S, tag, 2)``.  No
    conclusion changes, so the nodes below are copied with one premise
    swapped.
    """
    trail, premise = None, proof
    for i in path:
        trail, premise = (trail, premise, i), premise.premises[i]
    occ: LlOplusProduct = premise.principal
    for _ in range(consumer_distance(occ.tag, trail) - 1):
        trail, premise = trail[0], trail[1]
    moved = ll_loplus(specialize(premise, occ.tag, 1), specialize(premise, occ.tag, 2), occ)
    if moved.conclusion != premise.conclusion:
        raise ProofStructureError("moving a left choice changed the conclusion")
    while trail is not None:
        trail, node, i = trail
        moved = replace(node, premises=node.premises[:i] + (moved,) + node.premises[i + 1:])
    return moved


def push_oplus_down(proof: LlProof, on_step=None) -> LlProof:
    """Move left-choice inferences down to their consuming implications.

    Repeatedly picks the unadjacent left-choice node closest to the conclusion
    (ties by leftmost path) and moves it in one step: the left-choice rule is
    invertible, so the consumer's second premise ``S`` becomes
    ``ll_loplus(specialize(S, t, 1), specialize(S, t, 2), occ)``.  The other
    choices in ``S`` are copied into both sides and move later.  The
    result proves the same conclusion, with every left-choice node the
    immediate second premise of the implication-choice node consuming its tag.

    ``on_step``, when given, is called with the whole proof once per choice
    moved; ``loplus_distance_sum`` strictly decreases across those calls.
    """
    result = check_ll_proof(proof)
    if not result.ok:
        raise ValueError(f"cannot normalize an invalid proof: {result}")

    guard = 0
    limit = 4 * (sum(1 for _ in hll.walk(proof)) + 1) ** 3
    while True:
        paths = unadjacent_choice_paths(proof)
        if not paths:
            return proof
        proof = _move_choice(proof, min(paths, key=lambda p: (len(p), p)))
        if on_step is not None:
            on_step(proof)
        guard += 1
        if guard > limit:
            raise ProofStructureError("normalization exceeded its conversion budget")


def consumer_distance(tag: int, trail) -> int:
    """Edges from a left choice, reached by ``trail``, down to the
    implication-choice node that consumes its tag."""
    steps = 1
    while trail is not None:
        trail, lower, index = trail
        if _consumes(lower, index, tag):
            return steps
        steps += 1
    raise ProofStructureError(f"left-choice tag {tag} has no consumer below")


def loplus_distance_sum(proof: LlProof) -> int:
    """Sum over left-choice nodes of their edge distance to their consumer.

    The measure the conversions drive down; adjacency contributes 1 per node.
    """
    return sum(
        consumer_distance(node.principal.tag, trail)
        for node, trail in hll.walk(proof)
        if node.rule is LlRule.LOPLUS and trail is not None
    )


# --- Horn reading and translation ----------------------------------------------


def horn_reading(sequent: LlSequent) -> HornSequent:
    """Zone a flat context: products tensor into the input, implications split
    by bang.  Fails on pending choice products and on empty product part."""
    products: list[SimpleProduct] = []
    linear: list[HornFormula] = []
    banged: list[HornFormula] = []
    for g in sequent.context:
        if isinstance(g, SimpleProduct):
            products.append(g)
        elif isinstance(g, (PlainImplication, OplusImplication)):
            linear.append(g)
        elif isinstance(g, LlBang):
            if isinstance(g.formula, SimpleProduct):
                raise ValueError("banged product has no zoned reading")
            banged.append(g.formula)
        else:
            raise ValueError(f"pending choice {g} has no zoned reading")
    if not products:
        raise ValueError("context has no product part")
    return HornSequent(tensor_all(products), tuple(linear), tuple(banged), sequent.goal)


def _context_products(context: tuple[LlFormula, ...]) -> Frame:
    products = [g for g in context if isinstance(g, SimpleProduct)]
    return tensor_all(products) if products else Frame()


def _framed(proof: HllProof, frame: Frame) -> HllProof:
    return hll.frame_rule(proof, frame) if isinstance(frame, SimpleProduct) else proof


def translate_ll_to_hll(proof: LlProof) -> HllProof:
    """Normalize, then simulate each inference in the zoned calculus.

    The output checks valid and concludes exactly the zoned reading of the
    input's conclusion.
    """
    translated = hll.fold(push_oplus_down(proof), _translate)
    expected = horn_reading(proof.conclusion)
    if translated.conclusion != expected:
        raise AssertionError(
            f"translation drifted: {translated.conclusion} != {expected}"
        )
    return translated


_BANG_RULES = {LlRule.LBANG: hll.lbang, LlRule.WBANG: hll.wbang, LlRule.CBANG: hll.cbang}


def _translate(node: LlProof, premises: list):
    """One inference simulated in the zoned calculus, given the translations
    of its premises.  A left choice gives the pair of its premises'
    translations, which only the implication-choice consuming it unpacks."""
    rule = node.rule
    for i, p in enumerate(node.premises):
        if p.rule is LlRule.LOPLUS and not (rule is LlRule.LIMPOPLUS and i == 1):
            raise ProofStructureError("left choice surfaced outside its consuming inference")

    if rule is LlRule.LOPLUS:
        return tuple(premises)

    if rule is LlRule.I:
        return hll.i_axiom(node.conclusion.goal)

    if rule is LlRule.LTENSOR:
        # Regrouping is invisible in the canonical reading; keep the rule
        # as an explicit no-op step.
        return hll.ltensor(premises[0])

    if rule is LlRule.RTENSOR:
        pi1, pi2 = node.premises
        t1, t2 = premises
        w1 = _context_products(pi1.conclusion.context)
        z2 = pi2.conclusion.goal
        proves = _framed(t2, w1)  # ... |- Z2 (x) W1
        uses = hll.frame_rule(t1, z2)  # W1 (x) Z2, ... |- Z1 (x) Z2
        return hll.cut(proves, uses)

    if rule is LlRule.LIMP:
        imp: PlainImplication = node.principal
        t1, t2 = premises
        inner = hll.cut(t1, hll.h_axiom(imp))
        rest = multiset_minus(node.premises[1].conclusion.context, imp.consequent)
        w2 = _context_products(rest)
        return hll.cut(_framed(inner, w2), t2)

    if rule is LlRule.LIMPOPLUS:
        imp: OplusImplication = node.principal
        loplus = node.premises[1]
        if loplus.rule is not LlRule.LOPLUS or _consumed_tag(node) != loplus.principal.tag:
            raise ProofStructureError(
                "implication-choice without its adjacent left choice; normalize first"
            )
        t0, (t1, t2) = premises
        rest1 = multiset_minus(loplus.premises[0].conclusion.context, imp.left)
        v = _context_products(rest1)
        choice = hll.oplus_h(t1, t2, imp, v)
        return hll.cut(_framed(t0, v), choice)

    if rule in _BANG_RULES:
        return _BANG_RULES[rule](premises[0], node.principal.formula)

    raise AssertionError(rule)


# --- Text formats ----------------------------------------------------------------


def ll_sequent_text(s: LlSequent) -> str:
    context = ", ".join(g.text for g in s.context)
    left = context + " " if context else ""
    return f"{left}|- {s.goal.text}"


def parse_ll_formula(text: str) -> LlFormula:
    ts = TokenStream(text)
    f = _parse_ll_formula(ts)
    ts.done()
    return f


def _parse_ll_formula(ts: TokenStream) -> LlFormula:
    """One member: an optional ``!(``, then a product, bare or parenthesised,
    and an optional ``-o`` rest; outside a bang the parenthesis may instead
    open a tagged choice ``(Y1 + Y2)#n``."""
    banged = ts.peek().text == "!"
    if banged:
        ts.next()
        ts.expect("(")
    if ts.peek().text == "(":
        ts.next()
        first = _parse_bare_product(ts)
        if not banged and ts.peek().text == "+":
            ts.next()
            second = _parse_bare_product(ts)
            ts.expect(")")
            ts.expect("#")
            num = ts.next()
            if num.kind != "num":
                raise FormatError("expected a tag number after '#'", num.position)
            return LlOplusProduct(first, second, int(num.text))
        ts.expect(")")
    else:
        first = _parse_bare_product(ts)
    member = _parse_formula_rest(ts, first) if ts.peek().text == "-o" else first
    if banged:
        ts.expect(")")
        return LlBang(member)
    return member


def parse_ll_sequent(text: str) -> LlSequent:
    ts = TokenStream(text)
    context: list[LlFormula] = []
    if ts.peek().text != "|-":
        context.append(_parse_ll_formula(ts))
        while ts.peek().text == ",":
            ts.next()
            context.append(_parse_ll_formula(ts))
    ts.expect("|-")
    goal = _parse_bare_product(ts)
    ts.done()
    return LlSequent(tuple(context), goal)


def ll_proof_to_json(proof: LlProof) -> str:
    return json.dumps(hll.fold(proof, _ll_to_data), indent=2) + "\n"


def _ll_to_data(node: LlProof, premises: list[dict]) -> dict:
    data: dict = {"rule": node.rule.value, "conclusion": ll_sequent_text(node.conclusion)}
    if node.principal is not None:
        data["principal"] = node.principal.text
    if node.split is not None:
        data["split"] = [node.split[0].text, node.split[1].text]
    if premises:
        data["premises"] = premises
    return data


def ll_proof_from_json(text: str) -> LlProof:
    return hll.fold(json.loads(text), _ll_from_data, hll.json_premises)


def _ll_from_data(data: dict, premises: list[LlProof]) -> LlProof:
    rule = LlRule(data["rule"])
    conclusion = parse_ll_sequent(data["conclusion"])
    principal = parse_ll_formula(data["principal"]) if "principal" in data else None
    split = None
    if "split" in data:
        split = (parse_product(data["split"][0]), parse_product(data["split"][1]))
    return LlProof(rule, conclusion, tuple(premises), principal=principal, split=split)

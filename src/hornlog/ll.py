"""Cut-free derivations in the two-sided fragment, their normalizer, and the
translation into the zoned calculus.

Sequents here are a flat context multiset over a single product goal.  Context
members are ``syntax.py``'s members: products, implications, ``LlBang``, a
banged implication, and ``LlOplusProduct``, a choice product ``(Y1 + Y2)``
that exists only between the left-choice rule that expands it and the
implication-choice rule that introduces it.  Each choice product carries an
integer tag so the two rules pair by occurrence even when equal formulas
coexist; one context holds each tag at most once.

Each rule's conclusion is stated once, in ``_ll_conclude``, from the node's
inference: rule, premises, principal (an axiom's product too), split and
tag.  Every flat node, the normalizer's too, is drawn by ``_ll_node``, which
is ``hll.draw`` bound to this calculus's format, so it is checked once, when
built.  An implication-choice node keeps the tag it consumes: a choice's
consumer is the first implication-choice node below it, reached from its
second premise, that carries the choice's tag.

``push_oplus_down`` moves every left-choice inference down until it sits
immediately above the implication-choice inference that consumes its
principal.  It is no product stage: ``compile ll-to-hll`` resolves each choice
in the translation's fold below, and the normalizer is kept only as the
reference that fold is tested against and the bench traces.  The left-choice
rule is invertible: ``specialize`` replaces a tagged choice product by each of
its components throughout a subproof, both in one traversal, so a choice
moves in one step.  A move redraws the consumer's second premise and every
node below it, so the unadjacent choices are found afresh after each move.

``translate_ll_to_hll`` resolves each choice where it is consumed: one fold
keys a node's translations by the sides chosen for the choices pending in
its conclusion, the commuting conversion done by evaluation.  It maps each
inference into the zoned calculus, reading a flat context as
input-product/linear/banged zones and each frame off the zoned premises it
has drawn.  It is not rule for rule: an identity axiom is never cut or
framed, as the cut concludes its other premise and the framed identity is
the identity of the tensor.  Neither emits a program edge, so the compiled
program is the same.  An identity is carried as its bare product until a
rule or the root keeps it, so the translation draws only the nodes it returns.
Proof files are ``hll``'s proof table, laid out for this calculus.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from itertools import product
from math import prod

from . import hll
from .hll import HllProof
from .syntax import (
    Frame,
    HornFormula,
    HornSequent,
    LlBang,
    LlOplusProduct,
    Member,
    OplusImplication,
    PlainImplication,
    SimpleProduct,
    Value,
    canonical_zone,
    match_antecedent,
    multiset_minus,
    tensor_all,
    zone_insert,
    zone_merge,
)


class ProofStructureError(ValueError):
    """A proof object is malformed beyond schema mismatch (corrupt input)."""


class LlSequent(Value):
    __match_args__ = ("context", "goal")
    context: tuple[Member, ...]
    goal: SimpleProduct

    def __init__(self, context: tuple, goal: SimpleProduct):
        self.__dict__.update(context=canonical_zone(context), goal=goal)

    @classmethod
    def of_canonical(cls, context, goal):
        """Wrap a context already in canonical order, skipping the sort."""
        sequent = object.__new__(cls)
        sequent.__dict__.update(context=context, goal=goal)
        return sequent

    def __str__(self) -> str:
        return ll_sequent_text(self)


class LlRule(hll.Rule):
    I = "I"
    LTENSOR = "LTENSOR"
    RTENSOR = "RTENSOR"
    LIMP = "LIMP"
    LIMPOPLUS = "LIMPOPLUS"
    LOPLUS = "LOPLUS"
    LBANG = "LBANG"
    WBANG = "WBANG"
    CBANG = "CBANG"


I, LTENSOR, RTENSOR, LIMP, LIMPOPLUS, LOPLUS, LBANG, WBANG, CBANG = LlRule  # the members, bound once

# Each rule's premise count and its principal's kind (None: it has none).
_LL_RULES = {
    I: (0, SimpleProduct), LTENSOR: (1, SimpleProduct), LBANG: (1, LlBang), WBANG: (1, LlBang), CBANG: (1, LlBang),
    RTENSOR: (2, None), LIMP: (2, PlainImplication), LIMPOPLUS: (2, OplusImplication), LOPLUS: (2, LlOplusProduct),
}


class LlProof(Value):
    __match_args__ = ("rule", "conclusion", "premises", "principal", "split", "tag")
    rule: LlRule
    conclusion: LlSequent
    premises: tuple[LlProof, ...]
    principal: Member | None
    # LTENSOR records how the principal product splits in the premise.
    split: tuple[SimpleProduct, SimpleProduct] | None
    tag: int | None  # LIMPOPLUS: the tag of the choice it consumes
    checked = False  # not a field; set by hll.draw alone

    def __init__(self, rule: LlRule, conclusion: LlSequent, premises: tuple = (), principal=None, split=None,
                 tag=None):
        self.__dict__.update(rule=rule, conclusion=conclusion, premises=premises, principal=principal, split=split,
                             tag=tag)


def _ll_conclude(rule: LlRule, premises: tuple, principal, split, tag) -> LlSequent | str:
    """The conclusion ``rule`` draws from its premises, or the side condition
    that fails.  I takes its product as ``principal``; LIMPOPLUS consumes the
    pending choice tagged ``tag`` from its second premise."""
    a = principal
    if rule is I:
        return LlSequent.of_canonical((a,), a)
    p = premises[0].conclusion
    goal = p.goal
    if rule is LTENSOR:
        if split is None:
            return "product regrouping needs its split"
        if split[0].tensor(split[1]) != a:
            return "split does not recombine to the principal product"
        rest = multiset_minus(p.context, *split)
        if rest is None:
            return "premise context must hold both parts of the split"
        context = zone_insert(rest, a)
    elif rule is RTENSOR:
        q = premises[1].conclusion
        context, goal = zone_merge(p.context, q.context), p.goal.tensor(q.goal)
    elif rule in (LIMP, LIMPOPLUS):
        if p.goal != a.antecedent:
            return "first premise must prove the antecedent"
        if rule is LIMPOPLUS and tag is None:
            return "implication choice needs the tag it consumes"
        q = premises[1].conclusion
        consumed = a.consequent if rule is LIMP else LlOplusProduct(a.left, a.right, tag)
        rest = multiset_minus(q.context, consumed)
        if rest is None:
            return f"second premise context must carry {consumed}"
        if rule is LIMPOPLUS and any(isinstance(g, LlOplusProduct) and g.tag == tag for g in p.context):
            # The conclusion would still hold the tag, so no consumer below
            # could tell which choice this node consumed.
            return "consumed choice tag is still pending in the first premise"
        context, goal = zone_merge(p.context, zone_insert(rest, a)), q.goal
    elif rule is LOPLUS:
        q = premises[1].conclusion
        if q.goal != goal:
            return "premise goals must match"
        rest = multiset_minus(p.context, a.left)
        if rest is None or rest != multiset_minus(q.context, a.right):
            return "premise contexts must expand one frame to the two components"
        context = zone_insert(rest, a)
    else:  # the bang rules
        if isinstance(a.formula, SimpleProduct):
            return "only implications may be banged"
        rest = p.context
        if rule is LBANG:  # dereliction: a linear copy becomes the bang
            rest = multiset_minus(rest, a.formula)
        elif rule is CBANG:  # contraction: two bangs become one
            rest = multiset_minus(rest, a, a)
        if rest is None:
            return "premise context does not match the bang schema"
        context = zone_insert(rest, a)
    # Checked premises hold each tag once; over them only the two-premise
    # rules, which join two contexts or add a choice, can hold one twice.
    clash = (len(premises) == 2 or not premises[0].checked) and _tag_clash(context)
    return clash or LlSequent.of_canonical(context, goal)


def _tag_clash(context: tuple) -> str | None:
    """Tags pair a left choice with its consumer, so one context holds each once."""
    tags = [g.tag for g in context if isinstance(g, LlOplusProduct)]
    if len(set(tags)) == len(tags):
        return None
    duplicated = sorted(tag for tag, count in Counter(tags).items() if count > 1)
    return f"choice tags duplicated in one context: {duplicated}"


def check_ll_proof(proof: LlProof) -> hll.CheckResult:
    """Verify every node against its rule schema; report the first failure."""
    return hll.check_tree(proof, _LL_FORMAT)


# --- Node builders: each draws its node through ``hll.draw`` ---------------------


def ll_i(x: SimpleProduct) -> LlProof:
    return _ll_node(I, (), x, None, None)


def ll_ltensor(premise: LlProof, x: SimpleProduct, y: SimpleProduct) -> LlProof:
    return _ll_node(LTENSOR, (premise,), x.tensor(y), (x, y), None)


def ll_rtensor(premise1: LlProof, premise2: LlProof) -> LlProof:
    return _ll_node(RTENSOR, (premise1, premise2), None, None, None)


def ll_limp(premise1: LlProof, premise2: LlProof, imp: PlainImplication) -> LlProof:
    return _ll_node(LIMP, (premise1, premise2), imp, None, None)


def ll_limpoplus(premise1: LlProof, premise2: LlProof, imp: OplusImplication, tag: int) -> LlProof:
    return _ll_node(LIMPOPLUS, (premise1, premise2), imp, None, tag)


def ll_loplus(premise1: LlProof, premise2: LlProof, occurrence: LlOplusProduct) -> LlProof:
    return _ll_node(LOPLUS, (premise1, premise2), occurrence, None, None)


def ll_lbang(premise: LlProof, formula: HornFormula) -> LlProof:
    return _ll_node(LBANG, (premise,), LlBang(formula), None, None)


def ll_wbang(premise: LlProof, formula: HornFormula) -> LlProof:
    return _ll_node(WBANG, (premise,), LlBang(formula), None, None)


def ll_cbang(premise: LlProof, formula: HornFormula) -> LlProof:
    return _ll_node(CBANG, (premise,), LlBang(formula), None, None)


def _redraw(node: LlProof, premises: tuple) -> LlProof:  # node's inference over other premises
    return _ll_node(node.rule, premises, node.principal, node.split, node.tag)


# --- The normalizer -----------------------------------------------------------


def specialize(proof: LlProof, tag: int) -> tuple[LlProof, LlProof]:
    """Invert every left-choice step for a tag, committing to each component.

    The pair proves the same sequent with the tagged choice product replaced
    by its left, then its right side, and has no left-choice node for the
    tag; one traversal draws both.  A tag is in a conclusion exactly when its
    left choice lies above with no consumer of the tag between, so a node with
    a changed premise is redrawn over each side's unless it consumes the tag.
    """
    if not any(isinstance(g, LlOplusProduct) and g.tag == tag for g in proof.conclusion.context):
        raise ProofStructureError(f"cannot specialize: tag {tag} absent from conclusion")

    def expands(node: LlProof) -> bool:
        return node.rule is LOPLUS and node.principal.tag == tag

    def combine(node: LlProof, premises: list[tuple[LlProof, LlProof]]) -> tuple[LlProof, LlProof]:
        if expands(node):
            return node.premises
        if _consumes(node, 1, tag) or all(new is old for (new, _), old in zip(premises, node.premises)):
            return node, node
        return tuple(_redraw(node, below) for below in zip(*premises))

    result = hll.fold(proof, combine, lambda node: () if expands(node) else node.premises)
    if result[0] is proof:
        raise ProofStructureError(f"tag {tag} vanished above its expansion (corrupt proof)")
    return result


def _consumes(node: LlProof, index: int, tag: int) -> bool:
    """Whether node consumes the choice tagged tag from its premise index: an
    implication-choice node consumes the tag it carries from its second
    premise."""
    return node.rule is LIMPOPLUS and index == 1 and node.tag == tag


def unadjacent_choice_paths(proof: LlProof) -> list[tuple[int, ...]]:
    """The paths of the left choices that their parent does not consume, in preorder."""
    return [
        hll.path_of(trail)
        for node, trail in hll.walk(proof)
        if node.rule is LOPLUS
        and (trail is None or not _consumes(trail[1], trail[2], node.principal.tag))
    ]


def _move_choice(proof: LlProof, path: tuple[int, ...]) -> LlProof:
    """Move the left choice at ``path`` onto the inference consuming its tag.

    With ``S`` the consumer's second premise, ``S`` becomes the left choice
    of both sides of ``specialize(S, tag)``.  No conclusion changes, so each
    node below is redrawn with one premise swapped; the input is checked, so a
    move that draws no node or changes one is a fault (AssertionError).
    """
    trail, premise = None, proof
    for i in path:
        trail, premise = (trail, premise, i), premise.premises[i]
    occ: LlOplusProduct = premise.principal
    for _ in range(consumer_distance(occ.tag, trail) - 1):
        trail, premise = trail[0], trail[1]
    try:
        moved = ll_loplus(*specialize(premise, occ.tag), occ)
    except hll.InvalidProof as exc:
        raise AssertionError(f"the normalizer drew an invalid node: {exc}") from None
    if moved.conclusion != premise.conclusion:
        raise AssertionError("moving a left choice changed the conclusion")
    while trail is not None:
        trail, node, i = trail
        moved = _redraw(node, node.premises[:i] + (moved,) + node.premises[i + 1:])
    return moved


def push_oplus_down(proof: LlProof, on_step=None) -> LlProof:
    """Move left-choice inferences down to their consuming implications.

    While a left-choice node is unadjacent, moves the one closest to the
    conclusion (ties by leftmost path) in one step: the left-choice rule is
    invertible, so the consumer's second premise ``S`` becomes
    ``ll_loplus(*specialize(S, t), occ)``.  The other choices in ``S`` are
    drawn into both sides and move later.  The result proves the same
    conclusion, with every left-choice node the immediate second premise of
    the implication-choice node consuming its tag, and is marked checked when
    the input is.  More than ``4 * (nodes + 1) ** 3`` moves, with the input's
    nodes counted once, is refused as a conversion that never ends.

    ``on_step``, when given, is called with the whole proof once per choice
    moved; the sum of each left choice's distance to its consumer strictly
    decreases across those calls.
    """
    result = check_ll_proof(proof)
    if not result.ok:
        raise ValueError(f"cannot normalize an invalid proof: {result}")
    budget = 4 * (sum(1 for _ in hll.walk(proof)) + 1) ** 3
    normal, moves = proof, 0
    while paths := unadjacent_choice_paths(normal):
        normal = _move_choice(normal, min(paths, key=lambda p: (len(p), p)))
        if on_step is not None:
            on_step(normal)
        moves += 1
        if moves > budget:
            raise ProofStructureError("normalization exceeded its conversion budget")
    return normal


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


# A translation is a zoned proof, or the bare product of an identity axiom,
# drawn only where a rule or the root keeps it.
Translation = HllProof | SimpleProduct


def _zoned(t: Translation) -> HllProof:
    return hll.i_axiom(t) if isinstance(t, SimpleProduct) else t


def _ends(t: Translation) -> tuple[SimpleProduct, SimpleProduct]:
    """A translation's input and goal."""
    return (t, t) if isinstance(t, SimpleProduct) else (t.conclusion.input, t.conclusion.goal)


def _framed(t: Translation, frame: Frame) -> Translation:
    """A translation framed by a residual: an empty one adds nothing, and an
    identity framed is the identity of the tensor."""
    if frame.is_empty:
        return t
    if isinstance(t, SimpleProduct):
        return t.tensor(frame)
    return hll.frame_rule(t, tensor_all((frame,)))


def _cut(first: Translation, second: Translation) -> Translation:
    """The cut of two translations, or the other one where one is an identity
    on the product the cut passes on, since the cut would conclude it."""
    if isinstance(first, SimpleProduct) and first == _ends(second)[0]:
        return second
    if isinstance(second, SimpleProduct) and _ends(first)[1] == second:
        return first
    return hll.cut(_zoned(first), _zoned(second))


def translate_ll_to_hll(proof: LlProof) -> HllProof:
    """Simulate each inference in the zoned calculus, resolving each left
    choice where it is consumed, with no identity axiom cut or framed.

    The output checks valid and concludes exactly the zoned reading of the
    input's conclusion.  Once the input is checked, a node the translation
    cannot draw is a fault (AssertionError), not malformed input.
    """
    result = check_ll_proof(proof)
    if not result.ok:
        raise ValueError(f"cannot translate an invalid proof: {result}")
    # A tag pending in the end-sequent has no consumer; refused before any
    # side of it is resolved, as k of them would be resolved 2**k ways.
    orphans = [g.tag for g in proof.conclusion.context if isinstance(g, LlOplusProduct)]
    if orphans:
        raise ProofStructureError(f"left-choice tag {min(orphans)} has no consumer below")
    try:
        (translated,) = hll.fold(proof, partial(_resolve, budget=_Budget(proof))).values()
    except hll.InvalidProof as exc:
        raise AssertionError(f"the translation drew an invalid node: {exc}") from None
    translated = _zoned(translated)
    expected = horn_reading(proof.conclusion)
    if translated.conclusion != expected:
        raise AssertionError(f"translation drifted: {translated.conclusion} != {expected}")
    return translated


class _Budget:
    """The fold's running total of translations, refused before a node's are drawn
    once past ``_TRANSLATIONS_PER_NODE`` per flat-proof node.  Those nodes are
    counted only once the total outgrows that many per node folded so far."""

    def __init__(self, proof: LlProof):
        self.proof, self.total, self.folded, self.limit = proof, 0, 0, 0

    def draw(self, count: int) -> None:
        self.total, self.folded = self.total + count, self.folded + 1
        if self.total > _TRANSLATIONS_PER_NODE * self.folded:
            self.limit = self.limit or _TRANSLATIONS_PER_NODE * sum(1 for _ in hll.walk(self.proof))
            if self.total > self.limit:
                raise ProofStructureError(f"translation would draw {self.total} translations, over its bound of "
                                          f"{self.limit}: {_TRANSLATIONS_PER_NODE} per node of the flat proof")


def _resolve(node: LlProof, premises: list[dict], budget: _Budget) -> dict:
    """A node's translations, keyed by the side (0 left, 1 right) chosen for
    each choice tag pending in its conclusion, as a frozenset of (tag, side).

    A left choice files each premise's translations under its side; the
    implication-choice consuming the tag pairs them again.  Every node is
    translated once per combination of its premises' translations, so one
    with no tag pending has one translation, shared by every copy above it.
    k choices pending make 2**k: each node's count goes to ``budget`` first.
    """
    if node.rule is LOPLUS:
        tag = node.principal.tag
        budget.draw(len(premises[0]) + len(premises[1]))
        return {sides | {(tag, side)}: t for side, below in enumerate(premises) for sides, t in below.items()}
    if node.rule is LIMPOPLUS:
        left, right = ({sides - {(node.tag, side)}: t for sides, t in premises[1].items() if (node.tag, side) in sides}
                       for side in (0, 1))
        premises = [premises[0], {sides: (t, right[sides]) for sides, t in left.items()}]
    budget.draw(prod(map(len, premises)))
    untagged = [below[_NONE] for below in premises if len(below) == 1 and _NONE in below]
    if len(untagged) == len(premises):
        return {_NONE: _translate(node, untagged)}
    if len(premises) == 1:  # the premise's sides are the node's
        return {sides: _translate(node, [t]) for sides, t in premises[0].items()}
    return {
        frozenset().union(*(sides for sides, _ in combination)): _translate(node, [t for _, t in combination])
        for combination in product(*(below.items() for below in premises))
    }


_NONE = frozenset()  # the sides chosen where no tag is pending
_TRANSLATIONS_PER_NODE = 8  # the fold's translations are at most this many times the flat proof's nodes
_BANG_RULES = {LBANG: hll.lbang, WBANG: hll.wbang, CBANG: hll.cbang}


def _translate(node: LlProof, premises: list):
    """One inference simulated in the zoned calculus, given the translations
    of its premises; an implication-choice is given its second premise's
    pair, one translation per side of the choice it consumes."""
    rule = node.rule
    if rule is I:
        return node.principal

    if rule is LTENSOR:
        # Regrouping is invisible in the canonical reading; keep the rule
        # as an explicit no-op step.
        return hll.ltensor(_zoned(premises[0]))

    if rule is RTENSOR:
        t1, t2 = premises
        proves = _framed(t2, _ends(t1)[0])  # W2 (x) W1, ... |- Z2 (x) W1
        uses = _framed(t1, _ends(t2)[1])  # W1 (x) Z2, ... |- Z1 (x) Z2
        return _cut(proves, uses)

    if rule is LIMP:
        imp: PlainImplication = node.principal
        t1, t2 = premises
        inner = _cut(t1, hll.h_axiom(imp))
        w2 = match_antecedent(_ends(t2)[0], imp.consequent)
        return _cut(_framed(inner, w2), t2)

    if rule is LIMPOPLUS:
        imp: OplusImplication = node.principal
        t0, (t1, t2) = premises
        v = match_antecedent(_ends(t1)[0], imp.left)
        choice = hll.oplus_h(_zoned(t1), _zoned(t2), imp, v)
        return _cut(_framed(t0, v), choice)

    if rule in _BANG_RULES:
        return _BANG_RULES[rule](_zoned(premises[0]), node.principal.formula)

    raise AssertionError(rule)


# --- Text formats ----------------------------------------------------------------


def ll_sequent_text(s: LlSequent) -> str:
    context = ", ".join(g.text for g in s.context)
    left = context + " " if context else ""
    return f"{left}|- {s.goal.text}"


_LL_FORMAT = hll.ProofFormat(
    LlProof, _ll_conclude, LlSequent, _LL_RULES,
    {"split": frozenset({LTENSOR}), "tag": frozenset({LIMPOPLUS})},
    parts=(("context", Member, None), ("goal", SimpleProduct, 1)),
    fields=(("principal", Member, 1), ("split", SimpleProduct, 2), ("tag", int, 1)),
)
_ll_node = partial(hll.draw, _LL_FORMAT)  # the builders' factory


def ll_proof_to_json(proof: LlProof) -> str:
    return hll.proof_to_json(proof, _LL_FORMAT)


def ll_proof_from_json(text: str) -> LlProof:
    return hll.proof_from_json(text, _LL_FORMAT)

import hashlib
from collections import Counter

import pytest

from corpora import (
    _choice_block,
    _rtensor_separated_case,
    _stacked_case,
    ll_corpus,
    ll_separation,
    loplus_distance_sum,
    pending_choices,
    replace,
    separated_shapes,
    stacked_weakenings,
)
from hornlog import cli, hll, ll
from hornlog.ll import (
    LlBang,
    LlOplusProduct,
    LlProof,
    LlRule,
    LlSequent,
    ProofStructureError,
    check_ll_proof,
    horn_reading,
    ll_proof_from_json,
    ll_proof_to_json,
    ll_sequent_text,
    push_oplus_down,
    specialize,
    translate_ll_to_hll,
    unadjacent_choice_paths,
)
from hornlog.programs import program_to_json, verify_strong_solution
from hornlog.syntax import (
    FormatError,
    OplusImplication,
    PlainImplication,
    multiset_minus,
    parse_formula,
    parse_member,
    parse_product,
    parse_sequent,
)

F, G, H, M, C, Z = (parse_product(x) for x in "fghmcz")


def test_identity_accepts():
    assert check_ll_proof(ll.ll_i(F)).ok


def test_left_implication_accepts():
    node = ll.ll_limp(ll.ll_i(F), ll.ll_i(G), PlainImplication(F, G))
    assert check_ll_proof(node).ok
    assert ll_sequent_text(node.conclusion) == "f, f -o g |- g"


def test_right_tensor_accepts():
    node = ll.ll_rtensor(ll.ll_i(F), ll.ll_i(G))
    assert check_ll_proof(node).ok
    assert node.conclusion.goal == parse_product("f*g")


def test_weakening_rejects_banged_product():
    premise = ll.ll_i(F)
    banged_product = LlBang(G)
    conclusion = LlSequent(premise.conclusion.context + (banged_product,), F)
    node = LlProof(LlRule.WBANG, conclusion, (premise,), principal=banged_product)
    result = check_ll_proof(node)
    assert not result.ok and "implication" in result.failure.reason


def test_checker_rejects_a_principal_of_another_kind():
    block = make_choice_block()
    result = check_ll_proof(replace(block, principal=PlainImplication(G, M)))
    assert result.failure.path == () and result.failure.reason == "LOPLUS cannot have g -o m as its principal"


def test_checker_rejects_a_split_its_rule_does_not_take():
    axiom = replace(ll.ll_i(F), split=(F, F))
    assert str(check_ll_proof(axiom)) == "I at root: I takes no split"
    assert str(check_ll_proof(replace(ll.ll_i(F), tag=1))) == "I at root: I takes no tag"


def test_checker_rejects_context_drift():
    good = ll.ll_limp(ll.ll_i(F), ll.ll_i(G), PlainImplication(F, G))
    tampered = LlProof(
        LlRule.LIMP,
        LlSequent(good.conclusion.context + (C,), good.conclusion.goal),
        good.premises,
        principal=good.principal,
    )
    assert not check_ll_proof(tampered).ok


def test_a_node_is_checked_when_built_only_over_checked_premises():
    leaf = ll.ll_i(F)
    assert leaf.checked
    assert not replace(leaf).checked
    assert not LlProof(LlRule.I, leaf.conclusion, principal=F).checked
    forged = replace(leaf, conclusion=LlSequent((G,), F))
    root = ll.ll_rtensor(ll.ll_i(H), ll.ll_wbang(forged, PlainImplication(G, M)))
    assert root.premises[0].checked and not root.checked
    assert str(check_ll_proof(root)) == f"I at 1.0: conclusion must be {leaf.conclusion}"
    with pytest.raises(ValueError, match="cannot normalize an invalid proof"):
        push_oplus_down(root)


def test_moved_choices_are_checked_node_by_node():
    """``specialize`` and the nodes below a moved choice redraw every node
    they change through ``hll.draw``, so the normalized proof is marked."""
    proof = _two_rule_separation()
    assert push_oplus_down(proof) != proof
    for proof in [proof, *ll_corpus()]:
        normalized = push_oplus_down(proof)
        assert all(node.checked for node, _ in hll.walk(normalized))
        assert check_ll_proof(normalized).ok


def test_checking_a_normalized_proof_derives_no_conclusion(monkeypatch):
    """The normalizer's output is marked throughout, so its check trusts the
    mark and derives nothing, where it once redrew every changed node."""
    normalized = push_oplus_down(stacked_weakenings(2000))
    calls = []

    def counted(*args):
        calls.append(args[0])
        return ll._ll_conclude(*args)

    monkeypatch.setattr(ll, "_LL_FORMAT", replace(ll._LL_FORMAT, conclude=counted))
    assert check_ll_proof(normalized).ok
    assert calls == []
    assert check_ll_proof(replace(normalized)).ok  # a copy is unmarked: its root alone is derived
    assert calls == [normalized.rule]


def test_reader_names_the_field_of_an_overlong_integer():
    """``json.loads`` converts a JSON integer with ``int``, which refuses
    more than 4,300 digits; that ValueError once escaped the reader."""
    long = "1" * 5000
    table = ll_proof_to_json(ll.ll_i(F)).replace('"principal": 0', f'"principal": {long}')
    with pytest.raises(FormatError, match="node 0's principal must be an index into 'formulas'"):
        ll_proof_from_json(table)
    choice = ll.ll_limpoplus(ll.ll_i(F), make_choice_block(), OplusImplication(F, G, H), 1)
    table = ll_proof_to_json(choice).replace('"tag": 1', f'"tag": {long}')
    with pytest.raises(FormatError, match=r"node \d+'s tag must be an integer"):
        ll_proof_from_json(table)


def make_choice_block(tag=1):
    imps = [PlainImplication(G, M), PlainImplication(H, M)]

    def branch(y, mine, other):
        node = ll.ll_limp(ll.ll_i(y), ll.ll_i(M), mine)
        node = ll.ll_lbang(node, mine)
        return ll.ll_wbang(node, other)

    occ = ll.LlOplusProduct(G, H, tag)
    return ll.ll_loplus(branch(G, imps[0], imps[1]), branch(H, imps[1], imps[0]), occ)


def test_choice_expansion_accepts():
    assert check_ll_proof(make_choice_block()).ok


def test_specialize_commits_a_branch():
    block = make_choice_block()
    left = specialize(block, 1)[0]
    assert check_ll_proof(left).ok
    assert G in left.conclusion.context
    assert not any(isinstance(g, LlOplusProduct) for g in left.conclusion.context)


def _same_tag_beside_its_consumer():
    """A choice beside a sibling that expands and consumes its own choice
    under the same tag; returns the sibling and their tensor."""
    pair = ll.ll_limpoplus(ll.ll_i(F), make_choice_block(), OplusImplication(F, G, H), 1)
    return pair, ll.ll_rtensor(make_choice_block(), pair)


def test_specialize_keeps_a_premise_that_consumes_its_own_choice():
    """Tags are unique per context only: a sibling subtree may expand and
    consume its own choice under the same tag, and stays as it is."""
    pair, proof = _same_tag_beside_its_consumer()
    assert check_ll_proof(proof).ok
    left = specialize(proof, 1)[0]
    assert left == ll.ll_rtensor(specialize(make_choice_block(), 1)[0], pair)
    assert left.premises[1] is pair


def test_checker_rejects_a_tag_twice_in_one_context(tmp_path):
    """Two blocks expanding tag 1 side by side, each consumed below: the
    tensor's conclusion holds (g + h)#1 twice, which the normalizer cannot
    pair with its consumers."""
    imp = OplusImplication(F, G, H)
    block = make_choice_block()
    with pytest.raises(ValueError, match=r"choice tags duplicated in one context: \[1\]"):
        ll.ll_rtensor(block, block)
    twice = LlSequent(block.conclusion.context * 2, block.conclusion.goal.tensor(block.conclusion.goal))
    pair = LlProof(LlRule.RTENSOR, twice, (block, block))
    # Over a premise nobody checked, a rule that joins nothing finds the clash too.
    with pytest.raises(ValueError, match=r"choice tags duplicated in one context: \[1\]"):
        ll.ll_wbang(pair, PlainImplication(Z, Z))
    proof = ll.ll_limpoplus(ll.ll_i(F), ll.ll_limpoplus(ll.ll_i(F), pair, imp, 1), imp, 1)
    result = check_ll_proof(proof)
    assert not result.ok
    assert result.failure.path == (1, 1)
    assert result.failure.reason == "choice tags duplicated in one context: [1]"
    proof_file = tmp_path / "dup.ll.json"
    proof_file.write_text(ll_proof_to_json(proof))
    assert cli.main(["verify", "ll", str(proof_file)]) == 1
    assert cli.main(["compile", "ll-to-hll", str(proof_file)]) == 2


def test_a_tag_clash_names_only_the_duplicated_tags():
    """Tag 1 twice and tag 2 once in one context: only tag 1 is reported."""
    block, inner = make_choice_block(1), ll.ll_rtensor(make_choice_block(1), make_choice_block(2))
    with pytest.raises(ValueError) as raised:
        ll.ll_rtensor(block, inner)
    assert str(raised.value) == "RTENSOR: choice tags duplicated in one context: [1]"
    conclusion = LlSequent(block.conclusion.context + inner.conclusion.context,
                           block.conclusion.goal.tensor(inner.conclusion.goal))
    result = check_ll_proof(LlProof(LlRule.RTENSOR, conclusion, (block, inner)))
    assert result.failure.reason == "choice tags duplicated in one context: [1]"


def test_checker_rejects_a_consumed_tag_still_pending_in_the_first_premise(tmp_path):
    """An implication-choice node whose first premise still holds a choice
    under the tag it consumes: its conclusion keeps the tag, so the node
    below that consumes it cannot be paired, and the translation would call
    the proof malformed."""
    a, b, c, d, x, g, w = (parse_product(name) for name in "abcdxgw")

    def expansion(y1, y2, goal):
        imps = [PlainImplication(y1, goal), PlainImplication(y2, goal)]

        def branch(y, mine, other):
            node = ll.ll_lbang(ll.ll_limp(ll.ll_i(y), ll.ll_i(goal), mine), mine)
            return ll.ll_wbang(node, other)

        occ = LlOplusProduct(y1, y2, 5)
        return ll.ll_loplus(branch(y1, *imps), branch(y2, *imps[::-1]), occ)

    first, second, imp = expansion(a, b, x), expansion(c, d, g), OplusImplication(x, c, d)
    with pytest.raises(ValueError, match="consumed choice tag is still pending in the first premise"):
        ll.ll_limpoplus(first, second, imp, 5)
    rest = multiset_minus(second.conclusion.context, LlOplusProduct(c, d, 5))
    inner = LlProof(LlRule.LIMPOPLUS, LlSequent(first.conclusion.context + rest + (imp,), g), (first, second), principal=imp, tag=5)
    proof = ll.ll_limpoplus(ll.ll_i(w), inner, OplusImplication(w, a, b), 5)
    result = check_ll_proof(proof)
    assert not result.ok
    assert result.failure.path == (1,)
    assert result.failure.reason == "consumed choice tag is still pending in the first premise"
    proof_file = tmp_path / "pending.ll.json"
    proof_file.write_text(ll_proof_to_json(proof))
    assert cli.main(["verify", "ll", str(proof_file)]) == 1
    assert cli.main(["compile", "ll-to-hll", str(proof_file)]) == 2


def test_push_oplus_down_fixpoint():
    proof = ll.ll_limpoplus(ll.ll_i(F), make_choice_block(), OplusImplication(F, G, H), 1)
    assert unadjacent_choice_paths(proof) == []
    assert push_oplus_down(proof) == proof


def test_commute_past_right_tensor_duplicates_side_proof():
    """The choice-then-tensor block becomes tensor-then-choice with the side
    premise copied into both branches."""
    block = make_choice_block()
    side = ll.ll_i(C)
    node = ll.ll_rtensor(block, side)
    proof = ll.ll_limpoplus(ll.ll_i(F), node, OplusImplication(F, G, H), 1)
    assert len(unadjacent_choice_paths(proof)) == 1
    normalized = push_oplus_down(proof)
    assert check_ll_proof(normalized).ok
    assert normalized.conclusion == proof.conclusion
    assert unadjacent_choice_paths(normalized) == []
    choice_node = normalized.premises[1]
    assert choice_node.rule is LlRule.LOPLUS
    for premise in choice_node.premises:
        assert premise.rule is LlRule.RTENSOR
        assert premise.premises[1] == side


def test_push_down_two_conversions():
    block = make_choice_block()
    block = ll.ll_rtensor(block, ll.ll_i(C))
    block = ll.ll_limp(block, ll.ll_i(Z), PlainImplication(parse_product("m*c"), Z))
    proof = ll.ll_limpoplus(ll.ll_i(F), block, OplusImplication(F, G, H), 1)
    measures = [loplus_distance_sum(proof)]
    normalized = push_oplus_down(proof, on_step=lambda p: measures.append(loplus_distance_sum(p)))
    assert measures[0] == 3 and measures == sorted(measures, reverse=True)
    assert len(set(measures)) == len(measures), "measure must strictly decrease"
    assert normalized.conclusion == proof.conclusion
    assert check_ll_proof(normalized).ok
    assert unadjacent_choice_paths(normalized) == []


def _two_rule_separation():
    """A choice separated from its consumer by a tensor and an implication."""
    block = make_choice_block()
    block = ll.ll_rtensor(block, ll.ll_i(C))
    block = ll.ll_limp(block, ll.ll_i(Z), PlainImplication(parse_product("m*c"), Z))
    return ll.ll_limpoplus(ll.ll_i(F), block, OplusImplication(F, G, H), 1)


def test_the_conversion_budget_is_four_times_the_cubed_node_count_plus_one(monkeypatch):
    """A normalization that never ends stops after 4 * (nodes + 1) ** 3
    moves of the input's nodes, each reported to ``on_step``."""
    proof = _two_rule_separation()
    nodes = sum(1 for _ in hll.walk(proof))
    # A move that settles nothing: the pending choices stay as they are.
    monkeypatch.setattr(ll, "_move_choice", lambda tree, path: tree)
    steps = []
    with pytest.raises(ProofStructureError, match="normalization exceeded its conversion budget"):
        push_oplus_down(proof, on_step=steps.append)
    assert len(steps) == 4 * (nodes + 1) ** 3 + 1


@pytest.mark.parametrize("sides, reason", [
    (2, "moving a left choice changed the conclusion"),
    (1, "the normalizer drew an invalid node: LOPLUS: premise contexts must expand one frame to the two components"),
], ids=["both-sides", "one-side"])
def test_a_normalizer_fault_is_an_assertion(monkeypatch, sides, reason):
    """A ``specialize`` that weakens its sides by one more formula breaks the
    move it serves on a valid proof: the normalizer's fault, not the input's."""
    specialize, extra = ll.specialize, parse_formula("z -o z")
    monkeypatch.setattr(ll, "specialize", lambda proof, tag: tuple(
        ll.ll_wbang(side, extra) if i < sides else side for i, side in enumerate(specialize(proof, tag))))
    with pytest.raises(AssertionError) as caught:
        push_oplus_down(ll_corpus()[1])  # a choice one rule above its consumer
    assert str(caught.value) == reason


def test_push_down_moves_a_choice_in_one_step():
    proof = _two_rule_separation()
    measures = [loplus_distance_sum(proof)]
    push_oplus_down(proof, on_step=lambda p: measures.append(loplus_distance_sum(p)))
    assert measures == [3, 1]


def test_moved_choice_is_the_consumer_premise_specialized_both_ways():
    proof = _two_rule_separation()
    premise = proof.premises[1]
    occ = LlOplusProduct(G, H, 1)
    expected = ll.ll_loplus(specialize(premise, 1)[0], specialize(premise, 1)[1], occ)
    assert push_oplus_down(proof).premises[1] == expected


def test_push_down_rejects_orphan_choice():
    with pytest.raises(ProofStructureError):
        push_oplus_down(make_choice_block())


def _content_equal_choices():
    """Two pending (g + h) occurrences, the one tagged 2 consumed first."""
    f1, f2 = parse_product("f1"), parse_product("f2")
    combos = [(y, yp) for y in (G, H) for yp in (G, H)]
    imps = {y.tensor(yp): PlainImplication(y.tensor(yp), M) for y, yp in combos}

    def pi(y, yp):
        pair = ll.ll_rtensor(ll.ll_i(y), ll.ll_i(yp))
        node = ll.ll_limp(pair, ll.ll_i(M), imps[y.tensor(yp)])
        node = ll.ll_lbang(node, imps[y.tensor(yp)])
        for product, other in imps.items():
            if product != y.tensor(yp):
                node = ll.ll_wbang(node, other)
        return node

    occ1, occ2 = ll.LlOplusProduct(G, H, 1), ll.LlOplusProduct(G, H, 2)
    inner = {y: ll.ll_loplus(pi(y, G), pi(y, H), occ2) for y in (G, H)}
    outer = ll.ll_loplus(inner[G], inner[H], occ1)
    # Consume tag 2 first although tag 1 sorts first among the content-equal
    # occurrences: the consumed occurrence is not the first context match.
    step = ll.ll_limpoplus(ll.ll_i(f1), outer, OplusImplication(f1, G, H), 2)
    return step, ll.ll_limpoplus(ll.ll_i(f2), step, OplusImplication(f2, G, H), 1)


def test_orphan_choices_are_refused_before_any_is_resolved(monkeypatch):
    """Forty choices with no consumer below, side by side: the end-sequent
    names them, so none of the 2**40 ways to resolve them is tried."""
    proof = make_choice_block(1)
    for tag in range(2, 41):
        names = tuple(f"{x}{tag}" for x in "fghm")
        proof = ll.ll_rtensor(proof, _choice_block(names, tag))
    resolved = []
    monkeypatch.setattr(ll, "_resolve", lambda node, premises: resolved.append(node))
    with pytest.raises(ProofStructureError, match="^left-choice tag 1 has no consumer below$"):
        translate_ll_to_hll(proof)
    assert resolved == []


def _drawn_until_refused(monkeypatch, proof, message):
    """The nodes translated before the fold refuses proof with message, which
    must name the bound of 8 translations per node of the flat proof."""
    nodes = sum(1 for _ in hll.walk(proof))
    drawn = []
    translate = ll._translate
    monkeypatch.setattr(ll, "_translate", lambda node, premises: drawn.append(node) or translate(node, premises))
    with pytest.raises(ProofStructureError, match=rf"^{message}, over its bound of {8 * nodes}: 8 per node "
                                                  r"of the flat proof$"):
        translate_ll_to_hll(proof)
    assert len(drawn) <= 8 * nodes
    return drawn


def test_translations_past_the_bound_are_refused_before_they_are_drawn(monkeypatch):
    """Sixteen choices pending at once would give a node 2**16 translations.
    The fold keeps a running total of the translations, and refuses the first
    node that would take it past 8 per node of the flat proof (223 nodes)
    before drawing that node's, so at most the bound's worth is drawn."""
    drawn = _drawn_until_refused(monkeypatch, pending_choices(16), "translation would draw 2180 translations")
    assert max(Counter(drawn).values()) == 512


def test_a_chain_of_one_premise_nodes_each_within_the_bound_is_refused_by_their_total(monkeypatch):
    """Two hundred weakenings above six pending choices each draw 64
    translations, far under 8 per flat node (283 nodes); their total is not."""
    drawn = _drawn_until_refused(monkeypatch, pending_choices(6, weakenings=200),
                                 "translation would draw 2314 translations")
    assert max(Counter(drawn).values()) == 64


def test_choices_pending_within_the_bound_translate():
    """Eight choices pending at once give one node 256 translations and the
    fold 867 in all, within the bound of 8 per flat node (111 nodes), and the
    translation is sound."""
    proof = pending_choices(8)
    assert sum(1 for _ in hll.walk(proof)) == 111
    translated = translate_ll_to_hll(proof)
    assert translated.conclusion == horn_reading(proof.conclusion)
    assert hll.check_hll_proof(translated).ok


def test_content_equal_choices_under_distinct_tags():
    """Two pending (g + h) occurrences: the conclusion decides which tag each
    implication-choice inference consumes."""
    step, proof = _content_equal_choices()
    assert check_ll_proof(step).ok
    assert check_ll_proof(proof).ok
    normalized = push_oplus_down(proof)
    assert check_ll_proof(normalized).ok
    assert normalized.conclusion == proof.conclusion
    assert unadjacent_choice_paths(normalized) == []
    translated = translate_ll_to_hll(proof)
    assert hll.check_hll_proof(translated).ok
    program = hll.compile_hll_to_program(translated)
    assert verify_strong_solution(program, translated.conclusion).ok


def test_translate_axiom():
    t = translate_ll_to_hll(ll.ll_i(F))
    assert t.rule is hll.HllRule.I
    assert t.conclusion == parse_sequent("f ; ; |- f")


def test_translate_left_implication_block():
    """An implication between two identities is the single-step axiom alone:
    the cuts with the identities would conclude what it concludes."""
    node = ll.ll_limp(ll.ll_i(F), ll.ll_i(G), PlainImplication(F, G))
    t = translate_ll_to_hll(node)
    assert t == hll.h_axiom(PlainImplication(F, G))
    assert t.conclusion == parse_sequent("f ; f -o g ; |- g")


def test_translate_a_tensor_of_identities_is_one_identity():
    """Each framed identity is the identity of the tensor, and the cut of two
    identities on one product is that identity."""
    node = ll.ll_rtensor(ll.ll_rtensor(ll.ll_i(F), ll.ll_i(G)), ll.ll_rtensor(ll.ll_i(F), ll.ll_i(H)))
    t = translate_ll_to_hll(node)
    assert t == hll.i_axiom(parse_product("f*f*g*h"))
    assert t.conclusion == parse_sequent("f*f*g*h ; ; |- f*f*g*h")


def test_a_translation_cuts_or_frames_no_identity():
    for proof in ll_corpus():
        for node, _ in hll.walk(translate_ll_to_hll(proof)):
            if node.rule in (hll.HllRule.CUT, hll.HllRule.M):
                assert all(p.rule is not hll.HllRule.I for p in node.premises), node.rule


def _shared_side_case():
    """A choice tensored with a side proof that draws a zoned node, which
    both sides of the choice keep."""
    block = ll.ll_rtensor(make_choice_block(), ll.ll_limp(ll.ll_i(C), ll.ll_i(Z), PlainImplication(C, Z)))
    return ll.ll_limpoplus(ll.ll_i(F), block, OplusImplication(F, G, H), 1)


def test_the_translation_draws_only_what_it_keeps(monkeypatch):
    """Every zoned node the translation draws is a distinct node of its
    result: an identity axiom is carried as its product until a rule or the
    root keeps it, so none is drawn only to be cut or framed away, and a
    subproof with no choice pending is drawn once, however many sides keep it."""
    draws = []
    draw = hll._node
    monkeypatch.setattr(hll, "_node", lambda *args: draws.append(args[0]) or draw(*args))
    identities = [ll.ll_i(F), ll.ll_rtensor(ll.ll_rtensor(ll.ll_i(F), ll.ll_i(G)), ll.ll_i(H))]
    shared = 0
    for proof in [*ll_corpus(), _stacked_case(("f", "g", "h", "m"), 3), _shared_side_case(), *identities]:
        draws.clear()
        nodes = [node for node, _ in hll.walk(translate_ll_to_hll(proof))]
        assert len(draws) == len({id(node) for node in nodes})
        shared += len(nodes) - len(draws)
    assert shared == 1  # the side proof's single-step axiom, kept under both sides


def test_translate_choice_pipeline_builds_fork():
    proof = ll.ll_limpoplus(ll.ll_i(F), make_choice_block(), OplusImplication(F, G, H), 1)
    t = translate_ll_to_hll(proof)
    assert hll.check_hll_proof(t).ok
    program = hll.compile_hll_to_program(t)
    labels = sorted(str(label) for _, _, label in program.edges)
    assert labels == ["f -o g", "f -o h", "g -o m", "h -o m"]
    assert verify_strong_solution(program, t.conclusion).ok


def flat(members, goal: str) -> LlSequent:
    """The flat sequent whose context holds these member texts."""
    return LlSequent(tuple(parse_member(text) for text in members), parse_product(goal))


def test_horn_reading_zones():
    s = flat(["c", "f", "f -o (g + h)", "!(g -o m)"], "m")
    reading = horn_reading(s)
    assert reading == parse_sequent("c*f ; f -o (g + h) ; g -o m |- m")
    with pytest.raises(ValueError):
        horn_reading(flat(["f -o g"], "g"))


def test_context_members_are_syntax_objects():
    context = flat(["a", "a -o b"], "b").context
    assert context == (parse_product("a"), parse_formula("a -o b"))


def test_ll_sequent_text_round_trip():
    cases = [
        (["f", "f -o g"], "g"),
        (["(g + h)#1", "!(g -o m)", "!((h*h) -o m)"], "m"),
        ([], "q"),
        (["!(f -o (g + h))", "c*d"], "c"),
        (["!(x*y)", "(a*a) -o b"], "b"),
    ]
    for members, goal in cases:
        s = flat(members, goal)
        assert [g.text for g in s.context] == sorted(members)
        assert flat([g.text for g in s.context], goal) == s
        assert ll_sequent_text(s) == ", ".join(sorted(members)) + (" " if members else "") + f"|- {goal}"


def test_proof_serialization_round_trip():
    for proof in ll_corpus()[:6]:
        data = ll_proof_to_json(proof)
        again = ll_proof_from_json(data)
        assert again == proof
        assert check_ll_proof(again).ok


def test_a_text_cited_as_member_and_goal_is_read_once():
    proof = ll_proof_from_json('{"formulas": ["a"], "conclusion": [[0], 0], "nodes": [{"rule": "I", "principal": 0}]}')
    assert proof.conclusion.goal is proof.conclusion.context[0] is proof.principal


# --- Corpus-wide laws ----------------------------------------------------------


def test_corpus_is_checked_and_separated():
    corpus = ll_corpus()
    assert len(corpus) >= 10
    assert sum(1 for p in corpus if ll_separation(p) >= 2) >= 3


def nested_and_side_by_side():
    """Beyond the corpus: nested choices, the outer one moved first, and two
    such proofs side by side, so that moves under one premise leave the
    choices pending under the other."""
    stacked = _stacked_case(("f", "g", "h", "m"), 2)
    return [stacked, ll.ll_rtensor(stacked, _rtensor_separated_case(("x", "y", "t", "n")))]


def test_normalization_laws_on_corpus():
    moves = 0
    for proof in ll_corpus() + nested_and_side_by_side():
        measures = [loplus_distance_sum(proof)]
        normalized = push_oplus_down(
            proof, on_step=lambda p: measures.append(loplus_distance_sum(p))
        )
        assert normalized.conclusion == proof.conclusion
        assert check_ll_proof(normalized).ok
        assert unadjacent_choice_paths(normalized) == []
        assert measures == sorted(measures, reverse=True) and len(set(measures)) == len(measures)
        moves += len(measures) - 1
    assert moves == 11 + 2 + 3


def test_translation_laws_on_corpus():
    for proof in ll_corpus():
        t = translate_ll_to_hll(proof)
        assert hll.check_hll_proof(t).ok
        assert t.conclusion == horn_reading(proof.conclusion)
        program = hll.compile_hll_to_program(t)
        assert verify_strong_solution(program, t.conclusion).ok


def test_every_checked_flat_proof_compiles_to_a_strong_solution_of_its_reading():
    """The flat checker's soundness, judged by a second route: each proof it
    accepts translates and compiles to a program that the program verifier,
    which shares nothing with ``_ll_conclude``, accepts against the zoned
    reading of its end-sequent."""
    for proof in [*ll_corpus(), *separated_shapes(1), *separated_shapes(6)]:
        assert check_ll_proof(proof).ok
        program = hll.compile_hll_to_program(translate_ll_to_hll(proof))
        assert verify_strong_solution(program, horn_reading(proof.conclusion)).ok


def rendering(proof):
    """One line per node in preorder: rule, conclusion, principal, and split
    or frame; it does not depend on the proof file format.  An axiom's
    principal is left out, as its conclusion implies it."""
    for node, _ in hll.walk(proof):
        extra = getattr(node, "frame", None)
        split = getattr(node, "split", None)
        if split is not None:
            extra = " ".join(p.text for p in split)
        principal = "" if node.principal is None or not node.premises else node.principal.text
        yield f"{node.rule.value} | {node.conclusion} | {principal} | {'' if extra is None else extra}\n"


# sha256 of the rendering of every normalized corpus proof, of every
# translation, and of the JSON of every program compiled from a translation.
NORMAL_FORM_SHA256 = "d20ed952d8ada420fb2d7d8939a07c9334a7b011046d736b7aacb9abcde26e06"
# sha256 of the rendering of every proof the normalizer passes to on_step, on
# the corpus and then on nested_and_side_by_side.
NORMALIZER_STEPS_SHA256 = "b1999e5122691cda6221541f97414618bbc8df8379080e6876a59766ec30d726"
TRANSLATION_SHA256 = "a91d20ec2d31aa470dcd63baef3365cfa3e944c72c707a5a54f66e3a84cea50f"
PROGRAMS_SHA256 = "9110d5da2dbf605cced803b177eb539a8bb8a67860b80ada189ea18b0ac61138"
# sha256 of the zoned-proof JSON and of the program JSON that the five
# separated shapes at the benchmark's size give, each read from its flat JSON.
SHAPES_ZONED_SHA256 = "469a5d27cd90219ab8b46da6e391d34eeb3847bc38b69cef60f4d451c88f79cc"
SHAPES_PROGRAMS_SHA256 = "bf013c79255f4e7e9e3ae92ad9c4aa0ed939b03f6e415463ea357987ccff0cda"


def corpus_digest(texts) -> str:
    digest = hashlib.sha256()
    for proof in ll_corpus():
        for text in texts(proof):
            digest.update(text.encode())
    return digest.hexdigest()


def test_normal_form_of_corpus_is_pinned():
    assert corpus_digest(lambda proof: rendering(push_oplus_down(proof))) == NORMAL_FORM_SHA256


def test_every_step_of_the_normalizer_is_pinned():
    digest = hashlib.sha256()
    for proof in ll_corpus() + nested_and_side_by_side():
        push_oplus_down(proof, on_step=lambda step: digest.update("".join(rendering(step)).encode()))
    assert digest.hexdigest() == NORMALIZER_STEPS_SHA256


def test_translation_of_corpus_is_pinned():
    assert corpus_digest(lambda proof: rendering(translate_ll_to_hll(proof))) == TRANSLATION_SHA256


def test_programs_of_corpus_are_pinned():
    """Cut, frame and identity nodes emit no edge, so dropping the identity
    detours leaves every compiled program byte for byte as it was."""
    def program(proof):
        return [program_to_json(hll.compile_hll_to_program(translate_ll_to_hll(proof)))]
    assert corpus_digest(program) == PROGRAMS_SHA256


def test_the_shapes_at_the_benchmark_size_translate_and_compile_as_pinned():
    zoned, programs = hashlib.sha256(), hashlib.sha256()
    for proof in separated_shapes(14):
        translated = translate_ll_to_hll(ll_proof_from_json(ll_proof_to_json(proof)))
        zoned.update(hll.hll_proof_to_json(translated).encode())
        programs.update(program_to_json(hll.compile_hll_to_program(translated)).encode())
    assert (zoned.hexdigest(), programs.hexdigest()) == (SHAPES_ZONED_SHA256, SHAPES_PROGRAMS_SHA256)


def test_resolving_each_choice_where_consumed_equals_normalizing_first():
    """The translation resolves each left choice at its consumer; on proofs
    with choices nested, stacked, shared, reusing a tag, content-equal or
    deep, it gives what translating the normal form gives, node for node
    and byte for byte."""
    _, same_tag = _same_tag_beside_its_consumer()
    proofs = [
        *ll_corpus(), *nested_and_side_by_side(), _stacked_case(("f", "g", "h", "m")),
        _stacked_case(("f", "g", "h", "m"), 3),
        ll.ll_limpoplus(ll.ll_i(F), same_tag, OplusImplication(F, G, H), 1),
        _content_equal_choices()[1], _shared_side_case(), stacked_weakenings(200),
    ]
    for proof in proofs:
        resolved, normalized = translate_ll_to_hll(proof), translate_ll_to_hll(push_oplus_down(proof))
        assert list(rendering(resolved)) == list(rendering(normalized))
        assert hll.hll_proof_to_json(resolved) == hll.hll_proof_to_json(normalized)


def test_the_translation_neither_normalizes_nor_specializes(monkeypatch):
    calls = []
    for name in ("push_oplus_down", "specialize", "unadjacent_choice_paths"):
        original = getattr(ll, name)
        monkeypatch.setattr(ll, name, lambda *args, name=name, original=original: calls.append(name) or original(*args))
    for proof in ll_corpus():
        translate_ll_to_hll(proof)
    assert calls == []

import hashlib

import pytest

from corpora import ll_corpus, ll_separation
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
    loplus_distance_sum,
    parse_ll_sequent,
    push_oplus_down,
    specialize,
    translate_ll_to_hll,
    unadjacent_choice_paths,
)
from hornlog.programs import verify_strong_solution
from hornlog.syntax import (
    OplusImplication,
    PlainImplication,
    parse_formula,
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


def test_checker_rejects_context_drift():
    good = ll.ll_limp(ll.ll_i(F), ll.ll_i(G), PlainImplication(F, G))
    tampered = LlProof(
        LlRule.LIMP,
        LlSequent(good.conclusion.context + (C,), good.conclusion.goal),
        good.premises,
        principal=good.principal,
    )
    assert not check_ll_proof(tampered).ok


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
    left = specialize(block, 1, 1)
    assert check_ll_proof(left).ok
    assert G in left.conclusion.context
    assert not any(isinstance(g, LlOplusProduct) for g in left.conclusion.context)


def test_specialize_keeps_a_premise_that_consumes_its_own_choice():
    """Tags are unique per context only: a sibling subtree may expand and
    consume its own choice under the same tag, and stays as it is."""
    pair = ll.ll_limpoplus(ll.ll_i(F), make_choice_block(), OplusImplication(F, G, H), 1)
    proof = ll.ll_rtensor(make_choice_block(), pair)
    assert check_ll_proof(proof).ok
    left = specialize(proof, 1, 1)
    assert left == ll.ll_rtensor(specialize(make_choice_block(), 1, 1), pair)
    assert left.premises[1] is pair


def test_checker_rejects_a_tag_twice_in_one_context(tmp_path):
    """Two blocks expanding tag 1 side by side, each consumed below: the
    tensor's conclusion holds (g + h)#1 twice, which the normalizer cannot
    pair with its consumers."""
    imp = OplusImplication(F, G, H)
    pair = ll.ll_rtensor(make_choice_block(), make_choice_block())
    proof = ll.ll_limpoplus(ll.ll_i(F), ll.ll_limpoplus(ll.ll_i(F), pair, imp, 1), imp, 1)
    result = check_ll_proof(proof)
    assert not result.ok
    assert result.failure.path == (1, 1)
    assert result.failure.reason == "choice tags duplicated in one context: [1]"
    proof_file = tmp_path / "dup.ll.json"
    proof_file.write_text(ll_proof_to_json(proof))
    assert cli.main(["verify", "ll", str(proof_file)]) == 1
    assert cli.main(["compile", "ll-to-hll", str(proof_file)]) == 2


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

    inner = ll.ll_limpoplus(expansion(a, b, x), expansion(c, d, g), OplusImplication(x, c, d), 5)
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


def test_push_down_moves_a_choice_in_one_step():
    proof = _two_rule_separation()
    measures = [loplus_distance_sum(proof)]
    push_oplus_down(proof, on_step=lambda p: measures.append(loplus_distance_sum(p)))
    assert measures == [3, 1]


def test_moved_choice_is_the_consumer_premise_specialized_both_ways():
    proof = _two_rule_separation()
    premise = proof.premises[1]
    occ = LlOplusProduct(G, H, 1)
    expected = ll.ll_loplus(specialize(premise, 1, 1), specialize(premise, 1, 2), occ)
    assert push_oplus_down(proof).premises[1] == expected


def test_push_down_rejects_orphan_choice():
    with pytest.raises(ProofStructureError):
        push_oplus_down(make_choice_block())


def test_content_equal_choices_under_distinct_tags():
    """Two pending (g + h) occurrences: the conclusion decides which tag each
    implication-choice inference consumes."""
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
    proof = ll.ll_limpoplus(ll.ll_i(f2), step, OplusImplication(f2, G, H), 1)
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
    node = ll.ll_limp(ll.ll_i(F), ll.ll_i(G), PlainImplication(F, G))
    t = translate_ll_to_hll(node)
    assert hll.check_hll_proof(t).ok
    assert t.conclusion == parse_sequent("f ; f -o g ; |- g")
    assert t.rule is hll.HllRule.CUT
    inner = t.premises[0]
    assert inner.rule is hll.HllRule.CUT
    assert inner.premises[0].rule is hll.HllRule.I
    assert inner.premises[1].rule is hll.HllRule.H
    assert t.premises[1].rule is hll.HllRule.I


def test_translate_choice_pipeline_builds_fork():
    proof = ll.ll_limpoplus(ll.ll_i(F), make_choice_block(), OplusImplication(F, G, H), 1)
    t = translate_ll_to_hll(proof)
    assert hll.check_hll_proof(t).ok
    program = hll.compile_hll_to_program(t)
    labels = sorted(str(label) for _, _, label in program.edges)
    assert labels == ["f -o g", "f -o h", "g -o m", "h -o m"]
    assert verify_strong_solution(program, t.conclusion).ok


def test_horn_reading_zones():
    s = parse_ll_sequent("c, f, f -o (g + h), !(g -o m) |- m")
    reading = horn_reading(s)
    assert reading == parse_sequent("c*f ; f -o (g + h) ; g -o m |- m")
    with pytest.raises(ValueError):
        horn_reading(parse_ll_sequent("f -o g |- g"))


def test_context_members_are_syntax_objects():
    context = parse_ll_sequent("a, a -o b |- b").context
    assert context == (parse_product("a"), parse_formula("a -o b"))


def test_ll_sequent_text_round_trip():
    texts = [
        "f, f -o g |- g",
        "(g + h)#1, !(g -o m), !((h*h) -o m) |- m",
        "|- q",
        "!(f -o (g + h)), c*d |- c",
        "!(x*y), (a*a) -o b |- b",
    ]
    for text in texts:
        s = parse_ll_sequent(text)
        assert parse_ll_sequent(ll_sequent_text(s)) == s


def test_proof_serialization_round_trip():
    for proof in ll_corpus()[:6]:
        data = ll_proof_to_json(proof)
        again = ll_proof_from_json(data)
        assert again == proof
        assert check_ll_proof(again).ok


# --- Corpus-wide laws ----------------------------------------------------------


def test_corpus_is_checked_and_separated():
    corpus = ll_corpus()
    assert len(corpus) >= 10
    assert sum(1 for p in corpus if ll_separation(p) >= 2) >= 3


def test_normalization_laws_on_corpus():
    for proof in ll_corpus():
        measures = [loplus_distance_sum(proof)]
        normalized = push_oplus_down(
            proof, on_step=lambda p: measures.append(loplus_distance_sum(p))
        )
        assert normalized.conclusion == proof.conclusion
        assert check_ll_proof(normalized).ok
        assert unadjacent_choice_paths(normalized) == []
        assert measures == sorted(measures, reverse=True) and len(set(measures)) == len(measures)


def test_translation_laws_on_corpus():
    for proof in ll_corpus():
        t = translate_ll_to_hll(proof)
        assert hll.check_hll_proof(t).ok
        assert t.conclusion == horn_reading(proof.conclusion)
        program = hll.compile_hll_to_program(t)
        assert verify_strong_solution(program, t.conclusion).ok


# sha256 of every normalized corpus proof and its translation, as JSON text.
NORMAL_FORM_SHA256 = "9e5f7af46b0b418f8f93188938a4b87634588e2e26057dbda47895f6b4e1d637"


def test_normal_form_of_corpus_is_pinned():
    digest = hashlib.sha256()
    for proof in ll_corpus():
        digest.update(ll_proof_to_json(push_oplus_down(proof)).encode())
        digest.update(hll.hll_proof_to_json(translate_ll_to_hll(proof)).encode())
    assert digest.hexdigest() == NORMAL_FORM_SHA256

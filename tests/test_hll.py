import json
import math
from dataclasses import replace

import pytest

from corpora import hll_corpus, hll_rule_counts, ll_corpus
from hornlog import hll, ll
from hornlog.hll import (
    HllProof,
    HllRule,
    check_hll_proof,
    compile_hll_to_program,
    hll_proof_from_json,
    hll_proof_to_json,
)
from hornlog.programs import program_height, verify_strong_solution
from hornlog.syntax import (
    Frame,
    OplusImplication,
    PlainImplication,
    parse_formula,
    parse_product,
    parse_sequent,
)

F, G, H, M, Q = (parse_product(x) for x in "fghmq")


def test_identity_axiom_accepts():
    proof = HllProof(HllRule.I, parse_sequent("q ; ; |- q"), principal=Q)
    assert check_hll_proof(proof).ok


def test_identity_axiom_rejects_mismatch():
    proof = HllProof(HllRule.I, parse_sequent("q ; ; |- p"), principal=Q)
    result = check_hll_proof(proof)
    assert not result.ok and result.failure.rule == "I"


def test_single_step_axiom_accepts():
    proof = HllProof(HllRule.H, parse_sequent("f ; f -o g ; |- g"), principal=parse_formula("f -o g"))
    assert check_hll_proof(proof).ok


def test_single_step_axiom_rejects_wrong_goal():
    proof = HllProof(HllRule.H, parse_sequent("f ; f -o g ; |- f"), principal=parse_formula("f -o g"))
    assert not check_hll_proof(proof).ok


def test_frame_rule_rejects_mismatched_frame():
    premise = hll.h_axiom(PlainImplication(F, G))
    v, v_prime = parse_product("c"), parse_product("d")
    conclusion = parse_sequent("c*f ; f -o g ; |- d*g")  # goal framed with the wrong product
    node = HllProof(HllRule.M, conclusion, (premise,), frame=v)
    result = check_hll_proof(node)
    assert not result.ok and result.failure.rule == "M"
    good = hll.frame_rule(premise, v)
    assert check_hll_proof(good).ok
    assert good.conclusion == parse_sequent("c*f ; f -o g ; |- c*g")


def test_cut_requires_chained_goals():
    left = hll.i_axiom(F)
    right = hll.i_axiom(G)
    node = HllProof(HllRule.CUT, parse_sequent("f ; ; |- g"), (left, right))
    assert not check_hll_proof(node).ok
    with pytest.raises(ValueError):
        hll.cut(left, right)


def test_choice_rule_accepts_either_orientation():
    choice = OplusImplication(F, G, H)
    imps = [PlainImplication(G, M), PlainImplication(H, M)]

    def premise(y, mine):
        p = hll.h_axiom(mine)
        p = hll.lbang(p, mine)
        for other in imps:
            if other != mine:
                p = hll.wbang(p, other)
        return p

    p_g, p_h = premise(G, imps[0]), premise(H, imps[1])
    forward = hll.oplus_h(p_g, p_h, choice, Frame())
    backward = hll.oplus_h(p_h, p_g, choice, Frame())
    assert check_hll_proof(forward).ok
    assert check_hll_proof(backward).ok
    for node in (forward, backward):
        program = compile_hll_to_program(node)
        assert verify_strong_solution(program, node.conclusion).ok


def test_choice_rule_builder_refuses_premises_the_checker_rejects():
    """The choice rule's premises must share both zones and the goal; the
    builder once took them from the first premise and never looked at the
    second, so it built nodes the checker rejected."""
    choice = OplusImplication(F, G, H)
    first = hll.wbang(hll.h_axiom(PlainImplication(G, M)), PlainImplication(H, M))
    second = hll.h_axiom(PlainImplication(H, M))
    with pytest.raises(ValueError, match="premises must share both zones and the goal"):
        hll.oplus_h(first, second, choice, Frame())
    c = first.conclusion
    node = HllProof(HllRule.OPLUS_H, replace(c, input=F, linear=c.linear + (choice,)), (first, second), choice)
    assert str(check_hll_proof(node)) == "OPLUS_H at root: premises must share both zones and the goal"


def test_checker_rejects_a_principal_of_another_kind():
    axiom = HllProof(HllRule.I, parse_sequent("q ; ; |- q"), principal=parse_formula("q -o q"))
    assert str(check_hll_proof(axiom)) == "I at root: I cannot have q -o q as its principal"
    weakening = replace(hll.wbang(hll.i_axiom(Q), PlainImplication(F, G)), principal=None)
    assert str(check_hll_proof(weakening)) == "WBANG at root: WBANG cannot have None as its principal"


def test_checker_rejects_a_frame_its_rule_does_not_take():
    axiom = HllProof(HllRule.I, parse_sequent("q ; ; |- q"), principal=Q, frame=Q)
    assert str(check_hll_proof(axiom)) == "I at root: I takes no frame"
    regrouping = replace(hll.ltensor(hll.i_axiom(Q)), frame=Q)
    assert str(check_hll_proof(regrouping)) == "LTENSOR at root: LTENSOR takes no frame"
    with pytest.raises(ValueError, match="LTENSOR takes no frame"):
        compile_hll_to_program(regrouping)


def test_checker_reports_failure_path():
    bad_leaf = HllProof(HllRule.I, parse_sequent("q ; ; |- p"), principal=Q)
    node = hll.wbang(hll.wbang(bad_leaf, PlainImplication(F, G)), PlainImplication(G, H))
    result = check_hll_proof(node)
    assert not result.ok and result.failure.path == (0, 0)


def test_a_node_is_checked_when_built_only_over_checked_premises():
    """The builders mark a node checked when its premises are, and the
    checker skips a checked subtree; over a leaf forged with ``replace`` it
    must still walk down to the leaf, through builder-made ancestors."""
    leaf = hll.i_axiom(Q)
    assert leaf.checked
    assert not replace(leaf).checked
    assert not HllProof(HllRule.I, leaf.conclusion, principal=Q).checked
    forged = replace(leaf, conclusion=parse_sequent("q ; ; |- f"))
    root = hll.cut(hll.i_axiom(Q), hll.wbang(hll.ltensor(forged), PlainImplication(F, G)))
    assert root.premises[0].checked and not root.checked
    assert str(check_hll_proof(root)) == f"I at 1.0.0: conclusion must be {leaf.conclusion}"
    with pytest.raises(ValueError, match="conclusion must be"):
        compile_hll_to_program(root)


def test_builders_refuse_a_principal_the_checker_rejects():
    """A builder runs the checker's gate before the conclusion function, so
    no node it returns fails the checker; the identity axiom once took an
    implication as its product."""
    with pytest.raises(hll.InvalidProof, match="I cannot have q -o q as its principal"):
        hll.i_axiom(parse_formula("q -o q"))
    with pytest.raises(hll.InvalidProof, match="WBANG cannot have f as its principal"):
        hll.wbang(hll.i_axiom(Q), F)


def test_read_and_translated_proofs_are_checked_when_built():
    for proof in hll_corpus():
        assert hll_proof_from_json(hll_proof_to_json(proof)).checked
    for proof in ll_corpus():
        assert ll.ll_proof_from_json(ll.ll_proof_to_json(proof)).checked
        assert ll.translate_ll_to_hll(proof).checked


def test_compile_axioms():
    single = compile_hll_to_program(hll.i_axiom(Q))
    assert len(single.vertices) == 1
    edge = compile_hll_to_program(hll.h_axiom(PlainImplication(F, G)))
    assert [label for _, _, label in edge.edges] == [parse_formula("f -o g")]


def test_compile_choice_builds_the_fork():
    choice = OplusImplication(F, G, H)
    imps = [PlainImplication(G, M), PlainImplication(H, M)]

    def premise(y, mine):
        p = hll.h_axiom(mine)
        p = hll.lbang(p, mine)
        other = imps[1] if mine == imps[0] else imps[0]
        return hll.wbang(p, other)

    node = hll.oplus_h(premise(G, imps[0]), premise(H, imps[1]), choice, Frame())
    program = compile_hll_to_program(node)
    labels = sorted(str(label) for _, _, label in program.edges)
    assert labels == ["f -o g", "f -o h", "g -o m", "h -o m"]
    assert len(program.children[program.root]) == 2
    assert verify_strong_solution(program, node.conclusion).ok


def test_compile_cut_composes():
    left = hll.h_axiom(PlainImplication(F, G))
    right = hll.h_axiom(PlainImplication(G, H))
    program = compile_hll_to_program(hll.cut(left, right))
    assert program_height(program) == 2 and len(program.leaves) == 1
    assert verify_strong_solution(program, parse_sequent("f ; f -o g, g -o h ; |- h")).ok


def test_compile_requires_valid_proof():
    broken = HllProof(HllRule.I, parse_sequent("q ; ; |- p"), principal=Q)
    with pytest.raises(ValueError):
        compile_hll_to_program(broken)


def test_checker_insensitive_to_product_regrouping():
    a = parse_sequent("f*c ; ; |- c*f")
    b = parse_sequent("c*f ; ; |- f*c")
    assert a == b
    assert check_hll_proof(HllProof(HllRule.I, a, principal=parse_product("c*f"))).ok


def test_serialization_round_trip():
    corpus = hll_corpus(seed=7, count=8)
    for proof in corpus:
        text = hll_proof_to_json(proof)
        again = hll_proof_from_json(text)
        assert again == proof
        assert check_hll_proof(again).ok


def assert_same_conclusions(proof, again):
    """Both trees have the same rules and premise counts in preorder, and
    each node of ``again`` concludes what its counterpart in ``proof`` does;
    a walk, since dataclass equality recurses."""
    pairs = [[node for node, _ in hll.walk(tree)] for tree in (proof, again)]
    assert len(pairs[0]) == len(pairs[1])
    for node, other in zip(*pairs):
        assert (other.rule, len(other.premises), other.conclusion) == (node.rule, len(node.premises), node.conclusion)


def test_every_corpus_proof_round_trips_through_its_file():
    """Every corpus proof, flat normal form and translation: written, read
    back and written again, the text is the same, and the reader derives
    every node's conclusion as the original holds it."""
    flat = ll_corpus()
    cases = [(proof, hll_proof_to_json, hll_proof_from_json) for proof in hll_corpus()]
    cases += [(proof, ll.ll_proof_to_json, ll.ll_proof_from_json) for p in flat for proof in (p, ll.push_oplus_down(p))]
    cases += [(ll.translate_ll_to_hll(p), hll_proof_to_json, hll_proof_from_json) for p in flat]
    for proof, write, read in cases:
        text = write(proof)
        again = read(text)
        assert write(again) == text
        assert_same_conclusions(proof, again)


@pytest.mark.parametrize("texts", [["(a*b)", "a*b"], ["a*b", "(b*a)"]], ids=["input", "goal"])
def test_product_fields_accept_a_parenthesised_product(texts):
    """A product field reads an operand, as a flat context member does."""
    axiom = [{"rule": "I", "principal": 0}]
    zoned = hll_proof_from_json(json.dumps({"formulas": texts, "conclusion": [0, [], [], 1], "nodes": axiom}))
    flat = ll.ll_proof_from_json(json.dumps({"formulas": texts, "conclusion": [[0], 1], "nodes": axiom}))
    assert zoned.conclusion == parse_sequent("a*b ; ; |- a*b") and check_hll_proof(zoned).ok
    assert flat.conclusion.goal == parse_product("a*b") and ll.check_ll_proof(flat).ok


def test_compiled_programs_number_their_vertices_in_preorder():
    """Like prover witnesses: a cut whose first premise forks included."""
    proofs = hll_corpus() + [ll.translate_ll_to_hll(proof) for proof in ll_corpus()]
    for proof in proofs:
        program = compile_hll_to_program(proof)
        assert tuple(program.preorder()) == tuple(range(len(program.vertices)))


def test_corpus_soundness():
    corpus = hll_corpus(seed=20240811, count=60)
    counts = hll_rule_counts(corpus)
    assert len(corpus) >= 50
    assert all(count >= 5 for count in counts.values()), counts
    for proof in corpus:
        program = compile_hll_to_program(proof)
        report = verify_strong_solution(program, proof.conclusion)
        assert report.ok, f"{report} for {proof.conclusion}"


def test_leaf_count_law():
    """The compiled program's leaves: forks add them, cuts multiply them."""
    def leaf_count(node, counts):
        return math.prod(counts) if node.rule is HllRule.CUT else sum(counts) or 1

    for proof in hll_corpus(seed=99, count=20):
        program = compile_hll_to_program(proof)
        assert len(program.leaves) == hll.fold(proof, leaf_count)

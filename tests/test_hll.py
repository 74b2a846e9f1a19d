import json
import math

import pytest

from corpora import hll_corpus, hll_rule_counts, ll_corpus, replace
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
    FormatError,
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
    a walk, since field equality recurses."""
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


# --- The proof-file reader's error texts ------------------------------------------------


def _table(calculus: str) -> dict:
    """A valid two-node table: an identity axiom under one weakening."""
    nodes = [{"rule": "I", "principal": 0}, {"rule": "WBANG", "premises": [0], "principal": 1}]
    if calculus == "hll":
        return {"formulas": ["a", "a -o a"], "conclusion": [0, [], [1], 0], "nodes": nodes}
    return {"formulas": ["a", "!(a -o a)", "a -o a"], "conclusion": [[0, 1], 0], "nodes": nodes}


def _with(*edits):
    """The table with each ``(path, value)`` set, as proof-file text."""
    def text(table: dict) -> str:
        for path, value in edits:
            target = table
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
        return json.dumps(table)
    return text


def _rows(*rows):
    return lambda table: json.dumps({**table, "nodes": table["nodes"] + list(rows)})


def _long_field(field: str):
    """A field holding an integer of more digits than ``int`` converts."""
    return lambda table: json.dumps(table).replace(f'"{field}": 0', f'"{field}": {"1" * 5000}', 1)


TABLE_SHAPE = "a proof is a JSON object with a 'formulas' list of strings, a 'conclusion' list of {} parts and a 'nodes' list"
HLL_ROW = "node {} must be a JSON object with fields among ['frame', 'premises', 'principal', 'rule'], premises a list"
LL_ROW = "node {} must be a JSON object with fields among ['premises', 'principal', 'rule', 'split', 'tag'], premises a list"
NOT_ONE_USE = "node {}'s premise {} is not an earlier node that is no other premise"
ONE_ROOT = "a proof has one root: every node but the last is the premise of a later one"
HLL_RULES = "node 1's rule must be one of ['I', 'H', 'LTENSOR', 'M', 'LBANG', 'WBANG', 'CBANG', 'OPLUS_H', 'CUT']"
LL_RULES = "node 1's rule must be one of ['I', 'LTENSOR', 'LBANG', 'WBANG', 'CBANG', 'RTENSOR', 'LIMP', 'LIMPOPLUS', 'LOPLUS']"
Malformed, Invalid = FormatError, hll.InvalidProof

READER_ERRORS = {
    # the table's shape, a non-string formula among it
    "hll/non-string-formula": (_with((("formulas", 1), 5)), Malformed, TABLE_SHAPE.format(4)),
    "ll/non-string-formula": (_with((("formulas", 1), 5)), Malformed, TABLE_SHAPE.format(2)),
    "ll/no-nodes": (_with((("nodes",), [])), Malformed, TABLE_SHAPE.format(2)),
    "hll/nested-document": (lambda t: '{"premises": [' * 5000 + "]}" * 5000, Malformed,
                            "a proof is a flat table, not a nested document"),
    # an index out of range, or not an index
    "hll/index-out-of-range": (_with((("nodes", 1, "principal"), 9)), Malformed, "node 1's principal must be an index into 'formulas'"),
    "ll/negative-index": (_with((("nodes", 0, "principal"), -1)), Malformed, "node 0's principal must be an index into 'formulas'"),
    "ll/boolean-index": (_with((("nodes", 0, "principal"), True)), Malformed, "node 0's principal must be an index into 'formulas'"),
    "hll/fractional-index": (_with((("nodes", 0, "principal"), 1.0)), Malformed, "node 0's principal must be an index into 'formulas'"),
    "ll/null-index": (_with((("nodes", 0, "principal"), None)), Malformed, "node 0's principal must be an index into 'formulas'"),
    "hll/listed-index": (_with((("nodes", 0, "principal"), [0])), Malformed, "node 0's principal must be an index into 'formulas'"),
    "hll/zone-index-out-of-range": (_with((("conclusion", 1), [1, 7])), Malformed,
                                    "the conclusion's linear must be a list of indices into 'formulas'"),
    "ll/zone-not-a-list": (_with((("conclusion", 0), 0)), Malformed, "the conclusion's context must be a list of indices into 'formulas'"),
    "ll/zone-checked-whole-before-parsing": (_with((("formulas", 0), "a b"), (("conclusion", 0), [0, 9])), Malformed,
                                             "the conclusion's context must be a list of indices into 'formulas'"),
    "hll/listed-goal": (_with((("conclusion", 3), [0])), Malformed, "the conclusion's goal must be an index into 'formulas'"),
    "ll/short-split": (_with((("nodes", 0, "split"), [0])), Malformed, "node 0's split must be a list of indices into 'formulas'"),
    # a text that does not parse, or of the wrong kind
    "hll/unparsable-text": (_with((("formulas", 0), "a b")), Malformed,
                            "the conclusion's input: formulas[0] 'a b': trailing input 'b' (at offset 2)"),
    "ll/unparsable-choice": (_with((("formulas", 1), "(a + b)")), Malformed,
                             "the conclusion's context: formulas[1] '(a + b)': expected '#', found 'end of input' (at offset 7)"),
    "hll/implication-as-goal": (_with((("conclusion", 3), 1)), Malformed,
                                "the conclusion's goal: formulas[1] 'a -o a': expected a product, found 'a -o a'"),
    "ll/implication-as-goal": (_with((("conclusion", 1), 2)), Malformed,
                               "the conclusion's goal: formulas[2] 'a -o a': expected a product, found 'a -o a'"),
    "hll/product-in-a-zone": (_with((("conclusion", 1), [0])), Malformed,
                              "the conclusion's linear: formulas[0] 'a': expected an implication, found 'a'"),
    "hll/zone-formula-as-frame": (_rows({"rule": "M", "premises": [1], "frame": 1}), Malformed,
                                  "node 2's frame: formulas[1] 'a -o a': expected a product, found 'a -o a'"),
    "ll/implication-in-a-split": (_rows({"rule": "LTENSOR", "premises": [1], "principal": 0, "split": [0, 2]}), Malformed,
                                  "node 2's split: formulas[2] 'a -o a': expected a product, found 'a -o a'"),
    "ll/product-as-bang-principal": (_with((("nodes", 1, "principal"), 0)), Malformed, "node 1: WBANG cannot have a as its principal"),
    # a premise reused or pointing forward
    "hll/premise-used-twice": (_with((("nodes", 1, "premises"), [0, 0])), Malformed, NOT_ONE_USE.format(1, 0)),
    "ll/premise-points-forward": (_with((("nodes", 0, "premises"), [1])), Malformed, NOT_ONE_USE.format(0, 1)),
    "ll/fractional-premise": (_with((("nodes", 1, "premises"), [0.0])), Malformed, NOT_ONE_USE.format(1, 0.0)),
    # two roots
    "hll/two-roots": (_rows({"rule": "I", "principal": 0}), Malformed, ONE_ROOT),
    "ll/two-roots": (_rows({"rule": "I", "principal": 0}), Malformed, ONE_ROOT),
    # a stray or misplaced field
    "hll/stray-field": (_with((("nodes", 1, "conclusion"), 0)), Malformed, HLL_ROW.format(1)),
    "ll/premises-not-a-list": (_with((("nodes", 1, "premises"), {})), Malformed, LL_ROW.format(1)),
    "ll/row-not-an-object": (_with((("nodes", 0), [])), Malformed, LL_ROW.format(0)),
    "hll/frame-on-an-identity": (_with((("nodes", 0, "frame"), 0)), Malformed, "node 0: I takes no frame"),
    "ll/split-on-an-identity": (_with((("nodes", 0, "split"), [0, 0])), Malformed, "node 0: I takes no split"),
    "ll/tag-on-a-weakening": (_with((("nodes", 1, "tag"), 3)), Malformed, "node 1: WBANG takes no tag"),
    # an unknown rule
    "hll/unknown-rule": (_with((("nodes", 1, "rule"), "CUT?")), Malformed, HLL_RULES),
    "ll/numbered-rule": (_with((("nodes", 1, "rule"), 3)), Malformed, LL_RULES),
    # an overlong integer
    "hll/overlong-index": (_long_field("principal"), Malformed, "node 0's principal must be an index into 'formulas'"),
    "ll/overlong-tag": (lambda t: _long_field("tag")({**t, "nodes": [{"rule": "I", "principal": 0, "tag": 0}]}), Malformed,
                        "node 0's tag must be an integer"),
    "ll/boolean-tag": (_with((("nodes", 0, "tag"), True)), Malformed, "node 0's tag must be an integer"),
    # an inference that draws nothing, and a wrong end-sequent
    "hll/unmet-side-condition": (_with((("nodes", 1, "rule"), "LBANG")), Invalid,
                                 "LBANG at node 1: premise must carry the principal linearly"),
    "ll/unmet-side-condition": (_with((("formulas", 1), "!(a)")), Invalid, "WBANG at node 1: only implications may be banged"),
    "ll/premise-count": (_rows({"rule": "RTENSOR", "premises": [1]}), Invalid, "RTENSOR at node 2: RTENSOR takes 2 premises, got 1"),
    "hll/wrong-end-sequent": (_with((("conclusion", 2), [])), Invalid, "WBANG at node 1: conclusion must be a ; ; a -o a |- a"),
    "ll/wrong-end-sequent": (_with((("conclusion", 0), [0])), Invalid, "WBANG at node 1: conclusion must be !(a -o a), a |- a"),
}
READERS = {"hll": hll_proof_from_json, "ll": ll.ll_proof_from_json}


@pytest.mark.parametrize("case", READER_ERRORS)
def test_each_reader_error_has_its_exact_text(case):
    mutate, error, message = READER_ERRORS[case]
    calculus = case.split("/")[0]
    with pytest.raises((FormatError, hll.InvalidProof)) as raised:
        READERS[calculus](mutate(_table(calculus)))
    assert (type(raised.value), str(raised.value)) == (error, message)


def test_each_rule_is_bound_to_its_own_name_in_its_module():
    """Per-node code compares rules with module-level names, unpacked from
    each enum in definition order; a reordered enum must not rebind them."""
    for module, rules in ((hll, hll.HllRule), (ll, ll.LlRule)):
        assert [getattr(module, rule.name) for rule in rules] == list(rules)

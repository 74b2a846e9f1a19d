"""Valid proofs thousands of inferences deep go through every layer.

No layer may fail on a valid object just because it is deep; the chain and
the stacked weakenings once raised ``RecursionError``, and so did the nested
proof JSON that the flat proof table replaced.  Deep proofs are compared
through their JSON text, since field equality itself recurses.  A proof
file states each inference but no conclusion save the end-sequent, so its
size is linear in the node count.
"""

from corpora import ltensor_chain, stacked_weakenings
from hornlog import hll, ll
from hornlog.programs import verify_strong_solution


def test_deep_zoned_chain_compiles():
    proof = ltensor_chain(5000)
    assert hll.check_hll_proof(proof).ok
    program = hll.compile_hll_to_program(proof)
    assert len(program.edges) == 1
    assert verify_strong_solution(program, proof.conclusion).ok


def test_deep_flat_proof_normalizes_translates_and_compiles():
    proof = stacked_weakenings(2000)
    assert ll.check_ll_proof(proof).ok
    normalized = ll.push_oplus_down(proof)
    assert normalized.conclusion == proof.conclusion
    assert ll.unadjacent_choice_paths(normalized) == []
    translated = ll.translate_ll_to_hll(proof)
    assert translated.conclusion == ll.horn_reading(proof.conclusion)
    program = hll.compile_hll_to_program(translated)
    assert len(program.leaves) == 2
    assert verify_strong_solution(program, translated.conclusion).ok


def test_deep_proof_json_round_trips():
    chain = ltensor_chain(5000)
    text = hll.hll_proof_to_json(chain)
    again = hll.hll_proof_from_json(text)
    assert hll.check_hll_proof(again).ok
    assert hll.hll_proof_to_json(again) == text

    flat = stacked_weakenings(1000)
    text = ll.ll_proof_to_json(flat)
    again = ll.ll_proof_from_json(text)
    assert ll.check_ll_proof(again).ok
    assert ll.ll_proof_to_json(again) == text


def test_deep_proof_files_grow_linearly():
    """The flat file of 2000 stacked weakenings and its zoned translation are
    each under 1 MB and at most 2.2 times their size at 1000."""
    sizes = {}
    for n in (1000, 2000):
        proof = stacked_weakenings(n)
        texts = (ll.ll_proof_to_json(proof), hll.hll_proof_to_json(ll.translate_ll_to_hll(proof)))
        sizes[n] = [len(text.encode()) for text in texts]
    assert all(size < 1_000_000 for size in sizes[2000]), sizes
    assert all(big <= 2.2 * small for big, small in zip(sizes[2000], sizes[1000])), sizes

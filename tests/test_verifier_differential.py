"""The strong-solution verifier against its first reading.

``corpora.reference_verify_strong_solution`` is the verifier as it read when
it walked every program and counted every charged formula.  The library's
verifier counts only linear formulas and walks no program of a sequent whose
linear zone is empty.  On compiled zoned proofs, prover witnesses and a
machine certificate, and on seeded mutants of each, both must report the same
violations in the same order.
"""

import json
import random
from collections import Counter
from pathlib import Path

from corpora import hll_corpus, ladder_text, reference_verify_strong_solution
from hornlog import hll
from hornlog.bridge import computation_to_program
from hornlog.encoding import MachineEncoding
from hornlog.minsky import parse_machine, search_halting
from hornlog.programs import (
    FOREIGN_FORMULA,
    LEAF_MISMATCH,
    LINEAR_COUNT,
    HornProgram,
    prove_bounded,
    verify_strong_solution,
)
from hornlog.syntax import HornSequent, parse_sequent

WITNESSES = Path(__file__).with_name("prover_witnesses.json")


def corpus() -> list[tuple[str, HornProgram, HornSequent]]:
    cases = []
    for i, proof in enumerate(hll_corpus(count=30)):
        cases.append((f"compiled-{i}", hll.compile_hll_to_program(proof), proof.conclusion))
    entries = [e for e in json.loads(WITNESSES.read_text()) if e["witness"]][:30]
    for i, entry in enumerate(entries):
        sequent = parse_sequent(entry["sequent"])
        cases.append((f"witness-{i}", prove_bounded(sequent, entry["depth"]), sequent))
    machine = parse_machine(ladder_text(4, seed=5))
    enc = MachineEncoding.build(machine)
    run = search_halting(machine, machine.initial_configuration((6, 0)), 40, 6)
    cases.append(("certificate", computation_to_program(enc, run).program, enc.sequent((6, 0))))
    return cases


def _rebuilt(program: HornProgram, edges) -> HornProgram | None:
    try:
        return HornProgram.build(program.root, edges)
    except ValueError:
        return None


def mutants(rng: random.Random, program: HornProgram, sequent: HornSequent):
    """(name, program, sequent) for the case itself and four seeded mutants."""
    yield "as is", program, sequent
    edges = list(program.edges)
    charged = [f for f in program.charges.values() if f is not None]
    if edges:
        # A dropped edge: one into a leaf, so the rest is still a tree.
        into_leaves = [e for e in edges if not program.children[e[1]]]
        dropped = rng.choice(into_leaves)
        yield "dropped edge", _rebuilt(program, [e for e in edges if e != dropped]), sequent
        # A swapped label: two unary edges trade labels.
        unary = [i for i, (parent, _, _) in enumerate(edges) if len(program.children[parent]) == 1]
        if len(unary) >= 2:
            i, j = rng.sample(unary, 2)
            swapped = list(edges)
            swapped[i] = (*edges[i][:2], edges[j][2])
            swapped[j] = (*edges[j][:2], edges[i][2])
            yield "swapped label", _rebuilt(program, swapped), sequent
    # A duplicated linear use: a leaf charges a linear formula once more.  A
    # sequent without a linear zone gets one of the program's formulas there.
    pool = sequent.linear or tuple(charged)
    if pool:
        f = rng.choice(pool)
        linear = sequent.linear or (f,)
        leaf = rng.choice(program.leaves)
        fresh = max(program.vertices) + 1
        extra = [(leaf, fresh + k, edge) for k, edge in enumerate(f.branches)]
        doubled = _rebuilt(program, edges + extra)
        yield "duplicated linear use", doubled, HornSequent(sequent.input, linear, sequent.banged, sequent.goal)
        # A formula held both linearly and banged, with and without the extra use.
        both = HornSequent(sequent.input, linear, sequent.banged + (f,), sequent.goal)
        yield "held both ways", program, both
        yield "held both ways, used again", doubled, both


def test_the_verifier_reports_what_its_first_reading_reports():
    rng = random.Random(20261019)
    kinds, mutations = set(), Counter()
    for name, program, sequent in corpus():
        for mutation, mutant, against in mutants(rng, program, sequent):
            if mutant is None:
                continue
            expected = reference_verify_strong_solution(mutant, against)
            got = verify_strong_solution(mutant, against)
            assert got.violations == expected.violations, (name, mutation)
            assert got.ok == expected.ok
            kinds.update(v.kind for v in got.violations)
            mutations[mutation] += 1
    # Every mutation was made and every kind of violation occurred, so no
    # branch of the check went unexercised.
    assert len(mutations) == 6 and min(mutations.values()) >= 20, mutations
    assert kinds == {LEAF_MISMATCH, FOREIGN_FORMULA, LINEAR_COUNT}


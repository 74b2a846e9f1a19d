"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time

import pytest

from corpora import (
    hll_corpus,
    hll_rule_counts,
    ll_corpus,
    ll_separation,
    random_machine,
)
from hornlog import hll, ll
from hornlog.bridge import (
    AGREE_NO_WITNESS_WITHIN_BOUNDS,
    DISAGREEMENT,
    computation_to_program,
    program_to_computation,
    round_trip_check,
)
from hornlog.encoding import MachineEncoding, encode_config
from hornlog.minsky import Configuration, parse_machine, search_halting
from hornlog.programs import evaluate, prove_bounded, verify_strong_solution
from hornlog.syntax import SimpleProduct
from test_programs import random_program

DEC = parse_machine("counters 2\nL1: ifzero x1 goto L0\nL1: dec x1 goto L1\n")
INC = parse_machine("counters 2\nL1: inc x1 goto L1\n")


def report(number: int, label: str):
    print(f"ACCEPTANCE {number} PASS - {label}")


def test_criterion_1_round_trip_at_desk_scale():
    started = time.monotonic()
    enc = MachineEncoding.build(DEC)
    for k1 in range(6):
        init = Configuration(1, (k1, 0))
        run = search_halting(DEC, init, 100, 20)
        assert run is not None and len(run.moves) == k1 + 1
        trace = computation_to_program(enc, run)
        sequent = enc.sequent((k1, 0))
        assert verify_strong_solution(trace.program, sequent).ok
        back = program_to_computation(enc, trace.program, init)
        assert back.configs == run.configs
        witness = prove_bounded(sequent, 2 * k1 + 4)
        assert witness is not None
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report(1, f"searches, programs, extraction and witnesses for k1 in 0..5 ({elapsed:.2f}s)")


def test_criterion_2_negative_agreement():
    for machine, inputs in ((DEC, (0, 1)), (INC, (0, 0))):
        enc = MachineEncoding.build(machine)
        init = Configuration(1, inputs)
        assert search_halting(machine, init, 1000, 10) is None
        assert prove_bounded(enc.sequent(inputs), 20) is None
        outcome = round_trip_check(enc, inputs, 1000, 10, 20)
        assert outcome.code == AGREE_NO_WITNESS_WITHIN_BOUNDS
    report(2, "both searches agree on absence for the stuck and divergent machines")


def test_criterion_3_fairness_soundness():
    corpus = hll_corpus(seed=20240811, count=60)
    counts = hll_rule_counts(corpus)
    assert len(corpus) >= 50, f"only {len(corpus)} proofs"
    assert all(count >= 5 for count in counts.values()), counts
    for proof in corpus:
        assert hll.check_hll_proof(proof).ok
        program = hll.compile_hll_to_program(proof)
        outcome = verify_strong_solution(program, proof.conclusion)
        assert outcome.ok, f"{outcome} for {proof.conclusion}"
    report(3, f"{len(corpus)} checked derivations compile to strong solutions (rule counts {counts})")


def test_criterion_4_translation():
    corpus = ll_corpus()
    assert len(corpus) >= 10
    separated = sum(1 for p in corpus if ll_separation(p) >= 2)
    assert separated >= 3, f"only {separated} separated cases"
    for proof in corpus:
        assert ll.check_ll_proof(proof).ok
        translated = ll.translate_ll_to_hll(proof)
        assert hll.check_hll_proof(translated).ok
        assert translated.conclusion == ll.horn_reading(proof.conclusion)
        program = hll.compile_hll_to_program(translated)
        assert verify_strong_solution(program, translated.conclusion).ok
    report(4, f"{len(corpus)} flat proofs translate and compile ({separated} with separated choice pairs)")


def test_criterion_5_commuting_conversions():
    corpus = ll_corpus()
    conversions = 0
    for proof in corpus:
        measures = [ll.loplus_distance_sum(proof)]
        normalized = ll.push_oplus_down(
            proof, on_step=lambda p: measures.append(ll.loplus_distance_sum(p))
        )
        assert normalized.conclusion == proof.conclusion
        assert ll.check_ll_proof(normalized).ok
        assert ll.unadjacent_choice_paths(normalized) == []
        assert measures == sorted(measures, reverse=True)
        assert len(set(measures)) == len(measures)
        conversions += len(measures) - 1
    report(5, f"normalization keeps conclusions, stays valid, and drives the measure down ({conversions} conversions)")


def test_criterion_6_frame_property():
    rng = random.Random(6060)
    checked = 0
    for _ in range(100):
        program, x = random_program(rng, max_vertices=6)
        v = SimpleProduct.of(*rng.choices(["a", "b", "c", "d", "e"], k=rng.randint(1, 3)))
        base = evaluate(program, x)
        if None in base.values():
            continue
        framed = evaluate(program, x.tensor(v))
        for vertex in program.vertices:
            assert framed[vertex] == base[vertex].tensor(v)
        checked += 1
    assert checked >= 50, f"only {checked} fully-defined triples"
    report(6, f"exact frame equality at every vertex on {checked}/100 defined triples")


def test_criterion_7_oracle_cross_validation():
    started = time.monotonic()
    rng = random.Random(770077)
    outcomes = {"AGREE_HALTS": 0, AGREE_NO_WITNESS_WITHIN_BOUNDS: 0, "BOUNDS_INCONCLUSIVE": 0}
    failures = []
    for _ in range(50):
        machine = random_machine(rng, n=2, max_instructions=4)
        enc = MachineEncoding.build(machine)
        inputs = (rng.choice([0, 0, 1, 2]), rng.choice([0, 0, 1, 2]))
        outcome = round_trip_check(enc, inputs, 50, 10, 15)
        if outcome.code == DISAGREEMENT:
            failures.append((machine, inputs, str(outcome)))
        else:
            outcomes[outcome.code] += 1
    elapsed = time.monotonic() - started
    assert not failures, failures
    assert outcomes["AGREE_HALTS"] >= 5, f"too few halting machines: {outcomes}"
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    report(7, f"50 machines cross-validated in {elapsed:.1f}s ({outcomes})")


def test_criterion_8_vertex_correspondence():
    enc = MachineEncoding.build(DEC)
    for k1 in range(6):
        init = Configuration(1, (k1, 0))
        run = search_halting(DEC, init, 100, 20)
        trace = computation_to_program(enc, run)
        values = evaluate(trace.program, encode_config(enc.machine.n, init))
        assert len(trace.main_vertices) == len(run.configs)
        for vertex, config in zip(trace.main_vertices, run.configs):
            assert values[vertex] == encode_config(enc.machine.n, config)
        for side in trace.side_chains:
            fork_index = trace.main_vertices.index(side.fork_vertex)
            at_fork = run.configs[fork_index]
            expected = sum(
                count for i, count in enumerate(at_fork.counters, start=1) if i != side.counter
            )
            assert side.kill_count == expected
    report(8, "main-branch values track configurations; side chains kill exactly the other counters")

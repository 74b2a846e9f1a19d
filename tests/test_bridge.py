import random

import pytest

from corpora import random_machine
from hornlog.bridge import (
    AGREE_HALTS,
    AGREE_NO_WITNESS_WITHIN_BOUNDS,
    BOUNDS_INCONCLUSIVE,
    DISAGREEMENT,
    MAIN_LEAF_NOT_L0,
    NON_ENCODING_EDGE,
    SIDE_CHAIN_FOREIGN_FORMULA,
    SIDE_CHAIN_NOT_KILLED,
    ExtractionError,
    computation_to_program,
    program_to_computation,
    round_trip_check,
)
from hornlog.encoding import MachineEncoding, encode_config
from hornlog.minsky import (
    Computation,
    Configuration,
    parse_machine,
    search_halting,
    validate_computation,
)
from hornlog.programs import HornProgram, evaluate, prove_bounded, verify_strong_solution
from hornlog.syntax import HornSequent, OplusImplication, PlainImplication, parse_formula, parse_product

DEC = parse_machine("counters 2\nL1: ifzero x1 goto L0\nL1: dec x1 goto L1\n")
INC = parse_machine("counters 2\nL1: inc x1 goto L1\n")


@pytest.fixture
def enc():
    return MachineEncoding.build(DEC)


def dec_run(k1: int) -> Computation:
    run = search_halting(DEC, Configuration(1, (k1, 0)), 100, 20)
    assert run is not None
    return run


def test_dec_program_shape(enc):
    trace = computation_to_program(enc, dec_run(2))
    program = trace.program
    assert len(program.vertices) == 6
    labels = [str(label) for _, _, label in program.edges]
    assert labels.count("(l1*r1) -o l1") == 2
    assert "l1 -o l0" in labels and "l1 -o k1" in labels and "k1 -o l0" in labels
    values = evaluate(program, enc.sequent((2, 0)).input)
    assert all(values[leaf] == parse_product("l0") for leaf in program.leaves)
    assert verify_strong_solution(program, enc.sequent((2, 0))).ok


def test_side_chain_kills_other_counters():
    machine = parse_machine(
        "counters 2\nL1: ifzero x1 goto L2\nL2: dec x2 goto L2\nL2: ifzero x2 goto L0\n"
    )
    enc = MachineEncoding.build(machine)
    run = search_halting(machine, Configuration(1, (0, 1)), 100, 10)
    trace = computation_to_program(enc, run)
    first = trace.side_chains[0]
    assert first.kill_count == 1
    killing = trace.program.used_formula(first.vertices[0], first.vertices[1])
    assert killing == parse_formula("(k1*r2) -o k1")
    assert verify_strong_solution(trace.program, enc.sequent((0, 1))).ok


def test_empty_computation_single_vertex(enc):
    trace = computation_to_program(enc, Computation((Configuration(0, (0, 0)),), ()))
    assert len(trace.program.vertices) == 1
    assert trace.main_vertices == (trace.program.root,)
    values = evaluate(trace.program, parse_product("l0"))
    assert values[trace.program.root] == parse_product("l0")


def test_rejects_non_halting_computation(enc):
    run = Computation((Configuration(1, (1, 0)), Configuration(1, (0, 0))), (1,))
    with pytest.raises(ValueError):
        computation_to_program(enc, run)


def test_main_branch_correspondence(enc):
    run = dec_run(3)
    trace = computation_to_program(enc, run)
    values = evaluate(trace.program, encode_config(enc.machine.n, run.configs[0]))
    assert len(trace.main_vertices) == len(run.configs)
    for vertex, config in zip(trace.main_vertices, run.configs):
        assert values[vertex] == encode_config(enc.machine.n, config)


def test_extraction_round_trip(enc):
    run = dec_run(2)
    trace = computation_to_program(enc, run)
    back = program_to_computation(enc, trace.program, run.configs[0])
    assert back.configs == run.configs
    assert back.moves == run.moves
    assert validate_computation(DEC, back).ok


def test_extraction_accepts_prover_witnesses(enc):
    witness = prove_bounded(enc.sequent((1, 0)), 10)
    assert witness is not None
    back = program_to_computation(enc, witness, Configuration(1, (1, 0)))
    assert validate_computation(DEC, back).ok
    assert back.configs[-1] == DEC.halting_configuration()


def test_extraction_main_leaf_not_goal(enc):
    # Zero test taken with x2 = 1: the main leaf keeps the leftover counter.
    program = HornProgram.build(0, (
        (0, 1, parse_formula("l1 -o l0")),
        (0, 2, parse_formula("l1 -o k1")),
        (2, 3, parse_formula("(k1*r2) -o k1")),
        (3, 4, parse_formula("k1 -o l0")),
    ))
    with pytest.raises(ExtractionError) as err:
        program_to_computation(enc, program, Configuration(1, (0, 1)))
    assert err.value.code == MAIN_LEAF_NOT_L0


def test_extraction_side_chain_foreign_formula(enc):
    # The side branch borrows an instruction formula instead of a killer.
    program = HornProgram.build(0, (
        (0, 1, parse_formula("l1 -o l0")),
        (0, 2, parse_formula("l1 -o k1")),
        (2, 3, parse_formula("(l1*r1) -o l1")),
        (3, 4, parse_formula("k1 -o l0")),
    ))
    with pytest.raises(ExtractionError) as err:
        program_to_computation(enc, program, Configuration(1, (0, 0)))
    assert err.value.code == SIDE_CHAIN_FOREIGN_FORMULA


def test_extraction_side_chain_unfinished(enc):
    # No killing of x2 before closing: the side leaf retains r2.
    program = HornProgram.build(0, (
        (0, 1, parse_formula("l1 -o l0")),
        (0, 2, parse_formula("l1 -o k1")),
        (2, 3, parse_formula("k1 -o l0")),
    ))
    with pytest.raises(ExtractionError) as err:
        program_to_computation(enc, program, Configuration(1, (0, 1)))
    assert err.value.code == SIDE_CHAIN_NOT_KILLED


def test_extraction_rejects_non_encoding_edges(enc):
    program = HornProgram.build(0, ((0, 1, parse_formula("l1 -o l9")),))
    with pytest.raises(ExtractionError) as err:
        program_to_computation(enc, program, Configuration(1, (0, 0)))
    assert err.value.code == NON_ENCODING_EDGE


def test_round_trip_agree_halts(enc):
    report = round_trip_check(enc, (2, 0), 100, 10, 10)
    assert report.code == AGREE_HALTS
    assert report.extracted.configs == report.computation.configs


def test_round_trip_agree_absent(enc):
    report = round_trip_check(enc, (0, 1), 1000, 10, 20)
    assert report.code == AGREE_NO_WITNESS_WITHIN_BOUNDS


def test_round_trip_run_beyond_the_depth_bound_is_inconclusive(enc):
    report = round_trip_check(enc, (2, 0), 100, 10, 2)
    assert report.code == BOUNDS_INCONCLUSIVE
    assert str(report) == "BOUNDS_INCONCLUSIVE: run found but its program needs height 4 > 2"
    assert report.witness is None and report.computation is not None


def test_round_trip_witness_beyond_the_step_bound_is_inconclusive(enc):
    report = round_trip_check(enc, (2, 0), 1, 10, 20)
    assert report.code == BOUNDS_INCONCLUSIVE
    assert str(report) == "BOUNDS_INCONCLUSIVE: witness run needs 3 steps / counter peak 2"
    assert report.computation is None
    assert report.extracted.configs[-1] == DEC.halting_configuration()


def test_round_trip_inc_absent():
    enc = MachineEncoding.build(INC)
    report = round_trip_check(enc, (0, 0), 1000, 10, 20)
    assert report.code == AGREE_NO_WITNESS_WITHIN_BOUNDS


class EatingKiller(MachineEncoding):
    """A mutant encoding: the killer k1 may also eat the counter it tests."""

    def sequent(self, inputs):
        s = super().sequent(inputs)
        return HornSequent(s.input, s.linear, s.banged + (parse_formula("(k1*r1) -o k1"),), s.goal)


def eating_killer(text: str) -> EatingKiller:
    honest = MachineEncoding.build(parse_machine(text))
    return EatingKiller(honest.machine, honest.phi)


BLOCKED = "L1: ifzero x1 goto L2\nL2: dec x1 goto L0\n"


def test_round_trip_reports_a_witness_that_does_not_extract():
    enc = eating_killer("counters 1\n" + BLOCKED)
    report = round_trip_check(enc, (1,), 50, 5, 10)
    assert report.code == DISAGREEMENT and report.computation is None
    assert report.detail.startswith("witness does not extract: SIDE_CHAIN_FOREIGN_FORMULA at edge 1->2: ")


def test_round_trip_extracts_the_witness_when_a_run_was_found_too():
    enc = eating_killer(
        "counters 2\n" + BLOCKED
        + "L1: dec x1 goto L3\nL3: inc x2 goto L4\nL4: dec x2 goto L5\nL5: ifzero x1 goto L0\n"
    )
    report = round_trip_check(enc, (1, 0), 10, 5, 3)
    assert report.code == DISAGREEMENT and report.computation is not None
    with pytest.raises(ExtractionError) as err:
        program_to_computation(enc, report.witness, Configuration(1, (1, 0)))
    assert report.detail == f"witness does not extract: {err.value}"


def test_random_machines_cross_validate():
    rng = random.Random(424242)
    disagreements = []
    for _ in range(25):
        machine = random_machine(rng)
        enc = MachineEncoding.build(machine)
        inputs = (rng.randint(0, 2), rng.randint(0, 2))
        report = round_trip_check(enc, inputs, 50, 10, 15)
        if report.code == "DISAGREEMENT":
            disagreements.append((machine, inputs, report))
    assert not disagreements


# --- Extraction diagnostics -----------------------------------------------------


def dec_program(*edges: tuple[int, int, str]) -> HornProgram:
    return HornProgram.build(0, tuple((p, c, parse_formula(f)) for p, c, f in edges))


ZERO_TEST_FORK = ((0, 1, "l1 -o l0"), (0, 2, "l1 -o k1"))


@pytest.mark.parametrize("edges,counters,message", [
    pytest.param(
        ((0, 1, "(l1*r1) -o l1"),), (0, 0),
        "NON_ENCODING_EDGE at edge 0->1: vertex 1 is undefined",
        id="main-vertex-undefined",
    ),
    pytest.param(
        ((0, 1, "l1 -o l0"), (0, 2, "l1 -o k2")), (0, 0),
        "NON_ENCODING_EDGE at edge 0->1: fork at 0 uses l1 -o (k2 + l0), not a zero-test formula",
        id="fork-not-a-zero-test",
    ),
    pytest.param(
        ZERO_TEST_FORK + ((2, 3, "k1 -o l0"), (2, 4, "k1 -o l0")), (0, 0),
        "SIDE_CHAIN_FOREIGN_FORMULA at edge 0->2: side vertex 2 has 2 children; killing chains are unary",
        id="side-vertex-with-two-children",
    ),
    pytest.param(
        ZERO_TEST_FORK + ((2, 3, "k1 -o l0"), (3, 4, "(l1*r1) -o l1")), (0, 0),
        "SIDE_CHAIN_FOREIGN_FORMULA at edge 0->2: side chain continues past the closing edge at vertex 3",
        id="side-chain-past-closing-edge",
    ),
    pytest.param(
        ZERO_TEST_FORK + ((2, 3, "(k1*r2) -o k1"), (3, 4, "k1 -o l0")), (0, 0),
        "SIDE_CHAIN_NOT_KILLED: side leaf 4 is undefined or foreign",
        id="side-leaf-undefined",
    ),
    pytest.param(
        ZERO_TEST_FORK + ((2, 3, "k1 -o l0"),), (1, 0),
        "SIDE_CHAIN_NOT_KILLED: tested counter x1 is 1, not 0, at side leaf 3",
        id="tested-counter-not-zero",
    ),
])
def test_extraction_diagnostics(enc, edges, counters, message):
    with pytest.raises(ExtractionError) as err:
        program_to_computation(enc, dec_program(*edges), Configuration(1, counters))
    assert str(err.value) == message


def mutate(rng: random.Random, enc: MachineEncoding, program: HornProgram, start: Configuration):
    """One random mutation of a program or of its start configuration; None
    when the mutated edges no longer form a program."""
    formulas = []
    for f in enc.program_formulas() + enc.killer_zone():
        if isinstance(f, OplusImplication):
            formulas.extend(PlainImplication(f.antecedent, side) for side in (f.left, f.right))
        else:
            formulas.append(f)
    edges = list(program.edges)
    kind = rng.choice(["relabel", "drop", "graft", "start"])
    if kind == "start":
        label = rng.choice(sorted(enc.machine.labels))
        return program, Configuration(label, tuple(rng.randint(0, 2) for _ in range(enc.machine.n)))
    if kind == "relabel" and edges:
        at = rng.randrange(len(edges))
        edges[at] = edges[at][:2] + (rng.choice(formulas),)
    elif kind == "drop" and edges:
        leaf_edges = [e for e in edges if e[1] in program.leaves]
        edges.remove(rng.choice(leaf_edges))
    elif kind == "graft":
        edges.append((rng.choice(program.vertices), max(program.vertices) + 1, rng.choice(formulas)))
    try:
        return HornProgram.build(program.root, edges), start
    except ValueError:
        return None


def test_mutated_programs_extract_to_halting_runs_or_raise_extraction_error():
    rng = random.Random(8080)
    outcomes = {"extracted": 0, "rejected": 0}
    while outcomes["extracted"] + outcomes["rejected"] < 1500:
        n = rng.randint(1, 3)
        machine = random_machine(rng, n)
        enc = MachineEncoding.build(machine)
        init = Configuration(1, tuple(rng.randint(0, 2) for _ in range(n)))
        run = search_halting(machine, init, 30, 6)
        if run is None:
            continue
        program = computation_to_program(enc, run).program
        for _ in range(10):
            mutated = mutate(rng, enc, program, init)
            if mutated is None:
                continue
            program_m, start = mutated
            try:
                back = program_to_computation(enc, program_m, start)
            except ExtractionError:
                outcomes["rejected"] += 1
                continue
            outcomes["extracted"] += 1
            assert validate_computation(machine, back).ok
            assert back.configs[0] == start
            assert back.configs[-1] == machine.halting_configuration()
    assert min(outcomes.values()) > 100, outcomes


def test_three_counter_zero_test_on_the_middle_counter():
    machine = parse_machine(
        "counters 3\nL1: ifzero x2 goto L2\nL2: dec x1 goto L2\nL2: dec x3 goto L2\n"
        "L2: ifzero x1 goto L3\nL3: ifzero x3 goto L0\n"
    )
    enc = MachineEncoding.build(machine)
    init = Configuration(1, (2, 0, 1))
    run = search_halting(machine, init, 100, 10)
    trace = computation_to_program(enc, run)
    first = trace.side_chains[0]
    assert first.counter == 2
    assert [
        trace.program.used_formula(a, b) for a, b in zip(first.vertices, first.vertices[1:])
    ] == [parse_formula(f) for f in ("(k2*r1) -o k2", "(k2*r1) -o k2", "(k2*r3) -o k2", "k2 -o l0")]
    sequent = enc.sequent((2, 0, 1))
    assert verify_strong_solution(trace.program, sequent).ok
    assert program_to_computation(enc, trace.program, init) == run
    witness = prove_bounded(sequent, 8)
    assert witness is not None
    back = program_to_computation(enc, witness, init)
    assert validate_computation(machine, back).ok
    assert back.configs[-1] == machine.halting_configuration()

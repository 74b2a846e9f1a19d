import random

import pytest
from hypothesis import given, settings, strategies as st

from corpora import hll_corpus, random_machine
from hornlog import hll
from hornlog.bridge import computation_to_program
from hornlog.encoding import MachineEncoding
from hornlog.minsky import Computation, Configuration, parse_machine, search_halting
from hornlog.programs import (
    FOREIGN_FORMULA,
    HornProgram,
    LEAF_MISMATCH,
    LINEAR_COUNT,
    chain,
    compose,
    evaluate,
    program_from_json,
    program_height,
    program_to_dot,
    program_to_json,
    prove_bounded,
    strong_fork,
    verify_strong_solution,
)
from hornlog.syntax import (
    OplusImplication,
    PlainImplication,
    SimpleProduct,
    apply_implication,
    parse_formula,
    parse_product,
    parse_sequent,
)

F, G, H, M = (parse_product(x) for x in "fghm")


@pytest.fixture
def p0():
    return strong_fork(F, G, H, chain((PlainImplication(G, M),)), chain((PlainImplication(H, M),)))


def leaf_values(program, w):
    out = evaluate(program, w)
    return [out[v] for v in program.leaves]


def test_evaluate_p0(p0):
    assert leaf_values(p0, F) == [M, M]


def test_evaluate_p0_frame(p0):
    framed = parse_product("f*c")
    assert leaf_values(p0, framed) == [parse_product("m*c")] * 2


def test_evaluate_undefined_propagates(p0):
    out = evaluate(p0, G)
    children = [child for child, _ in p0.children[p0.root]]
    assert all(out[c] is None for c in children)
    assert all(out[v] is None for v in p0.leaves)


def test_divergent_vertices_share_antecedent():
    with pytest.raises(ValueError):
        HornProgram.build(0, ((0, 1, PlainImplication(F, G)), (0, 2, PlainImplication(G, H))))


def test_tree_shape_validation():
    edge = PlainImplication(F, G)
    with pytest.raises(ValueError):
        HornProgram.build(0, ((0, 1, edge), (0, 1, edge)))
    with pytest.raises(ValueError):
        HornProgram.build(0, ((0, 1, edge), (2, 3, edge)))


def test_used_formula_on_fork(p0):
    (c1, _), (c2, _) = p0.children[p0.root]
    joint = parse_formula("f -o (g + h)")
    assert p0.used_formula(p0.root, c1) == joint
    assert p0.used_formula(p0.root, c2) == joint


def choice_implications() -> list[OplusImplication]:
    """The choice principals of the zoned corpus and the zero-test formulas
    of a seeded random machine corpus."""
    found = [
        node.principal
        for proof in hll_corpus()
        for node, _ in hll.walk(proof)
        if isinstance(node.principal, OplusImplication)
    ]
    rng = random.Random(424242)
    for _ in range(60):
        enc = MachineEncoding.build(random_machine(rng, rng.randint(1, 3)))
        found += [f for f in enc.phi if isinstance(f, OplusImplication)]
    return found


def test_choice_implication_states_its_fork_edges():
    formulas = choice_implications()
    assert len(formulas) > 60
    for f in formulas:
        left, right = PlainImplication(f.antecedent, f.left), PlainImplication(f.antecedent, f.right)
        assert f.branches == (left, right)
        fork = HornProgram.build(0, ((0, 1, left), (0, 2, right)))
        assert fork.used_formula(0, 1) == f and fork.used_formula(0, 2) == f


def test_build_keeps_a_child_map_of_every_vertex(p0):
    again = HornProgram.build(p0.root, p0.edges)
    assert again == p0 and hash(again) == hash(p0)
    assert set(p0.children) == set(p0.vertices)
    assert all(p0.children[leaf] == () for leaf in p0.leaves)


def test_verify_p0_accepts(p0):
    s = parse_sequent("f ; ; f -o (g + h), g -o m, h -o m |- m")
    assert verify_strong_solution(p0, s).ok


def test_verify_linear_choice_accepts(p0):
    s = parse_sequent("f ; f -o (g + h) ; g -o m, h -o m |- m")
    assert verify_strong_solution(p0, s).ok


def test_verify_leaf_mismatch():
    # Zero test taken although the tested counter is 1: main leaf keeps r2.
    program = HornProgram.build(0, (
        (0, 1, parse_formula("l1 -o l0")),
        (0, 2, parse_formula("l1 -o k1")),
        (2, 3, parse_formula("(k1*r2) -o k1")),
        (3, 4, parse_formula("k1 -o l0")),
    ))
    s = parse_sequent(
        "l1*r2 ; ; l1 -o (l0 + k1), (l1*r1) -o l1, k1 -o l0, (k1*r2) -o k1,"
        " k2 -o l0, (k2*r1) -o k2 |- l0"
    )
    report = verify_strong_solution(program, s)
    assert not report.ok
    kinds = {v.kind for v in report.violations}
    assert kinds == {LEAF_MISMATCH}
    assert report.violations[0].vertex == 1


def test_verify_foreign_formula(p0):
    s = parse_sequent("f ; ; f -o (g + h), g -o m |- m")
    report = verify_strong_solution(p0, s)
    assert any(v.kind == FOREIGN_FORMULA and v.formula == parse_formula("h -o m")
               for v in report.violations)


def test_verify_linear_used_twice():
    program = chain([parse_formula("a -o b"), parse_formula("a -o b")])
    s = parse_sequent("a*a ; a -o b ; |- b*b")
    report = verify_strong_solution(program, s)
    assert [v.kind for v in report.violations] == [LINEAR_COUNT]
    assert report.violations[0].count == 2


def test_verify_linear_unused():
    program = chain((parse_formula("a -o b"),))
    s = parse_sequent("a ; a -o b, b -o c ; |- b")
    report = verify_strong_solution(program, s)
    assert any(v.kind == LINEAR_COUNT and v.count == 0 for v in report.violations)


def test_verify_linear_with_banged_copy_allows_extra_uses():
    program = chain([parse_formula("a -o a"), parse_formula("a -o a")])
    s = parse_sequent("a ; a -o a ; a -o a |- a")
    assert verify_strong_solution(program, s).ok


def test_compose_chains():
    left = chain((parse_formula("a -o b"),))
    right = chain((parse_formula("b -o c"),))
    composed = compose(left, right)
    assert leaf_values(composed, parse_product("a")) == [parse_product("c")]


def test_compose_multiplies_leaves(p0):
    three = strong_fork(M, F, F, chain(()), strong_fork(F, G, H, chain(()), chain(())))
    assert len(three.leaves) == 3
    assert len(compose(p0, three).leaves) == 6


def test_compose_identity():
    assert len(compose(chain(()), chain((parse_formula("a -o b"),))).edges) == 1


def test_strong_fork_shapes(p0):
    two = strong_fork(F, G, H, chain(()), chain(()))
    assert len(two.leaves) == 2 and program_height(two) == 1
    assert len(p0.leaves) == 2 and program_height(p0) == 2
    assert len(p0.children[p0.root]) == 2


def test_prove_bounded_p0_shape(p0):
    s = parse_sequent("f ; ; f -o (g + h), g -o m, h -o m |- m")
    witness = prove_bounded(s, 5)
    assert witness is not None
    assert len(witness.children[witness.root]) == 2
    assert len(witness.leaves) == 2 and program_height(witness) == 2
    assert verify_strong_solution(witness, s).ok


def test_prove_bounded_inc_absent():
    s = parse_sequent(
        "l1 ; ; l1 -o (l1*r1), k1 -o l0, (k1*r2) -o k1, k2 -o l0, (k2*r1) -o k2 |- l0"
    )
    assert prove_bounded(s, 12) is None


def test_prove_bounded_identity():
    witness = prove_bounded(parse_sequent("q ; ; |- q"), 3)
    assert witness is not None and len(witness.vertices) == 1


def test_prove_bounded_consumes_linear_zone():
    s = parse_sequent("a ; a -o b ; |- a")
    assert prove_bounded(s, 4) is None  # goal reachable only by ignoring the linear zone
    s2 = parse_sequent("a ; a -o b ; |- b")
    witness = prove_bounded(s2, 4)
    assert witness is not None and len(witness.edges) == 1


def test_prove_bounded_depth_budget():
    s = parse_sequent("a ; ; a -o b, b -o c |- c")
    assert prove_bounded(s, 1) is None
    assert prove_bounded(s, 2) is not None


def test_prove_bounded_formula_in_both_zones():
    # The linear copy must be consumed; the banged copy covers further uses.
    s = parse_sequent("a ; a -o a ; a -o a |- a")
    witness = prove_bounded(s, 4)
    assert witness is not None
    assert verify_strong_solution(witness, s).ok
    assert len(witness.edges) == 1


def test_prove_bounded_terminates_on_a_loop():
    # a -o b and b -o a bring the search back to a state it is still
    # expanding; the witness must still be read back and stay within depth.
    s = parse_sequent("a ; ; a -o b, b -o a, a -o g |- g")
    witness = prove_bounded(s, 6)
    assert witness is not None and program_height(witness) <= 6
    assert verify_strong_solution(witness, s).ok


def test_verify_deep_program():
    # Deeper than Python's recursion limit: a 2000-move DEC run.
    machine = parse_machine("counters 2\nL1: ifzero x1 goto L0\nL1: dec x1 goto L1\n")
    k = 2000
    configs = [Configuration(1, (k - i, 0)) for i in range(k + 1)] + [Configuration(0, (0, 0))]
    enc = MachineEncoding.build(machine)
    trace = computation_to_program(enc, Computation(tuple(configs), (1,) * k + (0,)))
    assert program_height(trace.program) == k + 2
    assert verify_strong_solution(trace.program, enc.sequent((k, 0))).ok


def _shape(program, v=None):
    """The tree below v up to vertex ids and child order."""
    v = program.root if v is None else v
    return tuple(sorted((str(label), _shape(program, child)) for child, label in program.children[v]))


TRANSFER = (
    "counters 2\nL1: dec x1 goto L2\nL2: inc x2 goto L1\nL1: ifzero x1 goto L3\n"
    "L3: dec x2 goto L3\nL3: ifzero x2 goto L0\n"
)


@pytest.mark.parametrize("text, ks", [
    ("counters 2\nL1: ifzero x1 goto L0\nL1: dec x1 goto L1\n", range(6)),
    (TRANSFER, range(4)),
])
def test_prover_witness_is_the_bridge_program(text, ks):
    machine = parse_machine(text)
    enc = MachineEncoding.build(machine)
    for k in ks:
        run = search_halting(machine, machine.initial_configuration((k, 0)), 100, 10)
        program = computation_to_program(enc, run).program
        witness = prove_bounded(enc.sequent((k, 0)), program_height(program))
        assert witness is not None and _shape(witness) == _shape(program)


def test_serialization_round_trip(p0):
    text = program_to_json(p0)
    assert program_from_json(text) == p0
    assert "digraph" in program_to_dot(p0)


def test_deserialization_rejects_choice_labels(p0):
    bad = program_to_json(p0).replace("f -o g", "f -o (g + h)")
    with pytest.raises(ValueError):
        program_from_json(bad)


# --- Random programs: the frame law and builder invariants --------------------

LITS = ["a", "b", "c", "d", "e"]


def random_program(rng: random.Random, max_vertices: int = 6, start=None):
    """Grow a program forward from a start product so evaluation stays defined."""
    start = start or SimpleProduct.of(*rng.choices(LITS, k=rng.randint(1, 3)))
    edges = []
    frontier = [(0, start)]
    next_id = 1
    while frontier and next_id < max_vertices:
        index = rng.randrange(len(frontier))
        vertex, value = frontier.pop(index)
        arity = rng.choice([0, 1, 1, 2] if next_id + 1 < max_vertices else [0, 1])
        if arity == 0:
            continue
        picks = rng.sample(list(value.literals()), k=rng.randint(1, min(2, value.size)))
        antecedent = SimpleProduct.of(*picks)
        for _ in range(arity):
            consequent = SimpleProduct.of(*rng.choices(LITS, k=rng.randint(1, 2)))
            label = PlainImplication(antecedent, consequent)
            edges.append((vertex, next_id, label))
            frontier.append((next_id, apply_implication(value, label)))
            next_id += 1
    return HornProgram.build(0, edges), start


def scramble_an_edge(rng, program):
    """Randomize one non-divergent edge's antecedent; usually breaks definedness."""
    solo = [
        (parent, child, label)
        for parent, child, label in program.edges
        if len(program.children[parent]) != 2
    ]
    if not solo:
        return program
    target = rng.choice(solo)
    wild = PlainImplication(
        SimpleProduct.of(*rng.choices(LITS, k=rng.randint(2, 4))), target[2].consequent
    )
    edges = [
        (parent, child, wild if (parent, child, label) == target else label)
        for parent, child, label in program.edges
    ]
    return HornProgram.build(program.root, edges)


@given(st.integers(0, 10_000))
@settings(max_examples=60)
def test_frame_law_random(seed):
    rng = random.Random(seed)
    program, x = random_program(rng)
    if rng.random() < 0.4:
        program = scramble_an_edge(rng, program)
    v = SimpleProduct.of(*rng.choices(LITS, k=rng.randint(1, 3)))
    base = evaluate(program, x)
    framed = evaluate(program, x.tensor(v))
    # A vertex undefined in the base may become defined under the frame, so
    # the law speaks only of the vertices the base evaluation defines.
    for vertex in program.vertices:
        if base[vertex] is not None:
            assert framed[vertex] == base[vertex].tensor(v)


@given(st.integers(0, 10_000))
@settings(max_examples=40)
def test_evaluate_deterministic(seed):
    rng = random.Random(seed)
    program, x = random_program(rng)
    assert evaluate(program, x) == evaluate(program, x)

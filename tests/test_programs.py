import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from corpora import chain, hll_corpus, ladder_text, random_machine, small_sequent
from hornlog import hll, programs
from hornlog.bridge import AGREE_NO_WITNESS_WITHIN_BOUNDS, computation_to_program, round_trip_check
from hornlog.encoding import MachineEncoding
from hornlog.minsky import Computation, Configuration, parse_machine, search_halting
from hornlog.programs import (
    FOREIGN_FORMULA,
    HornProgram,
    LEAF_MISMATCH,
    LINEAR_COUNT,
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
    FormatError,
    HornSequent,
    OplusImplication,
    PlainImplication,
    SimpleProduct,
    apply_implication,
    match_antecedent,
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
    assert p0.charges[p0.root] == joint
    assert p0.charges[c1] == PlainImplication(G, M) and p0.charges[c2] == PlainImplication(H, M)
    assert all(p0.charges[leaf] is None for leaf in p0.leaves)


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
        assert fork.charges[0] == f


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


def test_verify_undefined_leaf():
    # The input lacks the antecedent, so the leaf's value is undefined.
    report = verify_strong_solution(chain((parse_formula("a -o b"),)), parse_sequent("c ; ; a -o b |- b"))
    assert str(report) == "LEAF_MISMATCH vertex=1 undefined"


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


def test_prove_bounded_spends_a_linear_choice_once():
    # The b side leads back to a, where the choice still matches: a linear
    # occurrence is spent by then and must be skipped, a banged one forks again.
    zone = "(b*t) -o a, (c*t) -o z, b -o z, c -o z"
    assert prove_bounded(parse_sequent(f"a*t ; a -o (b + c) ; {zone} |- z"), 8) is None
    witness = prove_bounded(parse_sequent(f"a*t ; ; a -o (b + c), {zone} |- z"), 8)
    assert [v for v in witness.vertices if len(witness.children[v]) == 2] == [0, 2]


def test_prove_bounded_terminates_on_a_loop():
    # a -o b and b -o a bring the search back to a state it is still
    # expanding; the witness must still be read back and stay within depth.
    s = parse_sequent("a ; ; a -o b, b -o a, a -o g |- g")
    witness = prove_bounded(s, 6)
    assert witness is not None and program_height(witness) <= 6
    assert verify_strong_solution(witness, s).ok


def test_prove_bounded_depth_zero():
    # Depth 0 admits the one-vertex program, and only when the input is the
    # goal with no linear occurrence left to spend.
    witness = prove_bounded(parse_sequent("q ; ; a -o q |- q"), 0)
    assert witness is not None and witness.vertices == (0,) and not witness.edges
    assert prove_bounded(parse_sequent("a ; ; a -o q |- q"), 0) is None
    assert prove_bounded(parse_sequent("q ; q -o q ; |- q"), 0) is None
    with pytest.raises(ValueError, match="max_depth must be non-negative"):
        prove_bounded(parse_sequent("q ; ; |- q"), -1)


def counted_matches(monkeypatch) -> list:
    """The edges whose antecedent ``programs.step_entries`` is asked to match, from now on.
    A guard asserts its count is positive too: one that counted a helper the
    prover no longer calls would read 0 and pass."""
    calls, real_step = [], programs.step_entries
    monkeypatch.setattr(programs, "step_entries", lambda counts, edges: calls.append(edges) or real_step(counts, edges))
    return calls


def test_prove_bounded_drops_states_that_cannot_reach_the_goal(monkeypatch):
    # x3 = 1 is touched by nothing, so the 5-rung ladder from (5, 0, 1) has
    # no witness at any depth.  At depth 10 (the 7-move run without x3, plus
    # 3), trying every formula in every state, a depth cap alone makes 6,016
    # matcher calls; dropping the states whose size or linear zone cannot
    # reach the goal in time leaves 1,666.
    enc = MachineEncoding.build(parse_machine(ladder_text(5, seed=1, counters=3)))
    calls = counted_matches(monkeypatch)
    assert prove_bounded(enc.sequent((5, 0, 1)), 10) is None
    assert 0 < len(calls) <= 2_000


def test_prove_bounded_raises_when_its_witness_fails_the_check(monkeypatch):
    # Not a ValueError, which the CLI reports as malformed input, and not an
    # assert statement, which python -O strips.
    bad = programs.StrongSolutionReport(False, (programs.Violation(LEAF_MISMATCH, vertex=0),))
    monkeypatch.setattr(programs, "verify_strong_solution", lambda program, sequent: bad)
    with pytest.raises(AssertionError, match="^prover returned a bad witness: LEAF_MISMATCH vertex=0$"):
        prove_bounded(parse_sequent("q ; ; |- q"), 0)


def test_a_state_tries_only_the_formulas_filed_under_its_literals(monkeypatch):
    # Every antecedent of an encoded sequent holds one label or killer
    # literal, so a state tries the few formulas filed under its own: one
    # round trip on the 5-rung ladder from (5, 0, 1), at the bench's bounds
    # (the 7-move run without x3, plus slack), makes 145 matcher calls where
    # trying every formula in every state makes 1,666.
    enc = MachineEncoding.build(parse_machine(ladder_text(5, seed=1, counters=3)))
    calls = counted_matches(monkeypatch)
    assert round_trip_check(enc, (5, 0, 1), 9, 10, 10).code == AGREE_NO_WITNESS_WITHIN_BOUNDS
    assert 0 < len(calls) <= 200


def test_proving_long_runs_tries_only_the_formulas_filed_under_a_state(monkeypatch):
    # DEC from 70 and the transfer from 22 at their runs' heights: 170
    # matcher calls for both, 578 when every state tries every formula.
    dec = MachineEncoding.build(parse_machine("counters 2\nL1: dec x1 goto L1\nL1: ifzero x1 goto L0\n"))
    transfer = MachineEncoding.build(parse_machine(TRANSFER))
    calls = counted_matches(monkeypatch)
    assert prove_bounded(dec.sequent((70, 0)), 72) is not None
    assert prove_bounded(transfer.sequent((22, 0)), 69) is not None
    assert 0 < len(calls) <= 200


def _naive_wins(product: Counter, linear: Counter, sequent: HornSequent, depth: int) -> bool:
    """Whether a strong solution of height <= depth starts at this state, by
    unmemoized enumeration of every use of every formula."""
    if not linear and product == Counter(sequent.goal.literals()):
        return True
    if depth == 0:
        return False
    for f in set(linear) | set(sequent.banged):
        need = Counter(f.antecedent.literals())
        if need - product:
            continue
        spends = ([True] if linear[f] else []) + ([False] if f in sequent.banged else [])
        for spend in spends:
            rest = linear - Counter([f]) if spend else linear
            if all(
                _naive_wins(product - need + Counter(e.consequent.literals()), rest, sequent, depth - 1)
                for e in f.branches
            ):
                return True
    return False


@given(st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_prove_bounded_finds_a_witness_exactly_when_one_exists(seed):
    sequent = small_sequent(random.Random(seed))
    start = Counter(sequent.input.literals()), Counter(sequent.linear)
    for depth in range(5):
        witness = prove_bounded(sequent, depth)
        assert (witness is not None) == _naive_wins(*start, sequent, depth), (str(sequent), depth)
        if witness is not None:
            assert verify_strong_solution(witness, sequent).ok
            assert program_height(witness) <= depth


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


def _dumped(program: HornProgram) -> str:
    """The program as one ``json.dumps`` call lays it out: the reference
    ``program_to_json`` must match byte for byte."""
    data = {
        "root": program.root,
        "vertices": list(program.vertices),
        "edges": [{"parent": p, "child": c, "label": label.text} for p, c, label in program.edges],
    }
    return json.dumps(data, indent=2) + "\n"


def _witnesses() -> list[HornProgram]:
    rng = random.Random(5)
    found = [prove_bounded(small_sequent(rng), 4) for _ in range(150)]
    for text, ks in ((TRANSFER, range(4)), (ladder_text(3, seed=2), range(2, 5))):
        enc = MachineEncoding.build(parse_machine(text))
        found += [prove_bounded(enc.sequent((k, 0)), 3 * k + 6) for k in ks]
    return [w for w in found if w is not None]


def _bridge_programs() -> list[HornProgram]:
    rng = random.Random(11)
    found = []
    for _ in range(40):
        machine = random_machine(rng)
        run = search_halting(machine, machine.initial_configuration((rng.randint(0, 3), rng.randint(0, 3))), 12, 6)
        if run is not None:
            found.append(computation_to_program(MachineEncoding.build(machine), run).program)
    return found


def test_program_json_is_one_json_dumps_byte_for_byte():
    groups = {
        "witnesses": _witnesses(),
        "bridge": _bridge_programs(),
        "compiled": [hll.compile_hll_to_program(proof) for proof in hll_corpus()],
        "one vertex": [HornProgram.build(0, ()), HornProgram.build(7, ())],
    }
    for name, group in groups.items():
        assert len(group) >= 2, name
        assert any(len(p.children[v]) == 2 for p in group for v in p.vertices) or name == "one vertex", name
        for program in group:
            text = program_to_json(program)
            assert text == _dumped(program), name
            assert program_from_json(text) == program


def test_reader_names_the_field_of_an_overlong_integer(p0):
    """``json.loads`` converts a JSON integer with ``int``, which refuses
    more than 4,300 digits; that ValueError once escaped the reader."""
    text = program_to_json(p0)
    long = "1" * 5000
    with pytest.raises(FormatError, match="root must be an integer vertex id"):
        program_from_json(text.replace('"root": 0', f'"root": {long}'))
    with pytest.raises(FormatError, match="edge 0's parent must be an integer vertex id"):
        program_from_json(text.replace('"parent": 0', f'"parent": {long}', 1))


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
    """Equal programs on equal inputs evaluate alike, whether the values are
    computed afresh or are the ones the program kept from its last call; the
    kept values are read-only."""
    rng = random.Random(seed)
    program, x = random_program(rng)
    first = evaluate(program, x)
    assert first == evaluate(HornProgram.build(program.root, program.edges), x)
    other = x.tensor(SimpleProduct.of("a"))
    assert evaluate(program, other) == evaluate(HornProgram.build(program.root, program.edges), other)
    assert evaluate(program, x) == first
    with pytest.raises(TypeError):
        first[program.root] = other


def preorder_evaluation(program: HornProgram, w: SimpleProduct) -> dict:
    """``evaluate`` as its definition reads: preorder, each edge's value the
    consequent tensored onto the residual of its antecedent's match."""
    out = {program.root: w}
    for v in program.preorder():
        for child, label in program.children[v]:
            residual = None if out[v] is None else match_antecedent(out[v], label.antecedent)
            out[child] = None if residual is None else label.consequent.tensor(residual)
    return out


@given(st.integers(0, 10_000))
@settings(max_examples=80)
def test_evaluate_in_build_order_equals_the_preorder_evaluation(seed):
    rng = random.Random(seed)
    program, x = random_program(rng, max_vertices=rng.randint(1, 14))
    if rng.random() < 0.5:
        program = scramble_an_edge(rng, program)  # usually an undefined subtree
    if rng.random() < 0.3:
        x = SimpleProduct.of(*rng.choices(LITS, k=rng.randint(1, 3)))
    values = evaluate(program, x)
    assert values == preorder_evaluation(program, x)
    assert set(values) == set(program.vertices)
    depth = {program.root: 0}
    for v in program.preorder():
        depth.update((child, depth[v] + 1) for child, _ in program.children[v])
    assert program_height(program) == max(depth.values())


def test_a_vertex_list_that_does_not_match_the_edges_is_a_format_error(p0):
    data = json.loads(program_to_json(p0))
    data["vertices"].append(99)
    with pytest.raises(FormatError, match="vertex list does not match the edge list"):
        program_from_json(json.dumps(data))

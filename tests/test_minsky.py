import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from corpora import ladder_text, random_machine
from hornlog import minsky
from hornlog.minsky import (
    Computation,
    Configuration,
    Instruction,
    MachineFormatError,
    MinskyMachine,
    ValidationResult,
    computation_text,
    parse_computation,
    parse_machine,
    search_halting,
    successors,
    validate_computation,
    validate_halting_run,
)

DEC_TEXT = """\
# decrement to zero, then jump out
counters 2
L1: ifzero x1 goto L0
L1: dec x1 goto L1
L0: halt
"""

INC_TEXT = """\
counters 2
L1: inc x1 goto L1
"""


@pytest.fixture
def dec():
    return parse_machine(DEC_TEXT)


@pytest.fixture
def inc():
    return parse_machine(INC_TEXT)


def test_successors_blocked_test(dec):
    assert successors(dec, Configuration(1, (2, 0))) == ((1, Configuration(1, (1, 0))),)


def test_successors_blocked_dec_at_zero(dec):
    assert successors(dec, Configuration(1, (0, 0))) == ((0, Configuration(0, (0, 0))),)


def test_successors_halt_label(dec):
    assert successors(dec, Configuration(0, (0, 0))) == ()


def test_successors_nondeterministic_duplicate_labels():
    machine = parse_machine("counters 1\nL1: inc x1 goto L1\nL1: inc x1 goto L2\nL2: ifzero x1 goto L0\n")
    moves = successors(machine, Configuration(1, (0,)))
    assert [index for index, _ in moves] == [0, 1]


def test_validate_accepts_dec_run(dec):
    run = Computation(
        (
            Configuration(1, (2, 0)),
            Configuration(1, (1, 0)),
            Configuration(1, (0, 0)),
            Configuration(0, (0, 0)),
        ),
        (1, 1, 0),
    )
    assert validate_computation(dec, run).ok


def test_validate_rejects_double_decrement(dec):
    run = Computation((Configuration(1, (2, 0)), Configuration(1, (0, 0))), (1,))
    result = validate_computation(dec, run)
    assert not result.ok and result.index == 0


def test_validate_rejects_wrong_arity(dec):
    three = (Configuration(1, (1, 0, 7)), Configuration(1, (0, 0, 7)), Configuration(0, (0, 0, 7)))
    result = validate_computation(dec, Computation(three, (1, 0)))
    assert not result.ok and result.index == 0 and "3 counters" in result.reason
    one = (Configuration(1, (0, 0)), Configuration(0, (0,)))
    result = validate_computation(dec, Computation(one, (0,)))
    assert not result.ok and result.index == 1


def test_validate_rejects_an_instruction_one_past_the_last(dec):
    # DEC lists three instructions (its halt included), so I4 names none.
    run = Computation((Configuration(1, (1, 0)), Configuration(1, (0, 0))), (3,))
    assert validate_computation(dec, run) == ValidationResult(False, 0, "no instruction I4")


def test_validate_accepts_singleton(dec):
    assert validate_computation(dec, Computation((Configuration(0, (0, 0)),), ())).ok


def test_a_halting_run_is_a_run_that_ends_at_the_halting_configuration(dec):
    halting = Computation((Configuration(1, (1, 0)), Configuration(1, (0, 0)), Configuration(0, (0, 0))), (1, 0))
    assert validate_halting_run(dec, halting).ok and str(validate_halting_run(dec, halting)) == "valid"
    short = Computation(halting.configs[:2], halting.moves[:1])
    result = validate_halting_run(dec, short)
    assert (result.ok, result.index) == (False, 1)
    assert str(result) == "at index 1: L1 : 0,0 is not the halting configuration"
    # A move that is not enabled is judged first, at its own index.
    wrong = Computation((Configuration(1, (1, 0)), Configuration(0, (1, 0))), (0,))
    assert validate_halting_run(dec, wrong) == validate_computation(dec, wrong)
    assert str(validate_halting_run(dec, wrong)) == "at index 0: I1 not enabled at L1 : 1,0"


def test_search_finds_shortest_run(dec):
    run = search_halting(dec, Configuration(1, (2, 0)), 100, 10)
    assert run is not None and len(run.moves) == 3
    assert run.configs[-1] == Configuration(0, (0, 0))
    assert validate_computation(dec, run).ok


def test_search_inc_never_halts(inc):
    assert search_halting(inc, Configuration(1, (0, 0)), 100, 10) is None


def test_search_dec_stuck_counter(dec):
    assert search_halting(dec, Configuration(1, (0, 1)), 1000, 10) is None


def test_search_trivial_at_halt(dec):
    run = search_halting(dec, Configuration(0, (0, 0)), 10, 10)
    assert run == Computation((Configuration(0, (0, 0)),), ())


ONE_MOVE_TEXT = "counters 1\nL1: ifzero x1 goto L0\n"


def test_search_zero_counter_bound():
    machine = parse_machine(ONE_MOVE_TEXT)
    run = search_halting(machine, Configuration(1, (0,)), 5, 0)
    assert run == Computation((Configuration(1, (0,)), Configuration(0, (0,))), (0,))
    assert search_halting(machine, Configuration(1, (1,)), 5, 0) is None


def test_search_zero_step_bound():
    machine = parse_machine(ONE_MOVE_TEXT)
    halted = Configuration(0, (0,))
    assert search_halting(machine, halted, 0, 0) == Computation((halted,), ())
    assert search_halting(machine, Configuration(1, (0,)), 0, 10) is None


@pytest.mark.parametrize("max_steps, max_counter", [(-1, 5), (5, -1)])
def test_search_rejects_negative_bounds(max_steps, max_counter):
    with pytest.raises(ValueError):
        search_halting(parse_machine(ONE_MOVE_TEXT), Configuration(1, (0,)), max_steps, max_counter)


def test_machine_text_round_trip(dec):
    """A machine printed line by line, each instruction as ``str`` writes it, reads back as itself."""
    text = "".join(f"{line}\n" for line in (f"counters {dec.n}", *map(str, dec.instructions)))
    assert parse_machine(text) == dec


def test_halt_implicit(inc):
    assert inc.instructions[-1].kind == "halt"
    assert parse_machine(INC_TEXT + "L0: halt\n") == inc


@pytest.mark.parametrize(
    "bad",
    [
        "counters 0\n",
        "L1: inc x1 goto L0\n",  # counters line missing
        "counters 1\nL1: inc x2 goto L0\n",  # counter out of range
        "counters 1\nL1: inc x1 goto L5\n",  # dangling target
        "counters 1\nL0: inc x1 goto L0\n",  # non-halt at L0
        "counters 1\nL2: halt\n",
        "counters 1\nL0: halt\nL0: halt\n",
        "counters 1\nL1: bump x1 goto L0\n",
    ],
)
def test_machine_format_errors(bad):
    with pytest.raises((MachineFormatError, ValueError)):
        parse_machine(bad)


# Arabic-Indic digits (U+0660..U+0669) match \d and int() reads them, but the
# grammar's numbers are ASCII, so a text with one is malformed, not renumbered.
@pytest.mark.parametrize(
    "text, message",
    [
        ("counters \u0662\n", "line 1: expected 'counters <n>' first"),
        ("counters 1\nL\u0661: dec x1 goto L0\n", "line 2: unrecognized line 'L\u0661: dec x1 goto L0'"),
        ("counters 1\nL1: dec x\u0661 goto L0\n", "line 2: unrecognized line 'L1: dec x\u0661 goto L0'"),
        ("counters 1\nL1: dec x1 goto L\u0660\n", "line 2: unrecognized line 'L1: dec x1 goto L\u0660'"),
        ("counters 1\nL\u0660: halt\n", "line 2: unrecognized line 'L\u0660: halt'"),
    ],
)
def test_machine_numbers_are_ascii_digits(text, message):
    with pytest.raises(MachineFormatError) as err:
        parse_machine(text)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("L1 : \u0661,0\n", "line 1: bad configuration 'L1 : \u0661,0'"),
        ("L\u0661 : 1,0\n", "line 1: bad configuration 'L\u0661 : 1,0'"),
        ("L1 : 1,0\nI\u0661 -> L1 : 0,0\n", "line 2: expected 'I<k> -> L<i> : c1,c2,...'"),
    ],
)
def test_computation_numbers_are_ascii_digits(text, message):
    with pytest.raises(MachineFormatError) as err:
        parse_computation(text)
    assert str(err.value) == message


def test_machine_error_carries_line():
    with pytest.raises(MachineFormatError) as err:
        parse_machine("counters 1\nL1: bump x1 goto L0\n")
    assert err.value.line == 2


def test_computation_text_round_trip(dec):
    run = search_halting(dec, Configuration(1, (2, 0)), 100, 10)
    text = computation_text(run)
    assert parse_computation(text) == run
    assert "I2 -> L1 : 1,0" in text


def test_configuration_rejects_negative():
    with pytest.raises(ValueError):
        Configuration(1, (0, -1))


def test_configuration_semantics_are_pinned():
    """What a configuration prints, refuses, and equals."""
    config = Configuration(3, (2, 0))
    assert repr(config) == "Configuration(label=3, counters=(2, 0))"
    assert str(config) == "L3 : 2,0"
    assert (config.label, config.counters) == (3, (2, 0))
    with pytest.raises(ValueError) as refused:
        Configuration(label=1, counters=(0, -1))
    assert str(refused.value) == "negative counter in Configuration(label=1, counters=(0, -1))"
    rebuilt = Configuration(*config)
    assert rebuilt == config and hash(rebuilt) == hash(config)
    assert Configuration._trusted(3, (2, 0)) == config
    assert hash(Configuration._trusted(3, (2, 0))) == hash(config)
    assert config != Configuration(2, (2, 0))  # another label
    assert config != Configuration(3, (0, 2))  # other counters
    assert config != Configuration(3, (2, 0, 0))  # another arity
    # A configuration is the tuple (label, counters): it equals that plain tuple.
    assert config == (3, (2, 0)) and hash(config) == hash((3, (2, 0)))
    with pytest.raises(AttributeError):
        config.label = 4


def test_instruction_shapes():
    with pytest.raises(ValueError):
        Instruction("inc", 0, 1, 1)  # non-halt label must be >= 1
    with pytest.raises(ValueError):
        Instruction("halt", 1)


# --- Properties over random machines -----------------------------------------

machines = st.integers(min_value=0, max_value=10_000).map(
    lambda seed: random_machine(random.Random(seed))
)
configs = st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 2)).map(
    lambda t: Configuration(t[0], (t[1], t[2]))
)


@given(machines, configs)
def test_successors_preserve_nonnegativity(machine, config):
    for _, nxt in successors(machine, config):
        assert all(c >= 0 for c in nxt.counters)
        assert nxt.label in machine.labels or nxt.label == 0


@given(machines, configs)
@settings(max_examples=50)
def test_search_replay(machine, config):
    run = search_halting(machine, config, 30, 8)
    if run is not None:
        assert validate_computation(machine, run).ok
        assert run.configs[0] == config
        assert run.configs[-1] == machine.halting_configuration()


@given(machines, configs)
@settings(max_examples=30)
def test_search_monotone_in_bounds(machine, config):
    small = search_halting(machine, config, 20, 6)
    if small is not None:
        large = search_halting(machine, config, 40, 12)
        assert large is not None
        assert len(large.moves) <= len(small.moves)


# --- The label index changes nothing observable -------------------------------


def naive_successors(machine, config):
    """Every instruction stepped in program order, disabled moves dropped."""
    stepped = ((index, minsky._step(instruction, config))
               for index, instruction in enumerate(machine.instructions))
    return tuple((index, nxt) for index, nxt in stepped if nxt is not None)


def naive_search(machine, init, max_steps, max_counter):
    """Breadth-first search over naive_successors, first-found parents."""
    target = machine.halting_configuration()
    parent = {init: None}
    frontier = deque([(init, 0)])
    found = init == target
    while frontier and not found:
        config, depth = frontier.popleft()
        if depth >= max_steps:
            continue
        for index, nxt in naive_successors(machine, config):
            if nxt in parent or max(nxt.counters) > max_counter:
                continue
            parent[nxt] = (config, index)
            if nxt == target:
                found = True
                break
            frontier.append((nxt, depth + 1))
    if not found:
        return None
    configs, moves, at = [target], [], target
    while parent[at] is not None:
        at, move = parent[at]
        configs.append(at)
        moves.append(move)
    return Computation(tuple(reversed(configs)), tuple(reversed(moves)))


HAND_MACHINES = [
    parse_machine(text)
    for text in (
        # duplicate labels, interleaved in program order
        "counters 2\nL1: dec x1 goto L2\nL2: ifpos x2 goto L1\nL1: inc x2 goto L1\n"
        "L2: dec x2 goto L2\nL1: ifzero x1 goto L0\nL2: ifzero x2 goto L0\n",
        # an explicit halt listed first
        "counters 2\nL0: halt\nL1: dec x1 goto L1\nL1: ifzero x1 goto L2\nL2: dec x2 goto L0\n",
        # one label only, so most configuration labels have no instructions
        "counters 3\nL4: inc x3 goto L4\nL4: dec x3 goto L0\nL4: ifzero x2 goto L0\n",
    )
]


@st.composite
def machines_and_configs(draw):
    """Random machines with 1..3 counters or hand-made ones, and a configuration
    at any label 0..5 (non-zero counters at L0 included)."""
    if draw(st.booleans()):
        seed, n = draw(st.integers(0, 10_000)), draw(st.integers(1, 3))
        machine = random_machine(random.Random(seed), n=n)
    else:
        machine = draw(st.sampled_from(HAND_MACHINES))
    counters = draw(st.tuples(*[st.integers(0, 3)] * machine.n))
    return machine, Configuration(draw(st.integers(0, 5)), counters)


@given(machines_and_configs())
@settings(max_examples=200)
def test_successors_match_the_naive_reference(case):
    machine, config = case
    assert successors(machine, config) == naive_successors(machine, config)


@given(machines_and_configs())
@settings(max_examples=60)
def test_search_matches_the_naive_reference(case):
    machine, config = case
    for max_steps, max_counter in ((1, 1), (4, 2), (25, 6)):
        run = naive_search(machine, config, max_steps, max_counter)
        assert search_halting(machine, config, max_steps, max_counter) == run
        if run is None:
            continue
        # At the run's own length the step bound prunes hardest; one less
        # leaves no run at all.
        for tight in (len(run.moves), len(run.moves) - 1):
            if tight >= 0:
                assert (search_halting(machine, config, tight, max_counter)
                        == naive_search(machine, config, tight, max_counter))


def naive_tests_to_halt(machine):
    """The fewest tests on a path to L0 per label, relaxed to a fixpoint."""
    tests, changed = {0: 0}, True
    while changed:
        changed = False
        for i in machine.instructions:
            if i.kind != "halt" and i.target in tests:
                cost = tests[i.target] + (i.kind in ("ifpos", "ifzero"))
                if cost < tests.get(i.label, cost + 1):
                    tests[i.label], changed = cost, True
    return tests


def halting_bound(machine, config):
    """The search's lower bound on the moves a halting run from config needs."""
    return max(sum(config.counters) + machine.tests_to_halt[config.label], config.label != 0)


@given(machines_and_configs())
@settings(max_examples=200)
def test_the_halting_bound_falls_by_at_most_one_per_move(case):
    machine, config = case
    assert machine.tests_to_halt == naive_tests_to_halt(machine)
    for _, nxt in successors(machine, config):
        if nxt.label in machine.tests_to_halt:  # then so is the label it came from
            assert halting_bound(machine, nxt) >= halting_bound(machine, config) - 1


@given(machines_and_configs())
@settings(max_examples=60)
def test_the_halting_bound_never_exceeds_the_moves_a_found_run_has_left(case):
    machine, config = case
    run = search_halting(machine, config, 25, 6)
    if run is not None:
        for i, at in enumerate(run.configs):
            assert halting_bound(machine, at) <= len(run.moves) - i


def record_expansions(monkeypatch):
    """The configurations search_halting expands, in order, as a list it fills."""
    expanded = []
    real_successors = minsky.successors

    def counting_successors(machine, config):
        expanded.append(config)
        return real_successors(machine, config)

    monkeypatch.setattr(minsky, "successors", counting_successors)
    return expanded


def test_search_steps_only_the_instructions_at_each_label(monkeypatch):
    machine = parse_machine(ladder_text(16, seed=3))
    assert len(machine.instructions) == 64 + 1
    expanded, stepped = record_expansions(monkeypatch), []
    real_step = minsky._step

    def counting_step(instruction, config):
        stepped.append((instruction, config))
        return real_step(instruction, config)

    monkeypatch.setattr(minsky, "_step", counting_step)
    run = search_halting(machine, Configuration(1, (20, 0)), 60, 30)
    at_label = [
        sum(1 for i in machine.instructions if i.kind != "halt" and i.label == config.label)
        for config in expanded
    ]
    assert len(stepped) == sum(at_label)
    assert all(instruction.label == config.label for instruction, config in stepped)
    assert run is not None and validate_computation(machine, run).ok


def test_search_expands_only_configurations_that_can_still_halt(monkeypatch):
    # From (200, 0) a halting run needs 200 decrements plus the two zero tests
    # above the ladder, so at the exact step bound only the configurations of
    # the run itself survive the prune, one per move; a prune on the counter
    # total alone would expand 418, and a depth cap alone more than 3,000.
    machine, init = parse_machine(ladder_text(16, seed=3)), Configuration(1, (200, 0))
    reference = naive_search(machine, init, 1000, 200)
    assert reference is not None
    steps = len(reference.moves)
    expanded = record_expansions(monkeypatch)
    run = search_halting(machine, init, steps, 200)
    assert len(expanded) == steps == 202
    assert run == naive_search(machine, init, steps, 200) == reference


def test_search_expands_nothing_from_which_halt_cannot_be_reached(inc, monkeypatch):
    # L1 only loops to itself, so every successor is cut whatever max_steps
    # is; the counter total alone would expand (0, 0) through (10, 0).
    expanded = record_expansions(monkeypatch)
    assert search_halting(inc, Configuration(1, (0, 0)), 100, 10) is None
    assert expanded == [Configuration(1, (0, 0))]


@given(st.integers(0, 10_000))
@settings(max_examples=80)
def test_stepped_configurations_equal_their_validated_construction(seed):
    """``_step`` trusts the configurations it makes; each must equal the
    validating ``Configuration(label, counters)`` and hold no negative counter."""
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    machine = random_machine(rng, n, 6)
    frontier = [machine.initial_configuration(tuple(rng.randint(0, 2) for _ in range(n)))]
    for _ in range(12):
        if not frontier:
            break
        for _, nxt in successors(machine, frontier.pop(rng.randrange(len(frontier)))):
            assert nxt == Configuration(nxt.label, nxt.counters)
            assert hash(nxt) == hash(Configuration(nxt.label, nxt.counters))
            assert type(nxt) is Configuration and min(nxt.counters) >= 0
            frontier.append(nxt)
    with pytest.raises(ValueError, match="negative counter"):  # one made outside still validates
        Configuration(1, (-1,))

import random

import pytest
from hypothesis import given, settings, strategies as st

from corpora import random_machine
from hornlog.minsky import (
    Computation,
    Configuration,
    Instruction,
    MachineFormatError,
    MinskyMachine,
    computation_text,
    machine_text,
    parse_computation,
    parse_machine,
    search_halting,
    successors,
    validate_computation,
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


def test_validate_accepts_singleton(dec):
    assert validate_computation(dec, Computation((Configuration(0, (0, 0)),), ())).ok


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


def test_machine_text_round_trip(dec):
    assert parse_machine(machine_text(dec)) == dec


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

import random

import pytest
from hypothesis import given, strategies as st

from corpora import random_machine
from hornlog.encoding import (
    MachineEncoding,
    decode_product,
    encode_config,
    encode_instruction,
)
from hornlog.minsky import Configuration, Instruction, parse_machine
from hornlog.syntax import (
    OplusImplication,
    PlainImplication,
    apply_implication,
    parse_formula,
    parse_product,
    parse_sequent,
)

DEC = parse_machine("counters 2\nL1: ifzero x1 goto L0\nL1: dec x1 goto L1\n")


def test_encode_instruction_forms():
    inc = Instruction("inc", 2, 1, 3)
    assert encode_instruction(inc) == parse_formula("l2 -o (l3*r1)")
    zero = Instruction("ifzero", 1, 1, 0)
    assert encode_instruction(zero) == parse_formula("l1 -o (l0 + k1)")
    dec = Instruction("dec", 1, 1, 1)
    assert encode_instruction(dec) == parse_formula("(l1*r1) -o l1")
    pos = Instruction("ifpos", 1, 2, 2)
    assert encode_instruction(pos) == parse_formula("(l1*r2) -o (l2*r2)")


def test_encode_instruction_rejects_halt():
    with pytest.raises(ValueError):
        encode_instruction(Instruction("halt", 0))


def killer_zone(n: int):
    machine = parse_machine(f"counters {n}\nL1: inc x1 goto L1\n")
    return MachineEncoding.build(machine).killer_zone()


def test_build_killers_n2():
    expected = {
        parse_formula("k1 -o l0"),
        parse_formula("(k1*r2) -o k1"),
        parse_formula("k2 -o l0"),
        parse_formula("(k2*r1) -o k2"),
    }
    assert set(killer_zone(2)) == expected


def test_build_killers_n1():
    assert killer_zone(1) == (parse_formula("k1 -o l0"),)


def test_build_killers_n3_family():
    killers = killer_zone(3)
    family2 = [f for f in killers if "k2" in dict(f.antecedent.entries) or "k2" in dict(f.consequent.entries)]
    assert parse_formula("(k2*r1) -o k2") in family2
    assert parse_formula("(k2*r3) -o k2") in family2
    assert parse_formula("(k2*r2) -o k2") not in family2
    assert len(killers) == 9
    # Per family: the closing formula, then the killing ones in counter order.
    assert killers[3:6] == tuple(
        parse_formula(text) for text in ("k2 -o l0", "(k2*r1) -o k2", "(k2*r3) -o k2")
    )


def test_zero_test_branches_and_goal():
    enc = MachineEncoding.build(DEC)
    assert enc.branches(0) == (parse_formula("l1 -o l0"), parse_formula("l1 -o k1"))
    assert enc.goal == parse_product("l0")


def test_zero_test_branches_are_the_fork_edges_of_phi_goto_first():
    rng = random.Random(424242)
    zero_tests = 0
    for _ in range(60):
        machine = random_machine(rng, rng.randint(1, 3))
        enc = MachineEncoding.build(machine)
        for i, instruction in enumerate(machine.instructions):
            if instruction.kind != "ifzero":
                continue
            goto = parse_formula(f"l{instruction.label} -o l{instruction.target}")
            edges = enc.phi[i].branches
            assert goto in edges
            assert enc.branches(i) == (goto, *(e for e in edges if e != goto))
            zero_tests += 1
    assert zero_tests > 20


def test_encode_config_examples():
    assert encode_config(2, Configuration(1, (2, 0))) == parse_product("l1*r1*r1")
    assert encode_config(2, Configuration(0, (0, 0))) == parse_product("l0")
    assert encode_config(2, Configuration(2, (0, 3))) == parse_product("l2*r2*r2*r2")
    with pytest.raises(ValueError, match="expected 2 counters, got 1"):
        encode_config(2, Configuration(1, (0,)))


def test_decode_product_examples():
    assert decode_product(2, parse_product("l1*r1*r1")) == Configuration(1, (2, 0))
    assert decode_product(2, parse_product("l0")) == Configuration(0, (0, 0))
    assert decode_product(2, parse_product("k1*r2")) is None  # a killer state is no configuration
    assert decode_product(2, parse_product("r1*r2")) is None


def test_decode_rejects_foreign_and_double_heads():
    assert decode_product(2, parse_product("l1*z")) is None
    assert decode_product(2, parse_product("l1*k1")) is None
    assert decode_product(2, parse_product("l1*l1")) is None
    assert decode_product(2, parse_product("l1*l2")) is None
    assert decode_product(2, parse_product("r3*l1")) is None  # r3 out of range for n=2
    assert decode_product(2, parse_product("r0*l1")) is None
    assert decode_product(2, parse_product("l*r1")) is None


def test_killer_product_round_trip():
    # The killer edge of a zero test turns a configuration into a killer
    # state, which encodes no configuration.
    killer = MachineEncoding.build(DEC).branches(0)[1]
    x = apply_implication(encode_config(2, Configuration(1, (0, 1))), killer)
    assert x == parse_product("k1*r2")
    assert decode_product(2, x) is None


def test_build_sequent_matches_expected_text():
    expected = parse_sequent(
        "l1*r1*r1 ; ; l1 -o (l0 + k1), (l1*r1) -o l1, k1 -o l0, (k1*r2) -o k1,"
        " k2 -o l0, (k2*r1) -o k2 |- l0"
    )
    assert MachineEncoding.build(DEC).sequent((2, 0)) == expected


def test_encoding_builds_its_sequent_without_rebuilding(monkeypatch):
    enc = MachineEncoding.build(DEC)
    expected = MachineEncoding.build(DEC).sequent((2, 0))

    def rebuild(machine):
        raise AssertionError("the encoding was built a second time")

    monkeypatch.setattr(MachineEncoding, "build", staticmethod(rebuild))
    assert enc.sequent((2, 0)) == expected


def test_build_sequent_rejects_a_negative_input():
    # The configuration checks its counters; the encoding keeps no copy of that check.
    with pytest.raises(ValueError, match=r"negative counter in Configuration\(label=1, counters=\(-1, 0\)\)"):
        MachineEncoding.build(DEC).sequent((-1, 0))


def test_build_sequent_zero_inputs():
    s = MachineEncoding.build(DEC).sequent((0, 0))
    assert s.input == parse_product("l1")
    assert s.linear == ()
    assert s.goal == parse_product("l0")


def test_build_sequent_n1_single_killer():
    machine = parse_machine("counters 1\nL1: dec x1 goto L1\n")
    s = MachineEncoding.build(machine).sequent((1,))
    killer_like = [f for f in s.banged if isinstance(f, PlainImplication) and "k1" in dict(f.antecedent.entries)]
    assert killer_like == [parse_formula("k1 -o l0")]


def test_formula_counts():
    enc = MachineEncoding.build(DEC)
    non_halt = [i for i in DEC.instructions if i.kind != "halt"]
    assert len(enc.program_formulas()) == len(non_halt)
    assert len(enc.killer_zone()) == DEC.n * DEC.n


def test_formula_head_structure():
    """Every encoded formula has exactly one head literal in its antecedent and
    one or two heads in total."""
    enc = MachineEncoding.build(DEC)
    heads = lambda p: sum(count for name, count in p.entries if name[0] in "lk")
    for f in enc.program_formulas() + enc.killer_zone():
        assert heads(f.antecedent) == 1
        if isinstance(f, OplusImplication):
            assert heads(f.left) == 1 and heads(f.right) == 1
        else:
            assert heads(f.consequent) == 1


def test_provenance_lookup():
    enc = MachineEncoding.build(DEC)
    assert enc.instruction_index.get(parse_formula("l1 -o (l0 + k1)")) == 0
    assert enc.instruction_index.get(parse_formula("(l1*r1) -o l1")) == 1
    assert enc.instruction_index.get(parse_formula("k1 -o l0")) is None
    assert enc.killer_family_index.get(parse_formula("(k1*r2) -o k1")) == 1
    assert enc.killer_family_index.get(parse_formula("(l1*r1) -o l1")) is None


def test_ambiguous_instruction_resolves_lowest():
    machine = parse_machine("counters 1\nL1: inc x1 goto L1\nL1: inc x1 goto L1\n")
    enc = MachineEncoding.build(machine)
    assert enc.instruction_index.get(parse_formula("l1 -o (l1*r1)")) == 0


def test_repeated_instruction_line_resolves_to_its_first_occurrence():
    machine = parse_machine(
        "counters 1\nL1: dec x1 goto L1\nL0: halt\nL1: inc x1 goto L1\nL1: inc x1 goto L1\n"
    )
    enc = MachineEncoding.build(machine)
    assert enc.instruction_index.get(parse_formula("l1 -o (l1*r1)")) == 2
    assert enc.instruction_index.get(parse_formula("(l1*r1) -o l1")) == 0


def test_killer_family_for_every_killer_formula_of_three_counters():
    machine = parse_machine("counters 3\nL1: ifzero x2 goto L0\nL1: dec x3 goto L1\n")
    enc = MachineEncoding.build(machine)
    for m in (1, 2, 3):
        assert enc.killer_family_index.get(parse_formula(f"k{m} -o l0")) == m
        for i in (1, 2, 3):
            killing = parse_formula(f"(k{m}*r{i}) -o k{m}")
            assert enc.killer_family_index.get(killing) == (None if i == m else m)
    for formula in enc.program_formulas():
        assert enc.killer_family_index.get(formula) is None


configs = st.tuples(st.integers(0, 9), st.integers(0, 4), st.integers(0, 4)).map(
    lambda t: Configuration(t[0], (t[1], t[2]))
)


@given(configs)
def test_decode_encode_round_trip(config):
    assert decode_product(2, encode_config(2, config)) == config

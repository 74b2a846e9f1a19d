"""Counter machines as Horn sequents.

Three disjoint literal families carry the encoding: ``l<i>`` for labels,
``r<m>`` for counters (one occurrence per unit), and ``k<m>`` for the killer
states that erase the other counters after a zero test.  Each instruction
becomes one implication, a machine becomes the reusable multiset of its
instruction formulas plus the killer formulas, and a configuration becomes
the product ``l_i * r_1^c1 * ... * r_n^cn``.

This module is the one owner of those shapes.  The naming lives in three
module functions, ``label_literal``, ``counter_literal`` and
``killer_literal``; ``MachineEncoding`` holds the instruction formulas, the
killer families and the goal ``l0``, and both bridges read them from it.  The
two branch edges of a zero test are read off its formula in ``phi``, goto
edge first, and a formula's provenance is looked up in the two index maps,
``instruction_index`` and ``killer_family_index``.  ``decode_product`` reads
an encoded configuration back as a ``Configuration``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .minsky import (
    DEC,
    HALT,
    HALT_LABEL,
    INC,
    TESTPOS,
    TESTZERO,
    Configuration,
    Instruction,
    MinskyMachine,
)
from .syntax import (
    HornFormula,
    HornSequent,
    OplusImplication,
    PlainImplication,
    SimpleProduct,
)


def label_literal(i: int) -> str:
    return f"l{i}"


def counter_literal(m: int) -> str:
    return f"r{m}"


def killer_literal(m: int) -> str:
    return f"k{m}"


def encode_instruction(instruction: Instruction) -> HornFormula:
    """The implication axiomatizing one non-halt instruction."""
    if instruction.kind == HALT:
        raise ValueError("the halt instruction is not encoded")
    l_i = SimpleProduct.of(label_literal(instruction.label))
    l_j = SimpleProduct.of(label_literal(instruction.target))
    r_m = counter_literal(instruction.counter)
    if instruction.kind == INC:
        return PlainImplication(l_i, l_j.tensor(SimpleProduct.of(r_m)))
    if instruction.kind == DEC:
        return PlainImplication(l_i.tensor(SimpleProduct.of(r_m)), l_j)
    if instruction.kind == TESTPOS:
        return PlainImplication(
            l_i.tensor(SimpleProduct.of(r_m)), l_j.tensor(SimpleProduct.of(r_m))
        )
    if instruction.kind == TESTZERO:
        return OplusImplication(l_i, l_j, SimpleProduct.of(killer_literal(instruction.counter)))
    raise AssertionError(instruction.kind)


def encode_config(n: int, config: Configuration) -> SimpleProduct:
    if len(config.counters) != n:
        raise ValueError(f"expected {n} counters, got {len(config.counters)}")
    names = [label_literal(config.label)]
    for m, count in enumerate(config.counters, start=1):
        names.extend([counter_literal(m)] * count)
    return SimpleProduct.of(*names)


def decode_product(n: int, product: SimpleProduct) -> Configuration | None:
    """The configuration a product encodes; None if it encodes none.

    The product must hold exactly one label literal, once, and otherwise only
    counter literals ``r1..rn``.
    """
    label = None
    counts = [0] * n
    for name, count in product.entries:
        kind, digits = name[:1], name[1:]
        if not digits.isdigit():
            return None
        index = int(digits)
        if kind == "r" and 1 <= index <= n:
            counts[index - 1] = count
        elif kind == "l" and label is None and count == 1:
            label = index
        else:
            return None
    if label is None:
        return None
    return Configuration(label, tuple(counts))


@dataclass(frozen=True)
class MachineEncoding:
    """A machine's formulas with their provenance kept separate.

    ``phi[i]`` is the formula of instruction i (None for halt); killer
    formulas are grouped per killer index so extraction can tell which family
    an implication was drawn from.  The n*n killer formulas are built on
    first use.
    """

    machine: MinskyMachine
    phi: tuple[HornFormula | None, ...]

    @staticmethod
    def build(machine: MinskyMachine) -> "MachineEncoding":
        phi = tuple(
            None if inst.kind == HALT else encode_instruction(inst)
            for inst in machine.instructions
        )
        return MachineEncoding(machine, phi)

    @cached_property
    def goal(self) -> SimpleProduct:
        return SimpleProduct.of(label_literal(HALT_LABEL))

    @cached_property
    def killers(self) -> tuple[tuple[PlainImplication, ...], ...]:
        """Per killer index m (at m-1): the closing implication ``k_m -o l0``,
        then one killing implication ``(k_m*r_i) -o k_m`` per other counter i
        in ascending order."""
        n, families = self.machine.n, []
        for m in range(1, n + 1):
            k_m = SimpleProduct.of(killer_literal(m))
            families.append((PlainImplication(k_m, self.goal),) + tuple(
                PlainImplication(k_m.tensor(SimpleProduct.of(counter_literal(i))), k_m)
                for i in range(1, n + 1)
                if i != m
            ))
        return tuple(families)

    @cached_property
    def instruction_index(self) -> dict[HornFormula, int]:
        """Each instruction formula to the lowest instruction index it axiomatizes."""
        index: dict[HornFormula, int] = {}
        for i, f in enumerate(self.phi):
            if f is not None:
                index.setdefault(f, i)
        return index

    @cached_property
    def killer_family_index(self) -> dict[PlainImplication, int]:
        """Each killer formula to its killer index m (the families are disjoint)."""
        return {f: m for m, group in enumerate(self.killers, start=1) for f in group}

    def branches(self, index: int) -> tuple[PlainImplication, PlainImplication]:
        """The goto edge ``l_i -o l_j`` and the killer edge ``l_i -o k_m`` of
        zero test ``index``: the fork edges of ``phi[index]``, goto first."""
        left, right = self.phi[index].branches
        killer = SimpleProduct.of(killer_literal(self.machine.instructions[index].counter))
        return (right, left) if left.consequent == killer else (left, right)

    def program_formulas(self) -> tuple[HornFormula, ...]:
        return tuple(f for f in self.phi if f is not None)

    def killer_zone(self) -> tuple[PlainImplication, ...]:
        """All killer implications; n*n formulas in ascending killer order."""
        return tuple(f for group in self.killers for f in group)

    def sequent(self, inputs: tuple[int, ...]) -> HornSequent:
        """The target sequent: encoded start at L1, everything reusable, goal l0."""
        start = encode_config(self.machine.n, Configuration(1, tuple(inputs)))
        banged = self.program_formulas() + self.killer_zone()
        return HornSequent(start, (), banged, self.goal)

"""Counter machines as Horn sequents.

Three disjoint literal families carry the encoding: ``l<i>`` for labels,
``r<m>`` for counters (one occurrence per unit), and ``k<m>`` for the killer
states that erase the other counters after a zero test.  Each instruction
becomes one implication, a machine becomes the reusable multiset of its
instruction formulas plus the killer formulas, and a configuration becomes
the product ``l_i * r_1^c1 * ... * r_n^cn``.

This module is the one owner of those shapes: ``MachineEncoding`` holds the
instruction formulas, the killer families, the two branch edges of each zero
test and the goal ``l0``, and both bridges read them from it.
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

LABEL, KILLER = "label", "killer"


@dataclass(frozen=True)
class EncodingContext:
    """Literal naming for an n-counter encoding."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one counter")

    def label_literal(self, i: int) -> str:
        return f"l{i}"

    def counter_literal(self, m: int) -> str:
        if not 1 <= m <= self.n:
            raise ValueError(f"counter index {m} out of range 1..{self.n}")
        return f"r{m}"

    def killer_literal(self, m: int) -> str:
        if not 1 <= m <= self.n:
            raise ValueError(f"killer index {m} out of range 1..{self.n}")
        return f"k{m}"

    def classify_literal(self, name: str) -> tuple[str, int] | None:
        """(family, index) for l/r/k literals of this context, else None."""
        if len(name) >= 2 and name[0] in "lrk" and name[1:].isdigit():
            index = int(name[1:])
            if name[0] == "l" and index >= 0:
                return (LABEL, index)
            if name[0] == "r" and 1 <= index <= self.n:
                return ("counter", index)
            if name[0] == "k" and 1 <= index <= self.n:
                return (KILLER, index)
        return None


@dataclass(frozen=True)
class DecodedProduct:
    kind: str  # LABEL or KILLER
    index: int
    counts: tuple[int, ...]

    def to_configuration(self) -> Configuration:
        if self.kind != LABEL:
            raise ValueError(f"{self.kind} product is not a machine configuration")
        return Configuration(self.index, self.counts)


def encode_instruction(ctx: EncodingContext, instruction: Instruction) -> HornFormula:
    """The implication axiomatizing one non-halt instruction."""
    if instruction.kind == HALT:
        raise ValueError("the halt instruction is not encoded")
    l_i = SimpleProduct.of(ctx.label_literal(instruction.label))
    l_j = SimpleProduct.of(ctx.label_literal(instruction.target))
    r_m = ctx.counter_literal(instruction.counter)
    if instruction.kind == INC:
        return PlainImplication(l_i, l_j.tensor(SimpleProduct.of(r_m)))
    if instruction.kind == DEC:
        return PlainImplication(l_i.tensor(SimpleProduct.of(r_m)), l_j)
    if instruction.kind == TESTPOS:
        return PlainImplication(
            l_i.tensor(SimpleProduct.of(r_m)), l_j.tensor(SimpleProduct.of(r_m))
        )
    if instruction.kind == TESTZERO:
        return OplusImplication(l_i, l_j, SimpleProduct.of(ctx.killer_literal(instruction.counter)))
    raise AssertionError(instruction.kind)


def encode_config(ctx: EncodingContext, config: Configuration) -> SimpleProduct:
    if len(config.counters) != ctx.n:
        raise ValueError(f"expected {ctx.n} counters, got {len(config.counters)}")
    names = [ctx.label_literal(config.label)]
    for m, count in enumerate(config.counters, start=1):
        names.extend([ctx.counter_literal(m)] * count)
    return SimpleProduct.of(*names)


def decode_product(ctx: EncodingContext, product: SimpleProduct) -> DecodedProduct | None:
    """Read back a label- or killer-headed product; None if the shape is foreign.

    The product must contain exactly one label-or-killer literal occurrence and
    otherwise only counter literals.
    """
    head: tuple[str, int] | None = None
    counts = [0] * ctx.n
    for name, count in product.entries:
        family = ctx.classify_literal(name)
        if family is None:
            return None
        kind, index = family
        if kind == "counter":
            counts[index - 1] = count
        else:
            if head is not None or count != 1:
                return None
            head = (kind, index)
    if head is None:
        return None
    return DecodedProduct(head[0], head[1], tuple(counts))


@dataclass(frozen=True)
class MachineEncoding:
    """A machine's formulas with their provenance kept separate.

    ``phi[i]`` is the formula of instruction i (None for halt); killer
    formulas are grouped per killer index so extraction can tell which family
    an implication was drawn from.  The n*n killer formulas are built on
    first use.
    """

    ctx: EncodingContext
    machine: MinskyMachine
    phi: tuple[HornFormula | None, ...]

    @staticmethod
    def build(machine: MinskyMachine) -> "MachineEncoding":
        ctx = EncodingContext(machine.n)
        phi = tuple(
            None if inst.kind == HALT else encode_instruction(ctx, inst)
            for inst in machine.instructions
        )
        return MachineEncoding(ctx, machine, phi)

    @cached_property
    def goal(self) -> SimpleProduct:
        return SimpleProduct.of(self.ctx.label_literal(HALT_LABEL))

    @cached_property
    def killers(self) -> tuple[tuple[PlainImplication, ...], ...]:
        """Per killer index m (at m-1): the closing implication ``k_m -o l0``,
        then one killing implication ``(k_m*r_i) -o k_m`` per other counter i
        in ascending order."""
        ctx, families = self.ctx, []
        for m in range(1, ctx.n + 1):
            k_m = SimpleProduct.of(ctx.killer_literal(m))
            families.append((PlainImplication(k_m, self.goal),) + tuple(
                PlainImplication(k_m.tensor(SimpleProduct.of(ctx.counter_literal(i))), k_m)
                for i in range(1, ctx.n + 1)
                if i != m
            ))
        return tuple(families)

    def branches(self, index: int) -> tuple[PlainImplication, PlainImplication]:
        """The goto edge ``l_i -o l_j`` and the killer edge ``l_i -o k_m`` of zero test ``index``."""
        instruction = self.machine.instructions[index]
        l_i = SimpleProduct.of(self.ctx.label_literal(instruction.label))
        return (
            PlainImplication(l_i, SimpleProduct.of(self.ctx.label_literal(instruction.target))),
            PlainImplication(l_i, SimpleProduct.of(self.ctx.killer_literal(instruction.counter))),
        )

    def program_formulas(self) -> tuple[HornFormula, ...]:
        return tuple(f for f in self.phi if f is not None)

    def killer_zone(self) -> tuple[PlainImplication, ...]:
        """All killer implications; n*n formulas in ascending killer order."""
        return tuple(f for group in self.killers for f in group)

    def instruction_for(self, formula: HornFormula) -> int | None:
        """Lowest instruction index axiomatized by this formula, if any."""
        for index, f in enumerate(self.phi):
            if f == formula:
                return index
        return None

    def killer_family_for(self, formula: HornFormula) -> int | None:
        """The killer index m whose family contains this formula, if any."""
        for m, group in enumerate(self.killers, start=1):
            if formula in group:
                return m
        return None

    def sequent(self, inputs: tuple[int, ...]) -> HornSequent:
        """The target sequent: encoded start at L1, everything reusable, goal l0."""
        if any(k < 0 for k in inputs):
            raise ValueError("inputs must be non-negative")
        if len(inputs) != self.machine.n:
            raise ValueError(f"expected {self.machine.n} inputs, got {len(inputs)}")
        start = encode_config(self.ctx, Configuration(1, tuple(inputs)))
        banged = self.program_formulas() + self.killer_zone()
        return HornSequent(start, (), banged, self.goal)

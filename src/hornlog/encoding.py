"""Counter machines as Horn sequents.

Three disjoint literal families carry the encoding: ``l<i>`` for labels,
``r<m>`` for counters (one occurrence per unit), and ``k<m>`` for the killer
states that erase the other counters after a zero test.  Each instruction
becomes one implication, a machine becomes the reusable multiset of its
instruction formulas plus the killer formulas, and a configuration becomes
the product ``l_i * r_1^c1 * ... * r_n^cn``, built from ``(literal, count)``
entries with ``SimpleProduct.power`` in time linear in n, not in the counts.

This module is the one owner of those shapes.  The naming lives in three
module functions, ``label_literal``, ``counter_literal`` and
``killer_literal``; ``MachineEncoding`` holds the instruction formulas, the
killer families and the goal ``l0``, and both bridges read them from it.
``build`` makes each literal's one-literal product once per encoding, in a
dict of its own, and ``MachineEncoding.literal`` hands it out: every
instruction formula, killer formula, the goal and every start product
(``config_product``, which ``sequent`` and extraction use) share it, so a
literal is checked, printed and sized once.  The banged zone, instruction
formulas then killers, is put in canonical order once per encoding, into
``banged``, and every ``sequent`` wraps that one tuple around its start.
The edges a move draws are read off its formula in ``phi`` once per
instruction, into ``edges``, for every instruction alike: one edge for a
plain implication, a zero test's two fork edges with the goto edge first;
both bridges index ``edges`` by instruction.
A formula's provenance is looked up in the two index maps,
``instruction_index`` and ``killer_family_index``.  ``decode_product`` reads
an encoded configuration back as a ``Configuration``; it is the inverse of
``config_product``, so it accepts exactly the literals ``label_literal`` and
``counter_literal`` name; one walk's calls share a dict of the names' roles.
"""

from __future__ import annotations

from typing import Callable

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
    Value,
    lazy,
    tensor_all,
)


def label_literal(i: int) -> str:
    return f"l{i}"


def counter_literal(m: int) -> str:
    return f"r{m}"


def killer_literal(m: int) -> str:
    return f"k{m}"


def _instruction_formula(instruction: Instruction, literal: Callable[[str], SimpleProduct]) -> HornFormula:
    """The implication axiomatizing one non-halt instruction."""
    l_i = literal(label_literal(instruction.label))
    l_j = literal(label_literal(instruction.target))
    r_m = literal(counter_literal(instruction.counter))
    if instruction.kind == INC:
        return PlainImplication(l_i, l_j.tensor(r_m))
    if instruction.kind == DEC:
        return PlainImplication(l_i.tensor(r_m), l_j)
    if instruction.kind == TESTPOS:
        return PlainImplication(l_i.tensor(r_m), l_j.tensor(r_m))
    if instruction.kind == TESTZERO:
        return OplusImplication(l_i, l_j, literal(killer_literal(instruction.counter)))
    raise AssertionError(instruction.kind)


def decode_product(n: int, product: SimpleProduct, roles: dict | None = None) -> Configuration | None:
    """The configuration a product encodes, the inverse of
    ``MachineEncoding.config_product``; None if it encodes none.

    The product must hold exactly one label literal, once, and otherwise only
    counter literals ``r1..rn``, each spelled as ``config_product`` spells it
    (so ``r01`` is no counter literal).  A walk that decodes many products
    hands every call one ``roles`` dict, so each name's role is read once.
    """
    roles = {} if roles is None else roles
    label = None
    counts = [0] * n
    for name, count in product.entries:
        role = roles.get(name)
        if role is None:
            try:  # int() also refuses more digits than the interpreter converts
                index = int(name[1:])
            except ValueError:
                index = -1
            role = roles[name] = (name == counter_literal(index), name == label_literal(index), index)
        is_counter, is_label, index = role
        if is_counter and 1 <= index <= n:
            counts[index - 1] = count
        elif is_label and label is None and count == 1:
            label = index
        else:
            return None
    if label is None:
        return None
    return Configuration(label, tuple(counts))


class MachineEncoding(Value):
    """A machine's formulas with their provenance kept separate.

    ``phi[i]`` is the formula of instruction i (None for halt); killer
    formulas are grouped per killer index so extraction can tell which family
    an implication was drawn from.  The n*n killer formulas are built on
    first use.
    """

    __match_args__ = ("machine", "phi", "literal")
    _hidden = ("literal",)
    machine: MinskyMachine
    phi: tuple[HornFormula | None, ...]
    # A literal's one-literal product; ``build`` makes each once per encoding.
    literal: Callable[[str], SimpleProduct]

    def __init__(self, machine: MinskyMachine, phi: tuple[HornFormula | None, ...],
                 literal: Callable[[str], SimpleProduct]):
        self.__dict__.update(machine=machine, phi=phi, literal=literal)

    @staticmethod
    def build(machine: MinskyMachine) -> "MachineEncoding":
        products: dict[str, SimpleProduct] = {}

        def literal(name: str) -> SimpleProduct:
            product = products.get(name)
            if product is None:
                product = products[name] = SimpleProduct.of(name)
            return product

        phi = tuple(
            None if inst.kind == HALT else _instruction_formula(inst, literal)
            for inst in machine.instructions
        )
        return MachineEncoding(machine, phi, literal)

    @lazy
    def goal(self) -> SimpleProduct:
        return self.literal(label_literal(HALT_LABEL))

    @lazy
    def killers(self) -> tuple[tuple[PlainImplication, ...], ...]:
        """Per killer index m (at m-1): the closing implication ``k_m -o l0``,
        then one killing implication ``(k_m*r_i) -o k_m`` per other counter i
        in ascending order."""
        n, families = self.machine.n, []
        for m in range(1, n + 1):
            k_m = self.literal(killer_literal(m))
            families.append((PlainImplication(k_m, self.goal),) + tuple(
                PlainImplication(k_m.tensor(self.literal(counter_literal(i))), k_m)
                for i in range(1, n + 1)
                if i != m
            ))
        return tuple(families)

    @lazy
    def instruction_index(self) -> dict[HornFormula, int]:
        """Each instruction formula to the lowest instruction index it axiomatizes."""
        index: dict[HornFormula, int] = {}
        for i, f in enumerate(self.phi):
            if f is not None:
                index.setdefault(f, i)
        return index

    @lazy
    def killer_family_index(self) -> dict[PlainImplication, int]:
        """Each killer formula to its killer index m (the families are disjoint)."""
        return {f: m for m, group in enumerate(self.killers, start=1) for f in group}

    @lazy
    def edges(self) -> tuple[tuple[PlainImplication, ...] | None, ...]:
        """Per instruction index, the edges one move draws (None for halt):
        the ``branches`` of ``phi[i]`` with the main edge first, that is the
        formula itself for an assignment or a positive test, the goto edge
        ``l_i -o l_j`` before the killer edge ``l_i -o k_m`` for a zero test."""
        table = []
        for f, instruction in zip(self.phi, self.machine.instructions):
            if f is None:
                table.append(None)
                continue
            edges = f.branches
            killer = ((killer_literal(instruction.counter), 1),)
            table.append(edges[::-1] if edges[0].consequent.entries == killer else edges)
        return tuple(table)

    def program_formulas(self) -> tuple[HornFormula, ...]:
        return tuple(f for f in self.phi if f is not None)

    def killer_zone(self) -> tuple[PlainImplication, ...]:
        """All killer implications; n*n formulas in ascending killer order."""
        return tuple(f for group in self.killers for f in group)

    def config_product(self, config: Configuration) -> SimpleProduct:
        """The product encoding a configuration, built from this encoding's literal products."""
        n, literal = self.machine.n, self.literal
        if len(config.counters) != n:
            raise ValueError(f"expected {n} counters, got {len(config.counters)}")
        products = [literal(label_literal(config.label))]
        products += (literal(counter_literal(m)).power(c) for m, c in enumerate(config.counters, start=1) if c)
        return tensor_all(products)

    @lazy
    def banged(self) -> tuple[HornFormula, ...]:
        """The reusable zone, instruction formulas then killers, in canonical
        order: sorted once per encoding, by ``HornSequent``'s constructor."""
        return HornSequent(self.goal, (), self.program_formulas() + self.killer_zone(), self.goal).banged

    def sequent(self, inputs: tuple[int, ...]) -> HornSequent:
        """The target sequent: encoded start at L1, everything reusable, goal l0.

        The banged zone is ordered once per encoding; every sequent it builds
        shares that one tuple, ``banged``."""
        start = self.config_product(Configuration(1, tuple(inputs)))
        return HornSequent.of_canonical(start, (), self.banged, self.goal)

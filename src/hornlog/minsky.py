"""Nondeterministic n-counter machines.

A machine is an ordered instruction list; duplicate labels are allowed and are
the source of nondeterminism.  Counters hold non-negative integers.  The
halting configuration is label L0 with every counter at zero; this module
alone judges a run that halts there, in ``validate_halting_run``.  A
``Configuration`` is a named tuple, so the search's visited map and the run
checks hash and compare it in C (it equals the plain ``(label, counters)``).
One made outside validates its counters; one ``_step`` makes is trusted,
since a move that would take a counter below zero is not enabled.

Machine text format (line oriented, ``#`` starts a comment)::

    counters <n>
    L<i>: inc x<m> goto L<j>
    L<i>: dec x<m> goto L<j>
    L<i>: ifpos x<m> goto L<j>
    L<i>: ifzero x<m> goto L<j>
    L0: halt

The halt line may be omitted; exactly one halt at L0 is implied.

Computation text format: the initial configuration on the first line as
``L<i> : c1,c2,...`` and one ``I<k> -> L<i> : c1,c2,...`` line per move,
where ``I<k>`` is the 1-based index of the applied instruction.
"""

from __future__ import annotations

import re
from collections import deque, namedtuple
from .syntax import Value, lazy

INC, DEC, TESTPOS, TESTZERO, HALT = "inc", "dec", "ifpos", "ifzero", "halt"

HALT_LABEL = 0
_set = object.__setattr__


class MachineFormatError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class Instruction(Value):
    kind: str  # one of INC, DEC, TESTPOS, TESTZERO, HALT
    label: int
    counter: int | None  # 1-based; None for halt
    target: int | None

    def __init__(self, kind: str, label: int, counter: int | None = None, target: int | None = None):
        # Not through __dict__: once read, the dict holds the fields for good, and the halting
        # search, which reads them at every step, reads them twice as fast where they are kept otherwise.
        _set(self, "kind", kind)
        _set(self, "label", label)
        _set(self, "counter", counter)
        _set(self, "target", target)
        if kind == HALT:
            if label != HALT_LABEL or counter is not None or target is not None:
                raise ValueError("halt must be 'L0: halt'")
        else:
            if kind not in (INC, DEC, TESTPOS, TESTZERO):
                raise ValueError(f"unknown instruction kind {kind!r}")
            if label < 1:
                raise ValueError(f"non-halt instruction label must be >= 1, got L{label}")
            if counter is None or counter < 1 or target is None or target < 0:
                raise ValueError(f"malformed instruction {self!r}")

    def __str__(self) -> str:
        if self.kind == HALT:
            return "L0: halt"
        return f"L{self.label}: {self.kind} x{self.counter} goto L{self.target}"


class Configuration(namedtuple("Configuration", ("label", "counters"))):
    """A label and its counters as the tuple ``(label, counters)``."""

    __slots__ = ()

    def __new__(cls, label: int, counters: tuple[int, ...]):
        config = tuple.__new__(cls, (label, counters))
        if min(counters, default=0) < 0:
            raise ValueError(f"negative counter in {config!r}")
        return config

    @classmethod
    def _trusted(cls, label: int, counters: tuple[int, ...]) -> "Configuration":
        """Wrap a stepped configuration, whose counters cannot be negative."""
        return tuple.__new__(cls, (label, counters))

    def __str__(self) -> str:
        return f"L{self.label} : {','.join(str(c) for c in self.counters)}"


class MinskyMachine(Value):
    n: int
    instructions: tuple[Instruction, ...]
    labels: frozenset[int]

    @staticmethod
    def build(n: int, instructions: list[Instruction] | tuple[Instruction, ...]) -> "MinskyMachine":
        if n < 1:
            raise ValueError(f"need at least one counter, got {n}")
        instructions = tuple(instructions)
        halts = [i for i in instructions if i.kind == HALT]
        if not halts:
            instructions = instructions + (Instruction(HALT, HALT_LABEL),)
        elif len(halts) > 1:
            raise ValueError("more than one halt instruction")
        labels = frozenset(i.label for i in instructions)
        for i in instructions:
            if i.kind == HALT:
                continue
            if not 1 <= i.counter <= n:
                raise ValueError(f"counter x{i.counter} out of range in {i}")
            if i.target not in labels and i.target != HALT_LABEL:
                raise ValueError(f"goto target L{i.target} has no instruction ({i})")
        return MinskyMachine(n, instructions, labels)

    @lazy
    def index_by_label(self) -> dict[int, tuple[tuple[int, Instruction], ...]]:
        """Each label's non-halt instructions as (index, instruction), in program order."""
        groups: dict[int, list[tuple[int, Instruction]]] = {}
        for index, instruction in enumerate(self.instructions):
            if instruction.kind != HALT:
                groups.setdefault(instruction.label, []).append((index, instruction))
        return {label: tuple(group) for label, group in groups.items()}

    @lazy
    def tests_to_halt(self) -> dict[int, int]:
        """The fewest ifpos/ifzero moves on any path to L0, for each label with one.

        One backward 0-1 BFS from L0: a test edge costs 1, an inc/dec edge 0."""
        into: dict[int, list[tuple[int, int]]] = {}
        for i in self.instructions:
            if i.kind != HALT:
                into.setdefault(i.target, []).append((i.label, int(i.kind in (TESTPOS, TESTZERO))))
        tests, queue = {HALT_LABEL: 0}, deque([HALT_LABEL])
        while queue:
            label = queue.popleft()
            for source, cost in into.get(label, ()):
                if source not in tests or tests[label] + cost < tests[source]:
                    tests[source] = tests[label] + cost
                    (queue.append if cost else queue.appendleft)(source)
        return tests

    def halting_configuration(self) -> Configuration:
        return Configuration(HALT_LABEL, (0,) * self.n)

    def initial_configuration(self, counters: tuple[int, ...], label: int = 1) -> Configuration:
        if len(counters) != self.n:
            raise ValueError(f"expected {self.n} counters, got {len(counters)}")
        if label < 0:
            raise ValueError(f"start label must be >= 0, got L{label}")
        return Configuration(label, tuple(counters))


class Computation(Value):
    """A validated-shape move sequence: len(moves) == len(configs) - 1.

    Moves are 0-based indices into the machine's instruction list; whether
    each move is actually enabled is the business of validate_computation.
    """

    configs: tuple[Configuration, ...]
    moves: tuple[int, ...]

    def __init__(self, configs: tuple[Configuration, ...], moves: tuple[int, ...]):
        self.__dict__.update(configs=configs, moves=moves)
        if not configs:
            raise ValueError("a computation has at least one configuration")
        if len(moves) != len(configs) - 1:
            raise ValueError("need exactly one move per configuration step")


class ValidationResult(Value):
    ok: bool
    index: int | None = None
    reason: str | None = None

    def __str__(self) -> str:
        return "valid" if self.ok else f"at index {self.index}: {self.reason}"


def _step(instruction: Instruction, config: Configuration) -> Configuration | None:
    """The configuration after the move, or None when the move is not enabled.

    ``inc`` adds, ``dec`` runs only above 0 and the tests keep the counters,
    so a stepped configuration has no negative counter and is not re-checked."""
    label, counters = config
    if instruction.kind == HALT or instruction.label != label:
        return None
    m = instruction.counter - 1
    value = counters[m]
    if instruction.kind == INC:
        return Configuration._trusted(instruction.target, counters[:m] + (value + 1,) + counters[m + 1:])
    if instruction.kind == DEC:
        if value == 0:
            return None
        return Configuration._trusted(instruction.target, counters[:m] + (value - 1,) + counters[m + 1:])
    if instruction.kind == TESTPOS:
        return Configuration._trusted(instruction.target, counters) if value > 0 else None
    if instruction.kind == TESTZERO:
        return Configuration._trusted(instruction.target, counters) if value == 0 else None
    raise AssertionError(instruction.kind)


def successors(machine: MinskyMachine, config: Configuration) -> tuple[tuple[int, Configuration], ...]:
    """Every enabled move as (instruction index, next configuration).

    Only the instructions at the configuration's label are stepped, in
    program order, so the cost is the number of instructions at that label.
    """
    if len(config.counters) != machine.n:
        raise ValueError(f"configuration has {len(config.counters)} counters, machine has {machine.n}")
    moves = []
    for index, instruction in machine.index_by_label.get(config.label, ()):
        nxt = _step(instruction, config)
        if nxt is not None:
            moves.append((index, nxt))
    return tuple(moves)


def validate_computation(machine: MinskyMachine, computation: Computation) -> ValidationResult:
    """Accept iff every configuration has the machine's arity and every
    recorded move is enabled at its source configuration."""
    for u, config in enumerate(computation.configs):
        if len(config.counters) != machine.n:
            return ValidationResult(
                False, u, f"{config} has {len(config.counters)} counters, machine has {machine.n}"
            )
    for u, move in enumerate(computation.moves):
        if not 0 <= move < len(machine.instructions):
            return ValidationResult(False, u, f"no instruction I{move + 1}")
        expected = _step(machine.instructions[move], computation.configs[u])
        if expected is None:
            return ValidationResult(False, u, f"I{move + 1} not enabled at {computation.configs[u]}")
        if expected != computation.configs[u + 1]:
            return ValidationResult(
                False, u,
                f"I{move + 1} yields {expected}, computation records {computation.configs[u + 1]}",
            )
    return ValidationResult(True)


def validate_halting_run(machine: MinskyMachine, computation: Computation) -> ValidationResult:
    """Accept iff the computation is a run of the machine that ends at the halting configuration."""
    result = validate_computation(machine, computation)
    last = computation.configs[-1]
    if result.ok and last != machine.halting_configuration():
        return ValidationResult(False, len(computation.moves), f"{last} is not the halting configuration")
    return result


def search_halting(
    machine: MinskyMachine,
    init: Configuration,
    max_steps: int,
    max_counter: int,
) -> Computation | None:
    """Breadth-first search for a shortest run from init to the halting configuration.

    Visited configurations are expanded once, each by one ``successors`` call
    that costs the number of instructions at its label.  Successors with any
    counter above max_counter are pruned.  A halting run needs a ``dec`` per
    unit of the counter total (an ``inc`` adds one, a test none) besides the
    fewest tests on any path from the label to L0 (``tests_to_halt``), and off
    L0 one move at least.  A successor whose label has no path to L0 (whatever
    max_steps is) or that needs more moves than are left is never expanded.
    That bound falls by at most one per move, so everything first reached
    from a pruned configuration would be pruned too: the run returned does
    not depend on this prune.  Zero is a valid bound for both;
    with max_steps 0 the answer is the empty run iff init is halting.
    Absence within the bounds proves nothing.
    """
    if max_steps < 0 or max_counter < 0:
        raise ValueError("bounds must be non-negative")
    target = machine.halting_configuration()
    if init == target:
        return Computation((init,), ())
    tests_to_halt = machine.tests_to_halt
    parent: dict[Configuration, tuple[Configuration, int] | None] = {init: None}
    frontier = deque([(init, 0)])
    while frontier:
        config, depth = frontier.popleft()
        moves_left = max_steps - depth - 1
        for index, nxt in successors(machine, config):
            if nxt in parent:
                continue
            label, counters = nxt
            if max(counters) > max_counter or label not in tests_to_halt:
                continue
            if max(sum(counters) + tests_to_halt[label], label != HALT_LABEL) > moves_left:
                continue
            parent[nxt] = (config, index)
            if nxt == target:
                configs = [nxt]
                moves = []
                at = nxt
                while parent[at] is not None:
                    at, move = parent[at]
                    configs.append(at)
                    moves.append(move)
                return Computation(tuple(reversed(configs)), tuple(reversed(moves)))
            frontier.append((nxt, depth + 1))
    return None


# --- Text formats -----------------------------------------------------------

_COUNTERS_RE = re.compile(r"counters\s+([0-9]+)\Z")
_INSTR_RE = re.compile(r"L([0-9]+)\s*:\s*(inc|dec|ifpos|ifzero)\s+x([0-9]+)\s+goto\s+L([0-9]+)\Z")
_HALT_RE = re.compile(r"L([0-9]+)\s*:\s*halt\Z")


def _numbers(lineno: int, *digits: str) -> list[int]:
    """The numbers a line's pattern matched; one with more digits than the
    interpreter converts is malformed input on that line."""
    try:
        return list(map(int, digits))
    except ValueError:
        raise MachineFormatError("number too long", lineno) from None


def parse_machine(text: str) -> MinskyMachine:
    n = None
    instructions: list[Instruction] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            m = _COUNTERS_RE.match(line)
            if m is None:
                raise MachineFormatError("expected 'counters <n>' first", lineno)
            (n,) = _numbers(lineno, m.group(1))
            if n < 1:
                raise MachineFormatError("need at least one counter", lineno)
            continue
        m = _INSTR_RE.match(line)
        if m:
            label, counter, target = _numbers(lineno, *m.group(1, 3, 4))
            try:
                instructions.append(Instruction(m.group(2), label, counter, target))
            except ValueError as exc:
                raise MachineFormatError(str(exc), lineno) from None
            continue
        m = _HALT_RE.match(line)
        if m:
            if _numbers(lineno, m.group(1)) != [HALT_LABEL]:
                raise MachineFormatError("halt must be labelled L0", lineno)
            instructions.append(Instruction(HALT, HALT_LABEL))
            continue
        raise MachineFormatError(f"unrecognized line {line!r}", lineno)
    if n is None:
        raise MachineFormatError("empty machine text")
    try:
        return MinskyMachine.build(n, instructions)
    except ValueError as exc:
        raise MachineFormatError(str(exc)) from None


_CONFIG_RE = re.compile(r"L([0-9]+)\s*:\s*([0-9]+(?:\s*,\s*[0-9]+)*)\Z")
_MOVE_RE = re.compile(r"I([0-9]+)\s*->\s*(.*)\Z")


def _parse_config(text: str, lineno: int) -> Configuration:
    m = _CONFIG_RE.match(text.strip())
    if m is None:
        raise MachineFormatError(f"bad configuration {text.strip()!r}", lineno)
    label, *counters = _numbers(lineno, m.group(1), *m.group(2).split(","))
    return Configuration(label, tuple(counters))


def parse_computation(text: str) -> Computation:
    configs: list[Configuration] = []
    moves: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not configs:
            configs.append(_parse_config(line, lineno))
            continue
        m = _MOVE_RE.match(line)
        if m is None:
            raise MachineFormatError("expected 'I<k> -> L<i> : c1,c2,...'", lineno)
        moves.append(_numbers(lineno, m.group(1))[0] - 1)
        configs.append(_parse_config(m.group(2), lineno))
    if not configs:
        raise MachineFormatError("empty computation text")
    return Computation(tuple(configs), tuple(moves))


def computation_text(computation: Computation) -> str:
    lines = [str(computation.configs[0])]
    for move, config in zip(computation.moves, computation.configs[1:]):
        lines.append(f"I{move + 1} -> {config}")
    return "\n".join(lines) + "\n"

"""The two constructive directions between machine runs and Horn programs.

A halting computation becomes a program whose main branch tracks the
configurations move by move; every zero test forks off a side chain that
erases the other counters one unit per edge and then closes at the goal.
Conversely, a strong-solution program over an encoded sequent is walked from
the root: single edges must carry instruction formulas, forks must carry a
zero-test choice with a valid killing chain on the side branch, and the main
branch must end at the goal.  That walk reads plain values: ``evaluate``'s
product at each vertex, which on the main branch ``decode_product`` turns
into the ``Configuration`` it encodes.  Every formula shape comes from
``MachineEncoding``; the run read back is re-checked by
``validate_computation``.

Nothing structural is assumed of input programs: every claim is checked and
violations are reported with a code.
"""

from __future__ import annotations

from dataclasses import dataclass

from .encoding import MachineEncoding, decode_product, encode_config
from .minsky import (
    TESTZERO,
    Computation,
    Configuration,
    search_halting,
    validate_computation,
)
from .programs import (
    HornProgram,
    ProgramBuilder,
    evaluate,
    prove_bounded,
    program_height,
    verify_strong_solution,
)
from .syntax import HornSequent

MAIN_LEAF_NOT_L0 = "MAIN_LEAF_NOT_L0"
SIDE_CHAIN_FOREIGN_FORMULA = "SIDE_CHAIN_FOREIGN_FORMULA"
SIDE_CHAIN_NOT_KILLED = "SIDE_CHAIN_NOT_KILLED"
NON_ENCODING_EDGE = "NON_ENCODING_EDGE"


class ExtractionError(ValueError):
    def __init__(self, code: str, detail: str, edge: tuple[int, int] | None = None):
        self.code = code
        self.edge = edge
        where = f" at edge {edge[0]}->{edge[1]}" if edge else ""
        super().__init__(f"{code}{where}: {detail}")


@dataclass(frozen=True)
class SideChain:
    """A zero-test side branch: fork vertex, killer index, and the chain."""

    fork_vertex: int
    counter: int  # the tested counter m
    vertices: tuple[int, ...]  # from the fork's side child to the final leaf
    kill_count: int  # edges before the closing one


@dataclass(frozen=True)
class ProgramTrace:
    """A built program together with its main branch bookkeeping."""

    program: HornProgram
    main_vertices: tuple[int, ...]
    side_chains: tuple[SideChain, ...]


def computation_to_program(enc: MachineEncoding, computation: Computation) -> ProgramTrace:
    """Build the strong-solution witness of a halting run.

    Assignment moves add one main edge; a zero test forks: the main edge moves
    to the target label, the side edge enters the killer state, then one edge
    per remaining counter unit (counters in ascending order) erases the frame,
    and a closing edge reaches the goal.
    """
    machine = enc.machine
    result = validate_computation(machine, computation)
    if not result.ok:
        raise ValueError(f"not a computation of this machine: {result.reason} (index {result.index})")
    if computation.configs[-1] != machine.halting_configuration():
        raise ValueError(f"computation ends at {computation.configs[-1]}, not the halting configuration")

    builder = ProgramBuilder()
    main = [0]
    side_chains: list[SideChain] = []
    for u, move in enumerate(computation.moves):
        instruction = machine.instructions[move]
        if instruction.kind != TESTZERO:
            main.append(builder.add_edge(main[-1], enc.phi[move]))
            continue
        m = instruction.counter
        goto, killer = enc.branches(move)
        closing, *killing = enc.killers[m - 1]
        fork = main[-1]
        main.append(builder.add_edge(fork, goto))
        chain = [builder.add_edge(fork, killer)]
        counters = computation.configs[u].counters
        # The killing formulas follow the other counters in ascending order.
        for formula, count in zip(killing, counters[: m - 1] + counters[m:]):
            for _ in range(count):
                chain.append(builder.add_edge(chain[-1], formula))
        chain.append(builder.add_edge(chain[-1], closing))
        side_chains.append(SideChain(fork, m, tuple(chain), len(chain) - 2))

    return ProgramTrace(builder.build(), tuple(main), tuple(side_chains))


def program_to_computation(
    enc: MachineEncoding, program: HornProgram, initial: Configuration
) -> Computation:
    """Walk a program over the encoded start and read back the machine run.

    Raises ExtractionError with a violation code when the program is not of
    the run shape: a main branch of instruction edges whose forks are zero
    tests with pure killing side chains ending at the goal.  Every value on
    the main branch is then an encoded configuration, so the walk decodes
    without re-checking; ``validate_computation`` re-checks the moves.
    """
    machine = enc.machine
    values = evaluate(program, encode_config(machine.n, initial))

    def main_config(vertex: int, edge: tuple[int, int]) -> Configuration:
        value = values[vertex]
        if value is None:
            raise ExtractionError(NON_ENCODING_EDGE, f"vertex {vertex} is undefined", edge)
        return decode_product(machine.n, value)

    def check_side_chain(fork: int, side_child: int, m: int) -> None:
        closing = enc.killers[m - 1][0]
        at = side_child
        closed = False
        while not closed:
            out = program.children[at]
            if len(out) != 1:
                raise ExtractionError(
                    SIDE_CHAIN_FOREIGN_FORMULA,
                    f"side vertex {at} has {len(out)} children; killing chains are unary",
                    (fork, side_child),
                )
            child, label = out[0]
            family = enc.killer_family_index.get(label)
            if family != m:
                raise ExtractionError(
                    SIDE_CHAIN_FOREIGN_FORMULA,
                    f"edge label {label} is not a killing implication for counter {m}",
                    (at, child),
                )
            at = child
            closed = label == closing
        if program.children[at]:
            raise ExtractionError(
                SIDE_CHAIN_FOREIGN_FORMULA,
                f"side chain continues past the closing edge at vertex {at}",
                (fork, side_child),
            )
        # The closing edge yields l0 times the counters left unkilled.
        value = values[at]
        if value is None:
            raise ExtractionError(SIDE_CHAIN_NOT_KILLED, f"side leaf {at} is undefined or foreign")
        if value != enc.goal:
            tested = decode_product(machine.n, value).counters[m - 1]
            if tested:
                raise ExtractionError(
                    SIDE_CHAIN_NOT_KILLED,
                    f"tested counter x{m} is {tested}, not 0, at side leaf {at}",
                )
            raise ExtractionError(
                SIDE_CHAIN_NOT_KILLED,
                f"side leaf {at} evaluates to {value}, not the goal",
            )

    configs = [initial]
    moves: list[int] = []
    at = program.root
    while True:
        out = program.children[at]
        if not out:
            value = values[at]
            if value != enc.goal:
                raise ExtractionError(MAIN_LEAF_NOT_L0, f"main leaf {at} evaluates to {value}")
            break
        if len(out) == 1:
            child, label = out[0]
            index = enc.instruction_index.get(label)
            if index is None:
                raise ExtractionError(
                    NON_ENCODING_EDGE, f"label {label} is not an instruction formula", (at, child)
                )
            moves.append(index)
            configs.append(main_config(child, (at, child)))
            at = child
            continue
        # Divergent: the joint formula must be a zero test.  HornProgram
        # forces a shared antecedent, so the two edges are its two branches.
        (c1, f1), (c2, _) = out
        joint = program.used_formula(at, c1)
        index = enc.instruction_index.get(joint)
        instruction = machine.instructions[index] if index is not None else None
        if instruction is None or instruction.kind != TESTZERO:
            raise ExtractionError(
                NON_ENCODING_EDGE,
                f"fork at {at} uses {joint}, not a zero-test formula",
                (at, c1),
            )
        main_child, side_child = (c1, c2) if f1 == enc.branches(index)[0] else (c2, c1)
        check_side_chain(at, side_child, instruction.counter)
        moves.append(index)
        configs.append(main_config(main_child, (at, main_child)))
        at = main_child

    computation = Computation(tuple(configs), tuple(moves))
    result = validate_computation(machine, computation)
    if not result.ok:
        raise ExtractionError(
            NON_ENCODING_EDGE,
            f"extracted moves are not machine moves: {result.reason} (index {result.index})",
        )
    return computation


# --- The agreement harness ------------------------------------------------------

AGREE_HALTS = "AGREE_HALTS"
AGREE_NO_WITNESS_WITHIN_BOUNDS = "AGREE_NO_WITNESS_WITHIN_BOUNDS"
BOUNDS_INCONCLUSIVE = "BOUNDS_INCONCLUSIVE"
DISAGREEMENT = "DISAGREEMENT"


@dataclass(frozen=True)
class RoundTripReport:
    code: str
    detail: str = ""
    computation: Computation | None = None
    trace: ProgramTrace | None = None
    extracted: Computation | None = None
    witness: HornProgram | None = None
    sequent: HornSequent | None = None

    def __str__(self) -> str:
        return f"{self.code}{': ' + self.detail if self.detail else ''}"


def round_trip_check(
    enc: MachineEncoding,
    inputs: tuple[int, ...],
    max_steps: int,
    max_counter: int,
    max_depth: int,
) -> RoundTripReport:
    """Drive both searches and cross-check every stage.

    Every program the harness holds, the prover's witness included, must
    extract to a halting run; one that does not is a DISAGREEMENT.  A
    disagreement that a bound can explain (the found object exceeds the
    other search's bound) is reported as BOUNDS_INCONCLUSIVE, not failure.
    """
    machine = enc.machine
    sequent = enc.sequent(inputs)
    init = machine.initial_configuration(inputs)
    computation = search_halting(machine, init, max_steps, max_counter)
    witness = prove_bounded(sequent, max_depth)

    if computation is None and witness is None:
        return RoundTripReport(AGREE_NO_WITNESS_WITHIN_BOUNDS, sequent=sequent)

    try:
        from_witness = None if witness is None else program_to_computation(enc, witness, init)
    except ExtractionError as error:
        return RoundTripReport(
            DISAGREEMENT, f"witness does not extract: {error}",
            computation=computation, witness=witness, sequent=sequent,
        )

    if computation is not None:
        trace = computation_to_program(enc, computation)
        report = verify_strong_solution(trace.program, sequent)
        if not report.ok:
            return RoundTripReport(
                DISAGREEMENT, f"built program is not a strong solution: {report}",
                computation=computation, trace=trace, sequent=sequent,
            )
        try:
            extracted = program_to_computation(enc, trace.program, init)
        except ExtractionError as error:
            return RoundTripReport(
                DISAGREEMENT, f"built program does not extract: {error}",
                computation=computation, trace=trace, sequent=sequent,
            )
        if extracted.configs != computation.configs:
            return RoundTripReport(
                DISAGREEMENT, "extraction does not reproduce the run",
                computation=computation, trace=trace, extracted=extracted, sequent=sequent,
            )
        if witness is None:
            height = program_height(trace.program)
            if height > max_depth:
                return RoundTripReport(
                    BOUNDS_INCONCLUSIVE,
                    f"run found but its program needs height {height} > {max_depth}",
                    computation=computation, trace=trace, sequent=sequent,
                )
            return RoundTripReport(
                DISAGREEMENT, "run found but no witness within an adequate depth",
                computation=computation, trace=trace, sequent=sequent,
            )
        return RoundTripReport(
            AGREE_HALTS, computation=computation, trace=trace,
            extracted=extracted, witness=witness, sequent=sequent,
        )

    # Witness without a run: see whether its run breaks a bound.
    extracted = from_witness
    peak = max(max(c.counters) for c in extracted.configs)
    if len(extracted.moves) > max_steps or peak > max_counter:
        return RoundTripReport(
            BOUNDS_INCONCLUSIVE,
            f"witness run needs {len(extracted.moves)} steps / counter peak {peak}",
            witness=witness, extracted=extracted, sequent=sequent,
        )
    return RoundTripReport(
        DISAGREEMENT, "witness extracts to a run the search missed",
        witness=witness, extracted=extracted, sequent=sequent,
    )

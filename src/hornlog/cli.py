"""Command-line front end.

Exit status: 0 on success/accept, 1 on reject or no witness within bounds,
2 on malformed input, 3 on an internal error (never a verdict, e.g. hitting
the recursion limit).  Results go to stdout, diagnostics to stderr.  Before a
command writes a run, program or zoned proof, ``GATES`` re-checks it with the
checker of its kind; one that fails is a fault of hornlog, exit 3, not written.
"""

from __future__ import annotations

import argparse
import re
import sys

from . import bridge, hll, ll, minsky, programs
from .encoding import MachineEncoding
from .minsky import parse_computation, parse_machine
from .syntax import FormatError, HornSequent, parse_sequent, sequent_text

OK, REJECT, MALFORMED, INTERNAL = 0, 1, 2, 3
# The most literal occurrences ``encode`` prints in its start product, whose
# text spells each counter unit as one literal: past it the text could not be held.
PRINTED_LITERALS = 10_000_000
_INTEGER_RE = re.compile(r"\s*-?[0-9]+\s*")


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write_out(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


# Per artefact kind, its checker: (a run and its machine, a program and its
# sequent, or a zoned proof and the flat end-sequent it translates, judged by
# its program, not by ``_conclude``) to a result with ``ok``.
GATES = {"run": minsky.validate_halting_run, "program": programs.verify_strong_solution,
         "zoned proof": lambda proof, flat: programs.verify_strong_solution(
             hll.compile_hll_to_program(proof), ll.horn_reading(flat))}


def _write_checked(kind: str, checked: tuple, text: str, path: str | None) -> int:
    """Write an artefact's text once the gate of its kind passes it; ``checked``
    are the gate's arguments."""
    result = GATES[kind](*checked)
    if not result.ok:
        print(f"error: internal: {kind} fails its check: {result}", file=sys.stderr)
        return INTERNAL
    _write_out(text, path)
    return OK


def _integer(text: str) -> int:
    """An option's integer, read as every file format reads a count: ASCII
    digits in optional white space, after an optional ``-`` that the reader
    of the value refuses with its own message."""
    try:
        if _INTEGER_RE.fullmatch(text):
            return int(text)
    except ValueError:  # more digits than the interpreter converts
        pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _parse_inputs(text: str) -> tuple[int, ...]:
    try:
        values = tuple(_integer(part) for part in text.split(","))
    except argparse.ArgumentTypeError:
        raise FormatError(f"bad counter list {text!r}") from None
    if any(v < 0 for v in values):
        raise FormatError("counters must be non-negative")
    return values


def _load_machine(path: str) -> minsky.MinskyMachine:
    return parse_machine(_read(path))


def _write_program(program: programs.HornProgram, sequent, args) -> int:
    """Write a program through its gate, then its dot view if ``--dot`` asks for one."""
    status = _write_checked("program", (program, sequent), programs.program_to_json(program), args.output)
    if status == OK and args.dot:
        _write_out(programs.program_to_dot(program), args.dot)
    return status


# --- machine ---------------------------------------------------------------


def cmd_machine_check(args) -> int:
    machine = _load_machine(args.machine)
    print(f"ok: {machine.n} counters, {len(machine.instructions)} instructions")
    return OK


def cmd_machine_run(args) -> int:
    machine = _load_machine(args.machine)
    computation = parse_computation(_read(args.computation))
    result = minsky.validate_computation(machine, computation)
    if result.ok:
        print("accept")
        return OK
    print(f"reject {result}")
    return REJECT


def cmd_machine_search(args) -> int:
    machine = _load_machine(args.machine)
    init = machine.initial_configuration(_parse_inputs(args.input), label=args.start)
    computation = minsky.search_halting(machine, init, args.max_steps, args.max_counter)
    if computation is None:
        print("absent")
        return REJECT
    return _write_checked("run", (machine, computation), minsky.computation_text(computation), args.output)


# --- encode / prove ----------------------------------------------------------


def cmd_encode(args) -> int:
    machine = _load_machine(args.machine)
    sequent = MachineEncoding.build(machine).sequent(_parse_inputs(args.input))
    if sequent.input.size > PRINTED_LITERALS:
        raise ValueError(f"the start product has {sequent.input.size} literal occurrences; "
                         f"encode prints at most {PRINTED_LITERALS}")
    _write_out(sequent_text(sequent) + "\n", args.output)
    return OK


def cmd_prove(args) -> int:
    sequent = parse_sequent(_read(args.sequent))
    witness = programs.prove_bounded(sequent, args.depth)
    if witness is None:
        print("absent")
        return REJECT
    return _write_program(witness, sequent, args)


# --- verify -------------------------------------------------------------------


def cmd_verify_sequent_program(args) -> int:
    sequent = parse_sequent(_read(args.sequent))
    program = programs.program_from_json(_read(args.program))
    report = programs.verify_strong_solution(program, sequent)
    if report.ok:
        print("accept")
        return OK
    for violation in report.violations:
        print(violation)
    return REJECT


def cmd_verify_proof(args) -> int:
    # The reader draws each node through hll.draw, the kernel, so a proof it returns is valid.
    try:
        args.read(_read(args.proof))
    except hll.InvalidProof as exc:
        print(exc)
        return REJECT
    print("accept")
    return OK


# --- compile --------------------------------------------------------------------


def cmd_compile_ll_to_hll(args) -> int:
    proof = ll.ll_proof_from_json(_read(args.proof))
    translated = ll.translate_ll_to_hll(proof)
    return _write_checked("zoned proof", (translated, proof.conclusion), hll.hll_proof_to_json(translated), args.output)


def cmd_compile_hll_to_program(args) -> int:
    proof = hll.hll_proof_from_json(_read(args.proof))
    return _write_program(hll.compile_hll_to_program(proof), proof.conclusion, args)


# --- bridge ----------------------------------------------------------------------


def cmd_bridge_comp_to_prog(args) -> int:
    machine = _load_machine(args.machine)
    enc = MachineEncoding.build(machine)
    computation = parse_computation(_read(args.computation))
    try:
        trace = bridge.computation_to_program(enc, computation)
    except bridge.RejectedRun as exc:
        print(f"reject {exc.result}")
        return REJECT
    # The sequent the run's first configuration encodes, around the encoding's ordered zone.
    sequent = HornSequent.of_canonical(enc.config_product(computation.configs[0]), (), enc.banged, enc.goal)
    return _write_program(trace.program, sequent, args)


def cmd_bridge_prog_to_comp(args) -> int:
    machine = _load_machine(args.machine)
    enc = MachineEncoding.build(machine)
    program = programs.program_from_json(_read(args.program))
    init = machine.initial_configuration(_parse_inputs(args.input), label=args.start)
    try:
        computation = bridge.program_to_computation(enc, program, init)
    except bridge.ExtractionError as exc:
        print(exc)
        return REJECT
    return _write_checked("run", (machine, computation), minsky.computation_text(computation), args.output)


def cmd_bridge_roundtrip(args) -> int:
    machine = _load_machine(args.machine)
    enc = MachineEncoding.build(machine)
    report = bridge.round_trip_check(
        enc, _parse_inputs(args.input), args.max_steps, args.max_counter, args.depth
    )
    print(report)
    if report.code == bridge.AGREE_HALTS:
        return OK
    if report.code == bridge.DISAGREEMENT:
        return REJECT
    return REJECT if args.strict else OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hornlog", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # Options two commands share, each declared once and handed on by ``parents``.
    start, bounds, depth = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    start.add_argument("--start", type=_integer, default=1, help="start label index (default 1)")
    bounds.add_argument("--max-steps", type=_integer, default=1000)
    bounds.add_argument("--max-counter", type=_integer, default=100)
    depth.add_argument("--depth", type=_integer, default=20)

    machine = sub.add_parser("machine", help="counter machine tools")
    machine_sub = machine.add_subparsers(dest="subcommand", required=True)
    p = machine_sub.add_parser("check", help="validate a machine file")
    p.add_argument("machine")
    p.set_defaults(handler=cmd_machine_check)
    p = machine_sub.add_parser("run", help="validate a computation against a machine")
    p.add_argument("machine")
    p.add_argument("computation")
    p.set_defaults(handler=cmd_machine_run)
    p = machine_sub.add_parser("search", parents=[start, bounds], help="breadth-first halting search")
    p.add_argument("machine")
    p.add_argument("--input", required=True, help="comma-separated counters")
    p.add_argument("--output")
    p.set_defaults(handler=cmd_machine_search)

    p = sub.add_parser("encode", help="machine + inputs to a sequent")
    p.add_argument("machine")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.set_defaults(handler=cmd_encode)

    p = sub.add_parser("prove", parents=[depth], help="bounded witness search for a sequent")
    p.add_argument("sequent", help="file holding one sequent")
    p.add_argument("--output")
    p.add_argument("--dot", help="also write the witness as dot")
    p.set_defaults(handler=cmd_prove)

    verify = sub.add_parser("verify", help="check programs and proofs")
    verify_sub = verify.add_subparsers(dest="subcommand", required=True)
    p = verify_sub.add_parser("sequent-program", help="strong-solution check")
    p.add_argument("sequent")
    p.add_argument("program")
    p.set_defaults(handler=cmd_verify_sequent_program)
    p = verify_sub.add_parser("hll", help="check a zoned-calculus proof")
    p.add_argument("proof")
    p.set_defaults(handler=cmd_verify_proof, read=hll.hll_proof_from_json)
    p = verify_sub.add_parser("ll", help="check a flat-calculus proof")
    p.add_argument("proof")
    p.set_defaults(handler=cmd_verify_proof, read=ll.ll_proof_from_json)

    compile_ = sub.add_parser("compile", help="proof transformations")
    compile_sub = compile_.add_subparsers(dest="subcommand", required=True)
    p = compile_sub.add_parser("ll-to-hll", help="translate into the zoned calculus")
    p.add_argument("proof")
    p.add_argument("--output")
    p.set_defaults(handler=cmd_compile_ll_to_hll)
    p = compile_sub.add_parser("hll-to-program", help="compile to a Horn program")
    p.add_argument("proof")
    p.add_argument("--output")
    p.add_argument("--dot")
    p.set_defaults(handler=cmd_compile_hll_to_program)

    bridge_ = sub.add_parser("bridge", help="machine run <-> Horn program")
    bridge_sub = bridge_.add_subparsers(dest="subcommand", required=True)
    p = bridge_sub.add_parser("comp-to-prog")
    p.add_argument("machine")
    p.add_argument("computation")
    p.add_argument("--output")
    p.add_argument("--dot")
    p.set_defaults(handler=cmd_bridge_comp_to_prog)
    p = bridge_sub.add_parser("prog-to-comp", parents=[start])
    p.add_argument("machine")
    p.add_argument("program")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.set_defaults(handler=cmd_bridge_prog_to_comp)
    p = bridge_sub.add_parser("roundtrip", parents=[bounds, depth])
    p.add_argument("machine")
    p.add_argument("--input", required=True)
    p.add_argument("--strict", action="store_true",
                   help="nonzero exit unless both searches succeed")
    p.set_defaults(handler=cmd_bridge_roundtrip)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:  # every reader's error is one of these
        print(f"error: {exc}", file=sys.stderr)
        return MALFORMED
    except Exception as exc:  # a fault of hornlog itself, not of the input
        print(f"error: internal {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL


if __name__ == "__main__":
    sys.exit(main())

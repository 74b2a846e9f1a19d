"""Counted work on the certify path: calls, never time.

The benchmark's traced run reports calls and self time per wrapped function.
Those figures mean what its README says only while each function still does
its unit of work once: ``successors`` expands one configuration,
``decode_product`` reads one main vertex, and a certificate is evaluated
once, one ``apply_implication`` per edge, though both the verifier and the
extractor read its values.  Each test counts calls by wrapping the module
attribute the caller looks up.
"""

from corpora import ladder_text
from hornlog import bridge, minsky, programs
from hornlog.bridge import computation_to_program, program_to_computation
from hornlog.encoding import MachineEncoding
from hornlog.minsky import parse_machine, search_halting
from hornlog.programs import verify_strong_solution

RUNGS, K = 6, 12


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def _certify_shaped():
    """A ladder run as the certify workload builds it: searched, then drawn as a program."""
    machine = parse_machine(ladder_text(RUNGS, seed=11))
    init = machine.initial_configuration((K, 0))
    run = search_halting(machine, init, 40, K)
    enc = MachineEncoding.build(machine)
    return enc, init, run, computation_to_program(enc, run)


def test_a_certificate_is_evaluated_once_for_verifier_and_extractor(monkeypatch):
    enc, init, run, trace = _certify_shaped()
    applied = _counting(monkeypatch, programs, "apply_implication")
    assert verify_strong_solution(trace.program, enc.sequent((K, 0))).ok
    assert program_to_computation(enc, trace.program, init) == run
    assert len(applied) == len(trace.program.edges)


def test_successors_runs_once_per_expanded_configuration(monkeypatch):
    machine = parse_machine(ladder_text(RUNGS, seed=11))
    init = machine.initial_configuration((K, 0))
    expanded = _counting(monkeypatch, minsky, "successors")
    run = search_halting(machine, init, 40, K)
    configs = [config for _, config in expanded]
    assert configs[0] == init
    assert len(configs) == len(set(configs))  # no configuration expanded twice
    assert set(run.configs[:-1]) <= set(configs)  # every step of the run was an expansion


def test_decode_product_runs_once_per_main_vertex(monkeypatch):
    enc, init, run, trace = _certify_shaped()
    decoded = _counting(monkeypatch, bridge, "decode_product")
    assert program_to_computation(enc, trace.program, init) == run
    # The root's configuration is the given start; every other main vertex is decoded.
    assert len(decoded) == len(trace.main_vertices) - 1 == len(run.moves)
    assert [args[1] for args in decoded] == [enc.config_product(c) for c in run.configs[1:]]

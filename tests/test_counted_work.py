"""Counted work on the certify and compile paths: calls, never time.

The benchmark's traced run reports calls and self time per wrapped function.
Those figures mean what its README says only while each function still does
its unit of work once: ``successors`` expands one configuration,
``decode_product`` reads one main vertex, and a certificate is evaluated
once, one ``apply_implication`` per edge, though both the verifier and the
extractor read its values.  On the compile path each row of a flat-proof
table is drawn once, each zoned node the translation keeps is drawn once,
each (node, side set) is translated once, and each distinct product text of
a table is parsed once.  Each test counts calls by wrapping the module
attribute the caller looks up.
"""

import json

from corpora import ladder_text, ll_corpus, separated_shapes
from hornlog import bridge, hll, ll, minsky, programs, syntax
from hornlog.bridge import computation_to_program, program_to_computation
from hornlog.encoding import MachineEncoding
from hornlog.minsky import parse_machine, search_halting
from hornlog.programs import verify_strong_solution
from hornlog.syntax import SimpleProduct

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


# --- The compile path: flat-proof JSON read, then translated ---------------------


def _compile_inputs():
    """The flat proofs of the corpus and the five separated shapes, as tables."""
    return [ll.ll_proof_to_json(proof) for proof in ll_corpus() + separated_shapes(3)]


def _results(monkeypatch, module, name):
    """Like ``_counting``, but records each call's arguments with its result."""
    calls = []
    original = getattr(module, name)

    def recorded(*args, **keywords):
        calls.append((args, original(*args, **keywords)))
        return calls[-1][1]

    monkeypatch.setattr(module, name, recorded)
    return calls


def test_draw_runs_once_per_read_row_and_once_per_zoned_node_kept(monkeypatch):
    """The reader draws each row through ``hll.draw``; the zoned builders draw
    through ``hll._node``, the same ``draw`` bound to the zoned format."""
    for text in _compile_inputs():
        read = _results(monkeypatch, hll, "draw")
        proof = ll.ll_proof_from_json(text)
        assert len(read) == len(json.loads(text)["nodes"])
        assert read[-1][1] is proof
        monkeypatch.undo()
        drawn = _results(monkeypatch, hll, "_node")
        translated = ll.translate_ll_to_hll(proof)
        kept = {id(node) for node, _ in hll.walk(translated)}
        assert sorted(id(node) for _, node in drawn) == sorted(kept)  # each kept node drawn once, no other
        monkeypatch.undo()


def test_translate_runs_once_per_node_and_side_set(monkeypatch):
    """``_resolve`` keys a node's translations by the sides chosen for the tags
    pending in it; each key of a node that is no left choice is one ``_translate``."""
    sided = 0
    for text in _compile_inputs():
        proof = ll.ll_proof_from_json(text)
        resolved = _results(monkeypatch, ll, "_resolve")
        translated = _counting(monkeypatch, ll, "_translate")
        ll.translate_ll_to_hll(proof)
        monkeypatch.undo()
        nodes = [args[0] for args, _ in resolved]
        assert len({id(node) for node in nodes}) == len(nodes) == sum(1 for _ in hll.walk(proof))
        keys = sum(len(result) for (node, _), result in resolved if node.rule is not ll.LlRule.LOPLUS)
        assert len(translated) == keys
        sided += keys - len({id(args[0]) for args in translated})
    assert sided > 50  # nodes translated once per side of a pending choice


def _products(member) -> list:
    """The products a member holds, itself included."""
    parts = [member]
    for part in parts:
        parts += [getattr(part, field) for field in ("formula", "antecedent", "consequent", "left", "right")
                  if hasattr(part, field)]
    return [part for part in parts if isinstance(part, SimpleProduct)]


def test_each_distinct_product_text_of_a_table_is_parsed_once(monkeypatch):
    """Products are built by ``SimpleProduct._trusted``; while the reader's
    shared parser runs, each build is one bare-product parse."""
    built, parsing = [], []
    trusted = syntax.Frame._trusted.__func__

    def counted_trusted(cls, entries):
        if parsing:
            built.append(entries)
        return trusted(cls, entries)

    monkeypatch.setattr(syntax.Frame, "_trusted", classmethod(counted_trusted))
    shared = syntax.member_parser

    def counted_parser():
        parse = shared()

        def counted(text):
            parsing.append(text)
            try:
                return parse(text)
            finally:
                parsing.pop()
        return counted

    monkeypatch.setattr(hll, "member_parser", counted_parser)
    for text in _compile_inputs():
        distinct = {p.text for member in map(syntax.parse_member, json.loads(text)["formulas"])
                    for p in _products(member)}
        built.clear()
        ll.ll_proof_from_json(text)
        assert 0 < len(built) <= len(distinct)

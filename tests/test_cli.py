import json
import subprocess
import sys

import pytest

from corpora import chain, replace
from hornlog import bridge, cli, minsky, programs
from hornlog.minsky import Computation, Configuration, parse_computation, parse_machine, validate_computation
from hornlog.programs import HornProgram, program_from_json, program_height, program_to_json, prove_bounded as prove
from hornlog.syntax import parse_formula, parse_sequent

DEC_TEXT = "counters 2\nL1: ifzero x1 goto L0\nL1: dec x1 goto L1\nL0: halt\n"


def run_cli(*args, expect: int = 0, timeout: float | None = None):
    result = subprocess.run(
        [sys.executable, "-m", "hornlog.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == expect, (
        f"exit {result.returncode} != {expect}\nstdout: {result.stdout}\nstderr: {result.stderr}"
    )
    return result


@pytest.fixture
def dec_file(tmp_path):
    path = tmp_path / "dec.mm"
    path.write_text(DEC_TEXT)
    return path


def test_machine_check(dec_file):
    result = run_cli("machine", "check", str(dec_file))
    assert "2 counters" in result.stdout


def test_machine_check_malformed(tmp_path):
    path = tmp_path / "bad.mm"
    path.write_text("counters 2\nL1: jmp x1 goto L0\n")
    result = run_cli("machine", "check", str(path), expect=2)
    assert "line 2" in result.stderr


def test_machine_search_and_run(dec_file, tmp_path):
    out = tmp_path / "run.txt"
    run_cli("machine", "search", str(dec_file), "--input", "2,0",
            "--max-steps", "100", "--max-counter", "10", "--output", str(out))
    computation = parse_computation(out.read_text())
    assert validate_computation(parse_machine(DEC_TEXT), computation).ok
    assert len(computation.moves) == 3
    result = run_cli("machine", "run", str(dec_file), str(out))
    assert result.stdout.strip() == "accept"


def test_machine_run_rejects_wrong_arity(dec_file, tmp_path):
    run = tmp_path / "run.txt"
    run.write_text("L1 : 1,0,7\nI2 -> L1 : 0,0,7\nI1 -> L0 : 0,0,7\n")
    result = run_cli("machine", "run", str(dec_file), str(run), expect=1)
    assert result.stdout.startswith("reject at index 0")


def test_machine_run_rejects_an_instruction_one_past_the_last(dec_file, tmp_path, capsys):
    run = tmp_path / "run.txt"
    run.write_text("L1 : 1,0\nI4 -> L1 : 0,0\n")
    assert cli.main(["machine", "run", str(dec_file), str(run)]) == 1
    assert capsys.readouterr() == ("reject at index 0: no instruction I4\n", "")


def test_a_run_of_the_wrong_arity_gets_one_verdict(dec_file, tmp_path, capsys):
    """A configuration with another number of counters than the machine is a
    run the machine rejects, not malformed text: ``bridge comp-to-prog`` says
    so as ``machine run`` does."""
    run = tmp_path / "run.txt"
    run.write_text("L1 : 1,0,7\nI2 -> L1 : 0,0,7\nI1 -> L0 : 0,0,7\n")
    line = "reject at index 0: L1 : 1,0,7 has 3 counters, machine has 2\n"
    out = tmp_path / "prog.json"
    assert cli.main(["machine", "run", str(dec_file), str(run)]) == 1
    assert capsys.readouterr() == (line, "")
    assert cli.main(["bridge", "comp-to-prog", str(dec_file), str(run), "--output", str(out)]) == 1
    assert capsys.readouterr() == (line, "")
    assert not out.exists()


def test_machine_search_rejects_a_negative_start_label(dec_file):
    result = run_cli("machine", "search", str(dec_file), "--input", "2,0", "--start", "-1", expect=2)
    assert result.stdout == ""
    assert result.stderr == "error: start label must be >= 0, got L-1\n"


def test_machine_search_absent(dec_file):
    result = run_cli("machine", "search", str(dec_file), "--input", "0,1", expect=1)
    assert result.stdout.strip() == "absent"


@pytest.fixture
def one_move_file(tmp_path):
    path = tmp_path / "one.mm"
    path.write_text("counters 1\nL1: ifzero x1 goto L0\n")
    return path


def test_machine_search_zero_counter_bound(one_move_file):
    result = run_cli("machine", "search", str(one_move_file), "--input", "0",
                     "--max-counter", "0", "--max-steps", "5")
    assert result.stdout == "L1 : 0\nI1 -> L0 : 0\n"
    result = run_cli("machine", "search", str(one_move_file), "--input", "1",
                     "--max-counter", "0", expect=1)
    assert result.stdout == "absent\n"


def test_machine_search_zero_step_bound(one_move_file):
    result = run_cli("machine", "search", str(one_move_file), "--start", "0", "--input", "0",
                     "--max-steps", "0")
    assert result.stdout == "L0 : 0\n"
    result = run_cli("machine", "search", str(one_move_file), "--input", "0",
                     "--max-steps", "0", expect=1)
    assert result.stdout == "absent\n"


def test_machine_search_rejects_a_negative_bound(one_move_file):
    result = run_cli("machine", "search", str(one_move_file), "--input", "0",
                     "--max-steps", "-1", expect=2)
    assert result.stderr == "error: bounds must be non-negative\n"


def test_encode_output_parses(dec_file):
    result = run_cli("encode", str(dec_file), "--input", "2,0")
    sequent = parse_sequent(result.stdout)
    assert sequent.input == parse_sequent("l1*r1*r1 ; ; |- l0").input
    assert len(sequent.banged) == 6


def test_prove_and_verify(dec_file, tmp_path):
    seq_file = tmp_path / "dec.seq"
    result = run_cli("encode", str(dec_file), "--input", "1,0")
    seq_file.write_text(result.stdout)
    prog_file = tmp_path / "dec.prog.json"
    run_cli("prove", str(seq_file), "--depth", "8", "--output", str(prog_file))
    program = program_from_json(prog_file.read_text())
    assert len(program.leaves) >= 2
    accept = run_cli("verify", "sequent-program", str(seq_file), str(prog_file))
    assert accept.stdout.strip() == "accept"


def test_the_package_runs_as_a_module(tmp_path):
    # python -m hornlog, with no install, is the installed hornlog command.
    seq_file = tmp_path / "fork.seq"
    seq_file.write_text("f ; ; f -o (g + h), g -o m, h -o m |- m\n")
    result = subprocess.run(
        [sys.executable, "-m", "hornlog", "prove", str(seq_file), "--depth", "2"], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert len(program_from_json(result.stdout).leaves) == 2


def test_prove_deep_run(dec_file, tmp_path):
    """A 2000-move run needs a witness thousands of edges deep: the prover
    searches without recursion, and the witness verifies."""
    seq_file = tmp_path / "dec2000.seq"
    seq_file.write_text(run_cli("encode", str(dec_file), "--input", "2000,0").stdout)
    prog_file = tmp_path / "dec2000.prog.json"
    run_cli("prove", str(seq_file), "--depth", "2004", "--output", str(prog_file))
    assert program_height(program_from_json(prog_file.read_text())) > 2000
    accept = run_cli("verify", "sequent-program", str(seq_file), str(prog_file))
    assert accept.stdout.strip() == "accept"


def test_prove_absent(dec_file, tmp_path):
    seq_file = tmp_path / "stuck.seq"
    result = run_cli("encode", str(dec_file), "--input", "0,1")
    seq_file.write_text(result.stdout)
    out = run_cli("prove", str(seq_file), "--depth", "10", expect=1)
    assert out.stdout.strip() == "absent"


def test_prove_and_roundtrip_take_depth_zero(dec_file, tmp_path):
    seq_file = tmp_path / "id.seq"
    seq_file.write_text("q ; ; a -o q |- q\n")
    program = program_from_json(run_cli("prove", str(seq_file), "--depth", "0").stdout)
    assert program.vertices == (0,) and not program.edges
    seq_file.write_text("a ; ; a -o q |- q\n")
    assert run_cli("prove", str(seq_file), "--depth", "0", expect=1).stdout == "absent\n"
    result = run_cli("prove", str(seq_file), "--depth", "-1", expect=2)
    assert result.stderr == "error: max_depth must be non-negative\n"
    result = run_cli("bridge", "roundtrip", str(dec_file), "--input", "0,1", "--depth", "0")
    assert result.stdout == "AGREE_NO_WITNESS_WITHIN_BOUNDS\n"
    result = run_cli("bridge", "roundtrip", str(dec_file), "--input", "1,0", "--depth", "0")
    assert result.stdout.startswith("BOUNDS_INCONCLUSIVE")


def test_verify_rejects_bad_program(dec_file, tmp_path):
    seq_file = tmp_path / "dec.seq"
    seq_file.write_text(run_cli("encode", str(dec_file), "--input", "1,0").stdout)
    prog_file = tmp_path / "bad.prog.json"
    prog_file.write_text(program_to_json(chain((parse_formula("l1 -o l9"),))))
    result = run_cli("verify", "sequent-program", str(seq_file), str(prog_file), expect=1)
    assert "LEAF_MISMATCH" in result.stdout or "FOREIGN_FORMULA" in result.stdout


def test_bridge_pipeline(dec_file, tmp_path):
    comp_file = tmp_path / "run.txt"
    run_cli("machine", "search", str(dec_file), "--input", "2,0", "--output", str(comp_file))
    prog_file = tmp_path / "run.prog.json"
    dot_file = tmp_path / "run.dot"
    run_cli("bridge", "comp-to-prog", str(dec_file), str(comp_file),
            "--output", str(prog_file), "--dot", str(dot_file))
    assert dot_file.read_text().startswith("digraph")
    back_file = tmp_path / "back.txt"
    run_cli("bridge", "prog-to-comp", str(dec_file), str(prog_file),
            "--input", "2,0", "--output", str(back_file))
    assert parse_computation(back_file.read_text()) == parse_computation(comp_file.read_text())


def test_bridge_roundtrip_agreement(dec_file):
    result = run_cli("bridge", "roundtrip", str(dec_file), "--input", "2,0",
                     "--max-steps", "100", "--depth", "20")
    assert result.stdout.strip() == "AGREE_HALTS"
    result = run_cli("bridge", "roundtrip", str(dec_file), "--input", "0,1",
                     "--max-steps", "100", "--depth", "12")
    assert result.stdout.strip() == "AGREE_NO_WITNESS_WITHIN_BOUNDS"
    run_cli("bridge", "roundtrip", str(dec_file), "--input", "0,1", "--strict", expect=1)


HUGE_FILES = {"machine": "counters 99999999999999999999\nL1: inc x1 goto L0\n",
              "program": '{"root": 0, "edges": []}', "run": "L1 : 0\nI1 -> L0 : 1\n"}


def huge_args(tmp_path, command) -> list[str]:
    for name, text in HUGE_FILES.items():
        (tmp_path / name).write_text(text)
    return [arg.format(**{name: str(tmp_path / name) for name in HUGE_FILES}) for arg in command]


@pytest.mark.parametrize("command", [
    ("encode", "{machine}", "--input", "1"),
    ("bridge", "roundtrip", "{machine}", "--input", "1"),
    ("bridge", "prog-to-comp", "{machine}", "{program}", "--input", "1"),
], ids=["encode", "roundtrip", "prog-to-comp"])
def test_huge_counter_count_exits_2_at_once(tmp_path, command):
    # The n*n killer formulas must not be built before the arity is checked.
    result = run_cli(*huge_args(tmp_path, command), expect=2, timeout=5)
    assert "99999999999999999999" in result.stderr


def test_a_run_of_a_huge_counter_count_is_rejected_at_once(tmp_path):
    """A run of one counter is not a run of the machine, which the one
    judgment of a halting run says before any killer formula is built."""
    result = run_cli(*huge_args(tmp_path, ("bridge", "comp-to-prog", "{machine}", "{run}")), expect=1, timeout=5)
    assert result.stdout == "reject at index 0: L1 : 0 has 1 counters, machine has 99999999999999999999\n"


LONG = "9" * 5000  # more digits than the interpreter converts to an int


@pytest.mark.parametrize("command, text", [
    (("machine", "check", "{file}"), f"counters 2\nL{LONG}: inc x1 goto L0\n"),
    (("machine", "run", "{machine}", "{file}"), f"L1 : 1,0\nI2 -> L1 : 0,{LONG}\n"),
], ids=["machine-label", "run-counter"])
def test_an_overlong_number_names_its_line(dec_file, tmp_path, command, text):
    path = tmp_path / "long.txt"
    path.write_text(text)
    result = run_cli(*(arg.format(machine=dec_file, file=path) for arg in command), expect=2)
    lines = result.stderr.splitlines()
    assert [line for line in lines if "error:" in line] == lines[-1:]
    assert lines[-1].startswith("error: line 2: ")
    assert "set_int_max_str_digits" not in result.stderr


def test_compile_pipeline(tmp_path):
    from corpora import ll_corpus
    from hornlog import ll

    proof = ll_corpus()[0]
    ll_file = tmp_path / "proof.ll.json"
    ll_file.write_text(ll.ll_proof_to_json(proof))
    run_cli("verify", "ll", str(ll_file))
    hll_file = tmp_path / "proof.hll.json"
    run_cli("compile", "ll-to-hll", str(ll_file), "--output", str(hll_file))
    run_cli("verify", "hll", str(hll_file))
    prog_file = tmp_path / "proof.prog.json"
    run_cli("compile", "hll-to-program", str(hll_file), "--output", str(prog_file))
    program = program_from_json(prog_file.read_text())
    assert program.vertices


def test_malformed_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    run_cli("verify", "hll", str(bad), expect=2)


def test_missing_file_exits_2():
    run_cli("machine", "check", "/nonexistent/machine.mm", expect=2)


@pytest.mark.parametrize("text", [
    "{}",
    "[]",
    '{"root": 0, "edges": [{"parent": 0, "child": 1}]}',
    '{"edges": [{"parent": 0, "child": 1, "label": "l1 -o l0"}]}',
    '{"root": 0, "edges": [{"parent": 0, "child": 1, "label": 5}]}',
    '{"root": 0, "edges": [{"parent": 0, "child": "one", "label": "l1 -o l0"}]}',
    '{"root": 0.5, "edges": []}',
    '{"root": 0, "vertices": 3, "edges": []}',
])
def test_malformed_program_exits_2(dec_file, tmp_path, text):
    seq_file = tmp_path / "dec.seq"
    seq_file.write_text(run_cli("encode", str(dec_file), "--input", "1,0").stdout)
    prog_file = tmp_path / "bad.prog.json"
    prog_file.write_text(text)
    result = run_cli("verify", "sequent-program", str(seq_file), str(prog_file), expect=2)
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("text,message", [
    pytest.param(
        "[" * 100000 + "]" * 100000,
        "error: a program is a flat JSON object, not a nested document\n",
        id="deeply-nested-document",
    ),
    pytest.param(
        '{"root": 0, "edges": [{"parent": 0, "child": 1, "label": "l1 -o (k1 + l0)"}]}',
        "error: edge (0,1) must carry a plain implication\n",
        id="choice-label",
    ),
    pytest.param(
        '{"root": 0, "vertices": [], "edges": [{"parent": 0, "child": 1, "label": "l1 -o l0"}]}',
        "error: vertex list does not match the edge list\n",
        id="empty-vertex-list",
    ),
])
def test_malformed_program_message(tmp_path, capsys, text, message):
    seq_file = tmp_path / "dec.seq"
    seq_file.write_text("l1 ; ; l1 -o l0 |- l0\n")
    prog_file = tmp_path / "bad.prog.json"
    prog_file.write_text(text)
    assert cli.main(["verify", "sequent-program", str(seq_file), str(prog_file)]) == 2
    assert capsys.readouterr().err == message


DROP = object()
# One-node tables, one per calculus: the identity axiom on the product ``a``.
VALID_TABLE = {
    "hll": {"formulas": ["a"], "conclusion": [0, [], [], 0], "nodes": [{"rule": "I", "principal": 0}]},
    "ll": {"formulas": ["a"], "conclusion": [[0], 0], "nodes": [{"rule": "I", "principal": 0}]},
}


def run_main(tmp_path, capsys, command, table) -> int:
    """Run the CLI in process on a proof file; check that any error is one line."""
    proof_file = tmp_path / "proof.json"
    proof_file.write_text(table if isinstance(table, str) else json.dumps(table))
    code = cli.main([*command, str(proof_file)])
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    return code


@pytest.mark.parametrize("command", [
    ("verify", "hll"), ("verify", "ll"), ("compile", "hll-to-program"),
], ids="-".join)
@pytest.mark.parametrize("key,value", [
    pytest.param(None, {}, id="empty-object"),
    pytest.param(None, [], id="list-node"),
    pytest.param("rule", DROP, id="no-rule"),
    pytest.param("conclusion", DROP, id="no-conclusion"),
    pytest.param("conclusion", 5, id="number-conclusion"),
    pytest.param("premises", {}, id="object-premises"),
    pytest.param("premises", [0.5], id="number-premise"),
    pytest.param("principal", 0.5, id="number-principal"),
    pytest.param("frame", 0.5, id="number-frame"),
    pytest.param("split", "ab", id="string-split"),
    pytest.param("split", [0, 0.5], id="number-in-split"),
])
def test_malformed_proof_node_exits_2(tmp_path, capsys, command, key, value):
    """Each node field, and the table's end-sequent ``conclusion``, with a
    JSON value of the wrong type; an index is an integer, so a fractional
    number is the wrong type wherever one is due."""
    table = json.loads(json.dumps(VALID_TABLE["ll" if command[1] == "ll" else "hll"]))
    target = table if key == "conclusion" else table["nodes"][0]
    if key is None:
        table["nodes"][0] = value
    elif value is DROP:
        del target[key]
    else:
        target[key] = value
    assert run_main(tmp_path, capsys, command, table) == 2


def _two_node_table(calculus: str) -> dict:
    """A valid two-node table: an identity axiom under one unary inference.
    The flat table also lists ``a -o a``, which no field cites."""
    nodes = [{"rule": "I", "principal": 0}, {"rule": "WBANG", "premises": [0], "principal": 1}]
    if calculus == "hll":
        return {"formulas": ["a", "a -o a"], "conclusion": [0, [], [1], 0], "nodes": nodes}
    return {"formulas": ["a", "!(a -o a)", "a -o a"], "conclusion": [[0, 1], 0], "nodes": nodes}


def _set(path, value):
    def mutate(table):
        *keys, last = path
        target = table
        for key in keys:
            target = target[key]
        target[last] = value
        return table
    return mutate


# The two commands that read each calculus's proofs.
READERS = {"hll": (("verify", "hll"), ("compile", "hll-to-program")), "ll": (("verify", "ll"), ("compile", "ll-to-hll"))}

TABLE_CASES = [
    pytest.param(_set(("nodes", 1, "premises"), [7]), id="premise-out-of-range"),
    pytest.param(_set(("nodes", 0, "premises"), [1]), id="premise-points-forward"),
    pytest.param(_set(("nodes", 1, "premises"), [0, 0]), id="premise-used-twice"),
    pytest.param(lambda t: {**t, "nodes": t["nodes"] + [t["nodes"][0]]}, id="two-roots"),
    pytest.param(_set(("nodes", 1, "principal"), 9), id="formula-index-out-of-range"),
    pytest.param(_set(("nodes", 0, "principal"), -1), id="negative-formula-index"),
    pytest.param(_set(("formulas", 0), 5), id="non-string-formula"),
    pytest.param(lambda t: {"rule": "I", "principal": 0}, id="nested-document"),
    pytest.param(lambda t: '{"premises": [' * 5000 + "]}" * 5000, id="deeply-nested-document"),
    pytest.param(lambda t: {**t, "nodes": []}, id="no-nodes"),
    pytest.param(_set(("nodes", 1, "rule"), "CUT?"), id="unknown-rule"),
    pytest.param(_set(("nodes", 0, "principal"), 1), id="principal-on-an-axiom"),
    pytest.param(_set(("nodes", 1, "conclusion"), [0, 0]), id="row-conclusion"),
]


@pytest.mark.parametrize("command", [*READERS["hll"], *READERS["ll"]], ids="-".join)
@pytest.mark.parametrize("mutate", TABLE_CASES)
def test_malformed_table_exits_2(tmp_path, capsys, command, mutate):
    table = mutate(_two_node_table(command[1].split("-to-")[0]))
    assert run_main(tmp_path, capsys, command, table) == 2


@pytest.mark.parametrize("calculus,mutate", [
    pytest.param("hll", _set(("conclusion",), [0, [0], [1], 0]), id="product-in-linear-zone"),
    pytest.param("hll", _set(("conclusion",), [0, [], [1], 1]), id="hll-implication-as-goal"),
    pytest.param("ll", _set(("conclusion",), [[0, 1], 2]), id="ll-implication-as-goal"),
    pytest.param("hll", _set(("nodes", 1, "principal"), 0), id="product-as-banged-principal"),
    pytest.param("ll", _set(("nodes", 1, "principal"), 2), id="plain-formula-as-bang-principal"),
    pytest.param("ll", lambda t: {**t, "nodes": [t["nodes"][0], t["nodes"][0], {
        "rule": "LOPLUS", "premises": [0, 1], "principal": 2}]},
        id="plain-formula-as-loplus-principal"),
])
def test_wrong_kind_member_exits_2(tmp_path, capsys, calculus, mutate):
    """A formula index whose text is not of the kind its field holds."""
    table = mutate(_two_node_table(calculus))
    for command in READERS[calculus]:
        assert run_main(tmp_path, capsys, command, table) == 2


@pytest.mark.parametrize("command,table,message", [
    pytest.param(("verify", "hll"), {"formulas": ["a"], "conclusion": [0, [], [], 0], "nodes": [
        {"rule": "I", "principal": 0, "frame": 0}]}, "node 0: I takes no frame", id="frame-on-an-identity"),
    pytest.param(("verify", "ll"), {"formulas": ["a"], "conclusion": [[0], 0], "nodes": [
        {"rule": "I", "principal": 0, "split": [0, 0]}]}, "node 0: I takes no split", id="split-on-an-identity"),
    pytest.param(("compile", "hll-to-program"), {"formulas": ["a"], "conclusion": [0, [], [], 0], "nodes": [
        {"rule": "I", "principal": 0},
        {"rule": "LTENSOR", "premises": [0], "frame": 0}]},
        "node 1: LTENSOR takes no frame", id="frame-on-a-regrouping"),
    pytest.param(("verify", "ll"), {"formulas": ["a"], "conclusion": [[0], 0], "nodes": [
        {"rule": "I", "principal": 0, "tag": 1}]}, "node 0: I takes no tag", id="tag-on-an-identity"),
])
def test_stray_parameter_field_exits_2(tmp_path, capsys, command, table, message):
    """A frame, split or tag on a node whose rule takes none, as a principal
    of another kind."""
    proof_file = tmp_path / "proof.json"
    proof_file.write_text(json.dumps(table))
    assert cli.main([*command, str(proof_file)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_two_node_tables_are_valid(tmp_path, capsys):
    for calculus in ("hll", "ll"):
        assert run_main(tmp_path, capsys, ("verify", calculus), _two_node_table(calculus)) == 0


def test_a_missing_principal_reads_and_fails_the_check(tmp_path, capsys):
    """A row that draws no conclusion fails the reader's check: verify
    rejects it by rule, row and reason, and a compiler calls it malformed."""
    proof_file = tmp_path / "proof.json"
    for calculus in ("hll", "ll"):
        table = _two_node_table(calculus)
        del table["nodes"][1]["principal"]
        proof_file.write_text(json.dumps(table))
        assert cli.main(["verify", calculus, str(proof_file)]) == 1
        assert capsys.readouterr().out == "WBANG at node 1: WBANG cannot have None as its principal\n"
        assert run_main(tmp_path, capsys, READERS[calculus][1], table) == 2


@pytest.mark.parametrize("calculus,mutate,message", [
    pytest.param("hll", _set(("conclusion",), [0, [], [], 0]), "WBANG at node 1: conclusion must be a ; ; a -o a |- a",
                 id="hll-end-sequent-not-drawn"),
    pytest.param("ll", _set(("conclusion",), [[0], 0]), "WBANG at node 1: conclusion must be !(a -o a), a |- a",
                 id="ll-end-sequent-not-drawn"),
    pytest.param("ll", lambda t: {**t, "nodes": [*t["nodes"], {"rule": "RTENSOR", "premises": [1]}]},
                 "RTENSOR at node 2: RTENSOR takes 2 premises, got 1", id="premise-count"),
    pytest.param("ll", lambda t: {**t, "formulas": ["a", "!(a)"]},
                 "WBANG at node 1: only implications may be banged", id="failed-side-condition"),
])
def test_an_invalid_inference_is_rejected_by_row(tmp_path, capsys, calculus, mutate, message):
    """A row whose rule draws no conclusion, or a root that does not draw the
    stated end-sequent: verify names the rule, the row and the reason."""
    table = mutate(_two_node_table(calculus))
    proof_file = tmp_path / "proof.json"
    proof_file.write_text(json.dumps(table))
    assert cli.main(["verify", calculus, str(proof_file)]) == 1
    assert capsys.readouterr().out == message + "\n"
    assert run_main(tmp_path, capsys, READERS[calculus][1], table) == 2


def test_deep_zoned_proof_through_the_cli(tmp_path):
    from corpora import ltensor_chain
    from hornlog import hll

    proof_file = tmp_path / "chain.hll.json"
    proof_file.write_text(hll.hll_proof_to_json(ltensor_chain(5000)))
    assert run_cli("verify", "hll", str(proof_file)).stdout == "accept\n"
    program = program_from_json(run_cli("compile", "hll-to-program", str(proof_file)).stdout)
    assert [str(label) for _, _, label in program.edges] == ["a -o b"]


def test_deep_flat_proof_through_the_cli(tmp_path):
    from corpora import stacked_weakenings
    from hornlog import hll, ll

    proof = stacked_weakenings(2000)
    proof_file = tmp_path / "weakenings.ll.json"
    proof_file.write_text(ll.ll_proof_to_json(proof))
    assert run_cli("verify", "ll", str(proof_file)).stdout == "accept\n"
    translated = hll.hll_proof_from_json(run_cli("compile", "ll-to-hll", str(proof_file)).stdout)
    assert hll.check_hll_proof(translated).ok
    assert translated.conclusion == ll.horn_reading(proof.conclusion)


def test_encode_rejects_a_wrong_input_count(dec_file):
    result = run_cli("encode", str(dec_file), "--input", "1", expect=2)
    assert result.stdout == ""
    assert result.stderr == "error: expected 2 counters, got 1\n"


def test_encode_refuses_a_start_too_long_to_print_at_once(dec_file):
    result = run_cli("encode", str(dec_file), "--input", "1000000000000,0", expect=2, timeout=5)
    assert result.stdout == ""
    assert result.stderr == (f"error: the start product has 1000000000001 literal occurrences; "
                             f"encode prints at most {cli.PRINTED_LITERALS}\n")


def test_encode_rejects_a_negative_input(dec_file):
    result = run_cli("encode", str(dec_file), "--input=-1,0", expect=2)
    assert result.stdout == ""
    assert result.stderr == "error: counters must be non-negative\n"


@pytest.mark.parametrize("args", [
    ("encode", "MACHINE", "--input", "\u0661,0"),
    ("encode", "MACHINE", "--input", "1_0,0"),
    ("encode", "MACHINE", "--input", "+2,0"),
    ("prove", "MACHINE", "--depth", "\u0661"),
    ("machine", "search", "MACHINE", "--input", "1,0", "--max-steps", "1_0"),
    ("machine", "search", "MACHINE", "--input", "1,0", "--max-counter", "+2"),
    ("bridge", "prog-to-comp", "MACHINE", "MACHINE", "--input", "1,0", "--start", "\uff11"),
], ids=["arabic-indic-digit", "underscore", "plus-sign", "depth", "max-steps", "max-counter", "start"])
def test_a_number_no_file_format_reads_exits_2(dec_file, args):
    """Counts are ASCII digits in every file format, so the options refuse
    what int() alone would take: another script's digits, ``_`` and ``+``."""
    result = run_cli(*(str(dec_file) if arg == "MACHINE" else arg for arg in args), expect=2)
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert [line for line in lines if "error:" in line] == lines[-1:]
    assert lines[-1].endswith(repr(args[-1]))


def test_unexpected_error_exits_3(tmp_path, capsys, monkeypatch):
    def crash(args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "cmd_prove", crash)
    seq_file = tmp_path / "q.seq"
    seq_file.write_text("q ; ; |- q")
    assert cli.main(["prove", str(seq_file)]) == 3
    err = capsys.readouterr().err
    assert err == "error: internal RecursionError: maximum recursion depth exceeded\n"


def failing_check(program, sequent):
    return programs.StrongSolutionReport(False, (programs.Violation(programs.LEAF_MISMATCH, vertex=0),))


# The same sabotage in a child process, so that it can run under ``python -O``.
FAILING_CHECK_CLI = """
import sys
from hornlog import cli, programs
programs.verify_strong_solution = lambda program, sequent: programs.StrongSolutionReport(
    False, (programs.Violation(programs.LEAF_MISMATCH, vertex=0),))
sys.exit(cli.main(sys.argv[1:]))
"""


def test_a_witness_failing_the_self_check_exits_3_even_under_python_O(tmp_path, capsys, monkeypatch):
    seq_file = tmp_path / "q.seq"
    seq_file.write_text("q ; ; |- q")
    err = "error: internal AssertionError: prover returned a bad witness: LEAF_MISMATCH vertex=0\n"
    monkeypatch.setattr(programs, "verify_strong_solution", failing_check)
    assert cli.main(["prove", str(seq_file)]) == 3
    assert capsys.readouterr() == ("", err)
    for flags in ([], ["-O"]):
        result = subprocess.run(
            [sys.executable, *flags, "-c", FAILING_CHECK_CLI, "prove", str(seq_file)], capture_output=True, text=True
        )
        assert (result.returncode, result.stdout, result.stderr) == (3, "", err), flags


@pytest.mark.parametrize("run, reason", [
    ("L1 : 2,0\nI2 -> L1 : 1,0\nI1 -> L0 : 1,0\n", "reject at index 1: I1 not enabled at L1 : 1,0"),
    ("L1 : 2,0\nI2 -> L1 : 1,0\n", "reject at index 1: L1 : 1,0 is not the halting configuration"),
], ids=["not-a-run", "not-halting"])
def test_comp_to_prog_rejects_a_well_formed_run_with_exit_1(dec_file, tmp_path, capsys, run, reason):
    """A run that parses but is no halting run of the machine is a verdict
    (exit 1, one reject line), as ``machine run`` gives one; only text that
    does not parse is malformed input."""
    run_file = tmp_path / "run.txt"
    run_file.write_text(run)
    out = tmp_path / "prog.json"
    assert cli.main(["bridge", "comp-to-prog", str(dec_file), str(run_file), "--output", str(out)]) == 1
    assert capsys.readouterr() == (reason + "\n", "")
    assert not out.exists()
    if "not enabled" in reason:
        assert cli.main(["machine", "run", str(dec_file), str(run_file)]) == 1
        assert capsys.readouterr().out == reason + "\n"
    run_file.write_text(run.replace("I2 ->", "I2 -> L"))
    assert cli.main(["bridge", "comp-to-prog", str(dec_file), str(run_file)]) == 2


def test_comp_to_prog_judges_its_run_once(dec_file, tmp_path, capsys, monkeypatch):
    calls = []

    def counted(machine, run):
        calls.append(run)
        return validate_computation(machine, run)

    for module in (minsky, bridge):  # a module judging runs through its own import counts too
        monkeypatch.setattr(module, "validate_computation", counted, raising=False)
    run_file = tmp_path / "run.txt"
    run_file.write_text("L1 : 1,0\nI2 -> L1 : 0,0\nI1 -> L0 : 0,0\n")
    assert cli.main(["bridge", "comp-to-prog", str(dec_file), str(run_file)]) == 0
    assert len(calls) == 1
    run_file.write_text("L1 : 1,0\nI2 -> L1 : 0,0\n")
    assert cli.main(["bridge", "comp-to-prog", str(dec_file), str(run_file)]) == 1
    assert len(calls) == 2
    assert capsys.readouterr().out.endswith("reject at index 1: L1 : 0,0 is not the halting configuration\n")


# Under a 1 GB address-space limit, so that a start built one unit at a time
# fails at once instead of filling the host's memory.
LIMITED_CLI = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from hornlog import cli
sys.exit(cli.main(sys.argv[1:]))
"""


def test_roundtrip_from_a_huge_start_answers_at_once(dec_file):
    """Encoding a start costs its number of counters, not their total, and
    both searches prune a start of 10**15 units at once."""
    argv = ["bridge", "roundtrip", str(dec_file), "--input", f"{10**15},0", "--max-steps", "5",
            "--max-counter", "5", "--depth", "5"]
    result = subprocess.run([sys.executable, "-c", LIMITED_CLI, *argv], capture_output=True, text=True, timeout=5)
    assert (result.returncode, result.stdout, result.stderr) == (0, "AGREE_NO_WITNESS_WITHIN_BOUNDS\n", "")


@pytest.mark.parametrize("run, message", [
    ("L1 : 1,0\nI2 -> L1 : 0,0\nI1 -> L0 : 0,0\n",
     f"SIDE_CHAIN_NOT_KILLED: side leaf 4 evaluates to the encoding of L0 : 0,{10**12}, not the goal\n"),
    ("L1 : 1,0\n", f"MAIN_LEAF_NOT_L0: main leaf 0 evaluates to the encoding of L1 : 1,{10**12}\n"),
], ids=["side-leaf", "main-leaf"])
def test_a_leaf_of_a_huge_count_is_rejected_at_once(dec_file, tmp_path, run, message):
    """Extraction names a leaf that misses the goal by the configuration it
    encodes, not by a product text as long as its counter total."""
    run_file, program_file = tmp_path / "run.txt", tmp_path / "program.json"
    run_file.write_text(run)
    if "->" in run:
        run_cli("bridge", "comp-to-prog", str(dec_file), str(run_file), "--output", str(program_file))
    else:
        program_file.write_text('{"root": 0, "edges": []}')
    argv = ["bridge", "prog-to-comp", str(dec_file), str(program_file), "--input", f"1,{10**12}"]
    result = subprocess.run([sys.executable, "-c", LIMITED_CLI, *argv], capture_output=True, text=True, timeout=5)
    assert (result.returncode, result.stdout, result.stderr) == (1, message, "")


def _one_config_changed(make_run):
    """``make_run`` with every counter of the run's second configuration raised by one."""
    def sabotaged(*args):
        run = make_run(*args)
        wrong = Configuration(run.configs[1].label, tuple(c + 1 for c in run.configs[1].counters))
        return Computation(run.configs[:1] + (wrong,) + run.configs[2:], run.moves)
    return sabotaged


def _one_edge_dropped(build):
    def sabotaged(enc, computation):
        trace = build(enc, computation)
        program = HornProgram.build(trace.program.root, trace.program.edges[:-1])
        return replace(trace, program=program)
    return sabotaged


def test_a_run_failing_the_output_gate_exits_3_unwritten(dec_file, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(minsky, "search_halting", _one_config_changed(minsky.search_halting))
    out = tmp_path / "run.txt"
    assert cli.main(["machine", "search", str(dec_file), "--input", "2,0", "--output", str(out)]) == 3
    assert capsys.readouterr() == (
        "", "error: internal: run fails its check: at index 0: I2 yields L1 : 1,0, computation records L1 : 2,1\n"
    )
    assert not out.exists()


def test_an_extracted_run_failing_the_output_gate_exits_3_unwritten(dec_file, tmp_path, capsys, monkeypatch):
    run_file, program_file, out = tmp_path / "run.txt", tmp_path / "prog.json", tmp_path / "back.txt"
    run_file.write_text("L1 : 2,0\nI2 -> L1 : 1,0\nI2 -> L1 : 0,0\nI1 -> L0 : 0,0\n")
    assert cli.main(["bridge", "comp-to-prog", str(dec_file), str(run_file), "--output", str(program_file)]) == 0
    monkeypatch.setattr(bridge, "program_to_computation", _one_config_changed(bridge.program_to_computation))
    argv = ["bridge", "prog-to-comp", str(dec_file), str(program_file), "--input", "2,0", "--output", str(out)]
    assert cli.main(argv) == 3
    assert capsys.readouterr() == (
        "", "error: internal: run fails its check: at index 0: I2 yields L1 : 1,0, computation records L1 : 2,1\n"
    )
    assert not out.exists()


def test_a_program_failing_the_output_gate_exits_3_unwritten(dec_file, tmp_path, capsys, monkeypatch):
    run_file = tmp_path / "run.txt"
    run_file.write_text("L1 : 2,0\nI2 -> L1 : 1,0\nI2 -> L1 : 0,0\nI1 -> L0 : 0,0\n")
    monkeypatch.setattr(bridge, "computation_to_program", _one_edge_dropped(bridge.computation_to_program))
    out, dot = tmp_path / "prog.json", tmp_path / "prog.dot"
    argv = ["bridge", "comp-to-prog", str(dec_file), str(run_file), "--output", str(out), "--dot", str(dot)]
    assert cli.main(argv) == 3
    stdout, stderr = capsys.readouterr()
    assert stdout == "" and stderr.startswith("error: internal: program fails its check: LEAF_MISMATCH vertex=")
    assert stderr.count("\n") == 1
    assert not out.exists() and not dot.exists()


def test_the_output_gate_passes_runs_from_any_start_label(tmp_path, capsys):
    """The program gate checks against the sequent of the run's own first
    configuration, which need not be at L1."""
    machine = tmp_path / "two.mm"
    machine.write_text("counters 1\nL2: dec x1 goto L1\nL1: ifzero x1 goto L0\n")
    run_file = tmp_path / "run.txt"
    assert cli.main(["machine", "search", str(machine), "--input", "1", "--start", "2", "--output", str(run_file)]) == 0
    assert run_file.read_text() == "L2 : 1\nI1 -> L1 : 0\nI2 -> L0 : 0\n"
    assert cli.main(["bridge", "comp-to-prog", str(machine), str(run_file)]) == 0
    assert '"root": 0' in capsys.readouterr().out


def _leaf_dropped(program: HornProgram) -> HornProgram:
    """The program without its last edge, which leads to a leaf: vertices are numbered in preorder."""
    return HornProgram.build(program.root, program.edges[:-1])


def test_a_witness_failing_the_output_gate_exits_3_unwritten(tmp_path, capsys, monkeypatch):
    seq_file = tmp_path / "q.seq"
    seq_file.write_text("a ; a -o b, b -o c ; |- c")
    monkeypatch.setattr(programs, "prove_bounded", lambda sequent, depth: _leaf_dropped(prove(sequent, depth)))
    out, dot = tmp_path / "prog.json", tmp_path / "prog.dot"
    assert cli.main(["prove", str(seq_file), "--output", str(out), "--dot", str(dot)]) == 3
    stdout, stderr = capsys.readouterr()
    assert stdout == "" and stderr.startswith("error: internal: program fails its check: ")
    assert not out.exists() and not dot.exists()


def translated_corpus(tmp_path) -> tuple:
    from corpora import ll_corpus
    from hornlog import hll, ll

    files = []
    for i in (0, 4):  # two proofs over other literals
        files.append(tmp_path / f"proof{i}.ll.json")
        files[-1].write_text(ll.ll_proof_to_json(ll_corpus()[i]))
    zoned = tmp_path / "proof0.hll.json"
    zoned.write_text(hll.hll_proof_to_json(ll.translate_ll_to_hll(ll_corpus()[0])))
    return files, zoned


def test_a_compiled_program_failing_the_output_gate_exits_3_unwritten(tmp_path, capsys, monkeypatch):
    from hornlog import hll

    _, zoned = translated_corpus(tmp_path)
    compile_ = hll.compile_hll_to_program
    monkeypatch.setattr(hll, "compile_hll_to_program", lambda proof: _leaf_dropped(compile_(proof)))
    out, dot = tmp_path / "prog.json", tmp_path / "prog.dot"
    assert cli.main(["compile", "hll-to-program", str(zoned), "--output", str(out), "--dot", str(dot)]) == 3
    stdout, stderr = capsys.readouterr()
    assert stdout == "" and stderr.startswith("error: internal: program fails its check: ")
    assert not out.exists() and not dot.exists()


def test_a_translation_failing_the_output_gate_exits_3_unwritten(tmp_path, capsys, monkeypatch):
    """The gate compiles the zoned proof and verifies the program against the
    zoned reading of the flat end-sequent, so a valid zoned proof of another
    sequent fails it."""
    from hornlog import ll

    (first, second), _ = translated_corpus(tmp_path)
    other = ll.translate_ll_to_hll(ll.ll_proof_from_json(second.read_text()))
    monkeypatch.setattr(ll, "translate_ll_to_hll", lambda proof: other)
    out = tmp_path / "proof.hll.json"
    assert cli.main(["compile", "ll-to-hll", str(first), "--output", str(out)]) == 3
    stdout, stderr = capsys.readouterr()
    assert stdout == "" and stderr.startswith("error: internal: zoned proof fails its check: ")
    assert not out.exists()


def _orphans(tags):
    """A flat proof whose left choices, one per tag, have no consumer below:
    the one choice block alone, or several joined by right tensors."""
    from corpora import _choice_block
    from hornlog import ll

    names = [("f", "g", "h", "m"), ("x", "y", "t", "n")]
    blocks = [_choice_block(names[i], tag) for i, tag in enumerate(tags)]
    proof = blocks[0]
    for block in blocks[1:]:
        proof = ll.ll_rtensor(proof, block)
    return proof


@pytest.mark.parametrize("tags", [(1,), (1, 2)], ids=["one-orphan", "two-orphans-under-a-tensor"])
def test_an_orphan_choice_is_malformed_input(tmp_path, capsys, tags):
    """A left choice that nothing below consumes cannot be translated: the
    input's fault, exit 2, naming the least tag left pending."""
    from hornlog import ll

    flat = tmp_path / "orphan.ll.json"
    flat.write_text(ll.ll_proof_to_json(_orphans(tags)))
    out = tmp_path / "orphan.hll.json"
    assert cli.main(["verify", "ll", str(flat)]) == 0
    capsys.readouterr()
    assert cli.main(["compile", "ll-to-hll", str(flat), "--output", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: left-choice tag 1 has no consumer below\n")
    assert not out.exists()


def test_a_flat_proof_with_sixteen_choices_pending_at_once_exits_2_at_once(tmp_path):
    """Its translation would give one node 2**16 translations; the fold
    refuses it, naming its bound, before drawing more than the bound's worth
    in all."""
    from corpora import pending_choices
    from hornlog import ll

    flat = tmp_path / "pending.ll.json"
    flat.write_text(ll.ll_proof_to_json(pending_choices(16)))
    out = tmp_path / "pending.hll.json"
    result = run_cli("compile", "ll-to-hll", str(flat), "--output", str(out), expect=2, timeout=5)
    assert result.stderr == ("error: translation would draw 2180 translations, over its bound of 1784: "
                             "8 per node of the flat proof\n")
    assert not out.exists()


def test_a_zoned_node_the_translation_cannot_draw_exits_3_unwritten(tmp_path, capsys, monkeypatch):
    """A choice rule that reuses its first premise draws no node on any
    checked flat proof: hornlog's fault, not malformed input."""
    from corpora import ll_corpus
    from hornlog import hll, ll

    oplus_h = hll.oplus_h
    monkeypatch.setattr(hll, "oplus_h", lambda first, second, imp, frame: oplus_h(first, first, imp, frame))
    reason = "OPLUS_H: premise inputs must be the two consequents tensored with the frame"
    flat, out = tmp_path / "proof.ll.json", tmp_path / "proof.hll.json"
    for proof in ll_corpus():
        flat.write_text(ll.ll_proof_to_json(proof))
        assert cli.main(["compile", "ll-to-hll", str(flat), "--output", str(out)]) == 3
        assert capsys.readouterr() == ("", f"error: internal AssertionError: the translation drew an invalid node: {reason}\n")
        assert not out.exists()


def test_a_translation_fault_exits_3_unwritten(tmp_path, capsys, monkeypatch):
    """A fold that files a left choice's sides swapped hands the choice rule
    a first premise that starts from the other consequent; with the choice
    tensored with a side product, no frame fits both premises."""
    from corpora import ll_corpus
    from hornlog import ll

    flat = tmp_path / "proof.ll.json"
    flat.write_text(ll.ll_proof_to_json(ll_corpus()[2]))  # a choice under a tensor with a side product
    resolve = ll._resolve
    monkeypatch.setattr(ll, "_resolve", lambda node, premises, budget: resolve(
        node, premises[::-1] if node.rule is ll.LlRule.LOPLUS else premises, budget))
    out = tmp_path / "proof.hll.json"
    assert cli.main(["compile", "ll-to-hll", str(flat), "--output", str(out)]) == 3
    reason = "OPLUS_H: premise inputs must be the two consequents tensored with the frame"
    assert capsys.readouterr() == ("", f"error: internal AssertionError: the translation drew an invalid node: {reason}\n")
    assert not out.exists()

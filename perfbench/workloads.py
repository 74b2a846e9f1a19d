"""The four workloads: seeded text inputs, the op each runs, and its oracle.

Every op starts from text, the input a CLI user hands over, and ends at a
verdict hornlog itself has checked.  The oracle that judges the verdict is
fixed by how the input was built (a closed-form run length, a witness that
exists by construction, a machine that halts at no bound, a leaf count that
follows from the number of choices), never by the code under test.

Sizes are fixed per workload, so every op of a run is one size class and a
percentile never lands between two classes; ``--seed`` varies only content
(label numbering, instruction order, literal names).  ``SMOKE`` holds the
smallest sizes, used by the smoke mode and its test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

import hornlog
from hornlog import bridge, hll, ll, minsky, programs, syntax
from hornlog.syntax import OplusImplication, PlainImplication, SimpleProduct


@dataclass(frozen=True)
class Outcome:
    """What one op produced, judged outside the timed interval."""

    ok: bool
    vertices: int | None  # of the certificate the op output; None if none
    detail: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[random.Random, dict, int], list]
    run_op: Callable[[object], object]
    judge: Callable[[object, object], Outcome]


# Sizes.  Each keeps every input well inside Python's default recursion limit
# and one op near 70-250 ms on a 2-core host, so a run collects 100-250
# samples.  At these sizes the layer each workload was chosen for takes the
# largest share of its op time (see README.md).
FULL = {
    "certify": {"rungs": 16, "k": 200},
    "prove": {"dec_k": 70, "transfer_k": 22},
    "refute": {"rungs": 5, "k": 5},
    "compile": {"n": 14},
}
SMOKE = {
    "certify": {"rungs": 3, "k": 3},
    "prove": {"dec_k": 2, "transfer_k": 1},
    "refute": {"rungs": 2, "k": 1},
    "compile": {"n": 1},
}


# --- Machines ----------------------------------------------------------------


def _label_map(rng: random.Random, count: int) -> list[int]:
    """Distinct label numbers for rungs 1..count; rung 1 stays L1 (the start)."""
    others = rng.sample(range(2, 10 * count + 10), count - 1)
    return [1] + others


def ladder_text(rng: random.Random, rungs: int, counters: int = 2) -> str:
    """A ladder machine as text, instructions shuffled and labels renumbered.

    Rungs L1..LS, with ``inc`` and ``dec`` of x1 and x2 from every rung to the
    next, then drain x1 and test it at LS, drain x2 and test it at L(S+1),
    halting at L0.  Counters above 2 are declared but touched by nothing.
    """
    label = _label_map(rng, rungs + 1)
    lines = []
    for i in range(rungs - 1):
        for kind in ("inc", "dec"):
            for m in (1, 2):
                lines.append(f"L{label[i]}: {kind} x{m} goto L{label[i + 1]}")
    top, last = label[rungs - 1], label[rungs]
    lines.append(f"L{top}: dec x1 goto L{top}")
    lines.append(f"L{top}: ifzero x1 goto L{last}")
    lines.append(f"L{last}: dec x2 goto L{last}")
    lines.append(f"L{last}: ifzero x2 goto L0")
    rng.shuffle(lines)
    return f"counters {counters}\n" + "\n".join(lines) + "\n"


def ladder_moves(rungs: int, k: int) -> int:
    """Length of the shortest halting run from (k, 0): climb, drain, two tests."""
    climb = rungs - 1
    return climb + max(k - climb, (k + climb) % 2) + 2


# --- certify -----------------------------------------------------------------


@dataclass(frozen=True)
class CertifyInput:
    text: str
    k: int
    moves: int
    vertices: int


def certify_inputs(rng: random.Random, size: dict, count: int) -> list[CertifyInput]:
    rungs, k = size["rungs"], size["k"]
    # With k >= S-1 every climb step must be ``dec x1``, so the shortest run is
    # unique, x2 is 0 at both tests, and each side chain is one fork edge plus
    # one closing edge: the certificate has moves + 1 + 2 + 2 vertices.
    if k < rungs - 1:
        raise ValueError("certify needs k >= rungs - 1 for a unique shortest run")
    moves = ladder_moves(rungs, k)
    return [
        CertifyInput(ladder_text(rng, rungs), k, moves, moves + 5)
        for _ in range(count)
    ]


def certify_op(item: CertifyInput):
    machine = minsky.parse_machine(item.text)
    init = machine.initial_configuration((item.k, 0))
    computation = minsky.search_halting(machine, init, item.moves, item.k)
    if computation is None:
        return None
    enc = hornlog.MachineEncoding.build(machine)
    trace = bridge.computation_to_program(enc, computation)
    report = programs.verify_strong_solution(trace.program, enc.sequent((item.k, 0)))
    extracted = bridge.program_to_computation(enc, trace.program, init)
    return computation, report, extracted, programs.program_to_json(trace.program)


def certify_judge(item: CertifyInput, result) -> Outcome:
    if result is None:
        return Outcome(False, None, "no run found")
    computation, report, extracted, text = result
    vertices = len(json.loads(text)["vertices"])
    if len(computation.moves) != item.moves:
        return Outcome(False, vertices, f"run has {len(computation.moves)} moves, expected {item.moves}")
    if not report.ok:
        return Outcome(False, vertices, f"verifier rejected: {report}")
    if extracted != computation:
        return Outcome(False, vertices, "extracted run differs from the searched run")
    if vertices != item.vertices:
        return Outcome(False, vertices, f"{vertices} vertices, expected {item.vertices}")
    return Outcome(True, vertices)


# --- prove -------------------------------------------------------------------


@dataclass(frozen=True)
class ProveInput:
    sequents: tuple[str, ...]  # one DEC-family and one transfer-family sequent
    depths: tuple[int, ...]
    vertices: int


def _dec_machine(m: int) -> str:
    """Drain x<m> at L1, then test it: from x<m> = k the run has k + 1 moves."""
    return (
        "counters 2\n"
        f"L1: dec x{m} goto L1\n"
        f"L1: ifzero x{m} goto L0\n"
    )


def _transfer_machine(rng: random.Random) -> str:
    """Move x1 into x2 one unit at a time, test x1, drain x2, test x2."""
    _, mid, drain = _label_map(rng, 3)
    lines = [
        f"L1: dec x1 goto L{mid}",
        f"L{mid}: inc x2 goto L1",
        f"L1: ifzero x1 goto L{drain}",
        f"L{drain}: dec x2 goto L{drain}",
        f"L{drain}: ifzero x2 goto L0",
    ]
    rng.shuffle(lines)
    return "counters 2\n" + "\n".join(lines) + "\n"


def _sequent_text(machine_text: str, inputs: tuple[int, ...]) -> str:
    machine = minsky.parse_machine(machine_text)
    sequent = hornlog.MachineEncoding.build(machine).sequent(inputs)
    return syntax.sequent_text(sequent)


def prove_inputs(rng: random.Random, size: dict, count: int) -> list[ProveInput]:
    dec_k, transfer_k = size["dec_k"], size["transfer_k"]
    out = []
    for _ in range(count):
        m = rng.choice((1, 2))
        dec = _sequent_text(_dec_machine(m), (dec_k, 0) if m == 1 else (0, dec_k))
        transfer = _sequent_text(_transfer_machine(rng), (transfer_k, 0))
        # Program heights of the known runs.  DEC: k decrements, then the test
        # forks a two-edge side chain.  Transfer: 2k moves, the first test
        # forks a side chain killing k units of x2 (k + 2 edges), the main
        # branch drains k more and its second test adds two more edges.
        # Vertex counts: main branch plus both side chains.
        dec_height = dec_k + 2
        transfer_height = 3 * transfer_k + 3
        dec_vertices = (dec_k + 2) + 2
        transfer_vertices = (3 * transfer_k + 3) + (transfer_k + 2) + 2
        out.append(
            ProveInput((dec, transfer), (dec_height, transfer_height),
                       dec_vertices + transfer_vertices)
        )
    return out


def prove_op(item: ProveInput):
    results = []
    for text, depth in zip(item.sequents, item.depths):
        sequent = syntax.parse_sequent(text)
        witness = programs.prove_bounded(sequent, depth)
        results.append(None if witness is None else programs.program_to_json(witness))
    return results


def prove_judge(item: ProveInput, result) -> Outcome:
    if any(text is None for text in result):
        return Outcome(False, None, "no witness within the known run's height")
    vertices = sum(len(json.loads(text)["vertices"]) for text in result)
    if vertices != item.vertices:
        return Outcome(False, vertices, f"{vertices} vertices, expected {item.vertices}")
    return Outcome(True, vertices)


# --- refute ------------------------------------------------------------------


@dataclass(frozen=True)
class RefuteInput:
    text: str
    inputs: tuple[int, ...]
    max_steps: int
    max_counter: int
    max_depth: int


def refute_inputs(rng: random.Random, size: dict, count: int) -> list[RefuteInput]:
    rungs, k = size["rungs"], size["k"]
    # x3 starts at 1 and no instruction touches it, so the halting
    # configuration (all counters 0) is unreachable at every bound.  The bounds
    # are those of the same ladder's halting run without x3, plus slack.
    moves = ladder_moves(rungs, k)
    return [
        RefuteInput(ladder_text(rng, rungs, counters=3), (k, 0, 1),
                    moves + 2, k + rungs, moves + 3)
        for _ in range(count)
    ]


def refute_op(item: RefuteInput):
    machine = minsky.parse_machine(item.text)
    enc = hornlog.MachineEncoding.build(machine)
    return bridge.round_trip_check(enc, item.inputs, item.max_steps, item.max_counter, item.max_depth)


def refute_judge(item: RefuteInput, report) -> Outcome:
    if report.code != bridge.AGREE_NO_WITNESS_WITHIN_BOUNDS:
        return Outcome(False, None, f"verdict {report}")
    return Outcome(True, None)


# --- compile -----------------------------------------------------------------


@dataclass(frozen=True)
class CompileInput:
    proofs: tuple[str, ...]  # flat-proof JSON of the five separated shapes
    leaves: tuple[int, ...]


class _Names:
    """Fresh literal names: a seeded prefix letter and a counter."""

    def __init__(self, rng: random.Random):
        letters = list("abcdefghjkmnpqstuvwxyz")
        rng.shuffle(letters)
        self.letters = letters
        self.used = 0

    def product(self) -> SimpleProduct:
        letter = self.letters[self.used % len(self.letters)]
        name = f"{letter}{self.used // len(self.letters)}"
        self.used += 1
        return SimpleProduct.of(name)


def _branch(y, goal, mine, others):
    """y, !(mine), !(others...) |- goal with mine = y -o goal."""
    node = ll.ll_limp(ll.ll_i(y), ll.ll_i(goal), mine)
    node = ll.ll_lbang(node, mine)
    for other in others:
        node = ll.ll_wbang(node, other)
    return node


def _choice_block(y1, y2, m, tag):
    """(y1 + y2)#tag, !(y1 -o m), !(y2 -o m) |- m."""
    imps = {y1: PlainImplication(y1, m), y2: PlainImplication(y2, m)}
    occ = ll.LlOplusProduct(y1, y2, tag)
    first = _branch(occ.left, m, imps[occ.left], [imps[occ.right]])
    second = _branch(occ.right, m, imps[occ.right], [imps[occ.left]])
    return ll.ll_loplus(first, second, occ)


def _finish(block, f, y1, y2, tag):
    return ll.ll_limpoplus(ll.ll_i(f), block, OplusImplication(f, y1, y2), tag)


def _unary(names: _Names, n: int):
    f, y1, y2, m = (names.product() for _ in range(4))
    block = _choice_block(y1, y2, m, 1)
    for _ in range(n):
        u = names.product()
        block = ll.ll_wbang(block, PlainImplication(u, u))
    return _finish(block, f, y1, y2, 1)


def _rtensor(names: _Names, n: int):
    f, y1, y2, m = (names.product() for _ in range(4))
    block = _choice_block(y1, y2, m, 1)
    for _ in range(n):
        block = ll.ll_rtensor(block, ll.ll_i(names.product()))
    return _finish(block, f, y1, y2, 1)


def _limp(names: _Names, n: int):
    f, y1, y2, m = (names.product() for _ in range(4))
    block = _choice_block(y1, y2, m, 1)
    z = m
    for _ in range(n):
        nxt = names.product()
        block = ll.ll_limp(block, ll.ll_i(nxt), PlainImplication(z, nxt))
        z = nxt
    return _finish(block, f, y1, y2, 1)


def _ltensor(names: _Names, n: int):
    """One regrouping, then n - 1 weakenings.

    A chain of n regroupings would need branches that tensor n + 1 products
    together, and parsing that proof text would outweigh the normalizer.
    """
    f, y1, y2, m, x1, x2 = (names.product() for _ in range(6))
    imps = {y: PlainImplication(y.tensor(x1).tensor(x2), m) for y in (y1, y2)}

    def branch(y):
        pair = ll.ll_rtensor(ll.ll_rtensor(ll.ll_i(y), ll.ll_i(x1)), ll.ll_i(x2))
        node = ll.ll_limp(pair, ll.ll_i(m), imps[y])
        node = ll.ll_lbang(node, imps[y])
        return ll.ll_wbang(node, imps[y2 if y == y1 else y1])

    occ = ll.LlOplusProduct(y1, y2, 1)
    block = ll.ll_loplus(branch(occ.left), branch(occ.right), occ)
    block = ll.ll_ltensor(block, x1, x2)
    for _ in range(n - 1):
        u = names.product()
        block = ll.ll_wbang(block, PlainImplication(u, u))
    return _finish(block, f, y1, y2, 1)


def _stacked(names: _Names, n: int):
    f1, g, h, f2, g2, h2, m = (names.product() for _ in range(7))
    combos = [(y, yp) for y in (g, h) for yp in (g2, h2)]
    imps = {pair: PlainImplication(pair[0].tensor(pair[1]), m) for pair in combos}

    def pi(y, yp):
        node = ll.ll_limp(ll.ll_rtensor(ll.ll_i(y), ll.ll_i(yp)), ll.ll_i(m), imps[(y, yp)])
        node = ll.ll_lbang(node, imps[(y, yp)])
        for combo in combos:
            if combo != (y, yp):
                node = ll.ll_wbang(node, imps[combo])
        return node

    occ2 = ll.LlOplusProduct(g2, h2, 2)
    occ1 = ll.LlOplusProduct(g, h, 1)
    inner = {y: ll.ll_loplus(pi(y, occ2.left), pi(y, occ2.right), occ2) for y in (g, h)}
    block = ll.ll_loplus(inner[occ1.left], inner[occ1.right], occ1)
    for _ in range(n):
        u = names.product()
        block = ll.ll_wbang(block, PlainImplication(u, u))
    step1 = ll.ll_limpoplus(ll.ll_i(f1), block, OplusImplication(f1, g, h), 1)
    return ll.ll_limpoplus(ll.ll_i(f2), step1, OplusImplication(f2, g2, h2), 2)


# (builder, number of choices): the compiled program has 2**choices leaves.
SHAPES = ((_unary, 1), (_rtensor, 1), (_limp, 1), (_ltensor, 1), (_stacked, 2))


def compile_inputs(rng: random.Random, size: dict, count: int) -> list[CompileInput]:
    n = size["n"]
    out = []
    for _ in range(count):
        names = _Names(rng)
        proofs = tuple(ll.ll_proof_to_json(build(names, n)) for build, _ in SHAPES)
        leaves = tuple(2 ** choices for _, choices in SHAPES)
        out.append(CompileInput(proofs, leaves))
    return out


def compile_op(item: CompileInput):
    results = []
    for text in item.proofs:
        proof = ll.ll_proof_from_json(text)
        check = ll.check_ll_proof(proof)
        if not check.ok:
            results.append((check, None, None))
            continue
        translated = ll.translate_ll_to_hll(proof)
        program = hll.compile_hll_to_program(translated)
        report = programs.verify_strong_solution(program, translated.conclusion)
        results.append((check, report, programs.program_to_json(program)))
    return results


def compile_judge(item: CompileInput, result) -> Outcome:
    vertices = 0
    for (check, report, text), leaves in zip(result, item.leaves):
        if not check.ok:
            return Outcome(False, vertices, f"flat proof rejected: {check}")
        if not report.ok:
            return Outcome(False, vertices, f"verifier rejected: {report}")
        data = json.loads(text)
        vertices += len(data["vertices"])
        parents = {e["parent"] for e in data["edges"]}
        got = sum(1 for v in data["vertices"] if v not in parents)
        if got != leaves:
            return Outcome(False, vertices, f"{got} leaves, expected {leaves}")
    return Outcome(True, vertices)


WORKLOADS = {
    "certify": Workload("certify", certify_inputs, certify_op, certify_judge),
    "prove": Workload("prove", prove_inputs, prove_op, prove_judge),
    "refute": Workload("refute", refute_inputs, refute_op, refute_judge),
    "compile": Workload("compile", compile_inputs, compile_op, compile_judge),
}

"""The prover's witnesses are pinned.  Every sequent in ``prover_witnesses.json``
proves, at its depth, to the witness recorded there (the SHA-256 of its
``program_to_json`` text), or to none where none is recorded.  The fixture
was recorded before the prover filed its candidates by first literal, so
the filing changes no witness and no absence.

The corpus mixes encoded random machines on small inputs, DEC and transfer
machines, and random sequents of plain and choice formulas.  Their
antecedents share first literals and hold several literals, and some
formulas are both linear and banged.  ``corpus`` builds it again, and running
this file records the fixture anew from the prover as it is::

    PYTHONPATH=src python tests/test_prover_witnesses.py
"""

import hashlib
import json
import random
from pathlib import Path

from corpora import random_machine, walked_sequent
from hornlog.encoding import MachineEncoding
from hornlog.minsky import parse_machine
from hornlog.programs import program_to_json, prove_bounded
from hornlog.syntax import OplusImplication, parse_sequent, sequent_text

FIXTURE = Path(__file__).with_name("prover_witnesses.json")

DEC = "counters 2\nL1: dec x{m} goto L1\nL1: ifzero x{m} goto L0\n"
TRANSFER = (
    "counters 2\nL1: dec x1 goto L5\nL5: inc x2 goto L1\nL1: ifzero x1 goto L7\n"
    "L7: dec x2 goto L7\nL7: ifzero x2 goto L0\n"
)


def corpus() -> list[tuple[str, int]]:
    """(sequent text, depth) pairs, deterministic."""
    rng = random.Random(20261019)
    cases = []
    for _ in range(40):
        enc = MachineEncoding.build(random_machine(rng))
        cases.append((enc.sequent((rng.randint(0, 2), rng.randint(0, 2))), rng.randint(2, 8)))
    for k in range(4):
        cases.append((MachineEncoding.build(parse_machine(DEC.format(m=1 + k % 2))).sequent((k, k)), k + 2))
        cases.append((MachineEncoding.build(parse_machine(TRANSFER)).sequent((k, 0)), 3 * k + 3))
    for i in range(240):
        cases.append((walked_sequent(rng, both=i % 4 == 0), rng.randint(2, 7)))
    return [(sequent_text(sequent), depth) for sequent, depth in cases]


def witness_digest(text: str, depth: int) -> str | None:
    witness = prove_bounded(parse_sequent(text), depth)
    return None if witness is None else hashlib.sha256(program_to_json(witness).encode()).hexdigest()


def recorded() -> list[dict]:
    return json.loads(FIXTURE.read_text())


def test_the_prover_finds_the_recorded_witnesses():
    entries = recorded()
    wrong = [i for i, e in enumerate(entries) if witness_digest(e["sequent"], e["depth"]) != e["witness"]]
    assert wrong == [], f"{len(wrong)} of {len(entries)} sequents prove to another witness or none"


def test_the_recorded_corpus_covers_the_cases_that_order_candidates():
    entries = recorded()
    sequents = [parse_sequent(entry["sequent"]) for entry in entries]
    firsts = [[f.antecedent.entries[0][0] for f in (*s.linear, *s.banged)] for s in sequents]
    assert {entry["witness"] is None for entry in entries} == {True, False}
    assert sum(len(set(names)) < len(names) for names in firsts) >= 50
    assert sum(any(f.antecedent.size > 1 for f in (*s.linear, *s.banged)) for s in sequents) >= 50
    assert sum(any(isinstance(f, OplusImplication) for f in s.banged) for s in sequents) >= 50
    assert sum(bool(set(s.linear) & set(s.banged)) for s in sequents) >= 10


if __name__ == "__main__":
    records = [{"sequent": text, "depth": depth, "witness": witness_digest(text, depth)} for text, depth in corpus()]
    FIXTURE.write_text(json.dumps(records, indent=1) + "\n")

"""The proof readers' verdicts on every one-field mutation of real tables.

The flat tables are the proofs of ``ll_corpus()`` and
``separated_shapes(1)`` written by ``ll_proof_to_json``; the zoned tables are
the translations of the latter.  Every row is mutated one way at a time: a
field dropped, given another JSON type or put out of range, a field its rule
may not take added, a premise reused, an unknown rule, or the row's
principal text cut short.  For each mutant the test records the reader's
exception, class and exact text, and the exit codes of ``hornlog verify``
and ``hornlog compile`` on it.  The records are pinned by their count and
SHA-256, so any change to a text or a code shows; ``SAMPLES`` spells a few
of them out.
"""

import contextlib
import hashlib
import io
import json

import pytest

from corpora import ll_corpus, separated_shapes
from hornlog import cli, hll, ll

# Per calculus: its tables, its reader, the fields a row may gain, the two
# commands reading a proof file, and the count and SHA-256 of the records.
CALCULI = {
    "ll": (lambda: [ll.ll_proof_to_json(proof) for proof in ll_corpus() + separated_shapes(1)], ll.ll_proof_from_json,
           (("tag", 0), ("split", [0, 0]), ("principal", 0)), (["verify", "ll"], ["compile", "ll-to-hll"]),
           4254, "0e7a2409a771f3a7aaecff027e24e468087085a4bb77acd1d8f7d6e7e841eada"),
    "hll": (lambda: [hll.hll_proof_to_json(ll.translate_ll_to_hll(proof)) for proof in separated_shapes(1)],
            hll.hll_proof_from_json,
            (("frame", 0), ("principal", 0)), (["verify", "hll"], ["compile", "hll-to-program"]),
            864, "3f0fa0a3907cf7573c1d2e27545c5079bdbe2a6d195c23426d5079d296f7760c"),
}


def row_mutants(table: dict, i: int, additions):
    """(name, mutated table) for each one-thing mutation of row ``i``."""
    row, texts = table["nodes"][i], table["formulas"]
    wrong_type = {"rule": 3, "premises": {}, "principal": "0", "split": 0, "tag": "1", "frame": "0"}
    out_of_range = {"premises": [i], "principal": len(texts), "split": [0, len(texts)], "tag": -1, "frame": len(texts)}

    def edited(name, change):
        mutant = json.loads(json.dumps(table))
        change(mutant["nodes"][i], mutant)
        return name, mutant

    for field in list(row):
        yield edited(f"drop {field}", lambda r, t, f=field: r.pop(f))
        yield edited(f"retype {field}", lambda r, t, f=field: r.update({f: wrong_type[f]}))
        if field in out_of_range:
            yield edited(f"out-of-range {field}", lambda r, t, f=field: r.update({f: out_of_range[f]}))
    for field, value in additions:
        if field not in row:
            yield edited(f"add {field}", lambda r, t, f=field, v=value: r.update({f: v}))
    if row.get("premises"):
        used = [p for earlier in table["nodes"][:i] for p in earlier.get("premises", [])]
        first, *rest = row["premises"]
        reused = [used[-1], *rest] if used else [first, first]  # another node's premise, or its own twice
        yield edited("reuse a premise", lambda r, t: r.update({"premises": reused}))
    yield edited("unknown rule", lambda r, t: r.update({"rule": "LOPLUS?"}))
    if "principal" in row:
        yield edited("cut the principal text", lambda r, t: t["formulas"].__setitem__(
            r["principal"], t["formulas"][r["principal"]][:-1]))


def exit_code(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def records(monkeypatch, calculus: str) -> list[str]:
    tables, reader, additions, (verify, compile_), _, _ = CALCULI[calculus]
    files: dict[str, str] = {}
    monkeypatch.setattr(cli, "_read", files.__getitem__)
    parser = cli.build_parser()  # built once: main builds the same parser on every call
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    lines = []
    for t, table in enumerate(map(json.loads, tables())):
        for i in range(len(table["nodes"])):
            for name, mutant in row_mutants(table, i, additions):
                text = files["proof"] = json.dumps(mutant)
                try:
                    reader(text)
                    verdict = "read"
                except Exception as exc:  # the class is part of the record
                    verdict = f"{type(exc).__name__}: {exc}"
                codes = exit_code([*verify, "proof"]), exit_code([*compile_, "proof"])
                lines.append(f"{t}/{i}/{name}: {verdict} | verify {codes[0]} compile {codes[1]}\n")
    return lines


SAMPLES = {  # "calculus:table/row/mutation": verdict
    "ll:0/0/drop principal": "InvalidProof: I at node 0: I cannot have None as its principal | verify 1 compile 2",
    "ll:0/3/drop premises": "InvalidProof: LIMP at node 3: LIMP takes 2 premises, got 0 | verify 1 compile 2",
    "ll:0/3/reuse a premise":
        "FormatError: node 3's premise 1 is not an earlier node that is no other premise | verify 2 compile 2",
    "ll:0/12/drop tag":
        "InvalidProof: LIMPOPLUS at node 12: implication choice needs the tag it consumes | verify 1 compile 2",
    "ll:0/12/out-of-range tag":
        "InvalidProof: LIMPOPLUS at node 12: second premise context must carry (g + h)#-1 | verify 1 compile 2",
    "ll:0/11/cut the principal text": "FormatError: node 11's principal: formulas[8] '(g + h)#': "
                                      "expected a tag number after '#' (at offset 8) | verify 2 compile 2",
    "ll:12/20/retype split": "FormatError: node 20's split must be a list of indices into 'formulas' | verify 2 compile 2",
    "ll:2/13/add principal": "FormatError: node 13: RTENSOR cannot have f as its principal | verify 2 compile 2",
    "hll:1/3/drop frame": "InvalidProof: M at node 3: frame rule needs a non-empty frame product | verify 1 compile 2",
    "hll:1/10/drop frame": "InvalidProof: OPLUS_H at node 10: premise inputs must be the two consequents tensored "
                           "with the frame | verify 1 compile 2",
}


@pytest.mark.parametrize("calculus", CALCULI)
def test_every_row_mutant_gets_its_recorded_verdict(monkeypatch, calculus):
    found = records(monkeypatch, calculus)
    by_case = dict(line.rstrip("\n").split(": ", 1) for line in found)
    samples = {case.split(":", 1)[1]: verdict for case, verdict in SAMPLES.items() if case.startswith(f"{calculus}:")}
    assert {case: by_case.get(case) for case in samples} == samples
    digest = hashlib.sha256("".join(found).encode()).hexdigest()
    assert (len(found), digest) == CALCULI[calculus][-2:]

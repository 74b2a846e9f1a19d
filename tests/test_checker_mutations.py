"""Seeded mutations of every node of the checked corpora.

Each mutant changes one node of a valid proof: its goal or input, one zone or
context member (dropped or duplicated), its principal (dropped, or another
formula of its sequent), its frame or split, or one premise (dropped).  Everything outside
that node is valid, so the checker, which reports the first failure in
preorder, must reject a changed conclusion at the node or at its parent, and
must reject any other mutant at the node or not at all.  Checked on its own,
a mutant is rejected at its root or not at all.  The checker never raises.
"""

import random
from dataclasses import replace

import pytest

from corpora import hll_corpus, ll_corpus
from hornlog import hll, ll
from hornlog.syntax import Frame, SimpleProduct

FRESH = SimpleProduct.of("q9")


def replace_at(proof, path, node):
    """The proof with the node at path replaced, its ancestors rebuilt."""
    spine = [proof]
    for index in path[:-1]:
        spine.append(spine[-1].premises[index])
    for parent, index in zip(reversed(spine), reversed(path)):
        premises = list(parent.premises)
        premises[index] = node
        node = replace(parent, premises=tuple(premises))
    return node


def drop_or_duplicate(rng, members):
    """One member dropped and one duplicated, or nothing for an empty zone."""
    if not members:
        return []
    i = rng.randrange(len(members))
    return [members[:i] + members[i + 1:], members + (members[i],)]


def hll_mutants(rng, node):
    c = node.conclusion
    yield replace(node, conclusion=replace(c, goal=c.goal.tensor(FRESH)))
    yield replace(node, conclusion=replace(c, input=c.input.tensor(FRESH)))
    if c.input != c.goal:
        yield replace(node, conclusion=replace(c, goal=c.input))
    for zone in ("linear", "banged"):
        for members in drop_or_duplicate(rng, getattr(c, zone)):
            yield replace(node, conclusion=replace(c, **{zone: members}))
    others = [f for f in c.linear + c.banged + (c.input, c.goal) if f != node.principal]
    yield replace(node, principal=rng.choice(others))
    yield replace(node, principal=None)
    if node.rule in (hll.HllRule.M, hll.HllRule.OPLUS_H):
        for frame in (None, Frame(), c.input, FRESH):
            yield replace(node, frame=frame)
    if node.premises:
        i = rng.randrange(len(node.premises))
        yield replace(node, premises=node.premises[:i] + node.premises[i + 1:])


def ll_mutants(rng, node):
    c = node.conclusion
    yield replace(node, conclusion=ll.LlSequent(c.context, c.goal.tensor(FRESH)))
    for members in drop_or_duplicate(rng, c.context):
        yield replace(node, conclusion=ll.LlSequent(members, c.goal))
    others = [f for f in c.context + (c.goal,) if f != node.principal]
    yield replace(node, principal=rng.choice(others))
    yield replace(node, principal=None)
    if node.rule is ll.LlRule.LTENSOR:
        x, y = node.split
        for split in (None, (y, x), (node.principal, x), (x, y.tensor(FRESH))):
            yield replace(node, split=split)
    if node.premises:
        i = rng.randrange(len(node.premises))
        yield replace(node, premises=node.premises[:i] + node.premises[i + 1:])


def assert_mutants_rejected_locally(proofs, mutants, check, seed):
    rng = random.Random(seed)
    seen = rejected = 0
    for proof in proofs:
        for node, trail in hll.walk(proof):
            path = hll.path_of(trail)
            for mutant in mutants(rng, node):
                seen += 1
                result = check(replace_at(proof, path, mutant))
                if mutant.conclusion != node.conclusion:
                    assert not result.ok, (path, mutant.rule)
                    assert result.failure.path in (path, path[:-1]), (path, result.failure)
                elif not result.ok:
                    assert result.failure.path == path, (path, result.failure)
                if len(mutant.premises) != len(node.premises):
                    assert not result.ok and result.failure.path == path
                alone = check(mutant)
                assert alone.ok or alone.failure.path == (), (path, alone.failure)
                rejected += not result.ok
    return seen, rejected


@pytest.mark.parametrize("seed", [1, 2])
def test_hll_checker_rejects_mutants_where_they_are(seed):
    seen, rejected = assert_mutants_rejected_locally(
        hll_corpus(), hll_mutants, hll.check_hll_proof, seed
    )
    assert seen > 4000 and rejected > seen * 3 // 4


@pytest.mark.parametrize("seed", [1, 2])
def test_ll_checker_rejects_mutants_where_they_are(seed):
    seen, rejected = assert_mutants_rejected_locally(
        ll_corpus(), ll_mutants, ll.check_ll_proof, seed
    )
    assert seen > 1400 and rejected > seen * 3 // 4

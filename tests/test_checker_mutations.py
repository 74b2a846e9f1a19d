"""Seeded mutations of every node of the checked corpora.

Each mutant changes one node of a valid proof: its goal or input, one zone or
context member (dropped or duplicated), its principal (dropped, another
formula of its sequent, or for a flat node one of the same kind with a fresh
part), its frame, split or consumed tag, or one premise (dropped).  Everything outside
that node is valid, so the checker, which reports the first failure in
preorder, must reject a changed conclusion at the node or at its parent, and
must reject any other mutant at the node or not at all.  Checked on its own,
a mutant is rejected at its root or not at all.  The checker never raises.

Builders and checker state each rule once, so they agree: every corpus node
is what its builder makes from its premises and parameters, and a mutant
checks valid exactly when a builder makes it.
"""

import random

import pytest

from corpora import hll_corpus, ll_corpus, replace
from hornlog import hll, ll
from hornlog.syntax import Frame, OplusImplication, PlainImplication, SimpleProduct

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
    if others:  # an identity axiom's sequent holds its principal only
        yield replace(node, principal=rng.choice(others))
    yield replace(node, principal=None)
    if node.rule in (hll.HllRule.M, hll.HllRule.OPLUS_H):
        for frame in (None, Frame(), c.input, FRESH):
            yield replace(node, frame=frame)
    if node.premises:
        i = rng.randrange(len(node.premises))
        yield replace(node, premises=node.premises[:i] + node.premises[i + 1:])


def fresh_part(rng, f):
    """A principal of the same kind with one part replaced by ``FRESH``: a
    plain implication's antecedent or one side of a choice, also under a
    bang; None for a product or no principal."""
    if isinstance(f, PlainImplication):
        return PlainImplication(FRESH, f.consequent)
    if isinstance(f, OplusImplication):
        return OplusImplication(f.antecedent, *rng.choice([(FRESH, f.right), (f.left, FRESH)]))
    if isinstance(f, ll.LlOplusProduct):
        return ll.LlOplusProduct(*rng.choice([(FRESH, f.right), (f.left, FRESH)]), f.tag)
    if isinstance(f, ll.LlBang):
        inner = fresh_part(rng, f.formula)
        return inner and ll.LlBang(inner)
    return None


def ll_mutants(rng, node):
    c = node.conclusion
    yield replace(node, conclusion=ll.LlSequent(c.context, c.goal.tensor(FRESH)))
    for members in drop_or_duplicate(rng, c.context):
        yield replace(node, conclusion=ll.LlSequent(members, c.goal))
    others = [f for f in c.context + (c.goal,) if f != node.principal]
    if others:  # an identity axiom's sequent holds its principal only
        yield replace(node, principal=rng.choice(others))
    yield replace(node, principal=None)
    fresh = fresh_part(rng, node.principal)
    if fresh is not None:
        yield replace(node, principal=fresh)
    if node.rule is ll.LlRule.LTENSOR:
        x, y = node.split
        for split in (None, (y, x), (node.principal, x), (x, y.tensor(FRESH))):
            yield replace(node, split=split)
    if node.rule is ll.LlRule.LIMPOPLUS:
        for tag in (None, node.tag + 1):
            yield replace(node, tag=tag)
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


# --- Builders and checkers agree ------------------------------------------------


def attempt(build):
    """The node a builder makes, or the reason it gives for making none."""
    try:
        return build()
    except ValueError as exc:
        return str(exc)


def hll_builds(node):
    """What the builder of the node's rule makes from its premises and parameters."""
    p, f, v, R = node.premises, node.principal, node.frame, hll.HllRule
    build = {
        R.I: lambda: hll.i_axiom(f),
        R.H: lambda: hll.h_axiom(f),
        R.LTENSOR: lambda: hll.ltensor(*p),
        R.M: lambda: hll.frame_rule(*p, v),
        R.OPLUS_H: lambda: hll.oplus_h(*p, f, v),
        R.LBANG: lambda: hll.lbang(*p, f),
        R.WBANG: lambda: hll.wbang(*p, f),
        R.CBANG: lambda: hll.cbang(*p, f),
        R.CUT: lambda: hll.cut(*p),
    }[node.rule]
    return [attempt(build)]


def ll_builds(node):
    """What the builder of the node's rule makes from its premises and
    parameters; nothing for a regrouping without its split, which no builder
    call can express."""
    p, f, R = node.premises, node.principal, ll.LlRule
    if node.rule is R.LTENSOR and node.split is None:
        return []
    build = {
        R.I: lambda: ll.ll_i(f),
        R.LIMPOPLUS: lambda: ll.ll_limpoplus(*p, f, node.tag),
        R.LTENSOR: lambda: ll.ll_ltensor(*p, *node.split),
        R.RTENSOR: lambda: ll.ll_rtensor(*p),
        R.LIMP: lambda: ll.ll_limp(*p, f),
        R.LOPLUS: lambda: ll.ll_loplus(*p, f),
        R.LBANG: lambda: ll.ll_lbang(*p, f.formula),
        R.WBANG: lambda: ll.ll_wbang(*p, f.formula),
        R.CBANG: lambda: ll.ll_cbang(*p, f.formula),
    }[node.rule]
    return [attempt(build)]


def assert_builders_agree(proofs, mutants, builds, check, rules, seed):
    """Every corpus node is what its builder makes.  A mutant that passes the
    premise-count and principal-kind gate checks valid exactly when a builder
    makes it.  When the checker names a failed side condition rather than the
    conclusion it expected, every builder call refuses, one with that reason;
    the flat regrouping is left out there, as its builder derives the
    principal from the split instead of taking it."""
    rng = random.Random(seed)
    gated = refused = 0
    for proof in proofs:
        for node, _ in hll.walk(proof):
            assert node in builds(node), node.rule
            for mutant in mutants(rng, node):
                arity, kind = rules[mutant.rule]
                if len(mutant.premises) != arity or not isinstance(mutant.principal, kind or type(None)):
                    continue
                gated += 1
                result, made = check(mutant), builds(mutant)
                assert result.ok == (mutant in made), (mutant.rule, result)
                if (result.ok or result.failure.reason.startswith("conclusion must be ")
                        or mutant.conclusion != node.conclusion or mutant.rule is ll.LlRule.LTENSOR):
                    continue
                assert all(isinstance(m, str) for m in made), (mutant.rule, result)
                assert f"{mutant.rule.value}: {result.failure.reason}" in made
                refused += 1
    return gated, refused


@pytest.mark.parametrize("seed", [1, 2])
def test_hll_builders_agree_with_the_checker(seed):
    gated, refused = assert_builders_agree(hll_corpus(), hll_mutants, hll_builds, hll.check_hll_proof, hll._RULES, seed)
    assert gated > 3000 and refused > 150


@pytest.mark.parametrize("seed", [1, 2])
def test_ll_builders_agree_with_the_checker(seed):
    gated, refused = assert_builders_agree(ll_corpus(), ll_mutants, ll_builds, ll.check_ll_proof, ll._LL_RULES, seed)
    assert gated > 800 and refused > 90

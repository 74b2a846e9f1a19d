"""Seeded corpus builders shared across the proof-layer tests.

Everything here is deterministic in the seed so that reported failures
replay exactly.
"""

from __future__ import annotations

import random

from hornlog import hll, ll
from hornlog.minsky import Instruction, MinskyMachine
from hornlog.syntax import (
    Frame,
    OplusImplication,
    PlainImplication,
    SimpleProduct,
)

POOL = ["a", "b", "c", "d", "e"]


def rand_product(rng: random.Random, pool=POOL, max_size=3) -> SimpleProduct:
    return SimpleProduct.of(*rng.choices(pool, k=rng.randint(1, max_size)))


def rand_plain(rng: random.Random) -> PlainImplication:
    return PlainImplication(rand_product(rng), rand_product(rng))


# --- Zoned-calculus corpus ---------------------------------------------------


def _oplus_template(rng: random.Random, conclusion_input: SimpleProduct) -> hll.HllProof:
    """A choice inference whose premises share zones, goal and frame."""
    entries = list(conclusion_input.literals())
    cut_at = rng.randint(1, len(entries))
    x = SimpleProduct.of(*entries[:cut_at])
    v = Frame.of(*entries[cut_at:])
    y1, y2 = rand_product(rng), rand_product(rng)
    z = rand_product(rng)
    imps = [PlainImplication(y1, z), PlainImplication(y2, z)]

    def premise(y: SimpleProduct, mine: PlainImplication) -> hll.HllProof:
        p = hll.h_axiom(mine)
        if not v.is_empty:
            p = hll.frame_rule(p, SimpleProduct(v.entries))
        p = hll.lbang(p, mine)
        for other in imps:
            if other != mine:
                p = hll.wbang(p, other)
        if y1 == y2:  # zones must still match: both carry two banged copies
            p = hll.wbang(p, mine)
        return p

    choice = OplusImplication(x, y1, y2)
    p1 = premise(y1, imps[0])
    p2 = premise(y2, imps[1])
    first, second = (p1, p2) if (y1, y2) == (choice.left, choice.right) else (p2, p1)
    return hll.oplus_h(first, second, choice, v)


def _gen_with_input(rng: random.Random, target: SimpleProduct, depth: int) -> hll.HllProof:
    """A random checked proof whose conclusion input is the given product."""
    moves = ["i", "h", "oplus"]
    if depth > 0:
        moves += ["ltensor", "wbang", "lbang", "cbang", "m", "cut", "cut"]
    move = rng.choice(moves)
    if move == "i":
        return hll.i_axiom(target)
    if move == "h":
        return hll.h_axiom(PlainImplication(target, rand_product(rng)))
    if move == "oplus":
        return _oplus_template(rng, target)
    if move == "ltensor":
        return hll.ltensor(_gen_with_input(rng, target, depth - 1))
    if move == "wbang":
        return hll.wbang(_gen_with_input(rng, target, depth - 1), rand_plain(rng))
    if move == "lbang":
        p = _gen_with_input(rng, target, depth - 1)
        if p.conclusion.linear:
            return hll.lbang(p, rng.choice(p.conclusion.linear))
        return hll.wbang(p, rand_plain(rng))
    if move == "cbang":
        a = rand_plain(rng)
        p = _gen_with_input(rng, target, depth - 1)
        return hll.cbang(hll.wbang(hll.wbang(p, a), a), a)
    if move == "m":
        entries = list(target.literals())
        if len(entries) < 2:
            return hll.i_axiom(target)
        cut_at = rng.randint(1, len(entries) - 1)
        inner = _gen_with_input(rng, SimpleProduct.of(*entries[:cut_at]), depth - 1)
        return hll.frame_rule(inner, SimpleProduct.of(*entries[cut_at:]))
    if move == "cut":
        p1 = _gen_with_input(rng, target, depth - 1)
        p2 = _gen_with_input(rng, p1.conclusion.goal, depth - 1)
        return hll.cut(p1, p2)
    raise AssertionError(move)


def _full_house(rng: random.Random) -> hll.HllProof:
    """One proof that instantiates all nine rules."""
    a, b, c = rand_product(rng), rand_product(rng), SimpleProduct.of(rng.choice(POOL))
    imp = PlainImplication(a, b)
    junk = rand_plain(rng)
    p = hll.h_axiom(imp)
    p = hll.ltensor(p)
    p = hll.frame_rule(p, c)
    p = hll.lbang(p, imp)
    p = hll.cbang(hll.wbang(hll.wbang(p, junk), junk), junk)
    tail = _oplus_template(rng, p.conclusion.goal)
    closing = hll.i_axiom(tail.conclusion.goal)
    return hll.cut(hll.cut(p, tail), closing)


def hll_corpus(seed: int = 20240811, count: int = 60) -> list[hll.HllProof]:
    rng = random.Random(seed)
    proofs = [_full_house(rng) for _ in range(6)]
    while len(proofs) < count:
        proofs.append(_gen_with_input(rng, rand_product(rng), depth=3))
    for proof in proofs:
        result = hll.check_hll_proof(proof)
        assert result.ok, f"corpus generator produced an invalid proof: {result}"
    return proofs


def hll_rule_counts(proofs) -> dict[str, int]:
    counts: dict[str, int] = {rule.value: 0 for rule in hll.HllRule}
    for proof in proofs:
        for node, _ in hll.walk(proof):
            counts[node.rule.value] += 1
    return counts


def ltensor_chain(n: int) -> hll.HllProof:
    """An n-node zoned proof: one axiom under n - 1 regroupings."""
    proof = hll.h_axiom(PlainImplication(SimpleProduct.of("a"), SimpleProduct.of("b")))
    for _ in range(n - 1):
        proof = hll.ltensor(proof)
    return proof


# --- Flat-calculus corpus -------------------------------------------------------


def _branch(y: SimpleProduct, goal: SimpleProduct, mine: PlainImplication,
            others: list[PlainImplication]) -> ll.LlProof:
    """y, !(mine), !(others...) |- goal  with mine = y -o goal."""
    node = ll.ll_limp(ll.ll_i(y), ll.ll_i(goal), mine)
    node = ll.ll_lbang(node, mine)
    for other in others:
        node = ll.ll_wbang(node, other)
    return node


def _choice_block(names: tuple[str, str, str, str], tag: int) -> ll.LlProof:
    """(y1 + y2)#tag, !(y1 -o m), !(y2 -o m) |- m."""
    _, y1n, y2n, mn = names
    y1, y2, m = SimpleProduct.of(y1n), SimpleProduct.of(y2n), SimpleProduct.of(mn)
    i1, i2 = PlainImplication(y1, m), PlainImplication(y2, m)
    occ = ll.LlOplusProduct(y1, y2, tag)
    first = _branch(occ.left, m, i1 if occ.left == y1 else i2,
                    [i2 if occ.left == y1 else i1])
    second = _branch(occ.right, m, i2 if occ.right == y2 else i1,
                     [i1 if occ.right == y2 else i2])
    return ll.ll_loplus(first, second, occ)


def _finish(block: ll.LlProof, names: tuple[str, str, str, str], tag: int) -> ll.LlProof:
    fn, y1n, y2n, _ = names
    f, y1, y2 = SimpleProduct.of(fn), SimpleProduct.of(y1n), SimpleProduct.of(y2n)
    return ll.ll_limpoplus(ll.ll_i(f), block, OplusImplication(f, y1, y2), tag)


def _adjacent_case(names) -> ll.LlProof:
    return _finish(_choice_block(names, 1), names, 1)


def _unary_separated_case(names) -> ll.LlProof:
    block = _choice_block(names, 1)
    junk1 = PlainImplication(SimpleProduct.of("u"), SimpleProduct.of("u"))
    junk2 = PlainImplication(SimpleProduct.of("w"), SimpleProduct.of("w"))
    block = ll.ll_wbang(block, junk1)
    block = ll.ll_cbang(ll.ll_wbang(ll.ll_wbang(block, junk2), junk2), junk2)
    return _finish(block, names, 1)


def _rtensor_separated_case(names) -> ll.LlProof:
    block = _choice_block(names, 1)
    side = SimpleProduct.of("s")
    block = ll.ll_rtensor(block, ll.ll_i(side))
    block = ll.ll_wbang(block, PlainImplication(side, side))
    return _finish(block, names, 1)


def _limp_separated_case(names) -> ll.LlProof:
    _, _, _, mn = names
    m = SimpleProduct.of(mn)
    z = SimpleProduct.of("z")
    block = _choice_block(names, 1)
    block = ll.ll_limp(block, ll.ll_i(z), PlainImplication(m, z))
    block = ll.ll_wbang(block, PlainImplication(z, z))
    return _finish(block, names, 1)


def _ltensor_separated_case(names) -> ll.LlProof:
    fn, y1n, y2n, mn = names
    y1, y2, m = SimpleProduct.of(y1n), SimpleProduct.of(y2n), SimpleProduct.of(mn)
    x1, x2 = SimpleProduct.of("p"), SimpleProduct.of("q")
    imps = {y: PlainImplication(y.tensor(x1).tensor(x2), m) for y in (y1, y2)}

    def branch(y: SimpleProduct) -> ll.LlProof:
        pair = ll.ll_rtensor(ll.ll_rtensor(ll.ll_i(y), ll.ll_i(x1)), ll.ll_i(x2))
        node = ll.ll_limp(pair, ll.ll_i(m), imps[y])
        node = ll.ll_lbang(node, imps[y])
        other = imps[y2 if y == y1 else y1]
        return ll.ll_wbang(node, other)

    occ = ll.LlOplusProduct(y1, y2, 1)
    block = ll.ll_loplus(branch(occ.left), branch(occ.right), occ)
    block = ll.ll_ltensor(block, x1, x2)
    block = ll.ll_wbang(block, PlainImplication(x1, x1))
    return _finish(block, names, 1)


def _stacked_case(names) -> ll.LlProof:
    fn, y1n, y2n, mn = names
    f2n, g2n, h2n = "f2", "g2", "h2"
    f1, g, h = SimpleProduct.of(fn), SimpleProduct.of(y1n), SimpleProduct.of(y2n)
    f2, g2, h2 = SimpleProduct.of(f2n), SimpleProduct.of(g2n), SimpleProduct.of(h2n)
    m = SimpleProduct.of(mn)
    combos = [(y, yp) for y in (g, h) for yp in (g2, h2)]
    imps = {pair: PlainImplication(pair[0].tensor(pair[1]), m) for pair in combos}

    def pi(y: SimpleProduct, yp: SimpleProduct) -> ll.LlProof:
        pair = ll.ll_rtensor(ll.ll_i(y), ll.ll_i(yp))
        node = ll.ll_limp(pair, ll.ll_i(m), imps[(y, yp)])
        node = ll.ll_lbang(node, imps[(y, yp)])
        for combo in combos:
            if combo != (y, yp):
                node = ll.ll_wbang(node, imps[combo])
        return node

    occ2 = ll.LlOplusProduct(g2, h2, 2)
    occ1 = ll.LlOplusProduct(g, h, 1)
    inner = {y: ll.ll_loplus(pi(y, occ2.left), pi(y, occ2.right), occ2) for y in (g, h)}
    block = ll.ll_loplus(inner[occ1.left], inner[occ1.right], occ1)
    step1 = ll.ll_limpoplus(ll.ll_i(f1), block, OplusImplication(f1, g, h), 1)
    return ll.ll_limpoplus(ll.ll_i(f2), step1, OplusImplication(f2, g2, h2), 2)


def ll_corpus() -> list[ll.LlProof]:
    """Checked cut-free proofs; several separate the choice pair by >= 2 rules."""
    name_sets = [
        ("f", "g", "h", "m"),
        ("x", "y", "t", "n"),
        ("a", "b", "c", "d"),
    ]
    proofs: list[ll.LlProof] = []
    for names in name_sets:
        proofs.append(_adjacent_case(names))
        proofs.append(_unary_separated_case(names))
        proofs.append(_rtensor_separated_case(names))
        proofs.append(_limp_separated_case(names))
    proofs.append(_ltensor_separated_case(name_sets[0]))
    proofs.append(_stacked_case(name_sets[0]))
    for proof in proofs:
        result = ll.check_ll_proof(proof)
        assert result.ok, f"corpus generator produced an invalid proof: {result}"
    return proofs


def ll_separation(proof: ll.LlProof) -> int:
    """Max intervening rules between a left choice and its consumer (distance - 1)."""
    return max(
        (
            ll.consumer_distance(node.principal.tag, trail) - 1
            for node, trail in hll.walk(proof)
            if node.rule is ll.LlRule.LOPLUS and trail is not None
        ),
        default=0,
    )


def stacked_weakenings(n: int) -> ll.LlProof:
    """A choice block under n weakenings by distinct formulas, then its
    consumer: the unary separated shape, n + 6 inferences deep."""
    names = ("f", "g", "h", "m")
    block = _choice_block(names, 1)
    for i in range(n):
        u = SimpleProduct.of(f"u{i}")
        block = ll.ll_wbang(block, PlainImplication(u, u))
    return _finish(block, names, 1)


# --- Random machines ----------------------------------------------------------


def random_machine(rng: random.Random, n: int = 2, max_instructions: int = 4) -> MinskyMachine:
    """Small machines biased toward decrements and zero tests so that a useful
    fraction of them actually halt within desk-scale bounds."""
    kinds = ["dec", "dec", "dec", "ifzero", "ifzero", "inc", "ifpos"]
    count = rng.randint(2, max_instructions)
    labels = [rng.choice([1, 2]) for _ in range(count)]
    labels[0] = 1  # keep the default start label meaningful
    targets = sorted(set(labels)) + [0, 0]
    instructions = [
        Instruction(rng.choice(kinds), label, rng.randint(1, n), rng.choice(targets))
        for label in labels
    ]
    return MinskyMachine.build(n, instructions)

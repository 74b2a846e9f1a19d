"""Seeded corpus builders shared across the proof-layer tests.

Everything here is deterministic in the seed so that reported failures
replay exactly.
"""

from __future__ import annotations

import random

from hornlog import hll, ll
from hornlog.minsky import Instruction, MinskyMachine
from hornlog.programs import (
    FOREIGN_FORMULA,
    LEAF_MISMATCH,
    LINEAR_COUNT,
    HornProgram,
    ProgramBuilder,
    StrongSolutionReport,
    Violation,
)
from hornlog.syntax import (
    Frame,
    HornFormula,
    HornSequent,
    OplusImplication,
    PlainImplication,
    SimpleProduct,
    apply_implication,
    match_antecedent,
    multiset_minus,
)

POOL = ["a", "b", "c", "d", "e"]


def replace(value, **changes):
    """A copy of a hornlog value with some fields changed, built through its
    constructor, so a proof node's copy is unmarked; the constructor refuses
    a name that is no field."""
    return type(value)(**{**{name: getattr(value, name) for name in value.__match_args__}, **changes})


def rand_product(rng: random.Random, pool=POOL, max_size=3) -> SimpleProduct:
    return SimpleProduct.of(*rng.choices(pool, k=rng.randint(1, max_size)))


def rand_plain(rng: random.Random) -> PlainImplication:
    return PlainImplication(rand_product(rng), rand_product(rng))


def chain(formulas) -> HornProgram:
    """The unary program whose edges carry ``formulas`` from the root down."""
    builder = ProgramBuilder()
    at = 0
    for f in formulas:
        at = builder.add_edge(at, f)
    return builder.build()


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


# The separated shapes put ``n`` rounds of their rule between a choice and
# its consumer; the corpus takes one round of each.


def _unary_separated_case(names, n: int = 1) -> ll.LlProof:
    block = _choice_block(names, 1)
    junk1 = PlainImplication(SimpleProduct.of("u"), SimpleProduct.of("u"))
    junk2 = PlainImplication(SimpleProduct.of("w"), SimpleProduct.of("w"))
    for _ in range(n):
        block = ll.ll_wbang(block, junk1)
        block = ll.ll_cbang(ll.ll_wbang(ll.ll_wbang(block, junk2), junk2), junk2)
    return _finish(block, names, 1)


def _rtensor_separated_case(names, n: int = 1) -> ll.LlProof:
    block = _choice_block(names, 1)
    side = SimpleProduct.of("s")
    for _ in range(n):
        block = ll.ll_rtensor(block, ll.ll_i(side))
    block = ll.ll_wbang(block, PlainImplication(side, side))
    return _finish(block, names, 1)


def _limp_separated_case(names, n: int = 1) -> ll.LlProof:
    _, _, _, mn = names
    z = SimpleProduct.of(mn)
    block = _choice_block(names, 1)
    for i in range(n):
        z, step = SimpleProduct.of(f"z{i}" if i else "z"), z
        block = ll.ll_limp(block, ll.ll_i(z), PlainImplication(step, z))
    block = ll.ll_wbang(block, PlainImplication(z, z))
    return _finish(block, names, 1)


def _ltensor_separated_case(names, n: int = 1) -> ll.LlProof:
    """One regrouping, then n - 1 weakenings."""
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
    for i in range(n - 1):
        u = SimpleProduct.of(f"u{i}")
        block = ll.ll_wbang(block, PlainImplication(u, u))
    return _finish(block, names, 1)


def _stacked_case(names, weakenings: int = 0) -> ll.LlProof:
    """Two nested choices, the outer one under ``weakenings`` weakenings, and
    their consumers; with weakenings, moving the outer choice copies the
    inner ones, which move after it."""
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
    for i in range(weakenings):
        u = SimpleProduct.of(f"u{i}")
        block = ll.ll_wbang(block, PlainImplication(u, u))
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


def separated_shapes(n: int) -> list[ll.LlProof]:
    """The five separated shapes, each with n rounds of its separating rule."""
    names = ("f", "g", "h", "m")
    return [build(names, n) for build in (
        _unary_separated_case, _rtensor_separated_case, _limp_separated_case, _ltensor_separated_case,
    )] + [_stacked_case(names, n)]


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


def loplus_distance_sum(proof: ll.LlProof) -> int:
    """Sum over left-choice nodes of their edge distance to their consumer.

    The measure the conversions drive down; adjacency contributes 1 per node.
    """
    return sum(
        ll.consumer_distance(node.principal.tag, trail)
        for node, trail in hll.walk(proof)
        if node.rule is ll.LlRule.LOPLUS and trail is not None
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


def pending_choices(k: int, weakenings: int = 0) -> ll.LlProof:
    """k choice blocks over distinct literals joined by right tensors, then
    ``weakenings`` bang weakenings, then each choice consumed below: k choices
    are pending at once in the tensors and weakenings above the consumers, so
    the translation fold draws 2**k translations of each of those nodes."""
    names = [tuple(f"{x}{tag}" for x in "fghm") for tag in range(1, k + 1)]
    proof = _choice_block(names[0], 1)
    for tag in range(2, k + 1):
        proof = ll.ll_rtensor(proof, _choice_block(names[tag - 1], tag))
    for _ in range(weakenings):
        proof = ll.ll_wbang(proof, PlainImplication(SimpleProduct.of("u"), SimpleProduct.of("u")))
    for tag in range(1, k + 1):
        proof = _finish(proof, names[tag - 1], tag)
    return proof


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


def ladder_text(rungs: int, seed: int, counters: int = 2) -> str:
    """A shuffled ladder: inc and dec of x1 and x2 from each rung to the next,
    then drain and test x1 at the top rung and x2 one label above it.
    Counters above 2 are declared but touched by nothing."""
    lines = [
        f"L{i}: {kind} x{m} goto L{i + 1}"
        for i in range(1, rungs)
        for kind in ("inc", "dec")
        for m in (1, 2)
    ]
    top, last = rungs, rungs + 1
    lines += [
        f"L{top}: dec x1 goto L{top}",
        f"L{top}: ifzero x1 goto L{last}",
        f"L{last}: dec x2 goto L{last}",
        f"L{last}: ifzero x2 goto L0",
    ]
    random.Random(seed).shuffle(lines)
    return f"counters {counters}\n" + "\n".join(lines) + "\n"


# --- The strong-solution verifier as it first read --------------------------------


def reference_verify_strong_solution(program: HornProgram, sequent: HornSequent) -> StrongSolutionReport:
    """``programs.verify_strong_solution`` before it skipped work: it evaluates
    the program afresh and walks every path of every sequent, counting every
    charged formula, linear or not.  The differential tests hold the library's
    verifier to the same violations in the same order."""
    violations: list[Violation] = []
    values = {program.root: sequent.input}
    for v in program.vertices:
        for child, label in program.children[v]:
            values[child] = None if values[v] is None else apply_implication(values[v], label)
    for leaf in program.leaves:
        value = values[leaf]
        if value is None:
            violations.append(Violation(LEAF_MISMATCH, vertex=leaf, detail="undefined"))
        elif value != sequent.goal:
            violations.append(Violation(LEAF_MISMATCH, vertex=leaf, detail=f"evaluates to {value}"))

    available = set(sequent.linear) | set(sequent.banged)
    for parent, child, _ in program.edges:
        used = program.charges[parent]
        if used not in available:
            violations.append(Violation(FOREIGN_FORMULA, edge=(parent, child), formula=used))

    linear_need: dict = {}
    for f in sequent.linear:
        linear_need[f] = linear_need.get(f, 0) + 1
    banged_set = set(sequent.banged)
    used_counts: dict = {}
    stack: list = [(program.root, None)]
    while stack:
        v, used = stack.pop()
        if v is None:
            used_counts[used] -= 1
            continue
        if used is not None:
            used_counts[used] = used_counts.get(used, 0) + 1
            stack.append((None, used))
        children = program.children[v]
        if not children:
            for f, need in linear_need.items():
                got = used_counts.get(f, 0)
                if got != need and not (f in banged_set and got > need):
                    violations.append(Violation(LINEAR_COUNT, vertex=v, formula=f, count=got))
        stack.extend((child, program.charges[v]) for child, _ in reversed(children))
    return StrongSolutionReport(not violations, tuple(violations))


# --- Random sequents for the prover ----------------------------------------------


def small_sequent(rng: random.Random) -> HornSequent:
    """At most 3 literals, 2 linear and 3 banged formulas: plain, choice,
    growing, shrinking, and cyclic pairs ``a -o b, b -o a``."""
    pool = "abc"[: rng.randint(1, 3)]

    def product(max_size: int = 2) -> SimpleProduct:
        return SimpleProduct.of(*rng.choices(pool, k=rng.randint(1, max_size)))

    def formulas() -> list:
        kind = rng.choice(("plain", "choice", "grow", "shrink", "cycle"))
        x, y = product(), product()
        if kind == "choice":
            return [OplusImplication(x, y, product())]
        if kind == "grow":
            return [PlainImplication(x, x.tensor(product(1)))]
        if kind == "shrink":
            return [PlainImplication(x.tensor(product(1)), x)]
        if kind == "cycle":
            return [PlainImplication(x, y), PlainImplication(y, x)]
        return [PlainImplication(x, y)]

    def zone(most: int) -> list:
        picked = []
        for _ in range(rng.randint(0, most)):
            picked += formulas()
        return picked[:most]

    return HornSequent(product(3), tuple(zone(2)), tuple(zone(3)), product(3))


def walked_sequent(rng: random.Random, both: bool) -> HornSequent:
    """Up to 4 literals; five banged formulas, plain or choice, with
    antecedents of 1 to 3 literals, and two spare plain ones.  The goal is
    where a random walk of plain steps ends, then at times a choice whose two
    sides close at one product, so most sequents have a witness.  The linear
    zone is the spare formulas the walk spent, at times with one it did not
    spend; with ``both`` its first formula is banged as well."""
    pool = "abcd"[: rng.randint(2, 4)]

    def product(most: int) -> SimpleProduct:
        return SimpleProduct.of(*rng.choices(pool, k=rng.randint(1, most)))

    def formula():
        x, y = product(3), product(2)
        return OplusImplication(x, y, product(2)) if rng.random() < 0.3 else PlainImplication(x, y)

    spare = [PlainImplication(product(2), product(2)) for _ in range(2)]
    banged = [formula() for _ in range(5)]
    start = now = product(4)
    linear = []
    for _ in range(rng.randint(0, 4)):
        plain = [f for f in spare + banged if isinstance(f, PlainImplication) and f not in linear]
        if not plain:  # the walk spent both spares and no banged formula is plain
            break
        f = rng.choice(plain)
        residual = match_antecedent(now, f.antecedent)
        if residual is not None:
            now = f.consequent.tensor(residual)
            linear += [f] if f in spare else []
    if rng.random() < 0.3:
        y1, y2, now2 = product(2), product(2), product(2)
        banged += [OplusImplication(now, y1, y2), PlainImplication(y1, now2), PlainImplication(y2, now2)]
        now = now2
    if rng.random() < 0.2:
        linear += [f for f in spare if f not in linear][:1]
    banged += linear[:1] * both
    return HornSequent(start, tuple(linear), tuple(banged), now)


# --- The witness search on products, as it first read ----------------------------


def reference_prove_bounded(sequent: HornSequent, max_depth: int) -> HornProgram | None:
    """``programs.prove_bounded`` before its states were plain entries: a
    state is (product, linear zone), and each edge's child is the edge's
    consequent tensored with the residual ``match_antecedent`` returns.
    Candidate order, filing, the size and linear bound, the memo's win and
    fail rules and the read-back are the library's; the self-check is left
    to the caller.  The differential tests hold the library's witness, or its
    absence, to this one's."""
    banged = tuple(dict.fromkeys(sequent.banged))
    goal = sequent.goal
    memo: dict[tuple, tuple] = {}

    def candidate(f: HornFormula, is_linear: bool) -> tuple:
        return f, is_linear, tuple((e, e.consequent.size - e.antecedent.size) for e in f.branches)

    ordered = sorted(
        [candidate(f, True) for f in dict.fromkeys(sequent.linear)]
        + [candidate(f, False) for f in banged],
        key=lambda item: (len(item[2]), item[0].text, not item[1]),
    )
    filed: dict[str, list[int]] = {}
    for i, (f, _, _) in enumerate(ordered):
        filed.setdefault(f.antecedent.entries[0][0], []).append(i)
    deltas = [delta for _, _, edges in ordered for _, delta in edges]
    shrink, grow = max([0] + [-d for d in deltas]), max([0] + deltas)

    def within(size: int, linear: tuple, budget: int) -> bool:
        return len(linear) <= budget and size - goal.size <= budget * shrink and goal.size - size <= budget * grow

    def win(state: tuple, height: int, moves: tuple) -> int:
        prior = memo.get(state)
        if prior is not None and prior[0] == "win" and prior[1] <= height:
            return prior[1]
        memo[state] = ("win", height, moves)
        return height

    def search(state: tuple, size: int, budget: int):
        product, linear = state
        known = memo.get(state)
        if known is not None:
            if known[0] == "win" and known[1] <= budget:
                return known[1]
            if known[0] == "fail" and budget <= known[1]:
                return None
        if not linear and product == goal:
            return win(state, 0, ())
        if budget >= 1:
            tried = sorted(i for name, _ in product.entries for i in filed.get(name, ()))
            for f, is_linear, edges in map(ordered.__getitem__, tried):
                if is_linear and f not in linear:
                    continue
                residual = match_antecedent(product, f.antecedent)
                if residual is None:
                    continue
                rest = multiset_minus(linear, f) if is_linear else linear
                top, moves = 0, []
                for edge, delta in edges:
                    if not within(size + delta, rest, budget - 1):
                        break
                    child = (edge.consequent.tensor(residual), rest)
                    height = yield child, size + delta, budget - 1
                    if height is None:
                        break
                    top = max(top, height)
                    moves.append((edge, child))
                else:
                    return win(state, top + 1, tuple(moves))
        prior = memo.get(state)
        if prior is None or (prior[0] == "fail" and prior[1] < budget):
            memo[state] = ("fail", budget)
        return None

    start = (sequent.input, sequent.linear)
    size = sequent.input.size
    stack = [search(start, size, max_depth)] if within(size, sequent.linear, max_depth) else []
    height = None
    while stack:
        try:
            stack.append(search(*stack[-1].send(height)))
            height = None
        except StopIteration as done:
            stack.pop()
            height = done.value
    if height is None:
        return None
    builder = ProgramBuilder()
    builder.unfold(0, start, lambda state: memo[state][2])
    return builder.build()

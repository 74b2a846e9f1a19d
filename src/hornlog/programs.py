"""Tree-like Horn programs and their strong-computation semantics.

A program is a rooted binary tree whose edges carry plain implications.  A
divergent vertex (two children) must label both edges with the same
antecedent; the pair jointly stands for the choice implication
``X -o (Y1 + Y2)`` and models a nondeterministic branch.

Running a program on an input product assigns each vertex the product
obtained by rewriting along its path; an edge whose antecedent is missing
makes the whole subtree undefined.  A program solves a sequent when every
leaf reaches the goal using only the sequent's formulas, with each linear
occurrence used exactly once on every root-to-leaf path.

Every program the library constructs is appended to one ``ProgramBuilder``
and validated once, by its ``build``, which keeps the child map it checks the
tree with: ``children`` maps every vertex to its (child, label) pairs, a leaf
to ``()``, and every traversal reads it.  ``vertices`` is the breadth-first
order ``build`` checks the tree in, parents before children, so ``evaluate``
and ``program_height`` walk it in build order with no traversal of their own.
``build`` also records what each
vertex's out-edges charge as one formula, the reading of a Horn program in
which a vertex's out-edges are one use of one formula: ``charges`` maps a
unary vertex to its lone label, a divergent vertex to the joint choice of its
pair, and a leaf to ``None``.  Every tree-shaped program (a prover
witness, a compiled proof, a grafted copy) is spelled out by ``unfold``, so
its vertices are numbered in preorder; the bridge appends its chains of
edges directly.  ``prove_bounded`` searches states of plain entries, a
product's ``(literal, count)`` tuple with the linear formulas left, and
matches each candidate's antecedent once for all the edges it draws.
"""

from __future__ import annotations

import json
from collections import Counter
from types import MappingProxyType
from typing import Iterable, Mapping

from .syntax import (
    FormatError,
    HornFormula,
    HornSequent,
    OplusImplication,
    PlainImplication,
    SimpleProduct,
    Value,
    apply_implication,
    lazy,
    member_parser,
    multiset_minus,
    of_kind,
    step_entries,
)

Edge = tuple[int, int]  # (parent, child)


class HornProgram(Value):
    __match_args__ = ("root", "vertices", "edges", "children", "charges")
    _hidden = ("children", "charges")
    root: int
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int, PlainImplication], ...]  # parent, child, label
    # Every vertex to its (child, label) pairs in edge order; () at a leaf.
    children: dict[int, tuple[tuple[int, PlainImplication], ...]]
    # Every vertex to the formula its out-edges charge; None at a leaf.
    charges: dict[int, HornFormula | None]
    _evaluated = None  # not a field: the last ``evaluate`` input and its values

    def __init__(self, root: int, vertices: tuple[int, ...], edges: tuple, children: dict, charges: dict):
        self.__dict__.update(root=root, vertices=vertices, edges=edges, children=children, charges=charges)

    @staticmethod
    def build(root: int, edges: Iterable[tuple[int, int, PlainImplication]]) -> "HornProgram":
        edges = tuple(edges)
        children: dict[int, list[tuple[int, PlainImplication]]] = {}
        seen_child: set[int] = set()
        for parent, child, label in edges:
            if not isinstance(label, PlainImplication):
                raise ValueError(f"edge ({parent},{child}) must carry a plain implication")
            if child == root or child in seen_child:
                raise ValueError(f"vertex {child} has two parents (not a tree)")
            seen_child.add(child)
            children.setdefault(parent, []).append((child, label))
        vertices = [root]
        tree: dict[int, tuple[tuple[int, PlainImplication], ...]] = {}
        charges: dict[int, HornFormula | None] = {}
        index = 0
        while index < len(vertices):
            v = vertices[index]
            index += 1
            out = tree[v] = tuple(children.get(v, ()))
            if len(out) > 2:
                raise ValueError(f"vertex {v} has {len(out)} children; at most 2 allowed")
            if len(out) == 2:
                (_, f1), (_, f2) = out
                if f1.antecedent != f2.antecedent:
                    raise ValueError(
                        f"divergent vertex {v} edges must share an antecedent "
                        f"({f1.text} vs {f2.text})"
                    )
                charges[v] = OplusImplication(f1.antecedent, f1.consequent, f2.consequent)
            else:
                charges[v] = out[0][1] if out else None
            vertices.extend(c for c, _ in out)
        if len(vertices) != len(seen_child) + 1:
            unreachable = seen_child - set(vertices)
            raise ValueError(f"vertices not reachable from the root: {sorted(unreachable)}")
        return HornProgram(root, tuple(vertices), edges, tree, charges)

    @lazy
    def leaves(self) -> tuple[int, ...]:
        return tuple(v for v in self.preorder() if not self.children[v])

    def preorder(self) -> list[int]:
        children, stack, order = self.children, [self.root], []
        while stack:
            v = stack.pop()
            order.append(v)
            for child, _ in reversed(children[v]):
                stack.append(child)
        return order


class ProgramBuilder:
    """An append-only program rooted at 0; ids are issued in insertion order."""

    def __init__(self):
        self.edges: list[tuple[int, int, PlainImplication]] = []

    def add_edge(self, parent: int, label: PlainImplication) -> int:
        """Append an edge below parent and return the new child."""
        child = len(self.edges) + 1
        self.edges.append((parent, child, label))
        return child

    def graft(self, at: int, program: HornProgram) -> list[int]:
        """Copy a built program under vertex at; return its leaves' copies."""
        children = program.children
        return self.unfold(at, program.root, lambda v: [(label, c) for c, label in children[v]])

    def unfold(self, at: int, key, moves) -> list[int]:
        """Append under vertex at the tree spelled out from key by ``moves``,
        which maps a key to its (label, child key) pairs; return the leaves.

        Each edge is added when popped from an explicit stack, so both the ids
        and the returned leaves follow preorder.
        """
        stack = [(at, label, child) for label, child in reversed(moves(key))]
        leaves = [] if stack else [at]
        while stack:
            parent, label, key = stack.pop()
            vertex = self.add_edge(parent, label)
            out = moves(key)
            if not out:
                leaves.append(vertex)
            stack.extend((vertex, f, child) for f, child in reversed(out))
        return leaves

    def build(self) -> HornProgram:
        return HornProgram.build(0, self.edges)


def evaluate(program: HornProgram, w: SimpleProduct) -> Mapping[int, SimpleProduct | None]:
    """Per-vertex strong-computation values from ``w`` at the root; None marks undefined.

    ``vertices`` lists parents before children, so one pass over it suffices.
    The program keeps its last input and values, read-only, for a call on an
    equal input: the verifier and the extractor evaluate a certificate once."""
    last = program._evaluated  # read once: another thread may replace it
    if last is not None and last[0] == w:
        return last[1]
    out: dict[int, SimpleProduct | None] = {program.root: w}
    children = program.children
    for v in program.vertices:
        value = out[v]
        for child, label in children[v]:
            out[child] = None if value is None else apply_implication(value, label)
    values = MappingProxyType(out)
    object.__setattr__(program, "_evaluated", (w, values))
    return values


# --- Strong-solution verification --------------------------------------------

LEAF_MISMATCH = "LEAF_MISMATCH"
FOREIGN_FORMULA = "FOREIGN_FORMULA"
LINEAR_COUNT = "LINEAR_COUNT"


class Violation(Value):
    __match_args__ = ("kind", "vertex", "edge", "formula", "count", "detail")
    kind: str
    vertex: int | None
    edge: Edge | None
    formula: HornFormula | None
    count: int | None
    detail: str

    def __init__(self, kind: str, vertex: int | None = None, edge: Edge | None = None,
                 formula: HornFormula | None = None, count: int | None = None, detail: str = ""):
        self.__dict__.update(kind=kind, vertex=vertex, edge=edge, formula=formula, count=count, detail=detail)

    def __str__(self) -> str:
        parts = [self.kind]
        if self.vertex is not None:
            parts.append(f"vertex={self.vertex}")
        if self.edge is not None:
            parts.append(f"edge={self.edge[0]}->{self.edge[1]}")
        if self.formula is not None:
            parts.append(f"formula={self.formula.text}")
        if self.count is not None:
            parts.append(f"count={self.count}")
        if self.detail:
            parts.append(self.detail)
        return " ".join(parts)


class StrongSolutionReport(Value):
    __match_args__ = ("ok", "violations")
    ok: bool
    violations: tuple[Violation, ...]

    def __init__(self, ok: bool, violations: tuple[Violation, ...] = ()):
        self.__dict__.update(ok=ok, violations=violations)

    def __str__(self) -> str:
        if self.ok:
            return "strong solution"
        return "; ".join(str(v) for v in self.violations)


def verify_strong_solution(program: HornProgram, sequent: HornSequent) -> StrongSolutionReport:
    """Check the three strong-solution conditions against a sequent.

    (1) every leaf value is defined and equals the goal; (2) every edge's
    charged formula is drawn from the sequent; (3) on each root-to-leaf path,
    every linear occurrence is charged exactly once (a divergent pair counts
    once, for whichever branch the path takes).  Formulas that also appear in
    the banged zone may be charged any number of additional times.  Only (3)
    walks the paths; it counts linear formulas only, and with none, no walk.
    """
    violations: list[Violation] = []
    values = evaluate(program, sequent.input)
    for leaf in program.leaves:
        value = values[leaf]
        if value is None:
            violations.append(Violation(LEAF_MISMATCH, vertex=leaf, detail="undefined"))
        elif value != sequent.goal:
            violations.append(
                Violation(LEAF_MISMATCH, vertex=leaf, detail=f"evaluates to {value}")
            )

    available = set(sequent.linear) | set(sequent.banged)
    for parent, child, _ in program.edges:
        used = program.charges[parent]
        if used not in available:
            violations.append(Violation(FOREIGN_FORMULA, edge=(parent, child), formula=used))

    linear_need = Counter(sequent.linear)
    banged_set = set(sequent.banged)

    # Depth-first with an explicit stack, so deep programs cannot exhaust the
    # recursion limit.  An entry (None, f) undoes the charge of f once the
    # subtree below its edge is done; no leaf reads a non-linear formula's count.
    used_counts = dict.fromkeys(linear_need, 0)
    stack: list[tuple[int | None, HornFormula | None]] = [(program.root, None)] if linear_need else []
    while stack:
        v, used = stack.pop()
        if v is None:
            used_counts[used] -= 1
            continue
        if used in used_counts:
            used_counts[used] += 1
            stack.append((None, used))
        children = program.children[v]
        if not children:
            for f, need in linear_need.items():
                got = used_counts[f]
                if got != need and not (f in banged_set and got > need):
                    violations.append(Violation(LINEAR_COUNT, vertex=v, formula=f, count=got))
        stack.extend((child, program.charges[v]) for child, _ in reversed(children))
    return StrongSolutionReport(not violations, tuple(violations))


# --- Composition ----------------------------------------------------------------


def compose(p1: HornProgram, p2: HornProgram) -> HornProgram:
    """Graft a fresh copy of p2 onto every leaf of p1."""
    builder = ProgramBuilder()
    for leaf in builder.graft(0, p1):
        builder.graft(leaf, p2)
    return builder.build()


def strong_fork(
    x: SimpleProduct,
    y1: SimpleProduct,
    y2: SimpleProduct,
    p1: HornProgram,
    p2: HornProgram,
) -> HornProgram:
    """A new root branching into p1 and p2 via ``x -o y1`` and ``x -o y2``."""
    builder = ProgramBuilder()
    for y, p in ((y1, p1), (y2, p2)):
        builder.graft(builder.add_edge(0, PlainImplication(x, y)), p)
    return builder.build()


def program_height(program: HornProgram) -> int:
    depth = {program.root: 0}
    best = 0
    for v in program.vertices:
        for child, _ in program.children[v]:
            depth[child] = depth[v] + 1
            best = max(best, depth[child])
    return best


# --- Bounded witness search -----------------------------------------------------

_WIN = "win"
_FAIL = "fail"


def prove_bounded(sequent: HornSequent, max_depth: int) -> HornProgram | None:
    """Exhaustive search for a strong-solution witness of height <= max_depth.

    States are (the product's entries, remaining linear multiset), tuples that
    hash and compare in C.  Plain rewrites are tried before choices, candidates
    ordered by printed form, linear formulas consumed and banged ones kept;
    ``step_entries`` matches a candidate's antecedent once against the state's
    counts, for every edge of its ``branches``, and the formula succeeds only
    if every edge does.  Depth 0 admits only the one-vertex program, when the
    input is the goal and the linear zone is empty.  Absence within the depth
    bound proves nothing.

    The search is branch and bound.  Every root-to-leaf path of a witness ends
    at the goal's size and spends each remaining linear occurrence once, and
    one edge ``X -o Y`` changes the size (literal occurrences) by
    ``|Y| - |X|``.  So a state with budget ``b`` is dropped unless it holds at
    most ``b`` linear occurrences and its size lies above the goal's by at
    most ``b`` times the largest shrink of any candidate edge, or below it by
    at most ``b`` times the largest growth.  The bound falls by at most one per edge, so a dropped state has no witness
    within its budget and neither has anything below it: every answer, every
    memoized win and hence the witness are those of the unpruned search.

    The memo keeps one winning move per state; the witness is read back from
    it and built once.
    """
    if max_depth < 0:
        raise ValueError("max_depth must be non-negative")
    goal = sequent.goal.entries

    # memo: state -> ("win", height, moves) | ("fail", budget tried), where
    # moves is a tuple of (edge label, child state): empty at a leaf, one pair
    # for a plain step, two for a fork.
    memo: dict[tuple, tuple] = {}

    # Candidates with their edges and each edge's size change, plain (one
    # edge) before choice (two), then in text order, a linear occurrence
    # before a banged copy of the same formula; a state tries a linear one
    # only while it holds it.
    def candidate(f: HornFormula, is_linear: bool) -> tuple:
        return f, is_linear, f.branches, tuple(e.consequent.size - e.antecedent.size for e in f.branches)

    ordered = sorted(
        [candidate(f, True) for f in dict.fromkeys(sequent.linear)]
        + [candidate(f, False) for f in dict.fromkeys(sequent.banged)],
        key=lambda item: (len(item[2]), item[0].text, not item[1]),
    )
    # A product matches an antecedent only if it holds the antecedent's first
    # literal, so each candidate is filed once under that literal and a state
    # tries those filed under its own literals, in their order above.
    filed: dict[str, list[int]] = {}
    for i, (f, *_) in enumerate(ordered):
        filed.setdefault(f.antecedent.entries[0][0], []).append(i)
    deltas = [delta for *_, sizes in ordered for delta in sizes]
    # At 0, not below: a state already at the goal's size may be a leaf even
    # when every edge grows (or every edge shrinks).
    shrink, grow = max([0] + [-d for d in deltas]), max([0] + deltas)
    goal_size = sequent.goal.size

    def within(size: int, linear: tuple, budget: int) -> bool:
        """Whether a state could still reach a leaf within budget edges."""
        return (
            len(linear) <= budget
            and size - goal_size <= budget * shrink
            and goal_size - size <= budget * grow
        )

    def win(state: tuple, height: int, moves: tuple) -> int:
        # A win never replaces a lower-or-equal one.  A state can recur on its
        # own search path (a -o b, b -o a); overwriting its lower win with the
        # higher one found around the cycle would make the moves loop.  With
        # this rule heights fall strictly along moves, so the read-back ends.
        prior = memo.get(state)
        if prior is not None and prior[0] == _WIN and prior[1] <= height:
            return prior[1]
        memo[state] = (_WIN, height, moves)
        return height

    def search(state: tuple, size: int, budget: int):
        """Yield (child, size, budget) requests, each answered with that
        child's win height or None; return the state's win height within
        budget, or None.  A child that cannot win within the budget left is
        not requested: its edge fails at once, the first before any match."""
        entries, linear = state
        known = memo.get(state)
        if known is not None:
            if known[0] == _WIN and known[1] <= budget:
                return known[1]
            if known[0] == _FAIL and budget <= known[1]:
                return None
        if not linear and entries == goal:
            return win(state, 0, ())
        if budget >= 1:
            counts = dict(entries)
            tried = sorted(i for name in counts for i in filed.get(name, ()))
            for f, is_linear, edges, sizes in map(ordered.__getitem__, tried):
                if is_linear and f not in linear:
                    continue
                rest = multiset_minus(linear, f) if is_linear else linear
                children = within(size + sizes[0], rest, budget - 1) and step_entries(counts, edges)
                if not children:
                    continue
                top, moves = 0, []  # the highest child win; a move per edge
                for edge, delta, child_entries in zip(edges, sizes, children):
                    if not within(size + delta, rest, budget - 1):
                        break
                    child = (child_entries, rest)
                    height = yield child, size + delta, budget - 1
                    if height is None:
                        break
                    top = max(top, height)
                    moves.append((edge, child))
                else:
                    return win(state, top + 1, tuple(moves))
        prior = memo.get(state)
        if prior is None or (prior[0] == _FAIL and prior[1] < budget):
            memo[state] = (_FAIL, budget)
        return None

    # An explicit stack of searches, so depth never meets the recursion limit.
    start = (sequent.input.entries, sequent.linear)
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
    witness = builder.build()
    report = verify_strong_solution(witness, sequent)
    if not report.ok:  # a fault of the prover, never of its input
        raise AssertionError(f"prover returned a bad witness: {report}")
    return witness


# --- Serialization ---------------------------------------------------------------


def program_to_json(program: HornProgram) -> str:
    """The program as ``json.dumps(..., indent=2)`` lays out its root, vertex
    list and edge objects, byte for byte; ``json.dumps`` with an indent runs
    the pure-Python encoder, so only each label goes through it."""
    vertices = ",\n    ".join(map(str, program.vertices))
    edges = ",\n    ".join(
        f'{{\n      "parent": {parent},\n      "child": {child},\n      "label": {json.dumps(label.text)}\n    }}'
        for parent, child, label in program.edges
    )
    edges = f"[\n    {edges}\n  ]" if edges else "[]"
    return f'{{\n  "root": {program.root},\n  "vertices": [\n    {vertices}\n  ],\n  "edges": {edges}\n}}\n'


def json_integer(digits: str) -> int | float:
    """``parse_int`` for both JSON readers: an integer too long for ``int`` reads
    as an infinite float, which no field takes, so the reader names the field."""
    try:
        return int(digits)
    except ValueError:
        return float(digits)


def json_document(text: str):
    """JSON for both readers, read by the C scanner alone unless an integer too
    long for ``int`` (or a syntax error, raised again) stops it."""
    try:
        return json.loads(text)
    except ValueError:
        return json.loads(text, parse_int=json_integer)


def _json_id(value, where: str) -> int:
    if type(value) is not int:
        raise FormatError(f"{where} must be an integer vertex id, got {value!r}")
    return value


def program_from_json(text: str) -> HornProgram:
    try:
        data = json_document(text)
    except RecursionError:  # a program nests three levels deep at most
        raise FormatError("a program is a flat JSON object, not a nested document") from None
    if not isinstance(data, dict) or not isinstance(data.get("edges"), list):
        raise FormatError("a program is a JSON object with an edge list")
    vertices = data.get("vertices", [])
    if not isinstance(vertices, list):
        raise FormatError("the vertex list must be a JSON list")
    edges, parse = [], member_parser()  # the labels share what they parse
    for i, e in enumerate(data["edges"]):
        if not isinstance(e, dict) or not isinstance(e.get("label"), str):
            raise FormatError(f"an edge is a JSON object with a string label: {e!r}")
        ends = (_json_id(e.get(end), f"edge {i}'s {end}") for end in ("parent", "child"))
        edges.append((*ends, of_kind(parse(e["label"]), HornFormula)))
    program = HornProgram.build(_json_id(data.get("root"), "root"), edges)
    declared = sorted(_json_id(v, f"vertex {i}") for i, v in enumerate(vertices))
    if "vertices" in data and declared != sorted(program.vertices):  # only an omitted list goes unchecked
        raise FormatError("vertex list does not match the edge list")
    return program


def program_to_dot(program: HornProgram) -> str:
    lines = ["digraph horn_program {"]
    for v in program.vertices:
        shape = "doublecircle" if v == program.root else "circle"
        lines.append(f'  v{v} [label="{v}", shape={shape}];')
    for parent, child, label in program.edges:
        lines.append(f'  v{parent} -> v{child} [label="{label.text}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"

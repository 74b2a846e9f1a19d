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
to ``()``, and every traversal reads it.  Every tree-shaped program (a prover
witness, a compiled proof, a grafted copy) is spelled out by ``unfold``, so
its vertices are numbered in preorder; the bridge appends its chains of
edges directly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator

from .syntax import (
    FormatError,
    HornFormula,
    HornSequent,
    OplusImplication,
    PlainImplication,
    SimpleProduct,
    apply_implication,
    match_antecedent,
    multiset_minus,
    parse_formula,
)

Edge = tuple[int, int]  # (parent, child)


@dataclass(frozen=True)
class HornProgram:
    root: int
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int, PlainImplication], ...]  # parent, child, label
    # Every vertex to its (child, label) pairs in edge order; () at a leaf.
    children: dict[int, tuple[tuple[int, PlainImplication], ...]] = field(compare=False, repr=False)

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
        index = 0
        while index < len(vertices):
            v = vertices[index]
            index += 1
            out = tree[v] = tuple(children.get(v, ()))
            if len(out) > 2:
                raise ValueError(f"vertex {v} has {len(out)} children; at most 2 allowed")
            if len(out) == 2:
                (c1, f1), (c2, f2) = out
                if f1.antecedent != f2.antecedent:
                    raise ValueError(
                        f"divergent vertex {v} edges must share an antecedent "
                        f"({f1.text} vs {f2.text})"
                    )
            vertices.extend(c for c, _ in out)
        if len(vertices) != len(seen_child) + 1:
            unreachable = seen_child - set(vertices)
            raise ValueError(f"vertices not reachable from the root: {sorted(unreachable)}")
        return HornProgram(root, tuple(vertices), edges, tree)

    @cached_property
    def leaves(self) -> tuple[int, ...]:
        return tuple(v for v in self.preorder() if not self.children[v])

    def preorder(self) -> Iterator[int]:
        stack = [self.root]
        while stack:
            v = stack.pop()
            yield v
            stack.extend(child for child, _ in reversed(self.children[v]))

    def used_formula(self, parent: int, child: int) -> HornFormula:
        """The formula charged for an edge: the label itself, or the joint
        choice implication on both edges of a divergent vertex."""
        out = self.children[parent]
        for c, label in out:
            if c == child:
                break
        else:
            raise KeyError(f"no edge ({parent}, {child})")
        if len(out) == 2:
            (_, f1), (_, f2) = out
            return OplusImplication(f1.antecedent, f1.consequent, f2.consequent)
        return label


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


def chain(formulas: Iterable[PlainImplication]) -> HornProgram:
    builder = ProgramBuilder()
    at = 0
    for f in formulas:
        at = builder.add_edge(at, f)
    return builder.build()


def evaluate(program: HornProgram, w: SimpleProduct) -> dict[int, SimpleProduct | None]:
    """Per-vertex strong-computation values from ``w`` at the root; None marks undefined."""
    out: dict[int, SimpleProduct | None] = {program.root: w}
    for v in program.preorder():
        value = out[v]
        for child, label in program.children[v]:
            out[child] = None if value is None else apply_implication(value, label)
    return out


# --- Strong-solution verification --------------------------------------------

LEAF_MISMATCH = "LEAF_MISMATCH"
FOREIGN_FORMULA = "FOREIGN_FORMULA"
LINEAR_COUNT = "LINEAR_COUNT"


@dataclass(frozen=True)
class Violation:
    kind: str
    vertex: int | None = None
    edge: Edge | None = None
    formula: HornFormula | None = None
    count: int | None = None
    detail: str = ""

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


@dataclass(frozen=True)
class StrongSolutionReport:
    ok: bool
    violations: tuple[Violation, ...] = ()

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
    the banged zone may be charged any number of additional times.
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
        used = program.used_formula(parent, child)
        if used not in available:
            violations.append(Violation(FOREIGN_FORMULA, edge=(parent, child), formula=used))

    linear_need: dict[HornFormula, int] = {}
    for f in sequent.linear:
        linear_need[f] = linear_need.get(f, 0) + 1
    banged_set = set(sequent.banged)

    # Depth-first with an explicit stack, so deep programs cannot exhaust the
    # recursion limit.  An entry (None, f) undoes the charge of f once the
    # subtree below its edge is done.
    used_counts: dict[HornFormula, int] = {}
    stack: list[tuple[int | None, HornFormula | None]] = [(program.root, None)]
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
        stack.extend((child, program.used_formula(v, child)) for child, _ in reversed(children))
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
    for v in program.preorder():
        for child, _ in program.children[v]:
            depth[child] = depth[v] + 1
            best = max(best, depth[child])
    return best


# --- Bounded witness search -----------------------------------------------------

_WIN = "win"
_FAIL = "fail"


def prove_bounded(sequent: HornSequent, max_depth: int) -> HornProgram | None:
    """Exhaustive search for a strong-solution witness of height <= max_depth.

    States are (current product, remaining linear multiset); plain rewrites are
    tried before choice branches, candidates ordered by printed form, linear
    formulas consumed and banged ones kept.  A choice formula succeeds only if
    both branches do.  Absence within the depth bound proves nothing.

    The memo keeps one winning move per state; the witness is read back from
    it and built once.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be positive")
    banged = tuple(dict.fromkeys(sequent.banged))  # canonical order, deduplicated
    goal = sequent.goal

    # memo: state -> ("win", height, moves) | ("fail", budget tried), where
    # moves is a tuple of (edge label, child state): empty at a leaf, one pair
    # for a plain step, two for a fork.
    memo: dict[tuple, tuple] = {}

    # Candidates in text order, a linear occurrence before a banged copy of
    # the same formula; a state tries a linear one only while it holds it.
    ordered = sorted(
        [(f, True) for f in dict.fromkeys(sequent.linear)] + [(f, False) for f in banged],
        key=lambda item: (item[0].text, not item[1]),
    )
    plain_order = [item for item in ordered if isinstance(item[0], PlainImplication)]
    fork_order = [item for item in ordered if not isinstance(item[0], PlainImplication)]

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

    def search(state: tuple, budget: int):
        """Yield (child, budget) requests, each answered with that child's win
        height or None; return the state's win height within budget, or None."""
        product, linear = state
        known = memo.get(state)
        if known is not None:
            if known[0] == _WIN and known[1] <= budget:
                return known[1]
            if known[0] == _FAIL and budget <= known[1]:
                return None
        if not linear and product == goal:
            return win(state, 0, ())
        if budget >= 1:
            for f, is_linear in plain_order:
                if is_linear and f not in linear:
                    continue
                nxt = apply_implication(product, f)
                if nxt is None:
                    continue
                child = (nxt, multiset_minus(linear, f) if is_linear else linear)
                height = yield child, budget - 1
                if height is not None:
                    return win(state, height + 1, ((f, child),))
            for f, is_linear in fork_order:
                if is_linear and f not in linear:
                    continue
                residual = match_antecedent(product, f.antecedent)
                if residual is None:
                    continue
                rest = multiset_minus(linear, f) if is_linear else linear
                won = []  # (height, move), left before right
                for edge in f.branches:
                    child = (edge.consequent.tensor(residual), rest)
                    height = yield child, budget - 1
                    if height is None:
                        break
                    won.append((height, (edge, child)))
                else:
                    return win(state, max(h for h, _ in won) + 1, tuple(m for _, m in won))
        prior = memo.get(state)
        if prior is None or (prior[0] == _FAIL and prior[1] < budget):
            memo[state] = (_FAIL, budget)
        return None

    # An explicit stack of searches, so depth never meets the recursion limit.
    start = (sequent.input, sequent.linear)
    stack = [search(start, max_depth)]
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
    assert report.ok, f"prover returned a bad witness: {report}"
    return witness


# --- Serialization ---------------------------------------------------------------


def program_to_json(program: HornProgram) -> str:
    data = {
        "root": program.root,
        "vertices": list(program.vertices),
        "edges": [
            {"parent": parent, "child": child, "label": label.text}
            for parent, child, label in program.edges
        ],
    }
    return json.dumps(data, indent=2) + "\n"


def _json_id(value) -> int:
    if type(value) is not int:
        raise FormatError(f"root, parent and child must be integer vertex ids, got {value!r}")
    return value


def program_from_json(text: str) -> HornProgram:
    data = json.loads(text)
    if not isinstance(data, dict) or not isinstance(data.get("edges"), list):
        raise FormatError("a program is a JSON object with an edge list")
    vertices = data.get("vertices", [])
    if not isinstance(vertices, list):
        raise FormatError("the vertex list must be a JSON list")
    edges = []
    for e in data["edges"]:
        if not isinstance(e, dict) or not isinstance(e.get("label"), str):
            raise FormatError(f"an edge is a JSON object with a string label: {e!r}")
        label = parse_formula(e["label"])
        if not isinstance(label, PlainImplication):
            raise ValueError(f"edge label must be a plain implication: {e['label']}")
        edges.append((_json_id(e.get("parent")), _json_id(e.get("child")), label))
    program = HornProgram.build(_json_id(data.get("root")), edges)
    declared = sorted(_json_id(v) for v in vertices)
    if declared and declared != sorted(program.vertices):
        raise ValueError("vertex list does not match the edge list")
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

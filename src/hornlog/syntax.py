"""Canonical syntax for the Horn fragment; every layer reads canonical form here.

A :class:`Frame` is a literal multiset stored as ``(literal, count)`` pairs
sorted by literal, so two frames denote the same multiset exactly when they
compare equal; tensor reassociation and reordering never matter.  A frame may
be empty (the residual of an antecedent match); a :class:`SimpleProduct` is
the frame that must be non-empty.  Constructions from outside validate once;
``tensor``, ``match_antecedent`` and ``tensor_all`` merge entries that are
already canonical and skip validation, as ``HornSequent.of_canonical`` does
for zones already in canonical order.

Implications come in two shapes, ``X -o Y`` and ``X -o (Y1 + Y2)``.  A choice
implication states its own fork edges, ``X -o Y1`` and ``X -o Y2``, as its
``branches``: the prover, the compiler and the machine encoding all split it
there.  A sequent bundles an input product, a linear zone, a reusable
(banged) zone and a goal product.  The flat calculus adds two members of its
own: ``LlBang``, a banged implication, and ``LlOplusProduct``, a pending
choice ``(Y1 + Y2)`` with its occurrence tag.  Products, formulas and members compute their
printed ``text`` once; it is the only order, for the two sides of a choice
and for the members of a zone.  The module also owns the grammar::

    literal   = [A-Za-z][A-Za-z0-9_]*
    product   = lit * lit * ...
    operand   = <product> | (<product>)
    rhs       = <product> | (<product>) | (<product> + <product>)
    member    = operand [-o rhs] | !(operand [-o rhs]) | (<product> + <product>)#tag
    sequent   = <product> ; <formulas> ; <formulas> |- <product>

``parse_member`` reads any member; a formula is a member ``operand -o rhs``,
and ``parse_formula`` and the sequent's formula lists read a member and
check its kind.  Formula lists are comma separated and may be empty;
whitespace is insignificant.  Printing emits the canonical form, and
parse/print round-trip bit-exactly on canonical text.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple

LITERAL_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

Entries = tuple[tuple[str, int], ...]


class FormatError(ValueError):
    """A product, formula or sequent text, or a program's JSON, failed to parse."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)


def check_literal(name: str) -> str:
    if not LITERAL_RE.match(name):
        raise ValueError(f"invalid literal name: {name!r}")
    return name


class Printed:
    """A value printed as its canonical ``text``, which it computes once."""

    def __str__(self) -> str:
        return self.text


@dataclass(frozen=True, eq=False)
class Frame(Printed):
    """A literal multiset, possibly empty: the residual of an antecedent match.

    Equality is multiset equality, whether either side is a plain frame or a
    :class:`SimpleProduct`.
    """

    entries: Entries = ()

    def __post_init__(self):
        counts = dict(self.entries)
        for name, count in counts.items():
            check_literal(name)
            if count < 1:
                raise ValueError(f"literal {name!r} has non-positive count {count}")
        if self.entries != tuple(sorted(counts.items())):
            raise ValueError(f"entries not canonical: {self.entries!r}")

    @classmethod
    def _trusted(cls, entries: Entries):
        """Wrap entries already in canonical form, skipping validation."""
        frame = object.__new__(cls)
        object.__setattr__(frame, "entries", entries)
        return frame

    @classmethod
    def of(cls, *names: str):
        return cls(tuple(sorted(Counter(names).items())))

    def __eq__(self, other) -> bool:
        return self.entries == other.entries if isinstance(other, Frame) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.entries)

    @property
    def is_empty(self) -> bool:
        return not self.entries

    @property
    def size(self) -> int:
        return sum(count for _, count in self.entries)

    def literals(self) -> Iterator[str]:
        for name, count in self.entries:
            for _ in range(count):
                yield name

    @cached_property
    def text(self) -> str:
        return "*".join(self.literals())

    def __str__(self) -> str:
        return self.text if self.entries else "<empty>"


class SimpleProduct(Frame):
    """A non-empty literal multiset: the products formulas and sequents hold."""

    def __post_init__(self):
        if not self.entries:
            raise ValueError("a simple product must contain at least one literal")
        super().__post_init__()

    def tensor(self, other: Frame) -> "SimpleProduct":
        return SimpleProduct._trusted(_sum_entries(self.entries, other.entries))


def _sum_entries(*parts: Entries) -> Entries:
    """The entries of the tensor of canonical entry tuples."""
    counts: dict[str, int] = {}
    for entries in parts:
        for name, count in entries:
            counts[name] = counts.get(name, 0) + count
    return tuple(sorted(counts.items()))


class Choice(Printed):
    """A frozen choice, its two sides stored in text order (choice commutes)."""

    def __post_init__(self):
        if self.right.text < self.left.text:
            left, right = self.right, self.left
            object.__setattr__(self, "left", left)
            object.__setattr__(self, "right", right)


def canonical_zone(members: Iterable) -> tuple:
    """A zone or flat context in canonical order: sorted by printed text."""
    return tuple(sorted(members, key=attrgetter("text")))


@dataclass(frozen=True)
class PlainImplication(Printed):
    antecedent: SimpleProduct
    consequent: SimpleProduct

    @cached_property
    def text(self) -> str:
        return f"{_operand_text(self.antecedent)} -o {_operand_text(self.consequent)}"


@dataclass(frozen=True)
class OplusImplication(Choice):
    """``X -o (Y1 + Y2)``; the two consequents are stored in text order."""

    antecedent: SimpleProduct
    left: SimpleProduct
    right: SimpleProduct

    @cached_property
    def text(self) -> str:
        return f"{_operand_text(self.antecedent)} -o ({self.left.text} + {self.right.text})"

    @cached_property
    def branches(self) -> tuple[PlainImplication, PlainImplication]:
        """The fork edges ``X -o Y1`` and ``X -o Y2``, in side order."""
        return PlainImplication(self.antecedent, self.left), PlainImplication(self.antecedent, self.right)


HornFormula = PlainImplication | OplusImplication


@dataclass(frozen=True)
class LlBang(Printed):
    # Payload is normally an implication; a banged product is representable
    # so the checker can reject it against the side condition.
    formula: HornFormula | SimpleProduct

    @cached_property
    def text(self) -> str:
        return f"!({self.formula.text})"


@dataclass(frozen=True)
class LlOplusProduct(Choice):
    """A pending choice ``(Y1 + Y2)`` with its occurrence tag."""

    left: SimpleProduct
    right: SimpleProduct
    tag: int

    @cached_property
    def text(self) -> str:
        return f"({self.left.text} + {self.right.text})#{self.tag}"


Member = SimpleProduct | HornFormula | LlBang | LlOplusProduct


@dataclass(frozen=True)
class HornSequent:
    """``W ; Gamma ; Delta |- Z``: input product, linear zone, banged zone, goal.

    Zones are multisets; they are stored in canonical order so sequent
    equality is zone-multiset equality.
    """

    input: SimpleProduct
    linear: tuple[HornFormula, ...]
    banged: tuple[HornFormula, ...]
    goal: SimpleProduct

    def __post_init__(self):
        object.__setattr__(self, "linear", canonical_zone(self.linear))
        object.__setattr__(self, "banged", canonical_zone(self.banged))

    @classmethod
    def of_canonical(cls, input, linear, banged, goal):
        """Wrap zones already in canonical order, skipping the sort."""
        sequent = object.__new__(cls)
        sequent.__dict__.update(input=input, linear=linear, banged=banged, goal=goal)
        return sequent

    def __str__(self) -> str:
        return sequent_text(self)


# --- Multiset operations ---------------------------------------------------


def multiset_minus(items: tuple, *members) -> tuple | None:
    """The tuple without one occurrence of each member, or None if one is absent."""
    for member in members:
        try:
            index = items.index(member)
        except ValueError:
            return None
        items = items[:index] + items[index + 1:]
    return items


def match_antecedent(x: SimpleProduct, antecedent: SimpleProduct) -> Frame | None:
    """The residual V with ``x = antecedent (x) V``, or None if no match.

    The residual may be empty (exact match); absence is a value, not an error.
    """
    counts = dict(x.entries)
    for name, need in antecedent.entries:
        counts[name] = counts.get(name, 0) - need
        if counts[name] < 0:
            return None
    # Only x's names remain, still in x's sorted order.
    return Frame._trusted(tuple((name, count) for name, count in counts.items() if count))


def apply_implication(x: SimpleProduct, f: PlainImplication) -> SimpleProduct | None:
    """Rewrite ``x = X (x) V`` to ``Y (x) V`` for f = ``X -o Y``; None if X absent."""
    if not isinstance(f, PlainImplication):
        raise TypeError(f"apply_implication needs a plain implication, got {f!r}")
    residual = match_antecedent(x, f.antecedent)
    if residual is None:
        return None
    return f.consequent.tensor(residual)


def tensor_all(products: Iterable[SimpleProduct]) -> SimpleProduct:
    entries = _sum_entries(*(p.entries for p in products))
    if not entries:
        raise ValueError("tensor_all needs at least one product")
    return SimpleProduct._trusted(entries)


# --- Printing ---------------------------------------------------------------


def _operand_text(p: SimpleProduct) -> str:
    return f"({p.text})" if p.size >= 2 else p.text


def sequent_text(s: HornSequent) -> str:
    gamma = ", ".join(f.text for f in s.linear)
    delta = ", ".join(f.text for f in s.banged)
    left = s.input.text + " ;"
    if gamma:
        left += " " + gamma
    left += " ;"
    if delta:
        left += " " + delta
    return f"{left} |- {s.goal.text}"


# --- Parsing ----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<ident>[A-Za-z][A-Za-z0-9_]*)|(?P<num>\d+)"
    r"|(?P<op>-o|\|-|[*(),;+!#]))"
)


class Token(NamedTuple):
    kind: str  # "ident" | "num" | "op" | "end"
    text: str
    position: int


def tokenize(text: str) -> list[Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise FormatError(f"unexpected character {text[pos:].strip()[0]!r}", pos)
            break
        kind = m.lastgroup
        tokens.append(Token(kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(Token("end", "", len(text)))
    return tokens


class TokenStream:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.index = 0

    def peek(self) -> Token:
        return self.tokens[self.index]

    def next(self) -> Token:
        tok = self.tokens[self.index]
        if tok.kind != "end":
            self.index += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise FormatError(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok.position)
        return tok

    def done(self):
        tok = self.peek()
        if tok.kind != "end":
            raise FormatError(f"trailing input {tok.text!r}", tok.position)


def _parse_bare_product(ts: TokenStream) -> SimpleProduct:
    names = []
    tok = ts.next()
    if tok.kind != "ident":
        raise FormatError(f"expected a literal, found {tok.text or 'end of input'!r}", tok.position)
    names.append(tok.text)
    while ts.peek().text == "*":
        ts.next()
        tok = ts.next()
        if tok.kind != "ident":
            raise FormatError(f"expected a literal after '*', found {tok.text or 'end of input'!r}", tok.position)
        names.append(tok.text)
    return SimpleProduct.of(*names)


def _parse_group(ts: TokenStream, choice: bool = True) -> tuple[SimpleProduct, SimpleProduct | None]:
    """A product, bare or parenthesised, or with ``choice`` a ``(Y1 + Y2)``."""
    if ts.peek().text != "(":
        return _parse_bare_product(ts), None
    ts.next()
    first, second = _parse_bare_product(ts), None
    if choice and ts.peek().text == "+":
        ts.next()
        second = _parse_bare_product(ts)
    ts.expect(")")
    return first, second


def _parse_member(ts: TokenStream) -> Member:
    """An optional ``!(``, then an operand and an optional ``-o`` rest;
    outside a bang the operand may instead be a tagged choice."""
    banged = ts.peek().text == "!"
    if banged:
        ts.next()
        ts.expect("(")
    first, second = _parse_group(ts, choice=not banged)
    if second is not None:
        ts.expect("#")
        num = ts.next()
        if num.kind != "num":
            raise FormatError("expected a tag number after '#'", num.position)
        return LlOplusProduct(first, second, int(num.text))
    member = first
    if ts.peek().text == "-o":
        ts.next()
        y, other = _parse_group(ts)
        member = PlainImplication(first, y) if other is None else OplusImplication(first, y, other)
    if banged:
        ts.expect(")")
        member = LlBang(member)
    return member


_KIND_NAMES = {SimpleProduct: "a product", HornFormula: "an implication"}


def of_kind(member: Member, kind, position: int | None = None) -> Member:
    """The member if it is of ``kind``; FormatError naming the kind otherwise."""
    if not isinstance(member, kind):
        raise FormatError(f"expected {_KIND_NAMES[kind]}, found {member.text!r}", position)
    return member


def _parse_formula_list(ts: TokenStream, stop: set[str]) -> list[HornFormula]:
    formulas: list[HornFormula] = []
    if ts.peek().text in stop:
        return formulas
    while True:
        position = ts.peek().position
        formulas.append(of_kind(_parse_member(ts), HornFormula, position))
        if ts.peek().text != ",":
            return formulas
        ts.next()


def parse_product(text: str) -> SimpleProduct:
    ts = TokenStream(text)
    p = _parse_bare_product(ts)
    ts.done()
    return p


def parse_member(text: str) -> Member:
    ts = TokenStream(text)
    member = _parse_member(ts)
    ts.done()
    return member


def parse_formula(text: str) -> HornFormula:
    return of_kind(parse_member(text), HornFormula)


def parse_sequent(text: str) -> HornSequent:
    ts = TokenStream(text)
    input_product = _parse_bare_product(ts)
    ts.expect(";")
    linear = _parse_formula_list(ts, stop={";"})
    ts.expect(";")
    banged = _parse_formula_list(ts, stop={"|-"})
    ts.expect("|-")
    goal = _parse_bare_product(ts)
    ts.done()
    return HornSequent(input_product, tuple(linear), tuple(banged), goal)

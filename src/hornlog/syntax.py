"""Canonical syntax for the Horn fragment.

A simple product is a non-empty multiset of positive literals.  Products are
stored as sorted ``(literal, count)`` tuples, so two products denote the same
multiset exactly when they compare equal; tensor reassociation and reordering
never matter.  A :class:`Frame` is the possibly-empty variant used for
residuals left over after matching an antecedent.

Implications come in two shapes, ``X -o Y`` and ``X -o (Y1 + Y2)``, and a
sequent bundles an input product, a linear zone, a reusable (banged) zone and
a goal product.  The module also owns the text grammar::

    literal   = [A-Za-z][A-Za-z0-9_]*
    product   = lit * lit * ...
    plain     = <product> -o <product>
    choice    = <product> -o (<product> + <product>)
    sequent   = <product> ; <formulas> ; <formulas> |- <product>

Formula lists are comma separated and may be empty; whitespace is
insignificant.  Printing emits the canonical form, and parse/print round-trip
bit-exactly on canonical text.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Union

LITERAL_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


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


def _canonical_entries(counts: Counter[str]) -> tuple[tuple[str, int], ...]:
    for name, count in counts.items():
        check_literal(name)
        if count < 1:
            raise ValueError(f"literal {name!r} has non-positive count {count}")
    return tuple(sorted(counts.items()))


@dataclass(frozen=True)
class SimpleProduct:
    """A non-empty multiset of literals, canonically sorted."""

    entries: tuple[tuple[str, int], ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("a simple product must contain at least one literal")
        if self.entries != _canonical_entries(Counter(dict(self.entries))):
            raise ValueError(f"entries not canonical: {self.entries!r}")

    @staticmethod
    def of(*names: str) -> "SimpleProduct":
        return SimpleProduct(_canonical_entries(Counter(names)))

    @staticmethod
    def from_counter(counts: Counter[str]) -> "SimpleProduct":
        return SimpleProduct(_canonical_entries(counts))

    def counter(self) -> Counter[str]:
        return Counter(dict(self.entries))

    @property
    def size(self) -> int:
        return sum(count for _, count in self.entries)

    def count(self, name: str) -> int:
        return dict(self.entries).get(name, 0)

    def literals(self) -> Iterator[str]:
        for name, count in self.entries:
            for _ in range(count):
                yield name

    def tensor(self, other: Union["SimpleProduct", "Frame"]) -> "SimpleProduct":
        return SimpleProduct.from_counter(self.counter() + other.counter())

    def __str__(self) -> str:
        return product_text(self)


@dataclass(frozen=True)
class Frame:
    """A possibly-empty literal multiset: the residual of an antecedent match."""

    entries: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        if self.entries != _canonical_entries(Counter(dict(self.entries))):
            raise ValueError(f"entries not canonical: {self.entries!r}")

    @staticmethod
    def of(*names: str) -> "Frame":
        return Frame(_canonical_entries(Counter(names)))

    @staticmethod
    def from_counter(counts: Counter[str]) -> "Frame":
        return Frame(_canonical_entries(+counts))

    def counter(self) -> Counter[str]:
        return Counter(dict(self.entries))

    @property
    def is_empty(self) -> bool:
        return not self.entries

    @property
    def size(self) -> int:
        return sum(count for _, count in self.entries)

    def to_product(self) -> SimpleProduct:
        """Lossless conversion; requires at least one entry."""
        return SimpleProduct(self.entries)

    def __str__(self) -> str:
        return product_text(self) if self.entries else "<empty>"


@dataclass(frozen=True)
class PlainImplication:
    antecedent: SimpleProduct
    consequent: SimpleProduct

    def __str__(self) -> str:
        return formula_text(self)


@dataclass(frozen=True)
class OplusImplication:
    """``X -o (Y1 + Y2)``; the two consequents are stored sorted since the
    choice connective is commutative."""

    antecedent: SimpleProduct
    left: SimpleProduct
    right: SimpleProduct

    def __post_init__(self):
        if product_text(self.right) < product_text(self.left):
            first, second = self.right, self.left
            object.__setattr__(self, "left", first)
            object.__setattr__(self, "right", second)

    def __str__(self) -> str:
        return formula_text(self)


HornFormula = Union[PlainImplication, OplusImplication]


def canonical_zone(formulas: Iterable[HornFormula]) -> tuple[HornFormula, ...]:
    return tuple(sorted(formulas, key=formula_text))


@dataclass(frozen=True)
class HornSequent:
    """``W ; Gamma ; Delta |- Z``: input product, linear zone, banged zone, goal.

    Zones are multisets; they are stored sorted by printed form so sequent
    equality is zone-multiset equality.
    """

    input: SimpleProduct
    linear: tuple[HornFormula, ...]
    banged: tuple[HornFormula, ...]
    goal: SimpleProduct

    def __post_init__(self):
        object.__setattr__(self, "linear", canonical_zone(self.linear))
        object.__setattr__(self, "banged", canonical_zone(self.banged))

    def __str__(self) -> str:
        return sequent_text(self)


# --- Multiset operations ---------------------------------------------------


def multiset_minus(items: tuple, item) -> tuple | None:
    """The tuple without one occurrence of item, or None if item is absent."""
    try:
        index = items.index(item)
    except ValueError:
        return None
    return items[:index] + items[index + 1:]


def product_equiv(x: SimpleProduct, y: SimpleProduct) -> bool:
    """Whether two products represent one and the same multiset."""
    return x.entries == y.entries


def match_antecedent(x: SimpleProduct, antecedent: SimpleProduct) -> Frame | None:
    """The residual V with ``x = antecedent (x) V``, or None if no match.

    The residual may be empty (exact match); absence is a value, not an error.
    """
    residual = x.counter()
    residual.subtract(antecedent.counter())
    if any(count < 0 for count in residual.values()):
        return None
    return Frame.from_counter(residual)


def apply_implication(x: SimpleProduct, f: PlainImplication) -> SimpleProduct | None:
    """Rewrite ``x = X (x) V`` to ``Y (x) V`` for f = ``X -o Y``; None if X absent."""
    if not isinstance(f, PlainImplication):
        raise TypeError(f"apply_implication needs a plain implication, got {f!r}")
    residual = match_antecedent(x, f.antecedent)
    if residual is None:
        return None
    return f.consequent.tensor(residual)


def tensor_all(products: Iterable[SimpleProduct]) -> SimpleProduct:
    counts: Counter[str] = Counter()
    for p in products:
        counts += p.counter()
    return SimpleProduct.from_counter(counts)


# --- Printing ---------------------------------------------------------------


def product_text(p: SimpleProduct | Frame) -> str:
    return "*".join(name for name, count in p.entries for _ in range(count))


def _operand_text(p: SimpleProduct) -> str:
    text = product_text(p)
    return f"({text})" if p.size >= 2 else text


def formula_text(f: HornFormula) -> str:
    if isinstance(f, PlainImplication):
        return f"{_operand_text(f.antecedent)} -o {_operand_text(f.consequent)}"
    return (
        f"{_operand_text(f.antecedent)} -o "
        f"({product_text(f.left)} + {product_text(f.right)})"
    )


def sequent_text(s: HornSequent) -> str:
    gamma = ", ".join(formula_text(f) for f in s.linear)
    delta = ", ".join(formula_text(f) for f in s.banged)
    left = product_text(s.input) + " ;"
    if gamma:
        left += " " + gamma
    left += " ;"
    if delta:
        left += " " + delta
    return f"{left} |- {product_text(s.goal)}"


# --- Parsing ----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<ident>[A-Za-z][A-Za-z0-9_]*)|(?P<num>\d+)"
    r"|(?P<op>-o|\|-|[*(),;+!#]))"
)


@dataclass(frozen=True)
class Token:
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
        for kind in ("ident", "num", "op"):
            if m.group(kind) is not None:
                tokens.append(Token(kind, m.group(kind), m.start(kind)))
                break
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


def _parse_operand(ts: TokenStream) -> SimpleProduct:
    if ts.peek().text == "(":
        ts.next()
        p = _parse_bare_product(ts)
        ts.expect(")")
        return p
    return _parse_bare_product(ts)


def _parse_formula_rest(ts: TokenStream, antecedent: SimpleProduct) -> HornFormula:
    ts.expect("-o")
    if ts.peek().text == "(":
        ts.next()
        first = _parse_bare_product(ts)
        tok = ts.next()
        if tok.text == "+":
            second = _parse_bare_product(ts)
            ts.expect(")")
            return OplusImplication(antecedent, first, second)
        if tok.text == ")":
            return PlainImplication(antecedent, first)
        raise FormatError(f"expected '+' or ')', found {tok.text or 'end of input'!r}", tok.position)
    return PlainImplication(antecedent, _parse_bare_product(ts))


def _parse_formula(ts: TokenStream) -> HornFormula:
    return _parse_formula_rest(ts, _parse_operand(ts))


def _parse_formula_list(ts: TokenStream, stop: set[str]) -> list[HornFormula]:
    formulas: list[HornFormula] = []
    if ts.peek().text in stop:
        return formulas
    formulas.append(_parse_formula(ts))
    while ts.peek().text == ",":
        ts.next()
        formulas.append(_parse_formula(ts))
    return formulas


def parse_product(text: str) -> SimpleProduct:
    ts = TokenStream(text)
    p = _parse_bare_product(ts)
    ts.done()
    return p


def parse_formula(text: str) -> HornFormula:
    ts = TokenStream(text)
    f = _parse_formula(ts)
    ts.done()
    return f


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

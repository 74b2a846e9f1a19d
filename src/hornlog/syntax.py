"""Canonical syntax for the Horn fragment; every layer reads canonical form here.

A :class:`Frame` is a literal multiset stored as ``(literal, count)`` pairs
sorted by literal, so two frames denote the same multiset exactly when they
compare equal; tensor reassociation and reordering never matter.  A frame may
be empty (the residual of an antecedent match); a :class:`SimpleProduct` is
the frame that must be non-empty.  Constructions from outside validate once
(``of`` checks each distinct name and builds entries and text directly);
``tensor``, ``power``, ``match_antecedent`` and ``tensor_all`` merge entries
that are already canonical and skip validation (``tensor`` appends them when
one side's names all sort first), as
``HornSequent.of_canonical`` does for zones already in canonical order.
Canonical zones grow by ``zone_insert`` (one bisection) and ``zone_merge``
(one merge of sorted runs) and shrink by ``multiset_minus``; only unsorted
input, such as a parsed sequent, is sorted whole by ``canonical_zone``.
``apply_implication`` rewrites in one pass: one count dict less the
antecedent (the subtraction ``match_antecedent`` shares), plus the
consequent, sorted once, with no residual frame between; ``step_entries``
does so on plain entries, with one subtraction for both edges of a fork.

Implications come in two shapes, ``X -o Y`` and ``X -o (Y1 + Y2)``.  Every
Horn formula names the program edges one use of it draws as its ``branches``:
a plain implication the one edge ``X -o Y`` (itself), a choice implication its
two fork edges ``X -o Y1`` and ``X -o Y2``.  The prover, the compiler and the
machine encoding all split a formula there.  A sequent bundles an input product, a linear zone, a reusable
(banged) zone and a goal product.  The flat calculus adds two members of its
own: ``LlBang``, a banged implication, and ``LlOplusProduct``, a pending
choice ``(Y1 + Y2)`` with its occurrence tag.  Products, formulas and members compute their
printed ``text`` once, at its first read (``lazy``); it is the only order, for the two sides of a choice
and for the members of a zone.  It is also the identity: a formula, banged
formula or tagged choice compares and hashes by its kind and canonical text
(``Printed``), a product or frame by its entries, so zone lookups and the
verifier's counts never revisit fields.  The module also owns the grammar,
whose names the tokenizer checks: a product is built unvalidated, once per
text or ``member_parser``.  Tokens are strings from one ``findall`` scan, kind
read off the string; an error finds its offset only when raised::

    literal   = [A-Za-z][A-Za-z0-9_]*
    product   = lit * lit * ...
    operand   = <product> | (<product>)
    rhs       = <product> | (<product>) | (<product> + <product>)
    member    = operand [-o rhs] | !(operand [-o rhs]) | (<product> + <product>)#tag
    tag       = [0-9]+
    sequent   = <product> ; <formulas> ; <formulas> |- <product>

``parse_member`` reads any member; a formula is a member ``operand -o rhs``,
and ``parse_formula`` and the sequent's formula lists read a member and
check its kind.  Formula lists are comma separated and may be empty;
whitespace is insignificant.  Printing emits the canonical form, and
parse/print round-trip bit-exactly on canonical text.

Every value class of the package, here and in the other modules, derives
from :class:`Value`, whose fields are its annotations, each declared once and
read at run time, so importing the package generates and compiles no code.
A class keeps an ``__init__`` of its own only to validate or canonicalize,
or where the bench builds it tens of times per op: ``PlainImplication``
(~70 per certify op) and ``LlBang`` (~50 per compile op); README.md lists all.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from operator import attrgetter
from typing import Callable, Iterable, Iterator

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


class lazy:
    """``functools.cached_property`` without the lock Python 3.11 takes on each
    first access: the value, a pure function of frozen fields, is computed once
    into the instance ``__dict__``, which is read first as this has no ``__set__``."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        return instance.__dict__.setdefault(self.name, self.func(instance))


class FrozenError(AttributeError):
    """An assignment to, or deletion of, an attribute of a :class:`Value`."""


class Value:
    """A frozen record whose fields, ``__match_args__``, are the names its own
    class body annotates, in order, or else its base's; a value assigned to one
    is its default.  The shared constructor binds positionals in field order and
    keywords by name, raising TypeError for too many, an unknown or repeated name
    or a field left unset; classes that validate, and the two built most, keep
    their own.  ``__eq__``, ``__hash__`` and ``__repr__`` read the fields not
    ``_hidden`` (another class is ``NotImplemented``); assignment and deletion
    raise :class:`FrozenError`."""

    __match_args__: tuple[str, ...] = ()
    _defaults: dict = {}
    _hidden: tuple[str, ...] = ()  # fields outside equality, hash and repr

    def __init_subclass__(cls):
        super().__init_subclass__()
        own = cls.__annotations__  # since Python 3.10, the class body's own: none inherited
        if own:
            cls.__match_args__ = tuple(own)
            cls._defaults = {name: cls.__dict__[name] for name in own if name in cls.__dict__}
        cls._shown = tuple(name for name in cls.__match_args__ if name not in cls._hidden)
        if cls._shown:
            cls._key = attrgetter(*cls._shown)

    def __init__(self, *args, **kwargs):
        names, owner = self.__match_args__, type(self).__qualname__
        if len(args) > len(names):
            raise TypeError(f"{owner} takes {len(names)} fields, got {len(args)} positional arguments")
        fields = dict(zip(names, args))
        for name in names[len(args):]:  # the rest by name or by default, in field order
            if name in kwargs:
                fields[name] = kwargs.pop(name)
            elif name in self._defaults:
                fields[name] = self._defaults[name]
            else:
                raise TypeError(f"{owner} needs field {name!r}")
        for name in kwargs:
            raise TypeError(f"{owner} got field {name!r} twice" if name in names else f"{owner} has no field {name!r}")
        # One dict merged into the empty instance dict lends it its keys whole: a dict filled key by key stays
        # split, and Python 3.11 does not specialize reads from a split dict, which then take twice as long.
        self.__dict__.update(fields)

    def __eq__(self, other) -> bool:
        key = self._key
        return key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self._shown)})"

    def __setattr__(self, name, value):
        raise FrozenError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenError(f"cannot delete field {name!r}")


class Printed(Value):
    """A value printed as its canonical ``text``, which it computes once.

    The text is the member's identity: two members are equal exactly when
    they are of one kind and print alike, and a member hashes as its text.
    """

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.text == other.text

    def __hash__(self) -> int:
        return hash(self.text)

    def __str__(self) -> str:
        return self.text


class Frame(Printed):
    """A literal multiset, possibly empty: the residual of an antecedent match.

    Equality is multiset equality, whether either side is a plain frame or a
    :class:`SimpleProduct`.
    """

    entries: Entries

    def __init__(self, entries: Entries = ()):
        self.__dict__["entries"] = entries
        counts = dict(entries)
        for name, count in counts.items():
            check_literal(name)
            if count < 1:
                raise ValueError(f"literal {name!r} has non-positive count {count}")
        if entries != tuple(sorted(counts.items())):
            raise ValueError(f"entries not canonical: {entries!r}")

    @classmethod
    def _trusted(cls, entries: Entries):
        """Wrap entries already in canonical form, skipping validation."""
        frame = object.__new__(cls)
        object.__setattr__(frame, "entries", entries)
        return frame

    @classmethod
    def of(cls, *names: str):
        """The frame of these literal names, its entries and text built directly:
        each distinct name is checked once, and the built entries are not checked again."""
        if not names:
            return cls()  # a frame may be empty; a simple product refuses
        ordered, counts = sorted(names), {}
        for name in ordered:
            counts[name] = counts.get(name, 0) + 1
        for name in counts:
            check_literal(name)
        frame = cls._trusted(tuple(counts.items()))
        frame.__dict__["text"] = "*".join(ordered)
        return frame

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

    @lazy
    def text(self) -> str:
        return "*".join(self.literals())

    def __str__(self) -> str:
        return self.text if self.entries else "<empty>"


class SimpleProduct(Frame):
    """A non-empty literal multiset: the products formulas and sequents hold."""

    def __init__(self, entries: Entries = ()):
        if not entries:
            raise ValueError("a simple product must contain at least one literal")
        super().__init__(entries)

    def tensor(self, other: Frame) -> "SimpleProduct":
        """The multiset sum: the two entry tuples appended when every name of
        one sorts before every name of the other, else merged by counts."""
        a, b = self.entries, other.entries
        if b and a[-1][0] < b[0][0]:
            return SimpleProduct._trusted(a + b)
        if b and b[-1][0] < a[0][0]:
            return SimpleProduct._trusted(b + a)
        return SimpleProduct._trusted(_plus(dict(a), b))

    def power(self, k: int) -> "SimpleProduct":
        """The tensor of k >= 1 copies, its counts multiplied: O(entries), not O(k)."""
        if k < 1:
            raise ValueError(f"a power needs at least one copy, got {k}")
        return SimpleProduct._trusted(tuple((name, count * k) for name, count in self.entries))


def text_ordered(a: SimpleProduct, b: SimpleProduct) -> tuple[SimpleProduct, SimpleProduct]:
    """The two sides of a choice, which commutes, in the one order it is stored in: by printed text."""
    return (b, a) if b.text < a.text else (a, b)


def canonical_zone(members: Iterable) -> tuple:
    """A zone or flat context in canonical order: sorted by printed text."""
    return tuple(sorted(members, key=attrgetter("text")))


class PlainImplication(Printed):
    antecedent: SimpleProduct
    consequent: SimpleProduct

    # Its own: ~70 built per certify op, each ~0.7 us faster than through Value.__init__.
    def __init__(self, antecedent: SimpleProduct, consequent: SimpleProduct):
        fields = self.__dict__
        fields["antecedent"] = antecedent
        fields["consequent"] = consequent

    @lazy
    def text(self) -> str:
        return f"{_operand_text(self.antecedent)} -o {_operand_text(self.consequent)}"

    @property
    def branches(self) -> tuple[PlainImplication]:
        """The one edge a use of this formula draws: the formula itself."""
        return (self,)


class OplusImplication(Printed):
    """``X -o (Y1 + Y2)``; the two consequents are stored in text order (choice commutes)."""

    antecedent: SimpleProduct
    left: SimpleProduct
    right: SimpleProduct

    def __init__(self, antecedent: SimpleProduct, left: SimpleProduct, right: SimpleProduct):
        fields = self.__dict__
        fields["antecedent"] = antecedent
        fields["left"], fields["right"] = text_ordered(left, right)

    @lazy
    def text(self) -> str:
        return f"{_operand_text(self.antecedent)} -o ({self.left.text} + {self.right.text})"

    @lazy
    def branches(self) -> tuple[PlainImplication, PlainImplication]:
        """The fork edges ``X -o Y1`` and ``X -o Y2``, in side order."""
        return PlainImplication(self.antecedent, self.left), PlainImplication(self.antecedent, self.right)


HornFormula = PlainImplication | OplusImplication


class LlBang(Printed):
    # Payload is normally an implication; a banged product is representable
    # so the checker can reject it against the side condition.
    formula: HornFormula | SimpleProduct

    # Its own: ~50 built per compile op, each ~0.7 us faster than through Value.__init__.
    def __init__(self, formula: HornFormula | SimpleProduct):
        self.__dict__["formula"] = formula

    @lazy
    def text(self) -> str:
        return f"!({self.formula.text})"


class LlOplusProduct(Printed):
    """A pending choice ``(Y1 + Y2)`` with its occurrence tag; sides in text order, as a choice implication's."""

    left: SimpleProduct
    right: SimpleProduct
    tag: int

    def __init__(self, left: SimpleProduct, right: SimpleProduct, tag: int):
        fields = self.__dict__
        fields["left"], fields["right"] = text_ordered(left, right)
        fields["tag"] = tag

    @lazy
    def text(self) -> str:
        return f"({self.left.text} + {self.right.text})#{self.tag}"


Member = SimpleProduct | HornFormula | LlBang | LlOplusProduct


class HornSequent(Value):
    """``W ; Gamma ; Delta |- Z``: input product, linear zone, banged zone, goal.

    Zones are multisets; they are stored in canonical order so sequent
    equality is zone-multiset equality.
    """

    input: SimpleProduct
    linear: tuple[HornFormula, ...]
    banged: tuple[HornFormula, ...]
    goal: SimpleProduct

    def __init__(self, input: SimpleProduct, linear: tuple, banged: tuple, goal: SimpleProduct):
        self.__dict__.update(input=input, linear=canonical_zone(linear), banged=canonical_zone(banged), goal=goal)

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
    """A canonical zone without one occurrence of each member, or None if one
    is absent.  Equal texts are equal members, so each is found by its text."""
    for member in members:
        index = bisect_left(items, member.text, key=attrgetter("text"))
        if index == len(items) or items[index] != member:
            return None
        items = items[:index] + items[index + 1:]
    return items


def zone_insert(zone: tuple, member) -> tuple:
    """A canonical zone with one more member, placed by one bisection on its text."""
    index = bisect_right(zone, member.text, key=attrgetter("text"))
    return zone[:index] + (member,) + zone[index:]


def zone_merge(a: tuple, b: tuple) -> tuple:
    """Two canonical zones as one: the other when one is empty, else one pass,
    as the sort merges two sorted runs."""
    return canonical_zone(a + b) if a and b else a or b


def _minus(counts: dict[str, int], antecedent: SimpleProduct) -> dict[str, int] | None:
    """counts (a fresh dict) less the antecedent's, a spent name dropped; None if
    one runs short.  A name counts lacks runs short at once, so none is added."""
    for name, need in antecedent.entries:
        left = counts.get(name, 0) - need
        if left < 0:
            return None
        if left:
            counts[name] = left
        else:
            del counts[name]
    return counts


def _plus(counts: dict[str, int], *parts: Entries) -> Entries:
    """The canonical entries of counts, changed in place, plus each part's."""
    for entries in parts:
        for name, count in entries:
            counts[name] = counts.get(name, 0) + count
    return tuple(sorted(counts.items()))


def step_entries(counts: dict[str, int], edges: tuple[PlainImplication, ...]) -> list[Entries] | None:
    """Each edge's child entries from counts (a product's, left unchanged), the
    antecedent the edges share matched once; None if a literal runs short."""
    residual = _minus(dict(counts), edges[0].antecedent)
    return None if residual is None else [_plus(dict(residual), e.consequent.entries) for e in edges]


def match_antecedent(x: SimpleProduct, antecedent: SimpleProduct) -> Frame | None:
    """The residual V with ``x = antecedent (x) V``, or None if no match.

    The residual may be empty (exact match); absence is a value, not an error.
    """
    counts = _minus(dict(x.entries), antecedent)
    return None if counts is None else Frame._trusted(tuple(counts.items()))


def apply_implication(x: SimpleProduct, f: PlainImplication) -> SimpleProduct | None:
    """Rewrite ``x = X (x) V`` to ``Y (x) V`` for f = ``X -o Y``; None if X absent.

    One pass: x's counts less X's plus Y's, sorted once, with no residual frame."""
    if not isinstance(f, PlainImplication):
        raise TypeError(f"apply_implication needs a plain implication, got {f!r}")
    counts = _minus(dict(x.entries), f.antecedent)
    return None if counts is None else SimpleProduct._trusted(_plus(counts, f.consequent.entries))


def tensor_all(products: Iterable[SimpleProduct]) -> SimpleProduct:
    entries = _plus({}, *(p.entries for p in products))
    if not entries:
        raise ValueError("tensor_all needs at least one product")
    return SimpleProduct._trusted(entries)


# --- Printing ---------------------------------------------------------------


def _operand_text(p: SimpleProduct) -> str:
    return f"({p.text})" if "*" in p.text else p.text


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

_TOKEN_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*|[0-9]+|-o|\|-|[*(),;+!#]")


def tokenize(text: str) -> list[str]:
    """The tokens of ``text`` as strings, then ``""`` for its end, in one scan
    that skips whitespace; a literal name ``isidentifier``, a tag number
    ``isdigit``.  Only if the tokens miss a character that is not
    whitespace is the first one found, as the error."""
    tokens = _TOKEN_RE.findall(text)
    if len("".join(tokens)) != len("".join(text.split())):
        bad = re.search(r"\S", _TOKEN_RE.sub(lambda m: " " * len(m.group()), text))
        raise FormatError(f"unexpected character {bad.group()!r}", bad.start())
    return [*tokens, ""]


class TokenStream:
    """A cursor over a text's tokens: the parser steps ``index`` past each
    token it has matched, never past the end; ``products`` keeps those parsed."""

    def __init__(self, text: str):
        self.text, self.tokens, self.index, self.products = text, tokenize(text), 0, {}

    def peek(self) -> str:
        return self.tokens[self.index]

    def offset(self, index: int) -> int:
        """Where the token at ``index`` starts: not kept, but found by scanning again."""
        return [*(m.start() for m in _TOKEN_RE.finditer(self.text)), len(self.text)][index]

    def expect(self, text: str):
        tok = self.peek()
        if tok != text:
            raise FormatError(f"expected {text!r}, found {tok or 'end of input'!r}", self.offset(self.index))
        self.index += 1

    def done(self):
        tok = self.peek()
        if tok:
            raise FormatError(f"trailing input {tok!r}", self.offset(self.index))


def _parse_bare_product(ts: TokenStream) -> SimpleProduct:
    """A product of literal names, which the token pattern has already
    checked; one whose names ``ts.products`` holds is shared, not built again."""
    tokens, i = ts.tokens, ts.index
    while tokens[i].isidentifier() and tokens[i + 1] == "*":  # a name is never the end
        i += 2
    if not tokens[i].isidentifier():
        expected = "a literal after '*'" if i > ts.index else "a literal"
        raise FormatError(f"expected {expected}, found {tokens[i] or 'end of input'!r}", ts.offset(i))
    key = tokens[i] if i == ts.index else "".join(tokens[ts.index:i + 1])  # names and stars as written
    if key not in ts.products:  # new names, built without validation: its text is the names sorted
        names, counts = sorted(tokens[ts.index:i + 1:2]), {}
        for name in names:
            counts[name] = counts.get(name, 0) + 1
        ts.products[key] = SimpleProduct._trusted(tuple(counts.items()))
        ts.products[key].__dict__["text"] = "*".join(names)
    ts.index = i + 1
    return ts.products[key]


def _parse_group(ts: TokenStream, choice: bool = True) -> tuple[SimpleProduct, SimpleProduct | None]:
    """A product, bare or parenthesised, or with ``choice`` a ``(Y1 + Y2)``."""
    if ts.peek() != "(":
        return _parse_bare_product(ts), None
    ts.index += 1
    first, second = _parse_bare_product(ts), None
    if choice and ts.peek() == "+":
        ts.index += 1
        second = _parse_bare_product(ts)
    ts.expect(")")
    return first, second


def _parse_member(ts: TokenStream) -> Member:
    """An optional ``!(``, then an operand and an optional ``-o`` rest;
    outside a bang the operand may instead be a tagged choice."""
    banged = ts.peek() == "!"
    if banged:
        ts.index += 1
        ts.expect("(")
    first, second = _parse_group(ts, choice=not banged)
    if second is not None:
        ts.expect("#")
        num = ts.peek()
        if not num.isdigit():
            raise FormatError("expected a tag number after '#'", ts.offset(ts.index))
        try:  # int() also refuses more digits than the interpreter converts
            member = LlOplusProduct(first, second, int(num))
        except ValueError:
            raise FormatError("tag number too long", ts.offset(ts.index)) from None
        ts.index += 1
        return member
    member = first
    if ts.peek() == "-o":
        ts.index += 1
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
    if ts.peek() in stop:
        return formulas
    while True:
        start = ts.index
        member = _parse_member(ts)
        formulas.append(member if isinstance(member, HornFormula) else of_kind(member, HornFormula, ts.offset(start)))
        if ts.peek() != ",":
            return formulas
        ts.index += 1


def parse_product(text: str) -> SimpleProduct:
    ts = TokenStream(text)
    p = _parse_bare_product(ts)
    ts.done()
    return p


def parse_member(text: str) -> Member:
    return member_parser()(text)


def member_parser() -> Callable[[str], Member]:
    """``parse_member`` over one table's texts: one dict keeps each member by its text, each bare product
    by its names and stars as written (its text too), and X as the member a parsed ``!(X)`` holds."""
    members: dict[str, Member] = {}

    def parse(text: str) -> Member:
        if text not in members:
            ts = TokenStream(text)
            ts.products = members
            members[text], _ = _parse_member(ts), ts.done()  # kept only if the whole text parses
            if isinstance(members[text], LlBang) and text.startswith("!(") and text.endswith(")"):
                members.setdefault(text[2:-1], members[text].formula)  # X alone parses as inside !(X)
        return members[text]

    return parse


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

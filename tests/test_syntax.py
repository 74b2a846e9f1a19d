import json
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from corpora import replace

from hornlog.syntax import (
    FormatError,
    Frame,
    Printed,
    HornSequent,
    OplusImplication,
    PlainImplication,
    SimpleProduct,
    apply_implication,
    match_antecedent,
    parse_formula,
    parse_member,
    parse_product,
    parse_sequent,
    sequent_text,
    step_entries,
    tensor_all,
)
from hornlog import cli, syntax
from hornlog.ll import (
    LlBang,
    LlOplusProduct,
    LlSequent,
    ll_sequent_text,
)

names = st.sampled_from(["a", "b", "c", "d", "e"])
products = st.lists(names, min_size=1, max_size=5).map(lambda ns: SimpleProduct.of(*ns))
frames = st.lists(names, min_size=0, max_size=4).map(lambda ns: Frame.of(*ns))
plains = st.tuples(products, products).map(lambda xy: PlainImplication(*xy))
opluses = st.tuples(products, products, products).map(lambda xyz: OplusImplication(*xyz))
bangs = st.one_of(products, plains, opluses).map(LlBang)
pendings = st.builds(LlOplusProduct, products, products, st.integers(0, 99))
members = st.one_of(products, plains, opluses, bangs, pendings)
# Every member kind at least once, plus a few more, in shuffled order.
mixed_contexts = st.tuples(
    st.tuples(products, plains, opluses, bangs, pendings), st.lists(members, max_size=4)
).flatmap(lambda parts: st.permutations(list(parts[0]) + parts[1]))


def test_product_equiv_examples():
    assert parse_product("l1*r1*r1") == parse_product("r1*l1*r1")
    assert parse_product("l1*r1") != parse_product("l1*r1*r1")
    assert parse_product("q") == parse_product("q")


def test_match_antecedent_examples():
    assert match_antecedent(parse_product("l1*r1*r1"), parse_product("l1*r1")) == Frame.of("r1")
    assert match_antecedent(parse_product("l1"), parse_product("l1")) == Frame()
    assert match_antecedent(parse_product("l1*r2"), parse_product("l1*r1")) is None


def test_apply_implication_examples():
    ante = parse_formula("(l1*r1) -o l1")
    assert apply_implication(parse_product("l1*r1*r1"), ante) == parse_product("l1*r1")
    killing = parse_formula("(k1*r2) -o k1")
    assert apply_implication(parse_product("k1*r2"), killing) == parse_product("k1")
    assert apply_implication(parse_product("l0"), parse_formula("l1 -o l2")) is None


def test_apply_implication_rejects_choice():
    with pytest.raises(TypeError):
        apply_implication(parse_product("f"), parse_formula("f -o (g + h)"))


def test_simple_product_must_be_nonempty():
    with pytest.raises(ValueError):
        SimpleProduct.of()
    with pytest.raises(ValueError):
        SimpleProduct(())


# Names whose sort order is not their length order, and names the grammar refuses.
spelled = st.sampled_from(["A", "Z", "a", "a1", "b", "k1", "l0", "l1", "l10", "l2", "r1", "r10", "r2", "x_"])
misspelled = st.sampled_from(["", "1a", "a-b", "_x", "\u00e9"])


def _outcome(build):
    """What a constructor gives: entries, text, hash and class, or its error text."""
    try:
        value = build()
    except ValueError as error:
        return str(error)
    return value.entries, value.text, hash(value), type(value)


@given(st.lists(st.one_of(spelled, spelled, misspelled), max_size=8), st.sampled_from([Frame, SimpleProduct]))
def test_of_agrees_with_the_validating_constructor(names, cls):
    """``of`` builds entries and text directly; the validating constructor on
    the counted names gives the same value, or the same error."""
    assert _outcome(lambda: cls.of(*names)) == _outcome(lambda: cls(tuple(sorted(Counter(names).items()))))


@st.composite
def operand_names(draw):
    """Two name lists, either possibly empty: split at a pivot name, so that every
    name of one sorts before every name of the other, or drawn apart, so
    that they interleave or share names."""
    first, second = draw(st.lists(spelled, max_size=6)), draw(st.lists(spelled, max_size=6))
    if draw(st.booleans()):
        pivot = draw(spelled)
        names = first + second
        first, second = [n for n in names if n < pivot], [n for n in names if n >= pivot]
    return first, second


@given(operand_names())
def test_tensor_agrees_with_the_dict_merge(operands):
    """Appended or merged, in either order, a tensor is the validated sum of counts."""
    for x, y in (operands, operands[::-1]):
        if x:
            a, b = SimpleProduct.of(*x), Frame.of(*y)
            merged = syntax._plus(dict(a.entries), b.entries)
            assert _outcome(lambda: a.tensor(b)) == _outcome(lambda: SimpleProduct(merged))


def test_frame_converts_to_product():
    assert SimpleProduct(Frame.of("a", "a").entries) == parse_product("a*a")
    with pytest.raises(ValueError):
        SimpleProduct(Frame().entries)


def test_choice_consequents_commute():
    assert parse_formula("f -o (g + h)") == parse_formula("f -o (h + g)")


@given(products)
def test_equiv_reflexive(x):
    assert x == x


@given(products, products)
def test_equiv_symmetric(x, y):
    assert (x == y) == (y == x)


@given(products)
def test_canonicalization_idempotent(x):
    assert SimpleProduct.of(*x.literals()) == x
    assert SimpleProduct(x.entries) == x


@given(products, products)
def test_match_round_trip(x, a):
    residual = match_antecedent(x, a)
    if residual is not None:
        assert a.tensor(residual) == x
    else:
        assert any(dict(x.entries).get(name, 0) < count for name, count in a.entries)


@given(products, products, st.lists(products, min_size=1, max_size=2))
def test_step_entries_is_a_match_then_a_tensor_per_edge(x, a, ys):
    counts = dict(x.entries)
    stepped = step_entries(counts, [PlainImplication(a, y) for y in ys])
    assert counts == dict(x.entries)  # the state's counts are left as they were
    residual = match_antecedent(x, a)
    assert stepped == (None if residual is None else [y.tensor(residual).entries for y in ys])
    # An exact match leaves an empty residual: each child is its consequent.
    assert step_entries(counts, [PlainImplication(x, y) for y in ys]) == [y.entries for y in ys]


def test_step_entries_needs_every_literal_in_full():
    counts = dict(parse_product("a*a*b").entries)
    assert step_entries(counts, [parse_formula("d -o c")]) is None  # absent
    assert step_entries(counts, [parse_formula("(b*b) -o c")]) is None  # short
    assert step_entries(counts, [parse_formula("(a*a) -o c")]) == [(("b", 1), ("c", 1))]


def test_step_entries_steps_both_fork_edges_from_one_match(monkeypatch):
    matches, real = [], syntax._minus
    monkeypatch.setattr(syntax, "_minus", lambda counts, a: matches.append(a) or real(counts, a))
    f = parse_formula("(a*b) -o (a*c + d)")
    assert step_entries(dict(parse_product("a*a*b").entries), f.branches) == [
        (("a", 2), ("c", 1)),
        (("a", 1), ("d", 1)),
    ]
    assert matches == [f.antecedent]


@given(products, products, plains)
def test_apply_frame_law(x, v, f):
    framed = apply_implication(x.tensor(v), f)
    plain = apply_implication(x, f)
    if plain is not None:
        assert framed == plain.tensor(v)


# --- Text format ------------------------------------------------------------


def test_print_forms():
    assert parse_product("r1*l1*r1").text == "l1*r1*r1"
    assert parse_formula("l1*r1 -o l1").text == "(l1*r1) -o l1"
    assert parse_formula("l2 -o (l3*r1)").text == "l2 -o (l3*r1)"
    assert parse_formula("l1 -o (l0 + k1)").text == "l1 -o (k1 + l0)"


# In each text below, text order and entry-tuple order disagree: ``a*a``
# prints before ``a*b`` although (("a", 2),) sorts after (("a", 1), ("b", 1)),
# and ``(a*a) -o b`` prints before ``a -o b``.
ZONED = "a*b ; (a*a) -o b, a -o (a*a + a*b), a -o b ; (a*b) -o (a*a), (a*b) -o a |- a*a"
FLAT_MEMBERS = ["!((a*a) -o b)", "!(a -o b)", "!(a*b)", "(a*a + a*b)#2", "(a*a) -o b", "a -o b", "a*a", "a*b"]
FLAT = ", ".join(FLAT_MEMBERS) + " |- q"


def flat_sequent(members) -> LlSequent:
    """The flat sequent over ``q`` whose context holds these member texts."""
    return LlSequent(tuple(parse_member(text) for text in members), parse_product("q"))


def test_zones_print_in_text_order():
    assert sequent_text(parse_sequent(ZONED)) == ZONED
    shuffled = "b*a ; a -o b, a -o (a*b + a*a), a*a -o b ; a*b -o a, a*b -o a*a |- a*a"
    assert sequent_text(parse_sequent(shuffled)) == ZONED
    assert parse_sequent(shuffled) == parse_sequent(ZONED)


def test_flat_context_prints_in_text_order():
    assert ll_sequent_text(flat_sequent(FLAT_MEMBERS)) == FLAT
    shuffled = ["a*b", "(a*b + a*a)#2", "a -o b", "!((a*a) -o b)", "a*a", "(a*a) -o b", "!(a -o b)", "!(b*a)"]
    assert ll_sequent_text(flat_sequent(shuffled)) == FLAT
    assert flat_sequent(shuffled) == flat_sequent(FLAT_MEMBERS)


@given(mixed_contexts, products)
def test_flat_context_print_parse_print(context, goal):
    for member in context:
        assert parse_member(member.text) == member
    sequent = LlSequent(tuple(parse_member(g.text) for g in context), goal)
    assert sequent == LlSequent(tuple(context), goal)
    text = ll_sequent_text(sequent)
    again = LlSequent(tuple(parse_member(g.text) for g in sequent.context), goal)
    assert ll_sequent_text(again) == text


@given(st.lists(members, max_size=6), st.lists(members, max_size=6), members)
def test_zone_helpers_keep_a_zone_canonical(a, b, member):
    a, b = syntax.canonical_zone(a), syntax.canonical_zone(b)
    assert syntax.zone_insert(a, member) == syntax.canonical_zone(a + (member,))
    assert syntax.zone_merge(a, b) == syntax.canonical_zone(a + b)
    assert syntax.zone_merge(a, ()) is a and syntax.zone_merge((), b) is b


# Each malformed member and the exact error the parser gives it.
MALFORMED_MEMBERS = {
    "!((a + b)#1)": "expected ')', found '+' (at offset 5)",
    "(a + b)": "expected '#', found 'end of input' (at offset 7)",
    "(a + b)#x": "expected a tag number after '#' (at offset 8)",
    "!(a -o b": "expected ')', found 'end of input' (at offset 8)",
    "(a b)": "expected ')', found 'b' (at offset 3)",
}


@pytest.mark.parametrize("bad", MALFORMED_MEMBERS)
def test_flat_member_parse_errors(bad):
    with pytest.raises(FormatError) as raised:
        parse_member(bad)
    assert str(raised.value) == MALFORMED_MEMBERS[bad]


PARSE_ERRORS = [
    # unexpected character
    (parse_member, "a @ b", "unexpected character '@'", 2),
    (parse_member, "\u00e9", "unexpected character '\u00e9'", 0),
    (parse_member, "a*\u00e9", "unexpected character '\u00e9'", 2),
    (parse_product, "a - b", "unexpected character '-'", 2),
    (parse_sequent, "a ; ; |- a | b", "unexpected character '|'", 11),
    # expected a literal
    (parse_member, "", "expected a literal, found 'end of input'", 0),
    (parse_member, "*a", "expected a literal, found '*'", 0),
    (parse_member, "a -o (b + )", "expected a literal, found ')'", 10),
    (parse_product, "(a)", "expected a literal, found '('", 0),
    (parse_product, "   ", "expected a literal, found 'end of input'", 3),
    (parse_sequent, "a ; a -o b, ; |- b", "expected a literal, found ';'", 12),
    (parse_sequent, "a ; ; |-", "expected a literal, found 'end of input'", 8),
    # expected a literal after '*'
    (parse_member, "a*", "expected a literal after '*', found 'end of input'", 2),
    (parse_member, "a * -o b", "expected a literal after '*', found '-o'", 4),
    (parse_product, "a*b*", "expected a literal after '*', found 'end of input'", 4),
    (parse_sequent, "a ; ; |- b**a", "expected a literal after '*', found '*'", 11),
    # expected '(' or ')'
    (parse_member, "!a", "expected '(', found 'a'", 1),
    (parse_member, "a -o (b + c", "expected ')', found 'end of input'", 11),
    (parse_member, "(a*b -o c)", "expected ')', found '-o'", 5),
    (parse_sequent, "a ; !(a -o b c ; |- b", "expected ')', found 'c'", 13),
    # the sequent's separators, and a member of the wrong kind in a zone
    (parse_sequent, "a |- a", "expected ';', found '|-'", 2),
    (parse_sequent, "a ; ; a -o b b", "expected '|-', found 'b'", 13),
    (parse_sequent, "a ; b ; |- a", "expected an implication, found 'b'", 4),
    (parse_sequent, "a ; ; !(a -o b) |- b", "expected an implication, found '!(a -o b)'", 6),
    (parse_sequent, "a ; (a + b)#1 ; |- b", "expected an implication, found '(a + b)#1'", 4),
    # trailing input
    (parse_member, "a -o b c", "trailing input 'c'", 7),
    (parse_product, "a -o b", "trailing input '-o'", 2),
    (parse_sequent, "a ; ; |- a ;", "trailing input ';'", 11),
    # tag number missing, or too long for int()
    (parse_member, "(a + b)#", "expected a tag number after '#'", 8),
    (parse_member, "(a + b)#-o", "expected a tag number after '#'", 8),
    (parse_member, "(a + b)#" + "1" * 5000, "tag number too long", 8),
]


@pytest.mark.parametrize("parse, text, message, offset", PARSE_ERRORS,
                         ids=[f"{parse.__name__}:{text[:16]}" for parse, text, _, _ in PARSE_ERRORS])
def test_each_parse_error_has_its_exact_text_and_offset(parse, text, message, offset):
    with pytest.raises(FormatError) as raised:
        parse(text)
    assert (str(raised.value), raised.value.position) == (f"{message} (at offset {offset})", offset)


def test_a_formula_of_the_wrong_kind_is_named_without_an_offset():
    with pytest.raises(FormatError) as raised:
        parse_formula("a*b")
    assert (str(raised.value), raised.value.position) == ("expected an implication, found 'a*b'", None)


LONG_TAG = "(a + b)#" + "1" * 5000  # more digits than int() converts


# Arabic-Indic digits match \d and int() reads them; a tag is ASCII digits only,
# so that a parsed tag prints back as the text it was read from.
@pytest.mark.parametrize("text", ["(a + b)#\u0663", "(a + b)#1\u0661"])
def test_a_choice_tag_is_ascii_digits(text):
    with pytest.raises(FormatError) as raised:
        parse_member(text)
    assert str(raised.value) == f"unexpected character {text[-1]!r} (at offset {len(text) - 1})"


@pytest.mark.parametrize("text, offset", [
    ("a  @", 3), ("a ; ; |- b  $", 12), ("a ;\t;\n|- b é", 11), ("  _a ; ; |- a", 2), ("a - o", 2),
])
def test_an_unexpected_character_is_reported_where_it_stands(text, offset):
    # Not at the whitespace before it.
    with pytest.raises(FormatError) as raised:
        parse_sequent(text)
    assert str(raised.value) == f"unexpected character {text[offset]!r} (at offset {offset})"


def test_an_overlong_choice_tag_is_a_format_error():
    with pytest.raises(FormatError) as raised:
        parse_member(LONG_TAG)
    assert raised.value.position == LONG_TAG.index("#") + 1


def test_an_overlong_choice_tag_exits_2_from_verify_with_its_place(tmp_path, capsys):
    proof_file = tmp_path / "tag.proof.json"
    table = {"formulas": ["a", LONG_TAG], "conclusion": [[0], 0], "nodes": [{"rule": "I", "principal": 1}]}
    proof_file.write_text(json.dumps(table))
    assert cli.main(["verify", "ll", str(proof_file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: node 0's principal: formulas[1] '(a + b)#111")
    assert err.endswith("tag number too long (at offset 8)\n") and err.count("\n") == 1


def test_malformed_member_exits_2_from_verify(tmp_path, capsys):
    proof_file = tmp_path / "bad.proof.json"
    for bad in MALFORMED_MEMBERS:
        table = {"formulas": ["a", bad], "conclusion": [[1, 0], 0], "nodes": [{"rule": "I", "principal": 0}]}
        proof_file.write_text(json.dumps(table))
        assert cli.main(["verify", "ll", str(proof_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the conclusion's context: formulas[1]") and err.count("\n") == 1


def test_bang_accepts_a_parenthesised_product():
    assert parse_member("!((a*b))") == parse_member("!(a*b)") == LlBang(parse_product("a*b"))


def _is_validated(r: Frame):
    assert type(r)(r.entries) == r
    assert r == Frame.of(*r.literals())


@given(products, products, st.lists(products, min_size=1, max_size=4))
def test_merged_results_equal_their_validated_construction(x, a, xs):
    _is_validated(x.tensor(a))
    _is_validated(tensor_all(xs))
    assert match_antecedent(x.tensor(a), a) == x
    for residual in (match_antecedent(x, a), match_antecedent(x.tensor(a), a)):
        if residual is not None:
            assert type(residual) is Frame
            _is_validated(residual)
            _is_validated(a.tensor(residual))


@given(products, st.integers(1, 5))
def test_a_power_is_the_tensor_of_its_copies(x, k):
    assert x.power(k) == tensor_all([x] * k)
    _is_validated(x.power(k))
    assert x.power(10**15).entries == tuple((name, count * 10**15) for name, count in x.entries)


def test_a_power_needs_a_copy():
    with pytest.raises(ValueError, match="at least one copy"):
        SimpleProduct.of("a").power(0)


def test_constructions_validate_once_and_merges_not_at_all(monkeypatch):
    checked = []
    real = syntax.check_literal
    monkeypatch.setattr(syntax, "check_literal", lambda name: checked.append(name) or real(name))
    x = SimpleProduct.of("a", "b", "a")
    assert checked == ["a", "b"]
    checked.clear()
    x.tensor(x)
    match_antecedent(x, x)
    tensor_all([x, x])
    x.power(3)
    parse_sequent("a*b*a ; a -o (b + a*c) ; (a*b) -o b |- b")  # the tokenizer checks names
    assert checked == []


def _fieldwise(a, b) -> bool:
    """Equality as the members' dataclasses once stated it: one class, and
    equal fields in order, a frame's being its entries."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Frame):
        return a.entries == b.entries
    return all(
        _fieldwise(x, y) if isinstance(x, Printed) else x == y
        for x, y in zip(*([getattr(m, name) for name in m.__match_args__] for m in (a, b)))
    )


def _rebuilt(member):
    if isinstance(member, Frame):
        return type(member)(member.entries)
    return type(member)(*(getattr(member, name) for name in member.__match_args__))


@given(members, members, st.sampled_from(["drawn", "rebuilt", "parsed", "swapped"]))
def test_members_are_equal_exactly_when_their_fields_are(a, drawn, how):
    b = {
        "drawn": drawn,
        "rebuilt": _rebuilt(a),
        "parsed": parse_member(a.text),
        "swapped": _rebuilt(a) if not hasattr(a, "right") else replace(a, left=a.right, right=a.left),
    }[how]
    assert (a == b) == (b == a) == _fieldwise(a, b)
    assert (a != b) == (not _fieldwise(a, b))
    if type(a) is not type(b):
        assert a != b
    if _fieldwise(a, b):
        assert hash(a) == hash(b) and {a: 1}.get(b) == 1 and b in {a}


def test_a_frame_and_a_product_compare_entries():
    assert Frame.of("b", "a") == SimpleProduct.of("a", "b") and SimpleProduct.of("a", "b") == Frame.of("a", "b")
    assert hash(Frame.of("b", "a")) == hash(SimpleProduct.of("a", "b"))
    assert Frame() != SimpleProduct.of("a") and Frame.of("a", "a") != SimpleProduct.of("a")
    assert SimpleProduct.of("a") != PlainImplication(SimpleProduct.of("a"), SimpleProduct.of("a"))
    assert PlainImplication(SimpleProduct.of("a"), SimpleProduct.of("a")) != SimpleProduct.of("a")


literal_names = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,3}", fullmatch=True)


@given(st.lists(st.one_of(names, literal_names), min_size=1, max_size=8))
def test_a_parsed_product_is_the_canonical_product(ns):
    parsed = parse_product("*".join(ns))
    assert type(parsed) is SimpleProduct and parsed == SimpleProduct.of(*ns)
    assert parsed.entries == tuple(sorted(Counter(ns).items())) == SimpleProduct.of(*ns).entries
    assert parse_product(" * ".join(reversed(ns))).entries == parsed.entries
    # The parser sets the text from the names it read; the product derives it from its entries.
    assert parsed.text == parse_product(" * ".join(reversed(ns))).text == SimpleProduct.of(*ns).text


def test_sequent_text_empty_zones():
    s = parse_sequent("q ; ; |- q")
    assert sequent_text(s) == "q ; ; |- q"
    assert s.linear == () and s.banged == ()


def test_whitespace_insignificant():
    a = parse_sequent("f;f -o g;|-g")
    b = parse_sequent("  f ;  f  -o  g ;   |-   g ")
    assert a == b


@given(products)
def test_product_text_round_trip(x):
    assert parse_product(x.text) == x


@given(st.tuples(products, products, products))
def test_formula_text_round_trip(xyz):
    x, y, z = xyz
    for f in (PlainImplication(x, y), OplusImplication(x, y, z)):
        assert parse_formula(f.text) == f


@given(products, st.lists(plains, max_size=3), st.lists(plains, max_size=3), products)
def test_sequent_text_round_trip(w, gamma, delta, z):
    s = HornSequent(w, tuple(gamma), tuple(delta), z)
    text = sequent_text(s)
    assert parse_sequent(text) == s
    assert sequent_text(parse_sequent(text)) == text


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "a**b ; ; |- q",
        "1a ; ; |- q",
        "a ; b |- c",
        "a ; ; |- c extra",
        "a ; b -o ; |- c",
        "a ; b -o (c + ) ; |- d",
        "a |- b",
    ],
)
def test_sequent_parse_errors(bad):
    with pytest.raises(FormatError):
        parse_sequent(bad)


@pytest.mark.parametrize("bad", ["a -o", "a -o b -o c", "a + b", "(a -o b)"])
def test_formula_parse_errors(bad):
    with pytest.raises(FormatError):
        parse_formula(bad)


def test_parse_error_reports_position():
    with pytest.raises(FormatError) as err:
        parse_product("a * * b")
    assert err.value.position is not None


@given(products, plains)
def test_apply_implication_is_the_consequent_tensored_onto_the_match(x, f):
    """The one-pass rewrite against its definition: match, then tensor;
    ``x (x) X`` always matches."""
    for y in (x, x.tensor(f.antecedent)):
        residual = match_antecedent(y, f.antecedent)
        rewritten = apply_implication(y, f)
        if residual is None:
            assert rewritten is None
        else:
            assert type(rewritten) is SimpleProduct
            assert rewritten.entries == f.consequent.tensor(residual).entries
            _is_validated(rewritten)


# --- The lazy attribute -------------------------------------------------------


def test_a_lazy_attribute_is_computed_once_and_then_read_from_the_instance_dict():
    calls = []

    class Counted:
        @syntax.lazy
        def value(self):
            """The answer."""
            calls.append(self)
            return 42

    counted = Counted()
    assert (counted.value, counted.value) == (42, 42)
    assert calls == [counted]
    assert counted.__dict__ == {"value": 42}
    counted.__dict__["value"] = 7  # a later access reads the dict, not the function
    assert counted.value == 7 and calls == [counted]
    assert isinstance(Counted.value, syntax.lazy) and Counted.value.__doc__ == "The answer."


def test_lazy_attributes_on_frozen_dataclasses():
    from hornlog.minsky import parse_machine
    from hornlog.programs import HornProgram

    f = PlainImplication(SimpleProduct.of("a", "b"), SimpleProduct.of("c"))
    machine = parse_machine("counters 1\nL2: dec x1 goto L1\nL1: ifzero x1 goto L0\n")
    program = HornProgram.build(0, [(0, 1, f), (0, 2, f), (2, 3, f)])
    for obj, name, value in [(f, "text", "(a*b) -o c"), (machine, "tests_to_halt", {0: 0, 1: 1, 2: 1}),
                             (program, "leaves", (1, 3))]:
        assert isinstance(getattr(type(obj), name), syntax.lazy)
        assert name not in obj.__dict__
        assert getattr(obj, name) == value and obj.__dict__[name] == value
        assert getattr(obj, name) is obj.__dict__[name]
        with pytest.raises(syntax.FrozenError):
            setattr(obj, name, None)

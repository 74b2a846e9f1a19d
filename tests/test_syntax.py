import json

import pytest
from hypothesis import given, strategies as st

from hornlog.syntax import (
    FormatError,
    Frame,
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


MALFORMED_MEMBERS = ["!((a + b)#1)", "(a + b)", "(a + b)#x", "!(a -o b", "(a b)"]


@pytest.mark.parametrize("bad", MALFORMED_MEMBERS)
def test_flat_member_parse_errors(bad):
    with pytest.raises(FormatError):
        parse_member(bad)


def test_malformed_member_exits_2_from_verify(tmp_path, capsys):
    proof_file = tmp_path / "bad.proof.json"
    for bad in MALFORMED_MEMBERS:
        table = {"formulas": ["a", bad], "nodes": [{"rule": "I", "conclusion": [[1, 0], 0]}]}
        proof_file.write_text(json.dumps(table))
        assert cli.main(["verify", "ll", str(proof_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: node 0's context: formulas[1]") and err.count("\n") == 1


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
    assert checked == []


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

"""The witness search on plain entries against its first reading on products.

``corpora.reference_prove_bounded`` is the search as it read when a state
held a ``SimpleProduct`` and each edge's child was built from a
``match_antecedent`` residual.  ``programs.prove_bounded`` keeps a state's
entries and steps a fork's edges from one match.  On every case below both
must give the same ``program_to_json`` text, or both none, and a witness
must keep within its depth.
"""

import random

import pytest

from corpora import reference_prove_bounded, small_sequent, walked_sequent
from hornlog.programs import program_height, program_to_json, prove_bounded
from hornlog.syntax import parse_sequent

DEPTHS = range(6)


def assert_agree(sequent, depths=DEPTHS) -> list:
    """Per depth, the library's witness text or None, once it has matched the
    reference's and kept within the depth."""
    found = []
    for depth in depths:
        mine, reference = (prove(sequent, depth) for prove in (prove_bounded, reference_prove_bounded))
        text = None if mine is None else program_to_json(mine)
        assert text == (None if reference is None else program_to_json(reference)), (str(sequent), depth)
        assert mine is None or program_height(mine) <= depth
        found.append(text)
    return found


@pytest.mark.parametrize("generator", ["small", "walked"])
def test_seeded_sequents_prove_alike_at_depths_0_to_5(generator):
    rng = random.Random(20261020)
    found = []
    for i in range(150):
        found += assert_agree(small_sequent(rng) if generator == "small" else walked_sequent(rng, both=i % 4 == 0))
    assert any(w is None for w in found) and any(w is not None for w in found)


def test_a_walk_stops_when_no_plain_formula_is_left():
    """This stream spends both spare formulas while every banged one is a
    choice; the walk once drew from the empty list and raised IndexError."""
    sequent = walked_sequent(random.Random(2347), both=False)
    assert len(sequent.linear) == 2
    assert_agree(sequent)


@pytest.mark.parametrize("text, proves", [
    ("a*z ; ; a -o b |- b*z", True),    # z only in the input and the goal: carried along
    ("a*z ; ; a -o b |- b", False),     # z only in the input: never spent
    ("a ; ; a -o b |- b*z", False),     # z only in the goal: never made
    ("z ; ; a -o b |- z", True),        # no formula applies; the input is the goal
])
def test_a_literal_only_the_input_or_the_goal_holds(text, proves):
    found = assert_agree(parse_sequent(text))
    assert (found[-1] is not None) == proves


@pytest.mark.parametrize("text, proves", [
    ("a*a*a ; ; (a*a) -o b, (a*b) -o c |- c", True),
    ("a*a ; ; (a*a) -o (b + c), b -o d, c -o d |- d", True),
    ("a*b ; ; (a*a) -o b |- b", False),  # one a is short of the antecedent
    ("a*a ; (a*a) -o b ; |- b", True),   # the exact match leaves an empty residual
])
def test_an_antecedent_with_a_repeated_literal(text, proves):
    found = assert_agree(parse_sequent(text))
    assert (found[-1] is not None) == proves


@pytest.mark.parametrize("text, proves", [
    ("a ; a -o a ; a -o a |- a", True),
    ("a*a ; a -o b ; a -o b |- b*b", True),
    ("a ; a -o (b + c) ; a -o (b + c), b -o a, c -o a |- a", True),
    ("a*t ; a -o (b + c) ; (b*t) -o a, (c*t) -o z, b -o z, c -o z |- z", False),
])
def test_a_formula_both_linear_and_banged(text, proves):
    found = assert_agree(parse_sequent(text), range(9))
    assert (found[-1] is not None) == proves


def test_a_fork_whose_first_edge_is_the_deeper_one():
    # Found by running both generators against a search that gave a fork the
    # height of its last edge: at depth 7 that search read a height-8 witness
    # back from the memo.  The witness needs every edge's height.
    text = (
        "a*a*a*b ; b -o a ; (a*a) -o (a*b), (a*a*a*a) -o (a + a*a), (a*b) -o (a + a*a), (a*b) -o (a + b), "
        "(a*b*b) -o (a + b), (b*b) -o (a*a + a*a), a -o (a*b), b -o (a*a), b -o a |- a*b"
    )
    found = assert_agree(parse_sequent(text), range(9))
    assert found[7] is not None

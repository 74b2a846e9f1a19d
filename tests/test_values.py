"""The value classes of ``src/hornlog``: frozen records on ``syntax.Value``,
declared with no code generated at import.  One value of each class pins
its printed form, which fields its equality and hash read, and that none
of its fields can be assigned or deleted."""

import hashlib
import subprocess
import sys

import pytest

from corpora import replace
from hornlog import bridge, encoding, hll, ll, minsky, programs, syntax
from hornlog.syntax import FrozenError, SimpleProduct, Value

MODULES = (bridge, encoding, hll, ll, minsky, programs, syntax)


def instances():
    """One value of each value class, with another value for each of its fields."""
    a, b, c, d = (SimpleProduct.of(name) for name in "abcd")
    f, g = syntax.PlainImplication(a, b), syntax.PlainImplication(c, d)
    sequent, other = syntax.HornSequent(a, (f,), (), b), syntax.HornSequent(b, (), (g,), b)
    flat, flat_other = ll.LlSequent((a,), a), ll.LlSequent((b,), b)
    machine = minsky.MinskyMachine.build(1, [minsky.Instruction(minsky.DEC, 1, 1, 0)])
    config, config_other = minsky.Configuration(1, (0,)), minsky.Configuration(0, (1,))
    program = programs.HornProgram.build(0, [(0, 1, f)])
    failure = hll.CheckFailure((0,), "I", "why")
    violation = programs.Violation(programs.LEAF_MISMATCH, 1, (0, 1), f, 2, "detail")
    side = bridge.SideChain(1, 1, (2, 3), 1)
    trace = bridge.ProgramTrace(program, (0, 1), (side,))
    run = minsky.Computation((config, config), (0,))
    return [
        (syntax.Frame(), {"entries": (("a", 1),)}),
        (a, {"entries": (("a", 2),)}),
        (f, {"antecedent": c, "consequent": c}),
        (syntax.OplusImplication(a, b, c), {"antecedent": d, "left": d, "right": d}),
        (syntax.LlBang(f), {"formula": g}),
        (syntax.LlOplusProduct(b, c, 1), {"left": d, "right": d, "tag": 2}),
        (sequent, {"input": b, "linear": (), "banged": (g,), "goal": a}),
        (flat, {"context": (b,), "goal": b}),
        (hll.i_axiom(a), {"rule": hll.HllRule.H, "conclusion": other, "premises": (hll.i_axiom(b),),
                          "principal": b, "frame": b}),
        (ll.ll_i(a), {"rule": ll.LlRule.LTENSOR, "conclusion": flat_other, "premises": (ll.ll_i(b),),
                      "principal": b, "split": (a, a), "tag": 1}),
        (failure, {"path": (), "rule": "H", "reason": "other"}),
        (hll.CheckResult(False, failure), {"ok": True, "failure": None}),
        (hll.ProofFormat(hll.HllProof, len, syntax.HornSequent, {}, {}, (), ()),
         {"node": ll.LlProof, "conclude": abs, "sequent": ll.LlSequent, "rules": {1: 2}, "takers": {1: 2},
          "parts": (1,), "fields": (1,)}),
        (minsky.Instruction(minsky.DEC, 1, 1, 0), {"kind": minsky.INC, "label": 2, "counter": 2, "target": 1}),
        (machine, {"n": 2, "instructions": (), "labels": frozenset()}),
        (run, {"configs": (config_other, config), "moves": (1,)}),
        (minsky.ValidationResult(False, 1, "why"), {"ok": True, "index": 2, "reason": "other"}),
        (program, {"root": 1, "vertices": (0,), "edges": (), "children": {}, "charges": {}}),
        (encoding.MachineEncoding.build(machine), {"machine": minsky.MinskyMachine.build(2, []), "phi": (),
                                                   "literal": SimpleProduct.of}),
        (violation, {"kind": programs.LINEAR_COUNT, "vertex": 2, "edge": (1, 2), "formula": g, "count": 3,
                     "detail": "other"}),
        (programs.StrongSolutionReport(False, (violation,)), {"ok": True, "violations": ()}),
        (side, {"fork_vertex": 2, "counter": 2, "vertices": (4,), "kill_count": 0}),
        (trace, {"program": programs.HornProgram.build(0, []), "main_vertices": (0,), "side_chains": ()}),
        (bridge.RoundTripReport("CODE", "detail", run, trace, run, program, sequent),
         {"code": "OTHER", "detail": "", "computation": None, "trace": None, "extracted": None, "witness": None,
          "sequent": None}),
    ]


# Fields outside equality, hash and repr; a proof node's ``checked`` mark is no field at all.
HIDDEN = {programs.HornProgram: {"children", "charges"}, encoding.MachineEncoding: {"literal"}}
# The SHA-256 of the reprs above, one a line, as the dataclass declarations printed them.
REPR_DIGEST = "7dbdec02d192380a9b04d35dddd28df5e183f54b302edded35f31bdf8ec8638e"


def test_every_value_class_is_pinned():
    declared = {value for module in MODULES for value in vars(module).values()
                if isinstance(value, type) and issubclass(value, Value) and value.__match_args__}
    assert {type(value) for value, _ in instances()} == declared
    assert len(declared) == 24  # the 23 former dataclasses and SimpleProduct


def test_reprs_are_the_dataclass_reprs():
    reprs = [repr(value) for value, _ in instances()]
    assert hashlib.sha256("\n".join(reprs).encode()).hexdigest() == REPR_DIGEST, "\n".join(reprs)
    assert reprs[0] == "Frame(entries=())"
    assert reprs[13] == "Instruction(kind='dec', label=1, counter=1, target=0)"
    assert reprs[17] == ("HornProgram(root=0, vertices=(0, 1), edges=((0, 1, PlainImplication(antecedent="
                         "SimpleProduct(entries=(('a', 1),)), consequent=SimpleProduct(entries=(('b', 1),)))),))")


def _hash(value) -> int | None:
    """The value's hash; None for a proof format, whose rule tables are dicts."""
    try:
        return hash(value)
    except TypeError:
        return None


@pytest.mark.parametrize("index", range(24))
def test_equality_and_hash_read_exactly_the_shown_fields(index):
    value, others = instances()[index]
    assert list(others) == list(type(value).__match_args__)
    copy = replace(value)
    assert copy is not value and copy == value and _hash(copy) == _hash(value) and repr(copy) == repr(value)
    for name, other in others.items():
        changed = replace(value, **{name: other})
        if name in HIDDEN.get(type(value), ()):
            assert changed == value and _hash(changed) == _hash(value) and repr(changed) == repr(value), name
        else:
            assert changed != value and not changed == value, name
    assert value != object() and (value == object()) is False


def test_a_marked_node_equals_its_unmarked_copy():
    for node in (hll.i_axiom(SimpleProduct.of("a")), ll.ll_i(SimpleProduct.of("a"))):
        copy = replace(node)
        assert node.checked and not copy.checked and "checked" not in repr(node)
        assert copy == node and hash(copy) == hash(node) and repr(copy) == repr(node)


@pytest.mark.parametrize("index", range(24))
def test_no_field_can_be_assigned_or_deleted(index):
    value, _ = instances()[index]
    before = repr(value)
    for name in (*type(value).__match_args__, "checked", "text", "unknown"):
        with pytest.raises(FrozenError):
            setattr(value, name, None)
        with pytest.raises(FrozenError):
            delattr(value, name)
    assert repr(value) == before and issubclass(FrozenError, AttributeError)


# The classes whose ``__init__`` is their own: those that validate or canonicalize their fields, and the two
# the bench builds tens of times per op.
OWN_INIT = {syntax.Frame, SimpleProduct, syntax.OplusImplication, syntax.LlOplusProduct, syntax.HornSequent,
            ll.LlSequent, minsky.Instruction, minsky.Computation, syntax.PlainImplication, syntax.LlBang}


def _fields(value) -> dict:
    return {name: getattr(value, name) for name in type(value).__match_args__}


@pytest.mark.parametrize("index", range(24))
def test_a_value_rebuilds_equal_from_its_fields_by_position_or_by_name(index):
    value, _ = instances()[index]
    fields = _fields(value)
    for copy in (type(value)(*fields.values()), type(value)(**fields)):
        assert copy == value and repr(copy) == repr(value) and _fields(copy) == fields


def test_only_validating_and_hot_classes_keep_a_constructor_of_their_own():
    own = {type(value) for value, _ in instances() if type(value).__init__ is not Value.__init__}
    assert own == OWN_INIT


@pytest.mark.parametrize("index", [i for i, (value, _) in enumerate(instances()) if type(value) not in OWN_INIT])
def test_the_shared_constructor_refuses_each_misuse_with_a_type_error(index):
    value, _ = instances()[index]
    cls, fields = type(value), _fields(value)
    first, *_ = fields
    required = [name for name in fields if name not in cls._defaults]
    misuses = {
        "takes": lambda: cls(*fields.values(), None),
        "has no field 'unknown'": lambda: cls(*fields.values(), unknown=None),
        f"got field {first!r} twice": lambda: cls(*fields.values(), **{first: fields[first]}),
        f"needs field {required[-1]!r}": lambda: cls(**{n: v for n, v in fields.items() if n != required[-1]}),
    }
    for message, build in misuses.items():
        with pytest.raises(TypeError) as caught:
            build()
        assert not isinstance(caught.value, ValueError) and str(caught.value).startswith(f"{cls.__qualname__} {message}")


def test_an_omitted_field_takes_its_declared_default():
    violation = programs.Violation(programs.LEAF_MISMATCH)
    assert violation.vertex is None and violation.edge is None and violation.detail == ""
    assert violation == programs.Violation(kind=programs.LEAF_MISMATCH, detail="")
    node = hll.HllProof(hll.HllRule.I, syntax.HornSequent(SimpleProduct.of("a"), (), (), SimpleProduct.of("a")))
    assert node.premises == () and node.principal is None and node.frame is None
    assert bridge.RoundTripReport("CODE") == bridge.RoundTripReport("CODE", "", None, None, None, None, None)
    assert minsky.ValidationResult(True).reason is None and programs.StrongSolutionReport(True).violations == ()


def test_importing_the_cli_loads_no_code_generator():
    """A command pays for every module its import loads: ``dataclasses``
    compiles each class's methods through ``exec`` and imports ``inspect``."""
    probe = "import sys, hornlog.cli; print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
    out = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"

"""Horn-fragment linear logic toolkit.

Products, implications and sequents with canonical multiset identity;
tree-like Horn programs with a strong-computation evaluator, a strong-solution
verifier and a bounded witness prover; a zoned sequent calculus with a checker
and a program compiler; a flat cut-free calculus with a translation into the
zoned one, which resolves each choice in its fold (``compile ll-to-hll``), and
a choice-normalizer, ``push_oplus_down``, kept only as the reference that fold
is tested against and the bench traces, not as a product stage;
nondeterministic counter machines, their sequent encoding, and the two
constructive bridges between machine runs and programs.
"""

from .syntax import (
    Frame,
    HornFormula,
    HornSequent,
    OplusImplication,
    PlainImplication,
    SimpleProduct,
    apply_implication,
    match_antecedent,
    parse_formula,
    parse_product,
    parse_sequent,
    sequent_text,
)
from .minsky import (
    Computation,
    Configuration,
    Instruction,
    MinskyMachine,
    parse_machine,
    search_halting,
    successors,
    validate_computation,
)
from .encoding import MachineEncoding, decode_product
from .programs import (
    HornProgram,
    ProgramBuilder,
    compose,
    evaluate,
    prove_bounded,
    strong_fork,
    verify_strong_solution,
)
from .hll import HllProof, HllRule, check_hll_proof, compile_hll_to_program
from .ll import LlProof, LlRule, check_ll_proof, push_oplus_down, translate_ll_to_hll
from .bridge import (
    ProgramTrace,
    computation_to_program,
    program_to_computation,
    round_trip_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]

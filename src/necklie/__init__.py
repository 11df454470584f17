"""Exact computations around the Lie bialgebra of cyclic words.

Necklace words over a graded symplectic vector space carry a bracket and
a cobracket; this package implements them with exact rational arithmetic,
builds the deformed Chevalley-Eilenberg complexes they generate, and runs
the flatness, gauge, lifting, and verification machinery on top.
"""

from .bialgebra import (AxiomReport, CobracketValue, bracket,
                        check_bialgebra_axioms, cobracket)
from .cecomplex import (LambdaElement, TruncationProfile, ce_delta, coproduct,
                        extend_cobracket, lambda_bracket, lambda_differential,
                        normalize_tensor, project, unbounded_profile)
from .chains import (CEChainElement, chain_coproduct, chain_delta, chain_mul,
                     chain_unit, embed_element)
from .errors import (IntegrityError, NecklieError, PreconditionError,
                     SliceRangeError, UsageError)
from .exprs import (ExpressionError, parse_expression, parse_hamiltonian,
                    render_element, render_hamiltonian)
from .linalg import (BasisSlice, HomologyResult, SolveResult,
                     SparseRationalMatrix, TensorSliceSpec, WordSliceSpec,
                     enumerate_basis, homology_dims, matrix_of_operator,
                     solve_and_kernel)
from .mc import (HomotopyReport, MCCandidate, as_candidate, char_class,
                 gauge_act, homotopy_check, mc_residual)
from .obstruction import (ExtensionSpace, HochschildReport, KunnethReport,
                          LiftOutcome, MCState, ObstructionReport,
                          QuantumConstraintReport, default_lift_profile,
                          embed_hamiltonian, extend_step, extension_space,
                          hochschild_cohomology, hochschild_differential,
                          kunneth_check, lift, obstruction_class,
                          quantum_constraint_check)
from .onedim import (OneDimReport, general_solution_sample, make_family,
                     verify_kontsevich_suite)
from .space import SymplecticSpace, one_dim_space, two_dim_space
from .words import Hamiltonian, canonical_words, normalize_word

__all__ = [
    "AxiomReport", "BasisSlice", "CEChainElement",
    "CobracketValue", "ExpressionError", "ExtensionSpace", "Hamiltonian",
    "HochschildReport", "HomologyResult", "HomotopyReport", "IntegrityError",
    "KunnethReport", "LambdaElement", "LiftOutcome", "MCCandidate", "MCState",
    "NecklieError", "ObstructionReport", "OneDimReport", "PreconditionError",
    "QuantumConstraintReport", "SliceRangeError", "SolveResult",
    "SparseRationalMatrix", "SymplecticSpace", "TensorSliceSpec",
    "TruncationProfile", "UsageError", "WordSliceSpec", "as_candidate",
    "bracket", "canonical_words", "ce_delta", "chain_coproduct",
    "chain_delta", "chain_mul", "chain_unit", "char_class",
    "check_bialgebra_axioms", "cobracket", "coproduct",
    "default_lift_profile", "embed_element", "embed_hamiltonian",
    "enumerate_basis", "extend_cobracket", "extend_step", "extension_space",
    "gauge_act", "general_solution_sample", "hochschild_cohomology",
    "hochschild_differential", "homology_dims", "homotopy_check",
    "kunneth_check", "lambda_bracket", "lambda_differential", "lift",
    "make_family", "matrix_of_operator", "mc_residual", "normalize_tensor",
    "normalize_word", "obstruction_class", "one_dim_space",
    "parse_expression", "parse_hamiltonian", "project",
    "quantum_constraint_check", "render_element", "render_hamiltonian",
    "solve_and_kernel", "two_dim_space", "unbounded_profile",
    "verify_kontsevich_suite",
]

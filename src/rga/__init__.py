"""Exact computer algebra for regular graded algebras: rewriting normal
forms, closed-form two-generator operations, obstructed categories with
duality, the transported coalgebra structure, and Wick cross products,
all over the exact field Q(w)."""

from .algebra import (THETA, AlgebraMismatchError, Element, NotInvertible,
                      SpanEscapeError, Subspace, Verdict, Witness, annihilator,
                      check_representation, decompose,
                      find_idempotent_obstructions, grading_check, invert,
                      invert_by_solve, left_mul_matrix, mul, mul_closed_form,
                      obstructed_product, obstruction, right_mul_matrix,
                      verdict_of)
from .category import (Cocycle, LinearMap, MatrixFunctor,
                       Obstruction, check_cocycle_morphism,
                       check_duality_identity, check_natural_transformation,
                       check_obstructed_functor, check_regular_cocycle,
                       check_tensor_obstruction, cocycle_from_algebra,
                       cocycle_from_json, cocycle_to_json, dual_cocycle,
                       functor_from_json, module_from_json, obstruction_of,
                       obstruction_order)
from .linalg import Matrix
from .parser import (ParseError, parse_element, parse_scalar, parse_tensor,
                     parse_wick, parse_word_letters)
from .rewrite import (EMPTY_WORD, ZERO, ConfluenceReport, RewriteSystem,
                      Word)
from .scalar import OMEGA, OMEGA2, ONE, Scalar
from .tensor import (XI, TensorElement, check_almost_bialgebra,
                     check_coassociativity, check_regular_module,
                     dual_comultiplication, element_tensor, pair,
                     pair_tensor, pairing_matrix, tensor_mul)
from .wick import (ConjugatedPair, CrossSymmetry, WickElement,
                   check_coherence, check_regular_cross_symmetry, wick_mul,
                   wick_mul_regular)

__all__ = [name for name in dir() if not name.startswith("_")]

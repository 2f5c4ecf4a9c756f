"""Library refusals that no other test reaches, one row each: the call,
the exception type and the message it carries.  The mixed-type rows are
the `NotImplemented` returns of `Combination`, `Matrix` and `Scalar`
arithmetic, as Python reports them once the other operand declines too."""

import re
from fractions import Fraction

import pytest

from rga.algebra import (AlgebraMismatchError, Element, Subspace, annihilator,
                         find_idempotent_obstructions, invert,
                         left_mul_matrix, mul_closed_form, obstructed_product,
                         obstruction)
from rga.category import (ChainTypeError, Cocycle, LinearMap,
                          check_cocycle_morphism, dual_cocycle)
from rga.linalg import Matrix
from rga.rewrite import LetterRangeError, RewriteSystem, Word
from rga.scalar import ONE, Scalar
from rga.tensor import (XI, TensorElement, check_dual_pairing_identity,
                        check_regular_module, pair_tensor)
from rga.wick import ConjugatedPair, CrossSymmetry, WickElement

from helpers import identity, module_action

S2, S3, S64 = RewriteSystem(2), RewriteSystem(3), RewriteSystem(64)
T3 = Element.generator(S3, 1)
PAIR = ConjugatedPair()
A, B = Subspace("A", ("a",)), Subspace("B", ("b",))
AB, BA = LinearMap(A, B, Matrix([[1]])), LinearMap(B, A, Matrix([[1]]))
AA = LinearMap(A, A, Matrix([[1]]))
ROW = Matrix([[1, 2]])
T1 = Element.generator(S2, 1)
E = Subspace("E", (Word(()),))
TENSOR = TensorElement.single(S2, (1,), ())
WICK = WickElement.unit(PAIR)

REFUSALS = {
    # the n = 2 closed forms on an n = 3 input
    "from_coeffs": (lambda: Element.from_coeffs(S3, (1, 0, 0, 0, 0)),
                    ValueError, "coefficient form requires n=2"),
    # an n = 2 coefficient tuple of the wrong length
    "from_coeffs-short": (
        lambda: Element.from_coeffs(S2, (1, 2)), ValueError,
        "coefficient form needs the five components (a0, a1, a2, a12, a21), "
        "got 2"),
    "from_coeffs-long": (
        lambda: Element.from_coeffs(S2, (1, 2, 3, 4, 5, 6)), ValueError,
        "coefficient form needs the five components (a0, a1, a2, a12, a21), "
        "got 6"),
    "coeffs_n2": (lambda: T3.coeffs_n2(),
                  ValueError, "component form requires n=2"),
    "mul_closed_form": (lambda: mul_closed_form(T3, T3),
                        ValueError, "closed form requires n=2"),
    "invert": (lambda: invert(T3),
               ValueError, "closed-form inverse requires n=2"),
    "obstruction": (lambda: obstruction(T3),
                    ValueError, "obstruction map requires n=2"),
    "obstructed_product": (lambda: obstructed_product(T3, T3),
                           ValueError, "obstructed product requires n=2"),
    # the two-generator constants take no system, so none of another n
    "find_idempotent_obstructions": (
        lambda: find_idempotent_obstructions(S3), TypeError,
        "find_idempotent_obstructions() takes 0 positional arguments but 1 "
        "was given"),
    # options outside their choices, off-system inputs, a negative degree
    "annihilator-side": (
        lambda: annihilator(Element.generator(S2, 1), side="up"),
        ValueError, "side must be 'left' or 'right'"),
    "regular-vacuum": (lambda: CrossSymmetry.regular(PAIR, "vac"),
                       ValueError, "vacuum must be 'unit' or 'idem'"),
    # a base key beside the four generator pairs, refused by name
    "cross-symmetry-base-key": (
        lambda: CrossSymmetry(PAIR, {**CrossSymmetry.flip(PAIR).base,
                                     (3, 1): WICK, "junk": WICK}, "x"),
        ValueError, "base key (3, 1) is not a generator pair"),
    "pair-n3": (lambda: ConjugatedPair(S3, XI), TypeError,
                "ConjugatedPair.__new__() takes 1 positional argument but 3 "
                "were given"),
    "dagger-n3": (lambda: PAIR.dagger(T3),
                  ValueError, "element does not belong to this pair"),
    "pair_tensor-convention": (
        lambda: pair_tensor(TensorElement(S2), TensorElement(S2), "sideways"),
        ValueError, "unknown tensor pairing convention 'sideways'"),
    # refused before the stream, so also with no instance to check
    "pairing-identity-convention": (
        lambda: check_dual_pairing_identity({}, "bogus"),
        ValueError, "unknown tensor pairing convention 'bogus'"),
    # an algebra map whose images leave the module's algebra
    "regular-module-dagger": (
        lambda: check_regular_module(module_action(), PAIR.dagger,
                                     identity, S2),
        AlgebraMismatchError, "Element over RewriteSystem(n=2, symbol='T') "
        "vs Element over RewriteSystem(n=2, symbol='X')"),
    "regular-module-n3": (
        lambda: check_regular_module(module_action(), lambda a: T3,
                                     identity, S2),
        AlgebraMismatchError, "Element over RewriteSystem(n=2, symbol='T') "
        "vs Element over RewriteSystem(n=3, symbol='T')"),
    "regular-module-shape": (
        lambda: check_regular_module({Word(()): ROW}, identity, identity, S2),
        ValueError, "action matrices must all be 2x2"),
    # an operator codomain whose words are no basis in normal form
    "codomain-zero-word": (
        lambda: left_mul_matrix(T1, E, Subspace("C", (Word((2, 2)),))),
        ValueError, "codomain C has a word that rewrites to 0 or to another "
        "one's normal form"),
    "codomain-shared-normal-form": (
        lambda: left_mul_matrix(T1, E, Subspace("C", (Word((1,)),
                                                      Word((1, 2, 1))))),
        ValueError, "codomain C has a word that rewrites to 0 or to another "
        "one's normal form"),
    "coeff-letter-7": (lambda: T1.coeff((7,)), LetterRangeError,
                       "letter 7 outside generator range 1..2"),
    "coeff-wick-letter-3": (lambda: WICK.coeff((1,), (3,)), LetterRangeError,
                            "letter 3 outside generator range 1..2"),
    # a generator's letter, refused as `normal_form` refuses it
    "generator-0": (lambda: Element.generator(S2, 0), LetterRangeError,
                    "letter 0 outside generator range 1..2"),
    "generator-n+1": (lambda: Element.generator(S2, 3), LetterRangeError,
                      "letter 3 outside generator range 1..2"),
    "generator-bool": (lambda: Element.generator(S2, True),
                       LetterRangeError, "letter True is not an int"),
    "generator-float": (lambda: Element.generator(S2, 1.0),
                        LetterRangeError, "letter 1.0 is not an int"),
    "enumerate-negative": (lambda: S2.enumerate_normal_forms(-1),
                           ValueError, "max_len must be >= 0"),
    # chains whose maps do not meet
    "cocycle-empty": (lambda: Cocycle([], []),
                      ChainTypeError, "need one map per space"),
    "cocycle-start": (lambda: Cocycle([A, B], [BA, AB]),
                      ChainTypeError, "map 0 does not start at space 0"),
    "compose": (lambda: AB.compose(AB),
                ChainTypeError, "cannot compose A->B after A->B"),
    "morphism-length": (
        lambda: check_cocycle_morphism([AA], Cocycle([A, B], [AB, BA]),
                                       Cocycle([A], [AA])),
        ChainTypeError, "morphism length must match the cocycles"),
    "dual-pairing-size": (
        lambda: dual_cocycle(Cocycle([A], [AA]), {"A": Matrix.identity(2)}),
        ValueError, "pairing at A has wrong size"),
    # letters outside 1..n, refused before a word is encoded as bytes
    "nf-word-300": (lambda: S2.normal_form(Word((300,))), LetterRangeError,
                    "letter 300 outside generator range 1..2"),
    "nf-word-negative": (lambda: S2.normal_form(Word((-1,))),
                         LetterRangeError,
                         "letter -1 outside generator range 1..2"),
    "nf-word-256": (lambda: S2.normal_form(Word((1, 2, 256))),
                    LetterRangeError,
                    "letter 256 outside generator range 1..2"),
    "nf-word-0": (lambda: S2.normal_form(Word((0,))), LetterRangeError,
                  "letter 0 outside generator range 1..2"),
    "nf-word-3": (lambda: S2.normal_form(Word((1, 3))), LetterRangeError,
                  "letter 3 outside generator range 1..2"),
    "nf-word-65": (lambda: S64.normal_form(Word((65,))), LetterRangeError,
                   "letter 65 outside generator range 1..64"),
    "nf-raw-256": (lambda: S2.normal_form([256]), LetterRangeError,
                   "letter 256 outside generator range 1..2"),
    "nf-raw-bool": (lambda: S2.normal_form((True, 2)), LetterRangeError,
                    "letter True is not an int"),
    "nf-raw-str": (lambda: S2.normal_form("12"), LetterRangeError,
                   "letter '1' is not an int"),
    "product-300": (lambda: S2.product(Word((1,)), Word((300,))),
                    LetterRangeError,
                    "letter 300 outside generator range 1..2"),
    # matrix shapes
    "matrix-add": (lambda: Matrix([[1]]) + ROW, ValueError, "shape mismatch"),
    "matrix-mul": (lambda: ROW * ROW,
                   ValueError, "cannot compose 1x2 with 1x2"),
    "matrix-apply": (lambda: ROW.apply([1]),
                     ValueError, "vector length mismatch"),
    "matrix-solve": (lambda: ROW.solve([1, 2]),
                     ValueError, "rhs length mismatch"),
    "matrix-inverse": (lambda: ROW.inverse(),
                       ValueError, "only square matrices invert"),
    # the unit law returns a factor only past the type and shape checks
    "identity-mul": (lambda: Matrix.identity(2) * Matrix.identity(3),
                     ValueError, "cannot compose 2x2 with 3x3"),
    "identity-times-int": (
        lambda: Matrix.identity(2) * 2, TypeError,
        "unsupported operand type(s) for *: 'Matrix' and 'int'"),
    "int-times-identity": (
        lambda: 2 * Matrix.identity(2), TypeError,
        "unsupported operand type(s) for *: 'int' and 'Matrix'"),
    # arithmetic with an operand of another kind, or no number
    "element-times-str": (lambda: T1 * "x", TypeError,
                          "can't multiply sequence by non-int of type "
                          "'Element'"),
    "str-times-element": (lambda: "x" * T1, TypeError,
                          "can't multiply sequence by non-int of type "
                          "'Element'"),
    "element-times-float": (
        lambda: T1 * 1.5, TypeError,
        "unsupported operand type(s) for *: 'Element' and 'float'"),
    "float-times-element": (
        lambda: 1.5 * T1, TypeError,
        "unsupported operand type(s) for *: 'float' and 'Element'"),
    "element-times-tensor": (
        lambda: T1 * TENSOR, TypeError,
        "unsupported operand type(s) for *: 'Element' and 'TensorElement'"),
    "tensor-times-element": (
        lambda: TENSOR * T1, TypeError,
        "unsupported operand type(s) for *: 'TensorElement' and 'Element'"),
    "scalar-minus-float": (
        lambda: ONE - 0.5, TypeError,
        "unsupported operand type(s) for -: 'Scalar' and 'float'"),
    "scalar-plus-str": (
        lambda: ONE + "1", TypeError,
        "unsupported operand type(s) for +: 'Scalar' and 'str'"),
    "str-minus-scalar": (
        lambda: "1" - ONE, TypeError,
        "unsupported operand type(s) for -: 'str' and 'Scalar'"),
    "scalar-times-str": (lambda: ONE * "1", TypeError,
                         "can't multiply sequence by non-int of type "
                         "'Scalar'"),
    "scalar-over-str": (
        lambda: ONE / "1", TypeError,
        "unsupported operand type(s) for /: 'Scalar' and 'str'"),
    "str-over-scalar": (
        lambda: "1" / ONE, TypeError,
        "unsupported operand type(s) for /: 'str' and 'Scalar'"),
    "float-over-scalar": (
        lambda: 0.5 / ONE, TypeError,
        "unsupported operand type(s) for /: 'float' and 'Scalar'"),
    "scalar-power-negative": (
        lambda: ONE ** -1, TypeError,
        "unsupported operand type(s) for ** or pow(): 'Scalar' and 'int'"),
    "scalar-power-float": (
        lambda: ONE ** 0.5, TypeError,
        "unsupported operand type(s) for ** or pow(): 'Scalar' and 'float'"),
    # a Wick product needs its cross symmetry: `wick_mul`, not `*`
    "wick-times-wick": (
        lambda: WICK * WICK, TypeError,
        "unsupported operand type(s) for *: 'WickElement' and "
        "'WickElement'"),
    "element-plus-tensor": (
        lambda: T1 + TENSOR, TypeError,
        "unsupported operand type(s) for +: 'Element' and 'TensorElement'"),
    "tensor-plus-wick": (
        lambda: TENSOR + WICK, TypeError,
        "unsupported operand type(s) for +: 'TensorElement' and "
        "'WickElement'"),
    "element-plus-str": (
        lambda: T1 + "x", TypeError,
        "unsupported operand type(s) for +: 'Element' and 'str'"),
    "str-plus-element": (lambda: "x" + T1, TypeError,
                         'can only concatenate str (not "Element") to str'),
    "element-minus-float": (
        lambda: T1 - 1.5, TypeError,
        "unsupported operand type(s) for -: 'Element' and 'float'"),
    "float-minus-element": (
        lambda: 1.5 - T1, TypeError,
        "unsupported operand type(s) for -: 'float' and 'Element'"),
    # values are immutable
    "element-immutable": (lambda: setattr(T3, "_d", 2),
                          AttributeError, "Element is immutable"),
    "matrix-immutable": (lambda: setattr(ROW, "d", 2),
                         AttributeError, "Matrix is immutable"),
    "system-immutable": (lambda: setattr(S2, "n", 3),
                         AttributeError, "RewriteSystem is immutable"),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(),
                         ids=REFUSALS.keys())
def test_refusal(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_scalar_equals_no_other_kind():
    # Scalar declines a str or a float, and so does the other side
    assert ONE.__eq__("x") is NotImplemented and (ONE == "x") is False
    assert ONE.__eq__(0.5) is NotImplemented and (ONE == 0.5) is False
    assert ONE != "x" and ONE != 0.5


def test_scalar_times_combination_is_the_scaled_combination():
    # Scalar declines a Combination, whose __rmul__ then scales it
    s = Scalar(Fraction(1, 2), -1)
    for x in (T1 + 2, TENSOR, WICK):
        assert s * x == x * s == x.scale(s)
        assert type(s * x) is type(x)

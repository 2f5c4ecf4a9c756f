from fractions import Fraction
from itertools import product
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from rga.algebra import (AlgebraMismatchError, Element, N2_BASIS,
                         NotInvertible, SpanEscapeError, Subspace, annihilator,
                         check_representation, decompose,
                         find_idempotent_obstructions, grading_check, invert,
                         invert_by_solve, left_mul_matrix, mul,
                         mul_closed_form, obstructed_product, obstruction,
                         right_mul_matrix, Witness)
from rga.linalg import Matrix
from rga.rewrite import RewriteSystem, Word
from rga.scalar import OMEGA, OMEGA2, ONE, Scalar

from helpers import rand_element, rand_invertible

S2 = RewriteSystem(2)
T1 = Element.generator(S2, 1)
T2 = Element.generator(S2, 2)
E12 = mul(T1, T2)
E21 = mul(T2, T1)
UNIT = Element.unit(S2)


def test_add_scale():
    assert T1 + T1 == T1.scale(2)
    assert (T1 + T1.scale(-1)).is_zero()
    assert UNIT.scale(OMEGA).scale(OMEGA) == UNIT.scale(OMEGA2)


def test_algebra_mismatch():
    with pytest.raises(AlgebraMismatchError):
        mul(T1, Element.generator(RewriteSystem(3), 1))


def test_regularity_products():
    assert mul(mul(T1, T2), T1) == T1
    assert mul(mul(T2, T1), T2) == T2
    assert mul(T1, mul(T2, T1)) == T1


def test_idempotents_orthogonal_units():
    assert mul(E12, E12) == E12
    assert mul(E21, E21) == E21
    assert mul(E12, E21).is_zero() and mul(E21, E12).is_zero()
    assert mul(E12, T1) == T1 and mul(T1, E21) == T1
    assert mul(E21, T2) == T2 and mul(T2, E12) == T2


def test_unit_inverse_pair():
    assert mul(UNIT + E12, UNIT - E12.scale(Fraction(1, 2))) == UNIT


def test_closed_form_matches_rewriting_basis():
    for u in N2_BASIS:
        for v in N2_BASIS:
            a = Element.from_word(S2, u)
            b = Element.from_word(S2, v)
            assert mul(a, b) == mul_closed_form(a, b)


def test_closed_form_matches_rewriting_random():
    rng = Random(101)
    for _ in range(1000):
        a = rand_element(rng, S2)
        b = rand_element(rng, S2)
        assert mul(a, b) == mul_closed_form(a, b)


def test_closed_form_single_component():
    # the regularity cross term a1*b21 alone produces T1
    assert mul_closed_form(T1, E21) == T1
    assert mul_closed_form(T1, T2) == E12


def test_associativity_exhaustive_n2():
    basis = [Element.from_word(S2, w) for w in N2_BASIS]
    for a, b, c in product(basis, repeat=3):
        assert mul(mul(a, b), c) == mul(a, mul(b, c))


def test_associativity_n3_basis():
    sys = RewriteSystem(3)
    basis = [Element.from_word(sys, w)
             for w in sys.enumerate_normal_forms(2)]
    for a, b, c in product(basis, repeat=3):
        assert mul(mul(a, b), c) == mul(a, mul(b, c))


def test_regularity_chains_up_to_five():
    # g_i g_{i+1} ... g_n g_1 ... g_{i-1} g_i = g_i, by products of elements
    for n in range(2, 6):
        sys = RewriteSystem(n)
        for i in range(1, n + 1):
            acc = Element.unit(sys)
            for j in [*range(i, n + 1), *range(1, i), i]:
                acc = mul(acc, Element.generator(sys, j))
            assert acc == Element.generator(sys, i)


# -- inversion ---------------------------------------------------------------


def test_invert_examples():
    assert invert(UNIT + T1) == UNIT - T1
    assert invert(UNIT + E12) == UNIT - E12.scale(Fraction(1, 2))
    with pytest.raises(NotInvertible) as err:
        invert(T1)
    assert err.value.reason == "a0"
    with pytest.raises(NotInvertible) as err:
        invert(Element.from_coeffs(S2, (1, 1, 1, 0, 0)))
    assert err.value.reason == "D"


def test_invert_two_sided_random():
    rng = Random(102)
    for _ in range(200):
        a = rand_invertible(rng, S2)
        inv = invert(a)
        assert mul(a, inv) == UNIT and mul(inv, a) == UNIT


def test_invert_agrees_with_solve():
    rng = Random(103)
    for _ in range(1000):
        a = rand_element(rng, S2)
        try:
            closed = invert(a)
        except NotInvertible:
            continue
        assert invert_by_solve(a) == closed


def test_solve_rejects_singular():
    with pytest.raises(NotInvertible):
        invert_by_solve(T1)


def test_solve_and_annihilator_refuse_n3():
    a = Element.generator(RewriteSystem(3), 1) + 1
    for solve in (invert_by_solve, lambda x: annihilator(x, "right")):
        with pytest.raises(ValueError, match="requires n=2") as err:
            solve(a)
        assert "basis" not in str(err.value)


# -- multiplication operators -------------------------------------------------


def test_left_mul_matrix_swap():
    x1 = Subspace("X1", (Word([1]), Word([1, 2])))
    x2 = Subspace("X2", (Word([2]), Word([2, 1])))
    m = left_mul_matrix(T2, x1, x2)
    assert m == Matrix([[0, 1], [1, 0]])


def test_left_mul_matrix_unit_identity():
    x1 = Subspace("X1", (Word([1]), Word([1, 2])))
    m = left_mul_matrix(UNIT, x1, x1)
    assert m.is_identity()


def test_operator_composition_equals_word_operator():
    x1 = Subspace("X1", (Word([1]), Word([1, 2])))
    x2 = Subspace("X2", (Word([2]), Word([2, 1])))
    l2 = left_mul_matrix(T2, x1, x2)
    l1 = left_mul_matrix(T1, x2, x1)
    l12 = left_mul_matrix(E12, x1, x1)
    assert l1 * l2 == l12


def test_right_mul_matrix():
    x1 = Subspace("X1", (Word([1]), Word([1, 2])))
    # T1*T2 = T1T2 stays in the span, T1T2*T2 = 0
    m = right_mul_matrix(T2, x1, x1)
    assert m == Matrix([[0, 0], [1, 0]])


def test_span_escape_error():
    x1 = Subspace("X1", (Word([1]), Word([1, 2])))
    with pytest.raises(SpanEscapeError) as err:
        left_mul_matrix(T2, x1, x1)
    assert err.value.escaped in (Word([2]), Word([2, 1]))


def test_terms_cancelling_outside_the_codomain_are_no_escape():
    # (1 - T1T2) T1 = T1 - T1 and T1 (1 - T2T1) = T1 - T1: both terms
    # leave C = span(T2), and their sum vanishes there
    d, c = Subspace("D", (Word([1]),)), Subspace("C", (Word([2]),))
    assert left_mul_matrix(UNIT - E12, d, c) == Matrix([[0]])
    assert right_mul_matrix(UNIT - E21, d, c) == Matrix([[0]])


def test_domain_word_that_rewrites_to_zero_has_a_zero_column():
    # T1 T1 = 0, so its column is skipped; T1 * T2 = T1T2
    d = Subspace("d", (Word((1, 1)), Word((2,))))
    c = Subspace("c", (Word((1, 2)),))
    assert left_mul_matrix(T1, d, c) == Matrix([[0, 1]])


def test_codomain_words_are_read_in_normal_form():
    # T1 T2 T1 T2 = T1 T2, which is T1 * T2 and also T1 T2 T1 * T2
    c = Subspace("c", (Word((1, 2, 1, 2)),))
    assert left_mul_matrix(T1, Subspace("d", (Word((2,)),)), c) == \
        Matrix([[1]])
    assert right_mul_matrix(T2, Subspace("d", (Word((1, 2, 1)),)), c) == \
        Matrix([[1]])


S3 = RewriteSystem(3)
OPERATOR_SPACES = {
    system.n: [Subspace(f"E{k}", tuple(system.enumerate_normal_forms(k)))
               for k in (1, 2)] + decompose(system, 2)
    for system in (S2, S3)}


def operator_elements(system):
    """Elements of words up to 3 letters: a few terms, and pairs c u - c v,
    whose products with one word may meet, as T1 T2 T1 meets T1, and
    cancel."""
    words = st.lists(st.integers(1, system.n), max_size=3).map(tuple)
    coeffs = st.sampled_from([1, -1, 2, Fraction(1, 2), OMEGA])
    return st.tuples(st.lists(st.tuples(words, coeffs), max_size=2),
                     st.lists(st.tuples(words, words, coeffs), max_size=3)
                     ).map(lambda parts: Element(system, parts[0] + [
                         t for u, v, c in parts[1] for t in ((u, c), (v, -c))]))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([S2, S3]).flatmap(lambda system: st.tuples(
    operator_elements(system),
    st.sampled_from(OPERATOR_SPACES[system.n]),
    st.sampled_from(OPERATOR_SPACES[system.n]))), st.booleans())
def test_operator_columns_are_the_summed_products(case, left):
    a, domain, codomain = case
    images = [mul(a, e) if left else mul(e, a)
              for e in (Element.from_word(a.system, w) for w in domain.basis)]
    operator = left_mul_matrix if left else right_mul_matrix
    escapes = [(w, u) for w, image in zip(domain.basis, images)
               for u in image.support() if u not in codomain.basis]
    if escapes:
        with pytest.raises(SpanEscapeError) as err:
            operator(a, domain, codomain)
        # the first domain word whose summed image leaves the codomain
        source = escapes[0][0]
        assert err.value.source == source
        assert (source, err.value.escaped) in escapes
        return
    m = operator(a, domain, codomain)
    assert (m.nrows, m.ncols) == (codomain.dim, domain.dim)
    for j, image in enumerate(images):
        assert [row[j] for row in m.rows] == [image.coeff(w)
                                              for w in codomain.basis]


def test_check_representation():
    assert check_representation(2, 2).ok
    assert check_representation(3, 4).ok
    assert check_representation(1, 3).ok


# -- annihilators --------------------------------------------------------------


def test_annihilator_t1():
    got = annihilator(T1, "right")
    assert got == [T1, E12, UNIT - E21]
    for b in got:
        assert mul(T1, b).is_zero()


def test_annihilator_unit_and_generic():
    assert annihilator(UNIT, "right") == []
    rng = Random(104)
    a = rand_invertible(rng, S2)
    assert annihilator(a, "right") == [] and annihilator(a, "left") == []


def test_annihilator_dimension_matches_rank():
    rng = Random(105)
    space = Subspace("A", N2_BASIS)
    for _ in range(50):
        a = rand_element(rng, S2)
        m = left_mul_matrix(a, space, space)
        got = annihilator(a, "right")
        assert len(got) == 5 - m.rank()
        for b in got:
            assert mul(a, b).is_zero()


def test_annihilator_left_side():
    for b in annihilator(T1, "left"):
        assert mul(b, T1).is_zero()


def test_claimed_zero_divisor_is_not_universal():
    # b = 1 - T1 - T2 annihilates exactly the family a0=0, a1=a12, a2=a21
    b = Element.from_coeffs(S2, (1, -1, -1, 0, 0))
    generic = Element.from_coeffs(S2, (1, 2, 3, 5, 7))
    assert not mul(generic, b).is_zero()
    assert mul(generic, b).coeff(Word(())) == ONE  # constant survives as a0*b0
    member = Element.from_coeffs(S2, (0, 1, 1, 1, 1))
    assert mul(member, b).is_zero() and mul(b, member).is_zero()


# -- obstruction machinery -------------------------------------------------------


def test_obstruction_examples():
    assert obstruction(T1) == UNIT + T2
    assert obstruction(Element(S2)) == UNIT
    a = Element.from_coeffs(S2, (0, 0, 0, 1, 0))
    assert obstruction(a) == UNIT + E21


def test_obstruction_ignores_constant():
    a = Element.from_coeffs(S2, (7, 1, 0, 0, 0))
    assert obstruction(a) == UNIT + T2


def test_obstructed_product_example():
    c = obstructed_product(T1, T2)
    assert c.coeffs_n2() == (ONE, ONE, ONE, ONE, Scalar(0))


def test_obstructed_product_intertwines():
    rng = Random(106)
    for _ in range(1000):
        a = rand_element(rng, S2)
        b = rand_element(rng, S2)
        c = obstructed_product(a, b)
        assert mul(obstruction(a), obstruction(b)) == obstruction(c)


def test_idempotent_obstructions():
    got = find_idempotent_obstructions()
    assert len(got) == 2
    first = Element.from_coeffs(S2, (ONE, ONE, ONE, OMEGA, OMEGA2))
    second = Element.from_coeffs(S2, (ONE, ONE, ONE, OMEGA2, OMEGA))
    assert got == [first, second] or got == [second, first]
    for e in got:
        assert mul(e, e) == e
    # the two roots of g**2 + g + 1 are the only candidates: the quadratic
    # factors exactly
    for g in (OMEGA, OMEGA2):
        assert (g - OMEGA) * (g - OMEGA2) == g * g + g + ONE


def test_idempotent_coefficients_are_conjugate_cube_roots():
    # w and w**2 are the two roots of x**2 + x + 1, i.e. (-1 +- i*sqrt(3))/2
    assert OMEGA + OMEGA2 == Scalar(-1) and OMEGA * OMEGA2 == ONE
    assert OMEGA.conjugate() == OMEGA2


# -- decomposition and grading -----------------------------------------------------


def test_decompose_n2():
    x1, x2 = decompose(S2, 2)
    assert x1.basis == (Word([1]), Word([1, 2]))
    assert x2.basis == (Word([2]), Word([2, 1]))


def test_decompose_n3_deg1():
    spaces = decompose(RewriteSystem(3), 1)
    assert [s.basis for s in spaces] == [(Word([1]),), (Word([2]),),
                                         (Word([3]),)]


def test_decompose_covers_basis():
    for n, deg in ((2, 2), (3, 3)):
        sys = RewriteSystem(n)
        spaces = decompose(sys, deg)
        union = {w for s in spaces for w in s.basis}
        assert union | {Word(())} == set(sys.enumerate_normal_forms(deg))


def test_grading_check_n2():
    # both odd, so the triple T1*T2*T1 = T1 is checked too, and is odd
    assert T1.parity() == 1 and T2.parity() == 1
    assert grading_check(T1, T2).ok


def test_grading_check_violation_n3():
    sys = RewriteSystem(3)
    a = Element.from_word(sys, Word([1, 2, 3]))
    b = Element.generator(sys, 1)
    rep = grading_check(a, b)
    assert not rep.ok
    assert rep.witnesses == (Witness("product grade", Word([1]), 1, 0),)


def test_grading_check_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        grading_check(UNIT + T1, T2)

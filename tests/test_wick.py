from random import Random

import pytest

from rga.algebra import (THETA, AlgebraMismatchError, Combination, Element,
                         mul, obstruction)
from rga.rewrite import LetterRangeError, RewriteSystem, Word
from rga.scalar import OMEGA, OMEGA2, ONE, Scalar
from rga.wick import (ConjugatedPair, CrossSymmetry, IncompleteBaseError,
                      WickElement, check_coherence,
                      check_regular_cross_symmetry, order_coherent,
                      wick_mul, wick_mul_regular)
from rga.tensor import XI, TensorElement

from helpers import rand_element, rand_scalar

PAIR = ConjugatedPair()
PSI = CrossSymmetry.regular(PAIR, "unit")
FLIP = CrossSymmetry.flip(PAIR)


def wick(theta, xi, coeff=ONE):
    return WickElement.single(PAIR, theta, xi, coeff)


def rand_wick(rng, max_len=2, terms=3):
    wt = PAIR.theta.enumerate_normal_forms(max_len)
    wx = PAIR.xi.enumerate_normal_forms(max_len)
    out = {}
    for _ in range(terms):
        out[(rng.choice(wt), rng.choice(wx))] = rand_scalar(rng)
    return WickElement(PAIR, out)


# -- dagger ----------------------------------------------------------------------


def test_dagger_reverses_words():
    a = Element.from_word(PAIR.theta, (1, 2))
    assert PAIR.dagger(a) == Element.from_word(PAIR.xi, (2, 1))


def test_dagger_antilinear():
    a = Element.generator(PAIR.theta, 1).scale(OMEGA)
    assert PAIR.dagger(a) == Element.generator(PAIR.xi, 1).scale(OMEGA2)


def test_dagger_involutive_random():
    rng = Random(51)
    for _ in range(300):
        a = rand_element(rng, PAIR.theta)
        assert PAIR.dagger(PAIR.dagger(a)) == a


def test_dagger_antihomomorphism_random():
    rng = Random(52)
    for _ in range(1000):
        a = rand_element(rng, PAIR.theta)
        b = rand_element(rng, PAIR.theta)
        assert PAIR.dagger(mul(a, b)) == mul(PAIR.dagger(b), PAIR.dagger(a))


# -- cross symmetry extension ------------------------------------------------------


def test_base_values():
    assert PSI.apply((1,), (2,)) == wick((2,), (1,))
    assert PSI.apply((2,), (1,)) == wick((1,), (2,))
    assert PSI.apply((1,), (1,)) == wick((), ()) - wick((1,), (1,))
    assert PSI.apply((2,), (2,)) == wick((), ()) - wick((2,), (2,))


@pytest.mark.parametrize("vacuum, vac1, vac2", [
    ("unit", wick((), ()), wick((), ())),
    ("idem", wick((1, 2), ()), wick((2, 1), ())),
])
def test_regular_base_table(vacuum, vac1, vac2):
    # X_i (x) T_j goes to T_j (x) X_i off the diagonal, as the flip has it
    assert CrossSymmetry.regular(PAIR, vacuum).base == {
        (1, 1): vac1 - wick((1,), (1,)), (1, 2): wick((2,), (1,)),
        (2, 1): wick((1,), (2,)), (2, 2): vac2 - wick((2,), (2,))}


def test_unit_laws():
    for w in PAIR.theta.enumerate_normal_forms(2):
        assert PSI.apply((), w) == wick(w, ())
    for w in PAIR.xi.enumerate_normal_forms(2):
        assert PSI.apply(w, ()) == wick((), w)


def test_derived_value_bit_exact():
    # the worked extension step: psi(X1 (x) T1 T2) = T2 (x) 1 - T1T2 (x) X1
    got = PSI.apply((1,), (1, 2))
    assert got == wick((2,), ()) - wick((1, 2), (1,))
    assert got.coeff(Word([2]), Word(())) == ONE
    assert got.coeff(Word([1, 2]), Word([1])) == Scalar(-1)


def test_idem_vacuum_changes_derived_value():
    psi = CrossSymmetry.regular(PAIR, "idem")
    assert psi.apply((1,), (1, 2)) == -wick((1, 2), (1,))


def test_apply_puts_words_in_normal_form():
    # X1 X2 X1 = X1, and X1 X1 = 0 = T2 T2
    assert PSI.apply((1, 2, 1), (1,)) == PSI.apply((1,), (1,))
    assert PSI.apply((1,), (1, 2, 1, 2)) == PSI.apply((1,), (1, 2))
    assert PSI.apply((1, 1), (2,)) == 0
    assert PSI.apply((2,), (2, 2)) == 0
    for theta in PAIR.theta.enumerate_normal_forms(2):
        assert FLIP.apply((2, 1, 2, 1), theta) == FLIP.apply((2, 1), theta)


@pytest.mark.parametrize("words", [((3,), (1,)), ((1,), (0,)),
                                   ((1, 2), (2, 3))])
def test_apply_refuses_letters_out_of_range(words):
    with pytest.raises(LetterRangeError):
        CrossSymmetry.regular(PAIR, "unit").apply(*words)


def test_the_pair_is_one_immutable_object():
    assert ConjugatedPair() is PAIR
    assert PAIR.theta is THETA and PAIR.xi is XI
    assert repr(PAIR) == "ConjugatedPair()"
    for name in ("theta", "xi", "extra"):
        with pytest.raises(AttributeError):
            setattr(PAIR, name, XI)
    assert not hasattr(PAIR, "__dict__")
    with pytest.raises(TypeError):  # no other pair can be built
        ConjugatedPair(RewriteSystem(3))


def test_base_over_another_pair_rejected():
    # the same keys over the pair of algebras (THETA, THETA), not (THETA, XI)
    base = dict(PSI.base)
    base[(1, 2)] = TensorElement.single(THETA, (2,), (1,))
    with pytest.raises(AlgebraMismatchError):
        CrossSymmetry(PAIR, base, "custom")


def test_bare_combination_over_the_pair_rejected():
    # a bare Combination over (theta, xi) has the pair's fields as its
    # context, but it is not a WickElement
    base = dict(PSI.base)
    base[(1, 2)] = Combination((PAIR.theta, PAIR.xi), [((Word((2,)),
                                                          Word((1,))), ONE)])
    with pytest.raises(AlgebraMismatchError):
        CrossSymmetry(PAIR, base, "custom")
    with pytest.raises(AlgebraMismatchError):
        wick_mul(wick((1,), ()), base[(1, 2)], PSI)


def test_incomplete_base_rejected():
    base = {(1, 1): wick((), ())}
    with pytest.raises(IncompleteBaseError):
        CrossSymmetry(PAIR, base, "custom")


def test_coherence_flip_full():
    verdict = check_coherence(FLIP, 2)
    assert verdict.ok and order_coherent(verdict)
    assert verdict.checked == 170


def test_coherence_unit_vacuum_frozen():
    # frozen verdict: extension is order-coherent but the full law fails
    # exactly on splits whose product rewrites
    verdict = check_coherence(PSI, 2)
    assert order_coherent(verdict)
    assert not verdict.ok
    assert len(verdict.witnesses) == 48
    assert all(w.law.endswith("[reduction]") for w in verdict.witnesses)


def test_coherence_idem_vacuum_frozen():
    verdict = check_coherence(CrossSymmetry.regular(PAIR, "idem"), 2)
    assert not order_coherent(verdict) and not verdict.ok


def test_coherence_perturbed_base():
    base = dict(FLIP.base)
    base[(1, 2)] = wick((2,), (1,), Scalar(2))
    verdict = check_coherence(CrossSymmetry(PAIR, base, "perturbed"), 2)
    assert not verdict.ok
    assert verdict.witnesses[0].at  # witness names the word pair


# -- wick multiplication -----------------------------------------------------------


def test_wick_mul_examples():
    assert wick_mul(wick((), (1,)), wick((1,), ()), PSI) \
        == wick((), ()) - wick((1,), (1,))
    assert wick_mul(wick((1,), ()), wick((2,), ()), PSI) == wick((1, 2), ())
    assert wick_mul(wick((), (1,)), wick((2,), ()), PSI) == wick((2,), (1,))


def test_wick_unit():
    rng = Random(53)
    one = WickElement.unit(PAIR)
    for _ in range(50):
        x = rand_wick(rng)
        assert wick_mul(one, x, PSI) == x
        assert wick_mul(x, one, PSI) == x


def test_wick_mul_bilinear():
    rng = Random(54)
    for _ in range(100):
        x, y, z = (rand_wick(rng) for _ in range(3))
        s = rand_scalar(rng)
        assert wick_mul(x + y, z, PSI) \
            == wick_mul(x, z, PSI) + wick_mul(y, z, PSI)
        assert wick_mul(x.scale(s), y, PSI) == wick_mul(x, y, PSI).scale(s)


def test_wick_associative_conditional_on_coherence():
    # the associativity guarantee applies to coherent cross symmetries;
    # flip passes the full law and must be associative
    assert check_coherence(FLIP, 2).ok
    rng = Random(55)
    for _ in range(200):
        x, y, z = (rand_wick(rng) for _ in range(3))
        assert wick_mul(wick_mul(x, y, FLIP), z, FLIP) \
            == wick_mul(x, wick_mul(y, z, FLIP), FLIP)


def test_wick_nonassociativity_witness_for_incoherent_base():
    # the regular base fails the full law, and associativity breaks on a
    # triple that exercises a rewriting product
    assert not check_coherence(PSI, 2).ok
    x, y, z = wick((), (1,)), wick((1,), ()), wick((2, 1), ())
    assert wick_mul(wick_mul(x, y, PSI), z, PSI) \
        != wick_mul(x, wick_mul(y, z, PSI), PSI)


PRODUCTS = [wick_mul, lambda x, y, psi: wick_mul_regular(
    x, y, psi, obstruction, obstruction)]


@pytest.mark.parametrize("product", PRODUCTS, ids=["plain", "regular"])
def test_wick_products_refuse_operands_of_two_pairs(product):
    # a tensor over the pair of algebras (THETA, THETA), not (THETA, XI)
    x = TensorElement.single(THETA, (1,), ())
    with pytest.raises(AlgebraMismatchError):
        product(x, wick((), (1,)), PSI)


# -- regular wick machinery --------------------------------------------------------


def test_regular_wick_identity_maps_degenerate_to_plain():
    rng = Random(56)
    ident = lambda a: a
    for _ in range(100):
        x, y = rand_wick(rng), rand_wick(rng)
        assert wick_mul_regular(x, y, PSI, ident, ident) \
            == wick_mul(x, y, PSI)


def test_regular_wick_sample_frozen():
    got = wick_mul_regular(wick((1,), ()), wick((), (1,)), PSI,
                           obstruction, obstruction)
    expected = (wick((), ()) + wick((), (2,)) + wick((2,), ())
                + wick((2,), (2,)))
    assert got == expected


def test_regular_wick_bilinear():
    rng = Random(57)
    for _ in range(60):
        x, y, z = (rand_wick(rng) for _ in range(3))
        lhs = wick_mul_regular(x + y, z, PSI, obstruction, obstruction)
        rhs = wick_mul_regular(x, z, PSI, obstruction, obstruction) \
            + wick_mul_regular(y, z, PSI, obstruction, obstruction)
        assert lhs == rhs


def test_regular_cross_symmetry_identity_maps():
    ident = lambda a: a
    v = check_regular_cross_symmetry(PSI, ident, ident, 2)
    assert v.ok and not v.witnesses
    assert check_regular_cross_symmetry(FLIP, ident, ident, 2).ok


def test_regular_cross_symmetry_obstruction_frozen():
    v = check_regular_cross_symmetry(PSI, obstruction, obstruction, 2)
    assert not v.ok and len(v.witnesses) == 14


def test_regular_cross_symmetry_perturbed():
    # an affine shift on one leg only breaks the intertwining for the
    # regular base (identity maps pass, see above)
    def bad(a):
        return a + Element.unit(a.system)

    v = check_regular_cross_symmetry(PSI, bad, lambda a: a, 2)
    assert not v.ok and v.witnesses

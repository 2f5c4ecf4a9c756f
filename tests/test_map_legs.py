"""`Combination.map_legs` against the hand-written leg loops it replaced.

The references in `helpers` apply the maps inside the loops of the regular
Wick product, of both sides of the regular cross-symmetry law and of the
coalgebra obstruction law.  Each property draws random elements (keys from
raw words, so normalisation is exercised too) and one of three maps per
leg: the affine `obstruction`, the identity and the affine shift a + 1.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rga.algebra import (AlgebraMismatchError, Combination, Element,
                         obstruction)
from rga.rewrite import RewriteSystem
from rga.scalar import Scalar
from rga.tensor import (XI, TensorElement, check_coalgebra_obstruction,
                        dual_comultiplication)
from rga.wick import (ConjugatedPair, CrossSymmetry, WickElement,
                      check_regular_cross_symmetry, wick_mul,
                      wick_mul_regular)

from helpers import (MAPS, cross_symmetry_sides_reference, identity, shift,
                     tensor_map_reference, wick_mul_regular_reference)

S2 = RewriteSystem(2)
S3 = RewriteSystem(3)
PAIR = ConjugatedPair()
PSIS = (CrossSymmetry.regular(PAIR, "unit"),
        CrossSymmetry.regular(PAIR, "idem"), CrossSymmetry.flip(PAIR))


rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
scalars = st.builds(Scalar, rationals, rationals)
raw_words = st.lists(st.integers(1, 2), max_size=4).map(tuple)
pairs_of_words = st.tuples(raw_words, raw_words)
# the cross-symmetry law is stated on basis words: an affine map sends the
# zero of a word that rewrites to 0 to a nonzero value
basis_pairs = st.tuples(st.sampled_from(PAIR.xi.enumerate_normal_forms(3)),
                        st.sampled_from(PAIR.theta.enumerate_normal_forms(3)))
wicks = st.lists(st.tuples(pairs_of_words, scalars), max_size=5).map(
    lambda ts: WickElement(PAIR, ts))
tensors = st.lists(st.tuples(pairs_of_words, scalars), max_size=5).map(
    lambda ts: TensorElement(S2, ts))
elements = st.lists(st.tuples(raw_words, scalars), max_size=5).map(
    lambda ts: Element(S2, ts))
maps = st.sampled_from(MAPS)
psis = st.sampled_from(PSIS)

PROPS = settings(max_examples=60, deadline=None)


@PROPS
@given(wicks, wicks, psis, maps, maps)
def test_wick_mul_regular_matches_reference(x, y, psi, e_theta, e_xi):
    assert wick_mul_regular(x, y, psi, e_theta, e_xi) \
        == wick_mul_regular_reference(x, y, psi, e_theta, e_xi)


@PROPS
@given(wicks, maps, maps)
def test_map_legs_on_one_wick_leg_matches_reference(x, e_theta, e_xi):
    # every cross symmetry fixes the unit on either side, so a regular
    # product with the Wick unit maps exactly one leg of x
    one = WickElement.unit(PAIR)
    psi = PSIS[0]
    assert x.map_legs(e_theta, None) \
        == wick_mul_regular_reference(x, one, psi, e_theta, identity)
    assert x.map_legs(None, e_xi) \
        == wick_mul_regular_reference(one, x, psi, identity, e_xi)
    assert x.map_legs(e_theta, e_xi) \
        == x.map_legs(e_theta, None).map_legs(None, e_xi)


@PROPS
@given(psis, maps, maps, basis_pairs)
def test_cross_symmetry_sides_match_reference(psi, e_theta, e_xi, words):
    xi, theta = words
    lhs, rhs = cross_symmetry_sides_reference(psi, e_theta, e_xi, xi, theta)
    pair = psi.pair
    assert psi.apply(xi, theta).map_legs(e_theta, e_xi) == lhs
    assert wick_mul(
        WickElement.single(pair, (), xi).map_legs(None, e_xi),
        WickElement.single(pair, theta, ()).map_legs(e_theta, None),
        psi) == rhs


@pytest.mark.parametrize("psi", PSIS, ids=lambda p: p.label)
@pytest.mark.parametrize("e_theta", MAPS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("e_xi", MAPS, ids=lambda f: f.__name__)
def test_cross_symmetry_verdict_matches_reference(psi, e_theta, e_xi):
    want = []
    for xi in PAIR.xi.enumerate_normal_forms(2):
        for theta in PAIR.theta.enumerate_normal_forms(2):
            lhs, rhs = cross_symmetry_sides_reference(psi, e_theta, e_xi,
                                                      xi, theta)
            if lhs != rhs:
                want.append((f"{xi.to_text('X')} (x) {theta}", lhs, rhs))
    got = check_regular_cross_symmetry(psi, e_theta, e_xi, 2)
    assert [(w.at, w.lhs, w.rhs) for w in got.witnesses] == want


@PROPS
@given(tensors, maps)
def test_tensor_map_legs_matches_reference(t, e):
    assert t.map_legs(e, e) == tensor_map_reference(t, t.system, e)


def test_coalgebra_obstruction_sides_match_reference():
    table = dual_comultiplication()
    for delta_w in table.values():
        assert delta_w.map_legs(obstruction, obstruction) \
            == tensor_map_reference(delta_w, XI, obstruction)
    got = check_coalgebra_obstruction(table)
    assert [w.at for w in got.witnesses] == ["X1", "X2", "X1 X2", "X2 X1"]
    by_text = {w.to_text("X"): w for w in table}
    for witness in got.witnesses:
        assert witness.rhs == tensor_map_reference(
            table[by_text[witness.at]], XI, obstruction)


@PROPS
@given(elements, maps)
def test_map_legs_on_an_element_maps_each_word(a, e):
    want = Element(S2)
    for w, s in a.terms():
        want = want + e(Element.from_word(S2, w)).scale(s)
    assert a.map_legs(e) == want


@PROPS
@given(wicks, tensors, elements)
def test_map_legs_with_no_maps_is_the_identity(x, t, a):
    assert x.map_legs(None, None) == x
    assert t.map_legs(None, None) == t
    assert a.map_legs(None) == a


def test_map_legs_on_a_bare_combination():
    bare = Combination((S2, S3, S2), [(((1, 2), (3, 1), ()), 2)])
    assert bare.map_legs(None, None, None) == bare
    assert bare.map_legs(shift, None, obstruction) \
        == Combination((S2, S3, S2), [(((1, 2), (3, 1), ()), 2),
                                      (((), (3, 1), ()), 2)])


def test_map_legs_refuses_an_image_over_another_system():
    x = WickElement.single(PAIR, (1,), (2,))
    with pytest.raises(AlgebraMismatchError):
        x.map_legs(PAIR.dagger, None)  # a T-word mapped to the X-side
    with pytest.raises(AlgebraMismatchError):
        x.map_legs(None, PAIR.dagger)
    t = TensorElement.single(S2, (1,), (2,))
    with pytest.raises(AlgebraMismatchError):
        t.map_legs(None, lambda a: Element.generator(S3, 1))
    with pytest.raises(AlgebraMismatchError):
        Element.generator(S2, 1).map_legs(PAIR.dagger)


def test_map_legs_needs_one_map_per_leg():
    with pytest.raises(ValueError):
        WickElement.single(PAIR, (1,), (2,)).map_legs(obstruction)
    with pytest.raises(ValueError):
        Element.generator(S2, 1).map_legs(None, None)

"""Module laws of the three kinds of sparse combination, as properties.

`Element`, `TensorElement` and `WickElement` are finite Q(w)-weighted
sums; each must form a Q(w)-vector space whose equality, hash and printed
form agree.  Keys are drawn from raw words (not only normal forms), so
normalisation on construction is exercised too.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from rga.algebra import AlgebraMismatchError, Element, linear_combination
from rga.parser import parse_element, parse_tensor, parse_wick
from rga.rewrite import ZERO, LetterRangeError, RewriteSystem
from rga.scalar import Scalar
from rga.tensor import TensorElement, element_tensor
from rga.wick import ConjugatedPair, CrossSymmetry, WickElement

from helpers import summed_reference

S2 = RewriteSystem(2)
S3 = RewriteSystem(3)
PAIR = ConjugatedPair()
PSI = CrossSymmetry.regular(PAIR, "unit")

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
scalars = st.builds(Scalar, rationals, rationals)


def words(n):
    return st.lists(st.integers(1, n), max_size=4).map(tuple)


def terms(keys):
    return st.lists(st.tuples(keys, scalars), max_size=5)


def elements(system):
    return terms(words(system.n)).map(lambda ts: Element(system, ts))


tensors = terms(st.tuples(words(2), words(2))).map(
    lambda ts: TensorElement(S2, ts))

wicks = terms(st.tuples(words(2), words(2))).map(
    lambda ts: WickElement(PAIR, ts))

# (strategy, parse of the printed text) for every kind and context
KINDS = {
    "element-n2": (elements(S2), lambda text: parse_element(text, S2)),
    "element-n3": (elements(S3), lambda text: parse_element(text, S3)),
    "tensor": (tensors, lambda text: parse_tensor(text, S2)),
    "wick": (wicks, lambda text: parse_wick(text, PSI)),
}

kind_triples = st.sampled_from(sorted(KINDS)).flatmap(
    lambda k: st.tuples(st.just(k), KINDS[k][0], KINDS[k][0], KINDS[k][0]))

PROPS = settings(max_examples=60, deadline=None)


@PROPS
@given(kind_triples)
def test_addition_is_commutative_and_associative(case):
    _, x, y, z = case
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)


@PROPS
@given(kind_triples)
def test_subtraction_cancels(case):
    _, x, y, _ = case
    assert (x - x).is_zero() and x - x == 0
    assert (x + y) - y == x
    assert -(-x) == x


@PROPS
@given(kind_triples, scalars, scalars)
def test_scaling_distributes(case, s, t):
    _, x, y, _ = case
    assert (x + y).scale(s) == x.scale(s) + y.scale(s)
    assert x.scale(s + t) == x.scale(s) + x.scale(t)
    assert x.scale(s).scale(t) == x.scale(s * t)


@PROPS
@given(kind_triples)
def test_hash_agrees_with_equality(case):
    _, x, y, _ = case
    rebuilt = (x + y) - y
    assert rebuilt == x
    assert hash(rebuilt) == hash(x)


@PROPS
@given(kind_triples)
@example(("tensor",) + (TensorElement(S2),) * 3)
def test_print_parse_round_trip(case):
    kind, x, _, _ = case
    assert KINDS[kind][1](str(x)) == x



def test_coeff_refuses_a_wrong_word_count():
    t1, t2 = Element.generator(S2, 1), Element.generator(S2, 2)
    with pytest.raises(ValueError, match="^expected one word per leg, got 1$"):
        element_tensor(t1, t2).coeff((1,))
    with pytest.raises(ValueError, match="^expected one word per leg, got 2$"):
        t1.coeff((1,), (2,))
    assert element_tensor(t1, t2).coeff((1,), (2,)) == 1
    assert t1.coeff((1,)) == 1


@PROPS
@given(kind_triples)
def test_coeff_needs_one_word_per_leg(case):
    _, x, _, _ = case
    legs = len(x._legs())
    for count in (0, legs - 1, legs + 1, 3):
        if count != legs:
            with pytest.raises(ValueError, match="one word per leg"):
                x.coeff(*[()] * count)
    for key, s in x.terms():
        assert x.coeff(*((key,) if legs == 1 else key)) == s


# raw words for `coeff`, one per leg of each kind
RAW_KEYS = {"element-n2": st.tuples(words(2)),
            "element-n3": st.tuples(words(3)),
            "tensor": st.tuples(words(2), words(2)),
            "wick": st.tuples(words(2), words(2))}


@PROPS
@given(st.sampled_from(sorted(KINDS)).flatmap(
    lambda kind: st.tuples(KINDS[kind][0], RAW_KEYS[kind])))
@example((Element(S2, {(1,): 5}), ((1, 2, 1),)))  # T1 T2 T1 = T1
@example((WickElement(PAIR, {((1,), (2,)): 3}), ((1, 2, 1), (2, 1, 2))))
def test_coeff_reads_a_raw_key_at_its_normal_form(case):
    x, raw = case
    normal = [leg.normal_form(w) for leg, w in zip(x._legs(), raw)]
    assert x.coeff(*raw) == (0 if ZERO in normal else x.coeff(*normal))


# `from_word` is the constructor on one term: raw words (those with two
# equal adjacent letters reduce to zero) and each coefficient type.
coefficients = st.one_of(st.integers(-6, 6), rationals, scalars)


@PROPS
@given(st.sampled_from([S2, S3]).flatmap(
    lambda system: st.tuples(st.just(system), words(system.n))),
    coefficients)
@example((S2, (1, 1)), 1)
@example((S3, (1, 2, 3)), 0)
def test_from_word_is_the_one_term_constructor(system_word, coeff):
    system, word = system_word
    got = Element.from_word(system, word, coeff)
    assert type(got) is Element
    assert got == Element(system, [(word, coeff)])


@pytest.mark.parametrize("word, coeff, error", [
    ((1, 3), 1, LetterRangeError),
    ((0,), 1, LetterRangeError),
    ((True,), 1, LetterRangeError),
    ((0,), 1.5, LetterRangeError),  # the word is checked first
    ((1,), 1.5, TypeError),
    ((1,), "1", TypeError),
])
def test_from_word_refuses_as_the_constructor_does(word, coeff, error):
    with pytest.raises(error) as want:
        Element(S2, [(word, coeff)])
    with pytest.raises(error) as got:
        Element.from_word(S2, word, coeff)
    assert str(got.value) == str(want.value)


@PROPS
@given(kind_triples, st.lists(st.tuples(coefficients, st.booleans()),
                              min_size=3, max_size=3))
def test_linear_combination_is_the_sum_of_scaled_terms(case, cs):
    _, *values = case
    # None stands for the unit; at least one term carries a value
    pairs = [(c, x if keep or i == 0 else None)
             for i, ((c, keep), x) in enumerate(zip(cs, values))]
    # summed as Scalars, since `+` and `scale` are linear combinations too
    like = values[0]
    legs = like._legs()
    unit = () if len(legs) == 1 else ((),) * len(legs)
    want = type(like)(like._context, summed_reference(legs, (
        (k, (c, s)) for c, x in pairs
        for k, s in ([(unit, 1)] if x is None else x.terms()))))
    got = linear_combination(pairs)
    assert type(got) is type(want) and got == want


def test_linear_combination_refuses_mixed_operands():
    t1 = Element.generator(S2, 1)
    with pytest.raises(TypeError):
        linear_combination([(1, t1), (1, TensorElement(S2))])
    with pytest.raises(AlgebraMismatchError):
        linear_combination([(1, t1), (1, Element.generator(S3, 1))])
    with pytest.raises(TypeError):
        linear_combination([(0.5, t1)])


@pytest.mark.parametrize("terms", [[], [(1, None)], [(2, None), (3, None)]])
def test_linear_combination_refuses_terms_without_a_combination(terms):
    # a bare StopIteration would silently end a generator that called it
    with pytest.raises(ValueError, match="needs a term with a Combination"):
        linear_combination(terms)


@pytest.mark.parametrize("system", [S2, S3])
def test_unit_and_generators_are_the_one_term_elements(system):
    assert Element.unit(system) == Element(system, [((), 1)])
    for i in range(1, system.n + 1):
        assert Element.generator(system, i) == Element(system, [((i,), 1)])
    for bad in (0, system.n + 1):
        with pytest.raises(LetterRangeError):
            Element.generator(system, bad)
    assert TensorElement.unit(S2) == TensorElement(S2, [(((), ()), 1)])
    assert WickElement.unit(PAIR) == WickElement(PAIR, [(((), ()), 1)])

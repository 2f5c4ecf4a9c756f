from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from rga import parser
from rga.algebra import Combination, Element, mul
from rga.parser import (MAX_NESTING, ParseError, parse_element, parse_scalar,
                        parse_tensor, parse_wick, parse_word_letters)
from rga.rewrite import RewriteSystem, Word
from rga.scalar import ONE, Scalar
from rga.tensor import XI, TensorElement, tensor_mul
from rga.wick import ConjugatedPair, CrossSymmetry, WickElement

from helpers import nested, rand_element, rand_scalar

S2 = RewriteSystem(2)
PAIR = ConjugatedPair()
PSI = CrossSymmetry.regular(PAIR, "unit")


def test_relation_evaluates():
    assert parse_element("T1 T2 T1", S2) == Element.generator(S2, 1)


def test_scalar_syntax():
    e = parse_element("1 + 1/2*w T1", S2)
    assert e.coeff(Word(())) == ONE
    assert e.coeff(Word([1])) == Scalar(0, Fraction(1, 2))


def test_parenthesized_products():
    got = parse_element("(1+T1) (1-T1)", S2)
    assert got == Element.unit(S2)


def test_leading_minus_and_zero():
    assert parse_element("-T1", S2) == -Element.generator(S2, 1)
    assert parse_element("0", S2).is_zero()


def test_two_part_coefficient_forms():
    e = parse_element("(1+2*w) T1", S2)
    assert e.coeff(Word([1])) == Scalar(1, 2)
    # unparenthesized it splits at the plus, per the grammar
    e2 = parse_element("1+2*w T1", S2)
    assert e2.coeff(Word(())) == ONE
    assert e2.coeff(Word([1])) == Scalar(0, 2)


def test_scalar_parse_forms():
    cases = ["2", "-2", "1/2", "-1/2", "w", "-w", "2*w", "-2/3*w",
             "1+w", "1-w", "1/2+1/3*w", "-1/2-2*w", "0"]
    for text in cases:
        v = parse_scalar(text)
        assert parse_scalar(str(v)) == v


def test_scalar_round_trip_random():
    rng = Random(61)
    for _ in range(500):
        v = rand_scalar(rng)
        assert parse_scalar(str(v)) == v


def test_element_round_trip_1000():
    rng = Random(62)
    for _ in range(1000):
        e = rand_element(rng, S2)
        assert parse_element(str(e), S2) == e


def test_element_round_trip_other_systems():
    rng = Random(63)
    for system in (XI, RewriteSystem(3)):
        for _ in range(300):
            e = rand_element(rng, system)
            assert parse_element(str(e), system) == e


def test_generator_errors():
    with pytest.raises(ParseError):
        parse_element("T3", S2)  # index out of range
    with pytest.raises(ParseError):
        parse_element("X1", S2)  # wrong side
    with pytest.raises(ParseError):
        parse_element("T", S2)  # missing index


def test_syntax_errors_carry_position():
    # (parser, text, position of the offending token, message); an
    # expected token is named by its symbol, a found one by its source text
    rows = [(parse_element, "T1 + ", 5, "expected a term"),
            (parse_element, "(T1", 3, "expected ')', found end of input"),
            (parse_element, "(T1 (x) T2", 4, "expected ')', found '(x)'"),
            (parse_element, "1/T1", 2, "expected a number, found 'T1'"),
            (parse_element, "T1)", 2, "expected end of input, found ')'"),
            (parse_element, "T1 ^ T2", 3, "unexpected character '^'"),
            # the 0, not the T1 after it
            (parse_element, "1/0 T1", 2, "zero denominator"),
            (parse_scalar, "1/", 2, "expected a number, found end of input"),
            # the 1, not the end of the text
            (parse_scalar, "w+1", 2, "second scalar part must involve w")]
    for parse, text, pos, message in rows:
        args = (text,) if parse is parse_scalar else (text, S2)
        with pytest.raises(ParseError) as err:
            parse(*args)
        assert err.value.pos == pos, text
        assert str(err.value) == f"{message} at position {pos}", text


def test_word_letters():
    assert parse_word_letters("1 2 1", S2) == Word([1, 2, 1])
    assert parse_word_letters("1,2", S2) == Word([1, 2])
    with pytest.raises(ParseError, match=r"^letter 3 outside 1\.\.2 at "
                                         r"position 2$"):
        parse_word_letters("1 3", S2)
    with pytest.raises(ParseError, match=r"^word letters must be integers at "
                                         r"position 2$"):
        parse_word_letters("1,\u00b2", S2)
    with pytest.raises(ParseError):
        parse_word_letters("x", S2)


# Separators between letters, and letters that are an out-of-range integer
# or not an integer (`int()` refuses the superscript two).
SEPARATORS = st.sampled_from([" ", ",", ", ", " ,", "\t", "  ", "\u00a0"])
ENDS = st.sampled_from(["", " ", ","])
BAD_LETTERS = st.sampled_from(["0", "3", "10", "00", "\u00b2", "1\u00b2", "x",
                               "T1", "-1"])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(["1", "2"]), min_size=1, max_size=8),
       BAD_LETTERS, st.data())
def test_word_letter_refusals_carry_the_letter_position(letters, bad, data):
    k = data.draw(st.integers(0, len(letters) - 1))
    letters[k] = bad
    text = data.draw(ENDS)
    for i, letter in enumerate(letters):
        if i:
            text += data.draw(SEPARATORS)
        if i == k:
            pos = len(text)
        text += letter
    text += data.draw(ENDS)
    with pytest.raises(ParseError) as err:
        parse_word_letters(text, S2)
    assert err.value.pos == pos


@pytest.mark.parametrize("parse, inner, want", [
    (lambda text: parse_element(text, S2), "T1 T2 T1", "T1"),
    (lambda text: parse_element(text, S2), "1/2+w", "1/2 + w"),
    (lambda text: parse_element(text, S2), "w", "w"),
    (lambda text: parse_wick(text, PSI), "X1 T1",
     "1 (x) 1 - T1 (x) X1"),
    (lambda text: parse_tensor(text, S2), "T1 (x) T2", "T1 (x) T2"),
], ids=["element", "element-scalars", "element-w", "wick", "tensor"])
def test_nesting_bound(parse, inner, want):
    assert str(parse(nested(MAX_NESTING, inner))) == want
    # the first parenthesis past the bound is refused where it stands
    with pytest.raises(ParseError) as err:
        parse(nested(MAX_NESTING + 1, inner))
    assert err.value.pos == MAX_NESTING
    assert str(err.value) == (f"parentheses nested deeper than {MAX_NESTING} "
                              f"at position {MAX_NESTING}")
    # the bound is on open parentheses, not on how many a text holds
    assert parse(" ".join([nested(MAX_NESTING, inner)] * 3)) \
        == parse(" ".join([f"({inner})"] * 3))


def test_tensor_round_trip():
    rng = Random(64)
    words = S2.enumerate_normal_forms(2)
    for _ in range(600):
        terms = {}
        for _ in range(4):
            terms[(rng.choice(words), rng.choice(words))] = rand_scalar(rng)
        t = TensorElement(S2, terms)
        assert parse_tensor(str(t), S2) == t


def test_tensor_requires_marker():
    with pytest.raises(ParseError):
        parse_tensor("T1 T2", S2)


def test_tensor_products_of_parens():
    t = parse_tensor("(T1 (x) 1) (T2 (x) 1)", S2)
    assert t == TensorElement.single(S2, (1, 2), ())


def test_wick_round_trip():
    rng = Random(65)
    wt = PAIR.theta.enumerate_normal_forms(2)
    wx = PAIR.xi.enumerate_normal_forms(2)
    for _ in range(1000):
        terms = {}
        for _ in range(4):
            terms[(rng.choice(wt), rng.choice(wx))] = rand_scalar(rng)
        t = WickElement(PAIR, terms)
        assert parse_wick(str(t), PSI) == t


def test_wick_juxtaposition_is_wick_product():
    got = parse_wick("X1 T1", PSI)
    assert got == WickElement.unit(PAIR) \
        - WickElement.single(PAIR, (1,), (1,))
    assert parse_wick("(1 (x) X1) (T1 (x) 1)", PSI) == got


def test_wick_tensor_marker_requires_pure_sides():
    with pytest.raises(ParseError):
        parse_wick("(T1 (x) X1) (x) X2", PSI)


# Well-formed element texts: sums of terms, each a scalar prefix and/or
# juxtaposed factors, a factor a generator or a parenthesized sum.  The
# base factors lean towards groups of scalars alone, which nest.
RATS = st.builds(lambda p, q: str(p) if q == 1 else f"{p}/{q}",
                 st.integers(0, 6), st.integers(1, 3))
SCALARS = st.one_of(RATS, st.just("w"), st.builds(
    lambda r, star: f"{r}{star}w", RATS, st.sampled_from(["", " ", "*"])))
SIGNS = st.sampled_from(["+", "-", " + ", " - ", "+ ", " -"])


def _sums(factors):
    terms = st.one_of(
        SCALARS,
        st.lists(factors, min_size=1, max_size=3).map(" ".join),
        st.builds(lambda c, star, fs: c + star + " ".join(fs), SCALARS,
                  st.sampled_from([" ", "*", " * "]),
                  st.lists(factors, min_size=1, max_size=2)))
    return st.builds(
        lambda lead, first, rest: lead + first + "".join(map("".join, rest)),
        st.sampled_from(["", "-", "+", "- "]), terms,
        st.lists(st.tuples(SIGNS, terms), max_size=3))


ELEMENT_TEXTS = _sums(st.recursive(
    st.one_of(SCALARS.map("({})".format), st.sampled_from(["T1", "T2"])),
    lambda inner: _sums(inner).map("({})".format), max_leaves=6))


@settings(max_examples=300, deadline=None)
@given(ELEMENT_TEXTS)
def test_scalar_groups_parse_as_the_general_path(text):
    # a " + 0 T1" term in every group sends it down the element path
    assert parse_element(text, S2) \
        == parse_element(text.replace(")", " + 0 T1)"), S2)


@pytest.mark.parametrize("text, sizes", [
    ("-3 + w + (5/4+1/2*w) T1 - (1-2*w) T2 + (1+6*w) T1 T2 "
     "+ (5/3-3*w) T2 T1", [6]),
    ("1 + T1 - T2 + T1 T2 - T2 T1", [5]),
    ("T1 T2", []),  # one term with coefficient 1 is its value: no sum
], ids=["two-part", "unit-coefficients", "one-unit-term"])
def test_printed_element_scales_by_no_sign_and_sums_once(monkeypatch, text,
                                                          sizes):
    scales, sums, adds = [], [], []
    scale, add = Combination.scale, Combination.__add__
    linear_combination = parser.linear_combination
    monkeypatch.setattr(Combination, "scale",
                        lambda self, s: scales.append(s) or scale(self, s))
    monkeypatch.setattr(Combination, "__add__",
                        lambda self, x: adds.append(x) or add(self, x))
    monkeypatch.setattr(parser, "linear_combination",
                        lambda terms: sums.append(terms)
                        or linear_combination(terms))
    assert str(parse_element(text, S2)) == text
    assert not [s for s in scales if s in (1, -1)]
    assert [len(terms) for terms in sums] == sizes and not adds


def test_print_parse_products_agree_with_mul():
    rng = Random(66)
    for _ in range(100):
        a = rand_element(rng, S2)
        b = rand_element(rng, S2)
        text = f"({a}) ({b})"
        assert parse_element(text, S2) == mul(a, b)


# -- characterisation table ------------------------------------------------------
#
# One row per (context, input): the canonical printed value, or the
# position of the ParseError.  The three parse functions share one grammar,
# so every context lists the same kinds of input: signs, scalar prefixes,
# juxtaposition, parentheses, the (x) marker and the errors around them.
# Juxtaposed tensors multiply under the plain sign rule ("plain").

CONTEXTS = {
    "element": lambda text: parse_element(text, S2),
    "plain": lambda text: parse_tensor(text, S2),
    "wick": lambda text: parse_wick(text, PSI),
}

TABLE = [
    ("element", "", 0),
    ("element", "0", "0"),
    ("element", "-1", "-1"),
    ("element", "+T1", "T1"),
    ("element", "T1 + ", 5),
    ("element", "- - T1", 2),
    ("element", "2 w", "2*w"),
    ("element", "1/2*w T1", "1/2*w T1"),
    ("element", "3 * T1", "3 T1"),
    ("element", "2 * (T1)", "2 T1"),
    ("element", "* T1", 0),
    ("element", "T1 *", 3),
    ("element", "1/0", 2),
    ("element", "(T1", 3),
    ("element", "T1)", 2),
    ("element", "()", 1),
    ("element", "(1+T1) (1-T1)", "1"),
    ("element", "T1 T2 T1 T2 T1 T2", "T1 T2"),
    ("element", "T1 T1", "0"),
    ("element", "T3", 0),
    ("element", "X1", 0),
    ("element", "T1 X1", 3),
    ("element", "T1 (x) T2", 3),
    ("element", "T1 (T2 (x) 1)", 7),
    ("element", "2 3", 2),
    ("element", "1 - ", 4),
    ("element", "(1 + 2*w) T1 - w", "-w + (1+2*w) T1"),
    ("element", "(1/2) (3) T1", "3/2 T1"),
    ("element", "((1 + w)) T2", "(1+w) T2"),
    ("element", "(w) (w)", "-1 - w"),
    ("element", "T1 (w) T2", "w T1 T2"),
    ("element", "(1+2*w) (1-w) T1", "(3+3*w) T1"),
    ("element", "(- w + 1) T1 T2", "(1-w) T1 T2"),
    ("element", "(1 + w T1)", "1 + w T1"),
    ("element", "(2 3) T1", 3),
    ("element", "(1/0) T1", 3),
    ("element", "(1 +) T1", 4),
    ("plain", "T1 + ", 5),
    ("plain", "1", 1),
    ("plain", "T1 T2", 5),
    ("plain", "T1 *", 4),
    ("plain", "T1)", 3),
    ("plain", "X1", 0),
    ("plain", "T1 (x) T2", "T1 (x) T2"),
    ("plain", "(x) T1", 0),
    ("plain", "T1 (x)", 6),
    ("plain", "T1 (x) T2 (x) T1", 10),
    ("plain", "T1 (T2 (x) 1)", 3),
    ("plain", "(T1 (x) 1) T2", 13),
    ("plain", "(T1 (x) 1) (T2 (x) 1)", "T1 T2 (x) 1"),
    ("plain", "(T1 (x) 1) + T2", 15),
    ("plain", "T2 + (T1 (x) 1)", 15),
    ("plain", "1 (x) T1 + T1", 13),
    ("plain", "0", "0"),
    ("plain", "0 T1", "0"),
    ("plain", "0 + T1 (x) T2", "T1 (x) T2"),
    ("plain", "T1 (x) T2 + 0", "T1 (x) T2"),
    ("plain", "T1 (x) T2 - 0", "T1 (x) T2"),
    ("plain", "0 T1 + T1 (x) T2", "T1 (x) T2"),
    ("plain", "T1 + T1 (x) T2", 14),
    ("plain", "T1 + 0 (T1 (x) T2)", 18),
    ("plain", "0 (T1 (x) T2) + T1", 18),
    ("plain", "2 (T1 (x) T2)", "2 T1 (x) T2"),
    ("plain", "-(T1 (x) T2)", "-T1 (x) T2"),
    ("plain", "(T1 + 1) (x) (T2 - 1)",
     "-1 (x) 1 + 1 (x) T2 - T1 (x) 1 + T1 (x) T2"),
    ("plain", "((T1 (x) T2))", "T1 (x) T2"),
    ("plain", "T1 (x) T1 T1", "0"),
    ("plain", "(1) (T1 (x) 1)", "T1 (x) 1"),
    ("plain", "(2) (T1 (x) 1)", 4),
    ("plain", "(1/2 + w) (T1 (x) 1)", 10),
    ("plain", "(T1 (x) 1) (1)", 14),
    ("plain", "(T1 (x) 1) 2", 11),
    ("plain", "(T1 (x) T2) (x) T1", 12),
    ("plain", "T1 (x) (T1 (x) T2)", 3),
    ("plain", "(1+2*w) (x) T1", "(1+2*w) (x) T1"),
    ("plain", "(1 (x) T1) (T1 (x) 1)", "T1 (x) T1"),
    ("plain", "w (T1 (x) 1 + 1 (x) T2) (T2 (x) T1)",
     "w T2 (x) T2 T1 + w T1 T2 (x) T1"),
    ("wick", "T1 + ", 5),
    ("wick", "", 0),
    ("wick", "-1", "-1 (x) 1"),
    ("wick", "2 * (T1)", "2 T1 (x) 1"),
    ("wick", "T3", 0),
    ("wick", "X3", 0),
    ("wick", "X1 (x) T1", 3),
    ("wick", "X1 (T1 T2 T1)", "1 (x) 1 - T1 (x) X1"),
    ("wick", "(X1 T1 T2) T1", "T1 (x) X1 - T1 T2 (x) 1 + T2 T1 (x) 1"),
    ("wick", "X1 T1 T2", "T2 (x) 1 - T1 T2 (x) X1"),
    ("wick", "T1 X1", "T1 (x) X1"),
    ("wick", "X2 X1 X2", "1 (x) X2"),
    ("wick", "T1 (x) T2", 3),
    ("wick", "T1 (x)", 6),
    ("wick", "(T1 (x) 1) T2", "T1 T2 (x) 1"),
    ("wick", "(T1 (x) 1) + T2", "T1 (x) 1 + T2 (x) 1"),
    ("wick", "(T1 (x) X1) (x) X2", 12),
    ("wick", "T1 (x) (T1 (x) T2)", 11),
    ("wick", "(1 (x) T1) (T1 (x) 1)", 3),
    ("wick", "(T1 - T1) (x) X1", "0"),
    ("wick", "(2) (T1 (x) 1)", "2 T1 (x) 1"),
    ("wick", "(T1 (x) 1) 2", 11),
    ("wick", "T1 (x) T1 T1", "0"),
    ("wick", "(1 + 2*w) X1 T1", "(1+2*w) (x) 1 - (1+2*w) T1 (x) X1"),
    ("wick", "(1/2 + w) (T1 (x) 1)", "(1/2+w) T1 (x) 1"),
    ("wick", "(w) X1 T1", "w (x) 1 - w T1 (x) X1"),
    ("wick", "(w) T1 X1", "w T1 (x) X1"),
    ("wick", "1 (x) T1 + T1", 2),
]


@pytest.mark.parametrize("context,text,want", TABLE)
def test_characterisation_table(context, text, want):
    parse = CONTEXTS[context]
    if isinstance(want, int):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.pos == want
    else:
        assert str(parse(text)) == want


# The Koszul rule belongs to the product, not to the parsed tensors: each
# row multiplies two plain parsed operands with `tensor_mul(x, y, "koszul")`.
KOSZUL = [
    ("1 (x) T1", "T1 (x) 1", "-T1 (x) T1"),
    ("1 (x) T1 T2", "T1 (x) 1", "T1 (x) T1 T2"),
    ("1/2 (1 (x) T1)", "T2 (x) T2", "-1/2 T2 (x) T1 T2"),
    ("w (T1 (x) 1 + 1 (x) T2)", "T2 (x) T1",
     "-w T2 (x) T2 T1 + w T1 T2 (x) T1"),
    ("-w T1 (x) T2 T1 + 1 (x) 1", "1 (x) 1", "1 (x) 1 - w T1 (x) T2 T1"),
]


@pytest.mark.parametrize("x,y,want", KOSZUL,
                         ids=[f"({x}) ({y})" for x, y, _ in KOSZUL])
def test_koszul_product_table(x, y, want):
    assert str(tensor_mul(parse_tensor(x, S2), parse_tensor(y, S2),
                          "koszul")) == want


# Every text over the grammar's characters, plus digits that `int()`
# refuses (superscripts) or accepts (Arabic-Indic one) and a no-break
# space, either parses or raises ParseError: nothing else escapes.
GRAMMAR_TEXT = st.text(st.sampled_from(list("0123456789+-*/()wTXx, ")
                                       + ["\u00b2", "\u00b3", "\u00b9",
                                          "\u0661", "\u00a0"]),
                       max_size=24)


@settings(max_examples=300, deadline=None)
@given(GRAMMAR_TEXT)
def test_any_grammar_text_parses_or_raises_parse_error(text):
    for parse in (lambda: parse_element(text, S2), lambda: parse_scalar(text),
                  lambda: parse_word_letters(text, S2)):
        try:
            parse()
        except ParseError:
            pass

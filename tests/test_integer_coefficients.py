"""Combinations store integer Z[w] numerators over one denominator.

Every result of the constructor, `+ - neg scale`, `linear_combination`,
`mul`, `tensor_mul`, `element_tensor`, `wick_mul` (also with the one-term
operands of the coherence laws), `map_legs`, the dagger and the obstruction
map must equal the `Scalar` summation kept in `helpers` and be in canonical
form: denominator > 0, content 1, no zero numerator, and the public
constructor rebuilds it with the same hash; a result whose terms all cancel
is the zero value, with no numerator over the denominator 1.  The hot
products must build no `Scalar` at all, `wick_mul` must look the cross
symmetry up once per routed block, and the Z[w] kernel must live in
`rga.scalar` alone.  The modules above the algebra (parser, categories,
reports, CLI) must not read the integer layout or import a private name.
Rational scalars and zero combinations hash as the numbers they equal.
"""

import ast
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import chain
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rga.algebra import Element, linear_combination, mul, obstruction
from rga.rewrite import EMPTY_WORD, RewriteSystem, Word
from rga.scalar import Scalar
from rga.tensor import TensorElement, element_tensor, tensor_mul
from rga.wick import ConjugatedPair, CrossSymmetry, WickElement, wick_mul

from helpers import (peel_theta_reference, peel_xi_reference,
                     summed_reference, wick_mul_reference)

SRC = Path(__file__).resolve().parent.parent / "src" / "rga"
S2, S3 = RewriteSystem(2), RewriteSystem(3)
PAIR = ConjugatedPair()
PSIS = {"flip": CrossSymmetry.flip(PAIR),
        "regular[unit]": CrossSymmetry.regular(PAIR, "unit"),
        "regular[idem]": CrossSymmetry.regular(PAIR, "idem")}
# regular[unit] with its four generator values times (1 + w)/d for
# d = 1, 2, 3, 5, so that one product adds blocks over different denominators
PSIS["scaled"] = CrossSymmetry(PAIR, {
    key: value.scale(Scalar(Fraction(1, d), Fraction(1, d)))
    for (key, value), d in zip(sorted(PSIS["regular[unit]"].base.items()),
                               (1, 2, 3, 5))}, "scaled")

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
scalars = st.builds(Scalar, rationals, rationals)
raw_words = st.lists(st.integers(1, 2), max_size=4).map(tuple)


def terms(keys):
    return st.lists(st.tuples(keys, scalars), max_size=6)


def elements(system):
    words = st.lists(st.integers(1, system.n), max_size=4).map(tuple)
    return terms(words).map(lambda ts: Element(system, ts))


tensors = terms(st.tuples(raw_words, raw_words)).map(
    lambda ts: TensorElement(S2, ts))
wicks = terms(st.tuples(raw_words, raw_words)).map(
    lambda ts: WickElement(PAIR, ts))
KINDS = {"element-n2": elements(S2), "element-n3": elements(S3),
         "tensor": tensors, "wick": wicks}
kind_pairs = st.sampled_from(sorted(KINDS)).flatmap(
    lambda k: st.tuples(KINDS[k], KINDS[k]))
normal_pairs = st.tuples(st.sampled_from(PAIR.xi.enumerate_normal_forms(3)),
                         st.sampled_from(PAIR.theta.enumerate_normal_forms(3)))

PROPS = settings(max_examples=40, deadline=None)


def built(like, terms):
    """The public constructor of `like`'s kind and context on `terms`."""
    return type(like)(like._context, terms)


def reference(like, terms):
    """`terms` summed as Scalars, in `like`'s kind and context."""
    return built(like, summed_reference(like._legs(), terms))


def assert_canonical(c):
    assert c._d > 0
    assert all(p or q for p, q in c._num.values())
    assert gcd(c._d, *chain.from_iterable(c._num.values())) == 1
    back = built(c, c.terms())
    assert back == c and hash(back) == hash(c)
    assert (back._num, back._d) == (c._num, c._d)


# -- against the Scalar summation ---------------------------------------------


@PROPS
@given(kind_pairs, scalars)
def test_linear_operations_match_the_scalar_sum(case, s):
    x, y = case
    legs = len(x._legs())
    unit = () if legs == 1 else ((),) * legs
    for got, want in (
            (x + y, chain(x.terms(), y.terms())),
            (x - y, chain(x.terms(), ((k, -c) for k, c in y.terms()))),
            (-x, ((k, -c) for k, c in x.terms())),
            (x.scale(s), ((k, (s, c)) for k, c in x.terms())),
            (x + 2, chain(x.terms(), [(unit, 2)])),
            (3 - y, chain([(unit, 3)], ((k, -c) for k, c in y.terms())))):
        assert got == reference(x, want)
        assert_canonical(got)


@PROPS
@given(st.sampled_from([S2, S3]).flatmap(
    lambda s: st.tuples(elements(s), elements(s))))
def test_mul_is_canonical(case):
    a, b = case
    got = mul(a, b)
    assert got == reference(a, ((u.letters + v.letters, (x, y))
                                for u, x in a.terms() for v, y in b.terms()))
    assert_canonical(got)


@PROPS
@given(st.sampled_from(["plain", "koszul"]), tensors, tensors)
def test_tensor_mul_is_canonical(signs, s, t):
    koszul = signs == "koszul"
    got = tensor_mul(s, t, signs)
    assert got == reference(s, (
        ((a.letters + c.letters, b.letters + d.letters),
         (-x if koszul and b.parity * c.parity else x, y))
        for (a, b), x in s.terms() for (c, d), y in t.terms()))
    assert_canonical(got)


@PROPS
@given(st.sampled_from(sorted(PSIS)), wicks, wicks)
def test_wick_mul_is_canonical(label, x, y):
    psi = PSIS[label]
    got = wick_mul(x, y, psi)
    assert got == wick_mul_reference(x, y, psi)
    assert_canonical(got)


@PROPS
@given(st.sampled_from(sorted(PSIS)), normal_pairs,
       st.sampled_from(PAIR.theta.enumerate_normal_forms(3)),
       st.sampled_from(PAIR.xi.enumerate_normal_forms(3)))
def test_peels_are_canonical(label, words, v, x):
    psi = PSIS[label]
    xi, theta = words
    got = wick_mul(psi.apply(xi, theta), WickElement.single(PAIR, v, ()), psi)
    assert got == peel_theta_reference(psi, xi, theta, v)
    assert_canonical(got)
    got = wick_mul(WickElement.single(PAIR, (), x), psi.apply(xi, theta), psi)
    assert got == peel_xi_reference(psi, x, xi, theta)
    assert_canonical(got)


@PROPS
@given(wicks, tensors, elements(S2))
def test_map_legs_is_canonical(x, t, e):
    def shift(a):
        return a + Element.unit(a.system).scale(Scalar(Fraction(1, 3)))

    for c, maps in ((x, (obstruction, shift)), (t, (shift, None)),
                    (e, (obstruction,))):
        want = []
        for key, s in c.terms():
            words = (key,) if len(maps) == 1 else key
            parts = [(f(a) if f else a).terms() for f, a in zip(maps, (
                Element.from_word(leg, w) for leg, w in zip(c._legs(), words)))]
            if len(parts) == 1:
                want += [(k, (s, a)) for k, a in parts[0]]
            else:
                want += [((k, m), (s, a, b)) for k, a in parts[0]
                         for m, b in parts[1]]
        got = c.map_legs(*maps)
        assert got == reference(c, want)
        assert_canonical(got)


@PROPS
@given(terms(st.lists(st.integers(1, 3), max_size=4).map(tuple)),
       terms(st.tuples(raw_words, raw_words)))
def test_constructor_is_canonical(word_terms, pair_terms):
    for like, ts in ((Element(S3), word_terms), (TensorElement(S2), pair_terms),
                     (WickElement(PAIR), pair_terms)):
        got = built(like, ts)
        assert dict(got.terms()) == summed_reference(like._legs(), ts)
        assert_canonical(got)


@PROPS
@given(kind_pairs, st.lists(st.tuples(scalars, st.booleans()), min_size=3,
                            max_size=3))
def test_linear_combination_is_canonical(case, cs):
    x, y = case
    legs = len(x._legs())
    unit = () if legs == 1 else ((),) * legs
    # None stands for the unit; the first term always carries x
    pairs = [(c, v if keep or i == 0 else None)
             for i, ((c, keep), v) in enumerate(zip(cs, (x, y, y)))]
    got = linear_combination(pairs)
    assert got == reference(x, ((k, (c, s)) for c, v in pairs for k, s in (
        [(unit, 1)] if v is None else v.terms())))
    assert_canonical(got)


@PROPS
@given(elements(S2), elements(S2))
def test_element_tensor_is_canonical(a, b):
    got = element_tensor(a, b)
    assert got == reference(got, (((u, v), (x, y)) for u, x in a.terms()
                                  for v, y in b.terms()))
    assert_canonical(got)


@PROPS
@given(elements(S2))
def test_dagger_and_obstruction_are_canonical(a):
    got = PAIR.dagger(a)
    assert got == reference(got, ((w.reverse(), s.conjugate())
                                  for w, s in a.terms()))
    assert_canonical(got)
    assert PAIR.dagger(got) == a
    got = obstruction(a)
    assert got == reference(got, [((), 1)] + [
        (tuple(3 - i for i in w), s) for w, s in a.terms() if w])
    assert_canonical(got)


def test_all_cancelling_results_are_the_zero_value():
    half, third = Fraction(1, 2), Scalar(Fraction(1, 3), 1)
    t1, t2 = Element.generator(S2, 1), Element.generator(S2, 2)
    # (1 - T1 T2) T1 = T1 - T1 T2 T1 = T1 (1 - T2 T1) = 0
    a = (Element.unit(S2) - mul(t1, t2)).scale(third)
    b = (Element.unit(S2) - mul(t2, t1)).scale(half)
    tensor = TensorElement(S2, [(((), ()), half), (((1, 2), ()), -half)])
    wick = WickElement(PAIR, [(((), ()), third), (((1, 2), ()), -third)])
    psi = PSIS["regular[unit]"]
    zeros = {
        "constructor": Element(S2, [((1,), half), ((1, 2, 1), -half)]),
        "constructor-tensor": TensorElement(
            S2, [(((1,), (2,)), third), (((1, 2, 1), (2,)), -third)]),
        "mul": mul(a, t1),
        "mul-right": mul(t1, b),
        "tensor_mul": tensor_mul(tensor, TensorElement.single(S2, (1,), ())),
        "element_tensor": element_tensor(a, mul(a, t1)),
        "linear_combination": linear_combination([(half, a), (-half, a)]),
        "sum": a - a,
        "wick_mul": wick_mul(wick, WickElement.single(PAIR, (1,), ()), psi),
        "wick_mul-law1": wick_mul(psi.apply(EMPTY_WORD, Word((1,))),
                                  WickElement.single(PAIR, (1,), ()), psi),
        "wick_mul-law2": wick_mul(WickElement.single(PAIR, (), (2,)),
                                  psi.apply(Word((2,)), Word((1,))), psi),
        "map_legs": (t1 - t2).scale(third).map_legs(
            lambda e: Element.unit(S2)),
        "dagger": PAIR.dagger(mul(a, t1)),
    }
    # the obstruction map pins the constant term to 1: it is never zero
    for name, zero in zeros.items():
        assert zero == 0, name
        assert (zero._num, zero._d) == ({}, 1), name


# -- hash agrees with equality across kinds -------------------------------------


def test_rational_scalars_hash_as_the_numbers_they_equal():
    assert len({Scalar(1), 1}) == 1
    assert len({Scalar(Fraction(1, 2)), Fraction(1, 2)}) == 1
    assert hash(Scalar(-3)) == hash(-3) and hash(Scalar(0)) == hash(0)
    assert hash(Scalar(1, 1)) == hash(Scalar(Fraction(2, 2), 1))


@settings(max_examples=100, deadline=None)
@given(rationals)
def test_rational_scalar_hash_property(r):
    assert Scalar(r) == r and hash(Scalar(r)) == hash(r)


def test_zero_combinations_hash_as_zero():
    for zero in (Element(S2), Element(S2, {(1, 1): Scalar(5)}),
                 TensorElement(S2), WickElement(PAIR),
                 Element.generator(S2, 1) - Element.generator(S2, 1)):
        assert zero == 0 and hash(zero) == hash(0)
        assert len({zero, 0}) == 1


# -- the hot path builds no Scalar ------------------------------------------------


@contextmanager
def make_calls():
    """The argument tuples of every `scalar._make` call inside the block,
    through whichever module's binding it is made."""
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        for name, mod in list(sys.modules.items()):
            if (name == "rga" or name.startswith("rga.")) \
                    and hasattr(mod, "_make"):
                def spy(*args, _make=mod._make):
                    calls.append(args)
                    return _make(*args)
                patch.setattr(mod, "_make", spy)
        yield calls


@contextmanager
def apply_calls():
    """The (xi, theta) letter pairs `CrossSymmetry.apply` is called on
    inside the block."""
    calls = []
    original = CrossSymmetry.apply

    def spy(self, xi_word, theta_word):
        calls.append((tuple(xi_word), tuple(theta_word)))
        return original(self, xi_word, theta_word)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CrossSymmetry, "apply", spy)
        yield calls


def wick(pairs):
    """A WickElement with coefficients 1/2, 2/3, 3/4, ... on `pairs`."""
    return WickElement(PAIR, [(k, Scalar(Fraction(i + 1, i + 2), i))
                              for i, k in enumerate(pairs)])


# x's X-words and y's T-words repeat, so blocks hold several terms
X = wick([((), (1,)), ((1,), (1,)), ((2, 1), (1,)), ((2,), (2,)), ((), (2,))])
Y = wick([((1,), ()), ((1,), (2,)), ((2,), (1, 2)), ((2,), ()), ((1,), (1,))])


def test_products_and_linear_operations_build_no_scalar():
    a = Element(S2, [((), Fraction(1, 2)), ((1,), Scalar(1, 3)),
                     ((1, 2), Fraction(-2, 3))])
    b = Element(S2, [((), 3), ((2,), Scalar(Fraction(1, 4), 1)),
                     ((2, 1), 5)])
    s = Scalar(Fraction(2, 3), -1)
    t = TensorElement(S2, [(((1,), (2,)), s), (((), ()), 2)])
    for psi in PSIS.values():
        wick_mul(X, Y, psi)  # every psi value this test needs, cached
    with make_calls() as calls:
        mul(a, b)
        tensor_mul(t, t), tensor_mul(t, t, "koszul")
        t + t, t - t, -t, t.scale(s)
        for psi in PSIS.values():
            wick_mul(X, Y, psi)
            # the extension through each coherence law
            psi._compute(Word((1,)), Word((2, 1)))
            psi._compute(Word((2, 1)), Word((1,)))
        a + b, a - b, -a, a.scale(s), X + Y, X - Y, -X, X.scale(s)
    assert calls == []


@pytest.mark.parametrize("label", sorted(PSIS))
def test_wick_mul_looks_psi_up_once_per_block(label):
    psi = PSIS[label]
    wick_mul(X, Y, psi)  # every value cached: no nested look-ups
    with apply_calls() as calls:
        wick_mul(X, Y, psi)
    blocks = {(b.letters, c.letters)
              for ((_, b), _) in X.terms() for ((c, _), _) in Y.terms()}
    assert sorted(calls) == sorted(blocks)
    assert len(calls) < len(X.terms()) * len(Y.terms())


# -- one Z[w] kernel --------------------------------------------------------------

KERNEL = {"_times", "_conjugate", "_scaled_rows", "_products"}


def _defined(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    return {node.name for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)}, tree


def test_scalar_defines_the_kernel():
    assert KERNEL <= _defined(SRC / "scalar.py")[0]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_one_coefficient_path(path):
    defined, tree = _defined(path)
    if path.name != "scalar.py":
        assert not defined & KERNEL, (
            f"{path.name} defines {sorted(defined & KERNEL)}; "
            f"use the kernel in rga.scalar")
    assert "_summed" not in defined
    assert not any(isinstance(node, ast.ImportFrom)
                   and node.module == "functools"
                   and any(alias.name == "reduce" for alias in node.names)
                   for node in ast.walk(tree))


@pytest.mark.parametrize("name", ["parser.py", "category.py", "reports.py",
                                  "cli.py"])
def test_outer_modules_use_public_names(name):
    tree = ast.parse((SRC / name).read_text(encoding="utf-8"), name)
    layout = [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)
              and node.attr in ("_num", "_d")]
    assert not layout, (f"{name} reads `_num` or `_d` at lines {layout}; "
                        f"use `terms()` or `coeff()`")
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").startswith("rga"))
               for alias in node.names if alias.name.startswith("_")]
    assert not private, f"{name} imports private names {private}"

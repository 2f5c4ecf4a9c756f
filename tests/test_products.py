"""Products through `RewriteSystem.product`, against the raw-concatenation
products they replaced (kept in `helpers` as oracles), and the guards
that keep one path for products: no module but `rga.rewrite` concatenates
two words' letters or reads `.letters` at all (a word is a tuple, so `u + v`
needs no attribute and only the product memo should form it), and
`+ - scale neg` and `apply_delta` never call `normal_form`; an operator
matrix calls it once per basis word, and neither a product memo miss nor
a hit calls it.
"""

import ast
from contextlib import contextmanager
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rga.algebra import (Element, Subspace, annihilator, invert_by_solve,
                         left_mul_matrix, mul)
from rga.rewrite import RewriteSystem
from rga.scalar import Scalar
from rga.tensor import (XI, TensorElement, _coassociativity_laws, apply_delta,
                        tensor_mul)
from rga.wick import ConjugatedPair, CrossSymmetry, WickElement, wick_mul

from helpers import (coassociativity_sides_reference, mul_reference,
                     peel_theta_reference, peel_xi_reference,
                     summed_reference, tensor_mul_reference,
                     wick_mul_reference)

SRC = Path(__file__).resolve().parent.parent / "src" / "rga"
S2, S3 = RewriteSystem(2), RewriteSystem(3)
PAIR = ConjugatedPair()
PSIS = {"flip": CrossSymmetry.flip(PAIR),
        "regular[unit]": CrossSymmetry.regular(PAIR, "unit"),
        "regular[idem]": CrossSymmetry.regular(PAIR, "idem")}

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
scalars = st.builds(Scalar, rationals, rationals)


def words(n):
    return st.lists(st.integers(1, n), max_size=4).map(tuple)


def terms(keys):
    return st.lists(st.tuples(keys, scalars), max_size=6)


def elements(system):
    return terms(words(system.n)).map(lambda ts: Element(system, ts))


tensors = terms(st.tuples(words(2), words(2))).map(
    lambda ts: TensorElement(S2, ts))
wicks = terms(st.tuples(words(2), words(2))).map(
    lambda ts: WickElement(PAIR, ts))

PROPS = settings(max_examples=80, deadline=None)


@PROPS
@given(st.sampled_from([S2, S3]).flatmap(
    lambda s: st.tuples(elements(s), elements(s))))
def test_mul_matches_concatenation(case):
    a, b = case
    assert mul(a, b) == mul_reference(a, b)


@PROPS
@given(st.sampled_from(["plain", "koszul"]), tensors, tensors)
def test_tensor_mul_matches_concatenation(signs, s, t):
    assert tensor_mul(s, t, signs) == tensor_mul_reference(s, t, signs)


@PROPS
@given(st.sampled_from(sorted(PSIS)), wicks, wicks)
def test_wick_mul_matches_concatenation(label, x, y):
    psi = PSIS[label]
    assert wick_mul(x, y, psi) == wick_mul_reference(x, y, psi)


@pytest.mark.parametrize("label", sorted(PSIS))
def test_peeling_matches_concatenation(label):
    # every triple of the n = 2 basis, which holds all its normal words
    psi = PSIS[label]
    thetas = PAIR.theta.enumerate_normal_forms(2)
    xis = PAIR.xi.enumerate_normal_forms(2)
    for a in xis:
        for b in thetas:
            for c in thetas:
                assert wick_mul(psi.apply(a, b),
                                WickElement.single(PAIR, c, ()), psi) == \
                    peel_theta_reference(psi, a, b, c)
    for a in xis:
        for b in xis:
            for c in thetas:
                assert wick_mul(WickElement.single(PAIR, (), a),
                                psi.apply(b, c), psi) == \
                    peel_xi_reference(psi, a, b, c)


XI_BASIS = XI.enumerate_normal_forms(2)
# a table over every XI word of degree <= 2, each value with Q(w) terms
tables = st.lists(terms(st.tuples(st.sampled_from(XI_BASIS),
                                  st.sampled_from(XI_BASIS))),
                  min_size=len(XI_BASIS), max_size=len(XI_BASIS)).map(
    lambda values: {w: TensorElement(XI, ts)
                    for w, ts in zip(XI_BASIS, values)})


@PROPS
@given(tables)
def test_coassociativity_sides_match_concatenation(table):
    for law, at, lhs, rhs in _coassociativity_laws(table):
        w = next(w for w in table if w.to_text("X") == at)
        assert (lhs, rhs) == coassociativity_sides_reference(table, w)


def _concatenations(tree):
    """Lines of `<expr>.letters + <expr>.letters` in `tree`."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
            and all(isinstance(side, ast.Attribute) and side.attr == "letters"
                    for side in (node.left, node.right))]


def _letters_reads(tree):
    """Lines that read an attribute named `letters` in `tree`."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "letters"]


def test_guard_sees_a_concatenation():
    assert _concatenations(ast.parse("u.letters + v.letters")) == [1]
    assert _concatenations(ast.parse("u.letters + (1,)")) == []


def test_guard_sees_a_letters_read():
    assert _letters_reads(ast.parse("u.letters + v")) == [1]
    assert _letters_reads(ast.parse("x = 1\nw.letters[:-1]")) == [2]
    assert _letters_reads(ast.parse("letters = u + v")) == []


NOT_REWRITE = sorted(p for p in SRC.glob("*.py") if p.name != "rewrite.py")


@pytest.mark.parametrize("path", NOT_REWRITE, ids=lambda p: p.name)
def test_products_of_words_go_through_product(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    lines = _concatenations(tree)
    assert not lines, (f"{path.name} concatenates word letters at lines "
                       f"{lines}; use RewriteSystem.product")


@pytest.mark.parametrize("path", NOT_REWRITE, ids=lambda p: p.name)
def test_only_rewrite_reads_word_letters(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    lines = _letters_reads(tree)
    assert not lines, (f"{path.name} reads .letters at lines {lines}; a "
                       f"Word is its tuple of letters")


@PROPS
@given(st.sampled_from(["element", "tensor", "wick"]).flatmap(
    lambda kind: st.tuples(*[{"element": elements(S3),
                              "tensor": tensors,
                              "wick": wicks}[kind]] * 2)), scalars)
def test_linear_operations_skip_normal_form(case, s):
    x, y = case
    with normal_form_calls() as calls:
        x + y, x - y, x.scale(s), -x, x + 2, 3 - y, x * s
    assert calls == []


@PROPS
@given(tensors, elements(S2))
def test_apply_delta_skips_normal_form(t, e):
    # a generator table over every normal word that `e` can hold
    table = {w: t.scale(k + 1)
             for k, w in enumerate(S2.enumerate_normal_forms(4))}
    with normal_form_calls() as calls:
        applied = apply_delta(table, e)
    assert calls == []
    assert applied == TensorElement(S2, summed_reference(
        (S2, S2), ((k, (s, c)) for w, s in e.terms()
                   for k, c in table[w].terms())))


def test_operator_reads_each_basis_word_once_in_normal_form():
    # a fresh system: its product memo is cold, so every product misses
    # once, and a miss forms its product from the seam alone
    system = RewriteSystem(2)
    a = Element.generator(system, 1)
    space = Subspace("A", tuple(system.enumerate_normal_forms(2)))
    answers = []
    for _ in ("cold", "warm"):
        with normal_form_calls() as calls:
            answers.append(left_mul_matrix(a, space, space))
        assert len(calls) == 2 * space.dim
    assert answers[0] == answers[1]


def _weighted(keys):
    """Terms with distinct weights 1, 2, ... on `keys`."""
    return [(key, k + 1) for k, key in enumerate(keys)]


def test_n2_solve_path_reads_only_the_operator_bases_in_normal_form():
    # five-component vectors take the trusted path, so with a warm memo
    # only the operator matrix reads its domain and codomain words, 5 + 5
    system = RewriteSystem(2)
    v = (1, 1, 0, 0, 0)
    a, t1 = Element.from_coeffs(system, v), Element.generator(system, 1)
    for call, expected in [(lambda: Element.from_coeffs(system, v), 0),
                           (lambda: invert_by_solve(a), 10),
                           (lambda: annihilator(t1, "right"), 10)]:
        call()  # warms the product memo
        with normal_form_calls() as calls:
            call()
        assert len(calls) == expected


THETA_WORDS = PAIR.theta.enumerate_normal_forms(2)
MEMO_READERS = {
    "mul": (Element(PAIR.theta, _weighted(THETA_WORDS)), mul),
    "tensor_mul": (TensorElement(PAIR.theta, _weighted(
        product(THETA_WORDS, repeat=2))), tensor_mul),
    "wick_mul": (WickElement(PAIR, _weighted(product(THETA_WORDS, XI_BASIS))),
                 lambda x, y: wick_mul(x, y, PSIS["regular[unit]"])),
}


@pytest.mark.parametrize("name", sorted(MEMO_READERS))
def test_memo_misses_and_hits_skip_normal_form(name):
    # `mul`, `tensor_mul` and `wick_mul` subscript the product memos; a
    # miss forms its product from the seam of its two normal words
    x, op = MEMO_READERS[name]
    expected = op(x, x)  # also fills the cross symmetry's own cache
    memos = (PAIR.theta._products, PAIR.xi._products)
    for memo in memos:
        memo.clear()  # a memo only caches: no answer changes
    with normal_form_calls() as calls:
        assert op(x, x) == expected
    assert sum(map(len, memos)) > 0
    assert calls == []
    with normal_form_calls() as calls:
        assert op(x, x) == expected
    assert calls == []


@contextmanager
def normal_form_calls():
    """The list of words `RewriteSystem.normal_form` is called on inside
    the block."""
    calls = []
    original = RewriteSystem.normal_form

    def spy(self, word):
        calls.append(word)
        return original(self, word)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RewriteSystem, "normal_form", spy)
        yield calls

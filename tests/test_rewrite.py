import weakref
from itertools import product
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from rga import rewrite
from rga.algebra import Element, mul
from rga.rewrite import (EMPTY_WORD, MAX_GENERATORS, ZERO, LetterRangeError,
                         RewriteSystem, SizeLimitError, Word, require_size)
from rga.wick import ConjugatedPair, CrossSymmetry


def words(seq):
    return [Word(w) for w in seq]


def test_square_zero_and_cyclic_n2():
    sys = RewriteSystem(2)
    assert sys.normal_form([1, 2, 1]) == Word([1])
    assert sys.normal_form([2, 1, 2]) == Word([2])
    assert sys.normal_form([1, 1]) is ZERO
    assert sys.normal_form([2, 2]) is ZERO
    assert repr(ZERO) == str(ZERO) == "ZERO"


def test_cyclic_n3():
    sys = RewriteSystem(3)
    assert sys.normal_form([1, 2, 3, 1]) == Word([1])
    # both reduction orders land on the same word
    assert sys.normal_form([1, 2, 3, 1, 2]) == Word([1, 2])
    # the reversed cycle is not a relation
    assert sys.normal_form([1, 3, 2, 1]) == Word([1, 3, 2, 1])


def test_normal_form_idempotent():
    sys = RewriteSystem(3)
    rng = Random(3)
    for _ in range(200):
        w = [rng.randint(1, 3) for _ in range(rng.randint(0, 10))]
        nf = sys.normal_form(w)
        if nf is not ZERO:
            assert sys.normal_form(nf) == nf


def test_letter_range_error():
    sys = RewriteSystem(2)
    with pytest.raises(LetterRangeError) as err:
        sys.normal_form([1, 3])
    assert "3" in str(err.value) and "1..2" in str(err.value)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(1, 6), st.just(64)),
       st.lists(st.integers(0, 255), max_size=12))
@example(2, [1, 2, 0])
@example(64, [64, 65, 1])
def test_word_refused_exactly_at_its_first_letter_out_of_range(n, letters):
    bad = [x for x in letters if not 1 <= x <= n]
    if not bad:
        out = RewriteSystem(n).normal_form(Word(letters))
        assert out is ZERO or all(1 <= x <= n for x in out)
        return
    message = f"^letter {bad[0]} outside generator range 1..{n}$"
    with pytest.raises(LetterRangeError, match=message):
        RewriteSystem(n).normal_form(Word(letters))


def test_enumerate_n2():
    sys = RewriteSystem(2)
    expected = words([(), (1,), (2,), (1, 2), (2, 1)])
    assert sys.enumerate_normal_forms(2) == expected
    # the basis saturates: any alternating word of length >= 3 reduces
    for bound in range(2, 9):
        assert sys.enumerate_normal_forms(bound) == expected


def test_enumerate_n1():
    assert RewriteSystem(1).enumerate_normal_forms(3) == words([(), (1,)])


def test_enumerate_ordering_and_exhaustiveness():
    # independent oracle: scan every word over the alphabet for rule
    # instances directly
    def irreducible(w, n):
        for p in range(len(w)):
            if p + 1 < len(w) and w[p] == w[p + 1]:
                return False
            i = w[p]
            pat = tuple(range(i, n + 1)) + tuple(range(1, i)) + (i,)
            if tuple(w[p:p + len(pat)]) == pat:
                return False
        return True

    def brute(n, max_len):
        # every walk (no two equal adjacent letters), since a word with an
        # equal pair is reducible, filtered by the scan above
        out = [()]
        layer = [()]
        for _ in range(max_len):
            layer = [w + (a,) for w in layer for a in range(1, n + 1)
                     if w[-1:] != (a,)]
            out.extend(w for w in layer if irreducible(w, n))
        return out

    # (5, 7) and (6, 7) reach past degree n, where the cyclic cut applies
    for n, max_len in ((1, 4), (2, 7), (3, 4), (4, 5), (5, 5), (5, 7), (6, 7),
                       (64, 2)):
        got = RewriteSystem(n).enumerate_normal_forms(max_len)
        expected = sorted(brute(n, max_len), key=lambda w: (len(w), w))
        assert [w.letters for w in got] == expected, n


def test_local_confluence_n2():
    rep = RewriteSystem(2).check_local_confluence()
    assert rep.locally_confluent
    assert len(rep.critical_pairs) == 10
    # the 1212 overlap of the two cyclic rules joins at 12
    overlap_words = {p.overlap.letters for p in rep.critical_pairs}
    assert (1, 2, 1, 2) in overlap_words
    p = next(p for p in rep.critical_pairs
             if p.overlap.letters == (1, 2, 1, 2))
    assert p.left_reduct == Word([1, 2]) and p.right_reduct == Word([1, 2])


def test_local_confluence_n3():
    rep = RewriteSystem(3).check_local_confluence()
    assert rep.locally_confluent
    assert len(rep.critical_pairs) == 18


def test_local_confluence_n1_records_degeneracy():
    # square_zero and cyclic share the pattern 11 with reducts 0 and 1;
    # the collapse of the one-generator quotient is visible as
    # non-joinability
    rep = RewriteSystem(1).check_local_confluence()
    assert not rep.locally_confluent
    bad = [p for p in rep.critical_pairs if not p.joinable]
    assert bad and all(p.overlap == Word([1, 1]) for p in bad)


def leftmost_rescan(n, letters):
    """Reference reducer: rewrite the leftmost redex, square_zero first at
    equal positions, then scan again from the start of the word."""
    letters = tuple(letters)
    while True:
        for p, i in enumerate(letters):
            if letters[p + 1:p + 2] == (i,):
                return ZERO
            pat = tuple(range(i, n + 1)) + tuple(range(1, i)) + (i,)
            if letters[p:p + len(pat)] == pat:
                letters = letters[:p] + (i,) + letters[p + len(pat):]
                break
        else:
            return Word(letters)


def reducer_inputs(n, max_len=60):
    # uniform words; walks where 0 stands for the cyclic successor of the
    # letter before, so cyclic patterns are common; (1..n)^k 1 cycle words
    walk_steps = st.lists(st.one_of(st.just(0), st.integers(1, n)),
                          max_size=max_len)

    def walk(steps):
        out = []
        for x in steps:
            out.append(x or (out[-1] % n + 1 if out else 1))
        return out

    return st.tuples(st.just(n), st.one_of(
        st.lists(st.integers(1, n), max_size=max_len),
        walk_steps.map(walk),
        st.integers(0, (max_len - 1) // n).map(
            lambda k: list(range(1, n + 1)) * k + [1])))


# letters are bytes to the normal-form kernel: 10 is a newline, and 40..46
# and 63 are regex metacharacters; 200 letters is the longest benchmark word
@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.integers(1, 6).flatmap(reducer_inputs),
    st.sampled_from([10, 11, 47, 63, 64]).flatmap(
        lambda n: reducer_inputs(n, 200))))
@example((64, list(range(40, 65)) + list(range(1, 41))))
@example((64, [9, 10, 11, 10, 42]))
@example((47, [*range(40, 48), *range(1, 48), *range(1, 41)]))
def test_normal_form_matches_leftmost_rescan(case):
    n, letters = case
    system = RewriteSystem(n)
    expected = leftmost_rescan(n, letters)
    for word in (letters, Word(letters)):
        got = system.normal_form(word)
        assert got is expected if expected is ZERO else got == expected


@pytest.mark.parametrize("n", range(1, 6))
def test_short_words_match_leftmost_rescan(n):
    # every word of up to n + 1 letters over 0..n+1: the words the
    # short-word exit answers, the shortest that reach the substitution,
    # and letters just outside the range on either side
    system = RewriteSystem(n)
    for length in range(n + 2):
        for letters in product(range(n + 2), repeat=length):
            word = Word(letters)
            bad = next((x for x in letters if not 1 <= x <= n), None)
            try:
                got = system.normal_form(word)
            except LetterRangeError as err:
                assert str(err).startswith(f"letter {bad} outside"), letters
                continue
            assert bad is None, letters
            expected = leftmost_rescan(n, letters)
            if expected is ZERO or expected == word:
                assert got is (ZERO if expected is ZERO else word), letters
            else:
                assert got == expected, letters


def test_short_word_exit_at_the_generator_ceiling():
    system = RewriteSystem(MAX_GENERATORS)
    run = Word(range(1, MAX_GENERATORS + 1))  # n letters hold no pattern
    assert system.normal_form(run) is run
    cycle = Word([*range(1, MAX_GENERATORS + 1), 1])
    assert system.normal_form(cycle) == Word([1])


def test_generator_ceiling_fits_a_byte():
    # normal_form encodes each letter as one byte
    assert MAX_GENERATORS <= 255


def test_termination_step_bound():
    # every rewrite shortens the word, so reductions of random length-40
    # words finish
    sys = RewriteSystem(2)
    rng = Random(9)
    for _ in range(50):
        w = [rng.randint(1, 2) for _ in range(40)]
        sys.normal_form(w)


@pytest.mark.parametrize("n", [0, -3])
def test_generator_count_below_one_refused(n):
    message = f"^generator count must be >= 1, got {n}$"
    with pytest.raises(SizeLimitError, match=message):
        require_size(n)
    with pytest.raises(SizeLimitError, match=message):
        RewriteSystem(n)


def test_parity():
    assert Word([1, 2]).parity == 0
    assert Word([1]).parity == 1
    assert EMPTY_WORD.parity == 0
    assert not hasattr(ZERO, "parity")  # the zero result has no grade


def test_parity_preserved_for_even_n():
    sys = RewriteSystem(2)
    rng = Random(17)
    for _ in range(300):
        w = [rng.randint(1, 2) for _ in range(rng.randint(0, 10))]
        nf = sys.normal_form(w)
        if nf is not ZERO:
            assert nf.parity == len(w) % 2


def test_parity_breaks_for_odd_n():
    # cyclic collapse removes n letters; for n=3 it flips the grade
    sys = RewriteSystem(3)
    nf = sys.normal_form([1, 2, 3, 1])
    assert nf == Word([1]) and nf.parity != (4 % 2)


def test_word_ordering_and_concat():
    u, v = Word([1]), Word([2, 1])
    assert u + v == Word([1, 2, 1])
    assert sorted([v, u, EMPTY_WORD]) == [EMPTY_WORD, u, v]
    assert Word([1, 2]).reverse() == Word([2, 1])


# -- Word is a tuple ------------------------------------------------------


def test_word_is_a_plain_tuple_subclass():
    # hashing and equality run in C, and no instance carries a dict
    assert issubclass(Word, tuple) and Word.__slots__ == ()
    assert Word.__hash__ is tuple.__hash__
    assert Word.__eq__ is tuple.__eq__
    assert Word.__lt__ is tuple.__lt__
    assert Word.__add__ is tuple.__add__


def test_word_compares_as_its_tuple():
    assert Word((1,)) == (1,) and hash(Word((1,))) == hash((1,))
    # `<` is tuple order; the canonical (length, letters) order is sort_key
    assert not Word((2,)) < Word((1, 1))
    assert Word((2,)).sort_key() < Word((1, 1)).sort_key()
    assert type(Word((1,)) + Word((2,))) is tuple


int_tuples = st.lists(st.integers(-3, 70), max_size=6).map(tuple)


@settings(max_examples=200, deadline=None)
@given(st.lists(int_tuples, max_size=10))
def test_word_behaves_as_its_letters(ts):
    for t in ts:
        w = Word(t)
        assert w == t and hash(w) == hash(t) and w.letters == t
        assert type(w.reverse()) is Word and w.reverse() == t[::-1]
        assert w.parity == len(t) % 2
        assert w.to_text("X") == (" ".join(f"X{i}" for i in t) or "1")
        assert str(w) == w.to_text("T")
        assert repr(w) == f"Word({list(t)!r})"
    assert sorted(map(Word, ts), key=Word.sort_key) == sorted(
        ts, key=lambda t: (len(t), t))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_results_are_exact_words(n):
    # a plain tuple key would be read as a multi-leg key by term ordering
    system = RewriteSystem(n)
    words = system.enumerate_normal_forms(3)
    assert all(type(w) is Word for w in words)
    for u in words:
        assert type(u.reverse()) is Word
        for v in words:
            for got in (system.normal_form(list(u) + list(v)),
                        system.product(u, v)):
                assert got is ZERO or type(got) is Word


# -- RewriteSystem.product ------------------------------------------------


def product_inputs(n):
    # one reducer input split at a drawn point: the operands are arbitrary
    # words, normal or not, and their product may be ZERO
    return reducer_inputs(n).flatmap(lambda case: st.tuples(
        st.just(case[0]), st.just(case[1]),
        st.integers(0, len(case[1]))))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(product_inputs))
@example((2, [1, 2, 1, 1], 2))  # a non-normal right operand, ZERO product
@example((2, [1, 2, 1, 2], 2))  # normal operands, a cyclic collapse
@example((3, [1, 2, 3, 1], 4))  # a non-normal left operand, empty right
def test_product_is_normal_form_of_concatenation(case):
    n, letters, k = case
    system = RewriteSystem(n)
    u, v = Word(letters[:k]), Word(letters[k:])
    expected = system.normal_form(u + v)
    for _ in range(2):  # a miss, then a hit of the memo
        got = system.product(u, v)
        assert got is expected if expected is ZERO else got == expected


@pytest.mark.parametrize("n,max_len", [(2, 2), (3, 3), (4, 3)])
def test_product_is_associative(n, max_len):
    system = RewriteSystem(n)
    words = system.enumerate_normal_forms(max_len)

    def times(u, v):
        return ZERO if u is ZERO or v is ZERO else system.product(u, v)

    for u in words:
        for v in words:
            uv = times(u, v)
            for w in words:
                assert times(uv, w) == times(u, times(v, w)), (u, v, w)


def test_product_memo_stops_at_its_bound(monkeypatch):
    # filled through `product`, then through `mul`, which subscripts the
    # memo without it
    monkeypatch.setattr(rewrite, "MAX_PRODUCTS", 3)
    for through_mul in (False, True):
        system = RewriteSystem(3)
        words = system.enumerate_normal_forms(2)
        for _ in range(2):
            for u in words:
                a = Element.from_word(system, u)
                for v in words:
                    if through_mul:
                        got = mul(a, Element.from_word(system, v))
                        assert got == Element(system, [(u + v, 1)])
                    else:
                        got = system.product(u, v)
                        expected = system.normal_form(u + v)
                        assert got is expected if expected is ZERO \
                            else got == expected
                    assert len(system._products) <= 3
        assert len(system._products) == 3


def test_a_dropped_system_is_freed_with_its_memo():
    # the memo reaches its system weakly, so no cycle waits for the collector
    system = RewriteSystem(3)
    system.product(Word([1]), Word([2]))
    dropped = weakref.ref(system)
    del system
    assert dropped() is None


# -- letters that are not ints ------------------------------------------------


@pytest.mark.parametrize("call", [
    lambda: CrossSymmetry.regular(ConjugatedPair(), "unit").apply(
        (1.7,), (1,)),
    lambda: CrossSymmetry.regular(ConjugatedPair(), "unit").apply(
        ("2",), (1,)),
    lambda: Element.generator(RewriteSystem(2), 1.5),
    lambda: Word((True, 2)),
], ids=["float-apply", "str-apply", "float-generator", "bool-word"])
def test_letters_that_are_not_ints_are_refused(call):
    with pytest.raises(LetterRangeError, match="is not an int$"):
        call()


# a tuple of bools, floats or strings may equal a memo key made for (1,)
NOT_INT_ONE = [(True,), (1.0,), ("1",)]


@pytest.mark.parametrize("raw", NOT_INT_ONE, ids=["bool", "float", "str"])
def test_product_refuses_non_words_against_a_warm_memo(raw):
    system = RewriteSystem(2)
    one, two = Word((1,)), Word((2,))
    assert system.product(one, two) == (1, 2)
    assert system.product(two, one) == (2, 1)
    for u, v in [(raw, two), (two, raw), ((1,), two)]:
        with pytest.raises(TypeError, match="product takes two Words"):
            system.product(u, v)


@pytest.mark.parametrize("raw", NOT_INT_ONE, ids=["bool", "float", "str"])
def test_apply_refuses_non_int_letters_against_a_warm_memo(raw):
    psi = CrossSymmetry.regular(ConjugatedPair(), "unit")
    psi.apply((1,), (1,))
    assert ((1,), (1,)) in psi._cache
    for xi, theta in [(raw, (1,)), ((1,), raw)]:
        with pytest.raises(LetterRangeError, match="is not an int$"):
            psi.apply(xi, theta)


@pytest.mark.parametrize("raw", NOT_INT_ONE, ids=["bool", "float", "str"])
def test_coeff_refuses_non_int_letters(raw):
    e = Element.generator(RewriteSystem(2), 1)
    assert e.coeff((1,)) == 1
    with pytest.raises(LetterRangeError, match="is not an int$"):
        e.coeff(raw)

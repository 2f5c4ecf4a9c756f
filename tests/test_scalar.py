from fractions import Fraction
from math import gcd
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from rga.scalar import (OMEGA, OMEGA2, ONE, Scalar, ZERO_SCALAR,
                        integer_parts)

from helpers import rand_scalar, scalar_text_reference


def test_omega_cubes_to_one():
    assert OMEGA ** 3 == ONE
    assert OMEGA * OMEGA == OMEGA2


def test_omega_sum_relation():
    assert OMEGA + OMEGA2 == Scalar(-1)
    assert ONE + OMEGA + OMEGA2 == ZERO_SCALAR


def test_conjugation_swaps_roots():
    assert OMEGA.conjugate() == OMEGA2
    assert OMEGA2.conjugate() == OMEGA
    assert Scalar(Fraction(3, 2)).conjugate() == Scalar(Fraction(3, 2))


def test_norm_and_inverse():
    rng = Random(1)
    for _ in range(200):
        x = rand_scalar(rng)
        if x.is_zero():
            continue
        assert x * x.inverse() == ONE
        assert x.norm() == (x * x.conjugate()).a
        assert (x * x.conjugate()).b == 0


def test_field_axioms_random():
    rng = Random(2)
    for _ in range(200):
        x, y, z = (rand_scalar(rng) for _ in range(3))
        assert x * (y + z) == x * y + x * z
        assert (x * y) * z == x * (y * z)
        assert x + y == y + x and x * y == y * x


def test_division():
    assert (OMEGA / OMEGA) == ONE
    assert (ONE / OMEGA) == OMEGA2
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO_SCALAR


def test_int_promotion():
    assert Scalar(2) + 3 == Scalar(5)
    assert 2 * OMEGA == Scalar(0, 2)
    assert Scalar(4) / 2 == Scalar(2)


def test_bool_operands_are_ints():
    assert Scalar(2) + True == True + Scalar(2) == Scalar(3)
    assert True - OMEGA == Scalar(1, -1) and OMEGA - False == OMEGA
    assert OMEGA * True == True * OMEGA == OMEGA and OMEGA * False == 0
    assert OMEGA / True == OMEGA and True / OMEGA == OMEGA2
    assert ONE == True and ZERO_SCALAR == False and ONE != False


def test_canonical_strings():
    assert str(Scalar(2)) == "2"
    assert str(Scalar(Fraction(-1, 2))) == "-1/2"
    assert str(OMEGA) == "w"
    assert str(-OMEGA) == "-w"
    assert str(Scalar(0, Fraction(2, 3))) == "2/3*w"
    assert str(Scalar(1, 2)) == "1+2*w"
    assert str(Scalar(1, -1)) == "1-w"
    assert str(OMEGA2) == "-1-w"
    assert str(ZERO_SCALAR) == "0"
    assert repr(Scalar(Fraction(1, 2), -3)) \
        == "Scalar(Fraction(1, 2), Fraction(-3, 1))"


def test_immutable():
    with pytest.raises(AttributeError):
        ONE.a = Fraction(2)


# -- properties against a Fraction-pair reference ----------------------------
#
# The reference keeps a + b*w as a pair (a, b) of Fractions and does the
# textbook arithmetic on it; every Scalar result must match it exactly.

coordinates = st.one_of(
    st.integers(-10**6, 10**6),
    st.fractions(max_denominator=10**6).filter(lambda f: abs(f) < 10**6))
pairs = st.tuples(coordinates, coordinates)
nonzero_pairs = pairs.filter(lambda p: p != (0, 0))


def ref_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def ref_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def ref_mul(x, y):
    (a, b), (c, d) = x, y
    return (a * c - b * d, a * d + b * c - b * d)


def ref_conjugate(x):
    return (x[0] - x[1], -x[1])


def ref_norm(x):
    a, b = x
    return Fraction(a * a - a * b + b * b)


def ref_inverse(x):
    c, n = ref_conjugate(x), ref_norm(x)
    return (c[0] / n, c[1] / n)


def agrees(s, x):
    """s is the reference pair x, in canonical form."""
    p, q, d = s._p, s._q, s._d
    assert d > 0 and gcd(p, q, d) == 1
    assert type(s.a) is Fraction and type(s.b) is Fraction
    return (s.a, s.b) == (Fraction(x[0]), Fraction(x[1]))


@given(pairs, pairs)
def test_ring_operations_match_reference(x, y):
    s, t = Scalar(*x), Scalar(*y)
    assert agrees(s, x)
    assert agrees(s + t, ref_add(x, y))
    assert agrees(s - t, ref_sub(x, y))
    assert agrees(s * t, ref_mul(x, y))
    assert agrees(-s, ref_sub((0, 0), x))
    assert agrees(s.conjugate(), ref_conjugate(x))
    assert s.norm() == ref_norm(x) and type(s.norm()) is Fraction


@given(pairs, pairs)
def test_text_is_the_fraction_text(x, y):
    # sums, products and quotients reach denominators and parts the
    # drawn coordinates do not, and w-parts of +-1 over any denominator
    s, t = Scalar(*x), Scalar(*y)
    for u in (s, t, s + t, s * t, -s, s.conjugate(), s * OMEGA,
              s / t if t else s, Scalar(0, x[0]), Scalar(x[1], 1)):
        assert str(u) == scalar_text_reference(u)


# ints of up to 13,000 digits, three times the interpreter's default
# int/str digit limit, and powers of ten with the digits below them zero
long_ints = st.one_of(
    st.builds(lambda bits, seed: Random(seed).getrandbits(bits),
              st.integers(1, 43_000), st.integers(0, 2 ** 16)),
    st.builds(lambda k, j: 10 ** k + j, st.integers(0, 13_000),
              st.integers(-2, 2)))


@settings(max_examples=50, deadline=None)
@given(long_ints, long_ints, long_ints.map(lambda d: d or 1),
       st.sampled_from([1, -1]))
def test_text_past_the_digit_limit_is_the_fraction_text(p, q, d, sign):
    for u in (Scalar(Fraction(sign * p, d)), Scalar(0, Fraction(sign * q, d)),
              Scalar(Fraction(p, d), Fraction(-sign * q, d))):
        assert str(u) == scalar_text_reference(u)


@given(pairs, nonzero_pairs)
def test_division_matches_reference(x, y):
    s, t = Scalar(*x), Scalar(*y)
    assert agrees(t.inverse(), ref_inverse(y))
    assert agrees(s / t, ref_mul(x, ref_inverse(y)))


@given(pairs, pairs)
def test_equality_and_hash_match_reference(x, y):
    s, t = Scalar(*x), Scalar(*y)
    assert (s == t) == (ref_sub(x, y) == (0, 0))
    if s == t:
        assert hash(s) == hash(t)
    # the same value reached another way is equal and hashes alike
    u = (s + t) - t
    assert u == s and hash(u) == hash(s)


@given(pairs, coordinates)
def test_mixed_operands_on_both_sides(x, r):
    s, c = Scalar(*x), (r, 0)
    assert agrees(s + r, ref_add(x, c)) and agrees(r + s, ref_add(c, x))
    assert agrees(s - r, ref_sub(x, c)) and agrees(r - s, ref_sub(c, x))
    assert agrees(s * r, ref_mul(x, c)) and agrees(r * s, ref_mul(c, x))
    assert (Scalar(r) == r) and (r == Scalar(r))
    assert (s == r) == (ref_sub(x, c) == (0, 0))
    if r != 0:
        assert agrees(s / r, ref_mul(x, ref_inverse(c)))
    if x != (0, 0):
        assert agrees(r / s, ref_mul(c, ref_inverse(x)))


def test_integer_parts():
    assert integer_parts(-3) == (-3, 0, 1)
    assert integer_parts(Fraction(6, -4)) == (-3, 0, 2)
    assert integer_parts(Scalar(Fraction(1, 2), Fraction(-1, 3))) == (3, -2, 6)
    for bad in (0.5, "1", None):
        with pytest.raises(TypeError):
            integer_parts(bad)


def test_float_is_refused():
    with pytest.raises(TypeError):
        Scalar(0.5)
    with pytest.raises(TypeError):
        Scalar(1, 0.5)
    for op in (lambda: ONE + 0.5, lambda: 0.5 * ONE, lambda: ONE / 0.5,
               lambda: 0.5 - ONE):
        with pytest.raises(TypeError):
            op()

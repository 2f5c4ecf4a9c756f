"""Exact scalars a + b*w over the rationals, where w is a primitive cube
root of unity (w**2 + w + 1 = 0).

This is the smallest field containing the coefficients -1/2 +- i*sqrt(3)/2
that show up in the idempotent-obstruction computation: they are exactly
w and w**2.  Staying inside Q(w) keeps every check in the package an exact
equality; there is no floating point anywhere.

An element is stored the way number-field libraries store one (Cohen, A
Course in Computational Algebraic Number Theory, 4.2; FLINT's nf_elem): an
integer coefficient vector over one common denominator, so the field
operations are a handful of integer products and a single gcd.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, mul


def _ratio(x):
    """x as (numerator, denominator) in lowest terms, denominator > 0."""
    if isinstance(x, int):
        return int(x), 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class Scalar:
    """An element a + b*w of Q(w), stored as integers (p + q*w)/d in
    canonical form: d > 0 and gcd(p, q, d) == 1.

    `a` and `b` read back the two rational coordinates as `Fraction`s.
    Multiplication uses w**2 = -1 - w; conjugation sends w to w**2.
    """

    __slots__ = ("_p", "_q", "_d")

    def __init__(self, a, b=0):
        pa, da = _ratio(a)
        pb, db = _ratio(b)
        d = lcm(da, db)
        # both inputs are in lowest terms, so over their lcm no prime
        # divides p, q and d at once: the triple is already canonical
        _set_p(self, pa * (d // da))
        _set_q(self, pb * (d // db))
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    @property
    def a(self) -> Fraction:
        return Fraction(self._p, self._d)

    @property
    def b(self) -> Fraction:
        return Fraction(self._q, self._d)

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return self._p == 0 and self._q == 0

    def is_rational(self) -> bool:
        return self._q == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- field operations ---------------------------------------------

    @staticmethod
    def _coerce(x):
        """x as a Scalar, or None when it is not an int, Fraction or Scalar."""
        try:
            return _make(*integer_parts(x))
        except TypeError:
            return None

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._sum(other, -1)

    def _sum(self, other, sign: int):
        """self + sign * other."""
        if type(other) is not Scalar:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        d, e = self._d, other._d
        if d == e:
            return _make(self._p + sign * other._p,
                         self._q + sign * other._q, d)
        return _make(self._p * e + sign * other._p * d,
                     self._q * e + sign * other._q * d, d * e)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return _make(-self._p, -self._q, self._d)

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return _make(*_times(self._p, self._q, other._p, other._q),
                     self._d * other._d)

    __rmul__ = __mul__

    def conjugate(self) -> "Scalar":
        """Complex conjugation restricted to Q(w): w -> w**2 = -1 - w."""
        return _make(self._p - self._q, -self._q, self._d)

    def norm(self) -> Fraction:
        """Multiplicative norm a**2 - a*b + b**2 (zero only at zero)."""
        p, q, d = self._p, self._q, self._d
        return Fraction(p * p - p * q + q * q, d * d)

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        e0, e1, n = _conjugate(self._p, self._q)
        return _make(e0 * self._d, e1 * self._d, n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out = ONE
        for _ in range(k):
            out = out * self
        return out

    # -- identity and display -------------------------------------------

    def __eq__(self, other):
        if type(other) is not Scalar:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return (self._p == other._p and self._q == other._q
                and self._d == other._d)

    def __hash__(self):
        # a rational scalar equals, so hashes as, its int or Fraction
        return hash(Fraction(self._p, self._d) if self._q == 0
                    else (self._p, self._q, self._d))

    def __repr__(self):
        """`Scalar(Fraction(p, d), Fraction(q, d))` with each part in lowest
        terms, as `Fraction` prints it, also past the digit limit."""
        a, b = (f"Fraction({_decimal(x.numerator)}, "
                f"{_decimal(x.denominator)})" for x in (self.a, self.b))
        return f"Scalar({a}, {b})"

    def __str__(self):
        """Canonical form: `p/q`, `p/q*w`, or `p/q+r/s*w` (signs folded),
        each rational part as its `Fraction` prints."""
        p, q, d = self._p, self._q, self._d
        if q == 0:
            return _quotient_text(p, d)
        w = "w" if abs(q) == d else f"{_quotient_text(abs(q), d)}*w"
        if p == 0:
            return w if q > 0 else "-" + w
        return f"{_quotient_text(p, d)}{'+' if q > 0 else '-'}{w}"


_new = object.__new__
_set_p = Scalar._p.__set__
_set_q = Scalar._q.__set__
_set_d = Scalar._d.__set__


def _quotient_text(n: int, d: int) -> str:
    """n/d, d > 0, in lowest terms as `Fraction` prints it: `n` or `n/d`."""
    g = gcd(n, d)
    num, den = _decimal(n // g), _decimal(d // g)
    return num if den == "1" else f"{num}/{den}"


def _decimal(n: int) -> str:
    """str(n), also past the interpreter's int/str digit limit
    (`sys.get_int_max_str_digits()`): n as its halves around 10**k."""
    try:
        return str(n)
    except ValueError:
        k = abs(n).bit_length() * 3 // 20  # half the digits: log10(2) > 0.3
        high, low = divmod(abs(n), 10 ** k)
        return "-" * (n < 0) + _decimal(high) + _decimal(low).zfill(k)


def _make(p: int, q: int, d: int) -> Scalar:
    """The Scalar (p + q*w)/d, d > 0, brought to canonical form.  Every
    denominator the field operations form is positive: a product of
    denominators, or the norm p**2 - pq + q**2 of a nonzero element."""
    g = gcd(p, q, d)
    if g != 1:
        p, q, d = p // g, q // g, d // g
    s = _new(Scalar)
    _set_p(s, p)
    _set_q(s, q)
    _set_d(s, d)
    return s


# -- the Z[w] kernel ---------------------------------------------------------
# Every product of scalars, matrices and combinations is one of these.  The
# loops of the combination products and of the elimination write `_times`
# inline, one multiply-add per term, rather than call it.


def _times(x0: int, x1: int, y0: int, y1: int) -> tuple:
    """(x0 + x1 w)(y0 + y1 w) = x0 y0 - x1 y1 + (x0 y1 + x1 (y0 - y1))w."""
    return x0 * y0 - x1 * y1, x0 * y1 + x1 * (y0 - y1)


def _conjugate(c: int, f: int) -> tuple:
    """(e0, e1, n) with 1/(c + f*w) = (e0 + e1*w)/n, n > 0, for c + f*w != 0:
    the conjugate c - f - f*w over the norm c**2 - cf + f**2, or +-1/|c|."""
    if f == 0:
        return (1, 0, c) if c > 0 else (-1, 0, -c)
    return c - f, -f, c * c - c * f + f * f


def _scaled_rows(P, Q, s: int, t: int) -> tuple:
    """The Z[w] rows P + Q*w times s + t*w, as two lists of integer rows."""
    rows = [[_times(x, y, s, t) for x, y in zip(p, q)] for p, q in zip(P, Q)]
    return ([[x for x, _ in r] for r in rows],
            [[y for _, y in r] for r in rows])


def _products(ap, aq, cp, cq) -> tuple:
    """Integer rows (P, Q) of the dot products of every Z[w] row ap + aq*w
    with every column cp + cq*w: `_times` in its three-product form
    (a + bw)(c + fw) = ac - bf + ((a + b)(c + f) - ac - 2bf)w, summed by
    integer dot products, which beat a `_times` call per term."""
    ac = _dots(ap, cp)
    a_w, c_w = any(map(any, aq)), any(map(any, cq))
    if not c_w:
        return ac, (_dots(aq, cp) if a_w else [[0] * len(cp) for _ in ap])
    if not a_w:
        return ac, _dots(ap, cq)
    bf = _dots(aq, cq)
    s = _dots([tuple(map(add, r, u)) for r, u in zip(ap, aq)],
              [tuple(map(add, c, f)) for c, f in zip(cp, cq)])
    return ([[x - y for x, y in zip(r, u)] for r, u in zip(ac, bf)],
            [[z - x - 2 * y for x, y, z in zip(r, u, v)]
             for r, u, v in zip(ac, bf, s)])


def _dots(rows, cols) -> list:
    """The integer matrix of the dot products of `rows` with `cols`."""
    return [[sum(map(mul, r, c)) for c in cols] for r in rows]


def integer_parts(x) -> tuple:
    """(p, q, d): the int, Fraction or Scalar x as integers in canonical
    form, x == (p + q*w)/d."""
    if type(x) is Scalar:
        return x._p, x._q, x._d
    p, d = _ratio(x)
    return p, 0, d


def common_denominator(xs) -> tuple:
    """(ps, qs, d): the ints, Fractions or Scalars `xs` over their least
    common denominator d, so that xs[k] == (ps[k] + qs[k]*w)/d for every
    k.  An empty `xs` has d = 1."""
    xs = [integer_parts(x) for x in xs]
    d = lcm(*(e for _, _, e in xs))
    ps, qs = [], []
    for p, q, e in xs:
        f = d // e
        ps.append(p * f)
        qs.append(q * f)
    return ps, qs, d


ZERO_SCALAR = Scalar(0)
ONE = Scalar(1)
OMEGA = Scalar(0, 1)
OMEGA2 = OMEGA.conjugate()

"""Exact elements of the regular graded algebra RGA(n).

An element is a finite Q(w)-weighted sum of normal-form words.  For n=2,
the system THETA, the algebra is five-dimensional with basis 1, T1, T2,
T1T2, T2T1 and the closed-form operations (componentwise product, inverse
with denominator D, obstruction map, obstruction product, idempotent
obstructions) live here alongside the generic rewriting product they are
cross-checked against.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, product
from math import gcd, lcm
from typing import NamedTuple, Sequence

from .linalg import Matrix, _reduced
from .rewrite import (EMPTY_WORD, ZERO, RewriteSystem, SelfCheckError, Word,
                      _word)
from .scalar import (ONE, OMEGA, OMEGA2, Scalar, _make,
                     common_denominator, integer_parts)


class AlgebraMismatchError(ValueError):
    """Operands belong to different rewrite systems."""


class SpanEscapeError(ValueError):
    """A multiplication left the span of the given basis."""

    def __init__(self, source: Word, escaped: Word):
        self.source = source
        self.escaped = escaped
        super().__init__(
            f"product of basis word {source!r} produced {escaped!r} "
            f"outside the codomain basis")


class NotInvertible(ValueError):
    """Inversion failed; `reason` is 'a0', 'D' or 'singular'."""

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(f"not invertible ({reason} = 0)"
                         if reason in ("a0", "D")
                         else f"not invertible ({reason})")


class Witness(NamedTuple):
    """Where a law fails: at `at` (an index, a word, a place as text or a
    tuple of them) the two sides `lhs` and `rhs` of the law `law` differ."""

    law: str
    at: object
    lhs: object
    rhs: object

    def __str__(self):
        return (f"{self.law} at {_text(self.at)}: {_text(self.lhs)} != "
                f"{_text(self.rhs)}")


def _text(x) -> str:
    """x as it prints; a tuple item by item, so its words and scalars too."""
    return f"({', '.join(map(_text, x))})" if type(x) is tuple else str(x)


class Verdict(NamedTuple):
    """A law checker's answer, made by `verdict_of` alone: true exactly
    when it holds no witness; `checked` is how many law instances the
    checker examined."""

    witnesses: tuple
    checked: int

    @property
    def ok(self) -> bool:
        return not self.witnesses

    def __bool__(self):
        return self.ok


def verdict_of(instances) -> Verdict:
    """The verdict on a stream of law instances (law, at, lhs, rhs): a
    witness for each instance whose sides differ, in stream order, and the
    number of instances."""
    witnesses, checked = [], 0
    for checked, instance in enumerate(instances, start=1):
        if instance[2] != instance[3]:
            witnesses.append(Witness._make(instance))
    return Verdict(tuple(witnesses), checked)


_SCALARS = (int, Fraction, Scalar)


class Combination:
    """A finite Q(w)-weighted sum of distinct keys in normal form.

    A key is one word, or a tuple with one word per leg; `_legs` names the
    rewrite system of each leg.  As in `Matrix`, `_num` maps each key to
    integers (p, q) over one denominator `_d`, the coefficient (p + q*w)/d,
    with d > 0, gcd(all p, all q, d) == 1 and no (0, 0): `==` and `hash`
    compare integers, `terms` and `coeff` build `Scalar`s.  The constructor
    takes a mapping or an iterable of (raw key, coefficient) pairs, puts
    each leg of each key in normal form, drops keys that rewrite to zero and
    sums duplicates.  Products, `map_legs` and `linear_combination` (every
    sum, `+ - scale` too) take normal keys and add each term into one dict
    of integer pairs as they loop, with the Z[w] product of `scalar._times`
    written inline, one multiply-add per term; the trusted `_new` then
    drops zero sums and divides out one gcd (`_finish`, which the
    constructor shares).  Values are immutable; operands of one operation
    share a context (`_context`).  Subclasses add their context, legs and
    constructors.
    """

    __slots__ = ("_context", "_num", "_d")

    def __init__(self, context, terms=None):
        _set_context(self, context)
        legs = self._legs()
        keys, coeffs = [], []
        for raw, s in (terms.items() if isinstance(terms, dict)
                       else terms or ()):
            keys.append(_normal_key(legs, raw))
            coeffs.append(s)
        ps, qs, d = common_denominator(coeffs)
        sums: dict = {}
        get = sums.get
        for k, p, q in zip(keys, ps, qs):
            p0, q0 = get(k, (0, 0))
            sums[k] = (p0 + p, q0 + q)
        _finish(self, sums, d)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _legs(self) -> tuple:
        """The rewrite system of each leg; the context of a bare
        combination is its tuple of legs."""
        return self._context

    @classmethod
    def _new(cls, context, sums: dict, d: int) -> "Combination":
        """A value of this kind in `context` from `sums`, a fresh dict from
        normal key (or ZERO) to its summed integers (p, q), over the
        denominator d > 0: the trusted path, which skips `normal_form` as
        `rewrite._word` skips the letter check."""
        new = object.__new__(cls)
        _set_context(new, context)
        _finish(new, sums, d)
        return new

    @classmethod
    def unit(cls, *context):
        """The unit key (empty word on every leg) with coefficient 1."""
        zero = cls(*context)
        return zero._new(zero._context, {zero._unit_key(): (1, 0)}, 1)

    def _unit_key(self):
        """The key with the empty word on every leg."""
        legs = len(self._legs())
        return EMPTY_WORD if legs == 1 else (EMPTY_WORD,) * legs

    def _require_same(self, other: "Combination"):
        if type(other) is not type(self) or (
                self._context is not other._context
                and self._context != other._context):
            raise AlgebraMismatchError(
                f"{type(self).__name__} over {self._context!r} vs "
                f"{type(other).__name__} over {other._context!r}")

    # -- accessors -----------------------------------------------------------

    def terms(self) -> list:
        """(key, coefficient) pairs in canonical order."""
        return sorted(((k, _make(p, q, self._d))
                       for k, (p, q) in self._num.items()), key=_term_order)

    def coeff(self, *words) -> Scalar:
        """The coefficient of the key made of `words`, one per leg, put in
        normal form as the constructor does (0 when a leg rewrites to 0)."""
        legs = self._legs()
        if len(words) != len(legs):
            raise ValueError(f"expected one word per leg, got {len(words)}")
        key = _normal_key(legs, words[0] if len(legs) == 1 else words)
        return _make(*self._num.get(key, (0, 0)), self._d)

    def is_zero(self) -> bool:
        return not self._num

    def map_legs(self, *maps) -> "Combination":
        """Apply one map per leg (None keeps the leg) to each basis word,
        extended linearly.  A map takes an `Element` of its leg's system to
        one of the same system, so an affine map acts on each term."""
        legs = self._legs()
        one = len(legs) == 1
        images = {}
        for key in self._num:
            for i, (f, leg, w) in enumerate(zip(
                    maps, legs, (key,) if one else key, strict=True)):
                if (i, w) not in images:
                    e = Element.from_word(leg, w)
                    images[i, w] = e if f is None else f(e)
                    e._require_same(images[i, w])
        e = lcm(*(fe._d for fe in images.values()))  # each leg's over e
        images = {iw: _lifted(fe, e) for iw, fe in images.items()}
        sums: dict = {}
        get = sums.get
        for key, (p, q) in self._num.items():
            for parts in product(*(images[iw] for iw in enumerate(
                    (key,) if one else key))):
                x0, x1 = p, q
                for _, (y0, y1) in parts:
                    x0, x1 = x0 * y0 - x1 * y1, x0 * y1 + x1 * (y0 - y1)
                k = parts[0][0] if one else tuple(k for k, _ in parts)
                p0, q0 = get(k, (0, 0))
                sums[k] = (p0 + x0, q0 + x1)
        return self._new(self._context, sums, self._d * e ** len(legs))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        return self._sum(1, other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._sum(1, other, -1)

    def __rsub__(self, other):
        return self._sum(-1, other, 1)

    def __neg__(self):
        return linear_combination([(-1, self)])

    def scale(self, s):
        return linear_combination([(s, self)])

    def _sum(self, a: int, other, b: int):
        """a * self + b * other for a combination `other` of this kind, or
        a scalar, read as that multiple of the unit."""
        if isinstance(other, _SCALARS):
            other, b = None, b * other
        elif type(other) is not type(self):
            return NotImplemented
        return linear_combination([(a, self), (b, other)])

    def _product(self, other):
        """The kind's own bilinear product; none by default."""
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return self.scale(other)
        if type(other) is not type(self):
            return NotImplemented
        return self._product(other)

    def __rmul__(self, other):
        if isinstance(other, _SCALARS):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, int) and other == 0:
            return self.is_zero()
        return (type(other) is type(self) and self._context == other._context
                and self._d == other._d and self._num == other._num)

    def __hash__(self):
        # the zero value equals, so hashes as, the int 0
        if not self._num:
            return hash(0)
        return hash((self._context, self._d, frozenset(self._num.items())))

    def __str__(self):
        legs, d = self._legs(), self._d
        parts = []
        for key, (p, q) in sorted(self._num.items(), key=_term_order):
            words = (key,) if len(legs) == 1 else key
            # a two-part coefficient on the bare unit word prints as two
            # terms, since +/- always separate terms in the grammar
            split = words == (EMPTY_WORD,) and p and q
            for x, y in ((p, 0), (0, q)) if split else ((p, q),):
                # the sign is the one of the leading part
                neg = x < 0 if x else y < 0
                if neg:
                    x, y = -x, -y
                body = term_body(_make(x, y, d), bool(x and y), words[0],
                                 legs[0].symbol) + "".join(
                    f" (x) {w.to_text(leg.symbol)}"
                    for leg, w in zip(legs[1:], words[1:]))
                if parts:
                    parts.append((" - " if neg else " + ") + body)
                else:
                    parts.append(("-" if neg else "") + body)
        return "".join(parts) or "0"

    def __repr__(self):
        return f"<{self} over {self._context!r}>"


_set_context = Combination._context.__set__
_set_num, _set_d = Combination._num.__set__, Combination._d.__set__


def _finish(c: Combination, sums: dict, d: int):
    """Set c's `_num` and `_d` from `sums`, a dict from key or ZERO to its
    summed integers (p, q) over d > 0, which it may change: ZERO and the
    zero sums dropped, and the gcd of all the integers divided out."""
    sums.pop(ZERO, None)
    if (0, 0) in sums.values():
        sums = {k: pq for k, pq in sums.items() if pq != (0, 0)}
    if d != 1:
        g = gcd(d, *chain.from_iterable(sums.values()))
        if g != 1:
            sums = {k: (p // g, q // g) for k, (p, q) in sums.items()}
            d //= g
    _set_num(c, sums)
    _set_d(c, d)


def _lifted(c: Combination, d: int):
    """The (key, (p, q)) pairs of c over d, a multiple of its denominator."""
    f = d // c._d
    return c._num.items() if f == 1 else [
        (k, (p * f, q * f)) for k, (p, q) in c._num.items()]


def linear_combination(terms) -> Combination:
    """The sum of c * x over the pairs (c, x) in `terms`: c an int, Fraction
    or Scalar, x a Combination or None for the unit.  The x share one kind
    and context, and at least one is not None.  Built once, over the least
    common denominator of all the products."""
    terms = [(integer_parts(c), x) for c, x in terms]
    first = next((x for _, x in terms if x is not None), None)
    if first is None:
        raise ValueError("linear_combination needs a term with a Combination")
    d = lcm(*(e if x is None else e * x._d for (_, _, e), x in terms))
    sums: dict = {}
    get = sums.get
    for (p, q, e), x in terms:
        if x is None:
            k = first._unit_key()
            p0, q0 = get(k, (0, 0))
            sums[k] = (p0 + p * (d // e), q0 + q * (d // e))
            continue
        if type(x) is not type(first):
            raise TypeError(f"cannot add {type(x).__name__} to "
                            f"{type(first).__name__}")
        first._require_same(x)
        f = d // (e * x._d)
        x0, x1 = p * f, q * f
        for k, (y0, y1) in x._num.items():
            p0, q0 = get(k, (0, 0))
            sums[k] = (p0 + x0 * y0 - x1 * y1,
                       q0 + x0 * y1 + x1 * (y0 - y1))
    return first._new(first._context, sums, d)


def _normal_key(legs: tuple, raw):
    """The normal form of a raw key, or ZERO when any leg vanishes."""
    if len(legs) == 1:
        return legs[0].normal_form(raw)
    key = []
    for system, word in zip(legs, raw):
        nf = system.normal_form(word)
        if nf is ZERO:
            return ZERO
        key.append(nf)
    return tuple(key)


def _term_order(item):
    key = item[0]
    if isinstance(key, Word):
        return key.sort_key()
    return tuple(w.sort_key() for w in key)


class Element(Combination):
    """A finite sum of scalar-weighted normal-form words of one system.

    Built as `Element(system, terms)`; keys are words.
    """

    __slots__ = ()

    @property
    def system(self) -> RewriteSystem:
        return self._context

    def _legs(self) -> tuple:
        return (self._context,)

    def _product(self, other):
        return mul(self, other)

    # -- constructors -----------------------------------------------------

    @classmethod
    def generator(cls, system: RewriteSystem, i: int) -> "Element":
        """The generator T_i, checked by `normal_form` as the word (i,)."""
        return cls.from_word(system, (i,))

    @classmethod
    def from_word(cls, system: RewriteSystem, word, coeff=ONE) -> "Element":
        """coeff * word, as `Element(system, [(word, coeff)])` with its
        refusals, without collecting a sum."""
        key = system.normal_form(word)
        p, q, d = integer_parts(coeff)
        return cls._new(system, {key: (p, q)}, d)

    @classmethod
    def from_coeffs(cls, system: RewriteSystem, coeffs: Sequence) -> "Element":
        """Build an n=2 element from (a0, a1, a2, a12, a21): the one place
        where five components meet `N2_BASIS`, whose words are normal in
        every n=2 system, so it takes the trusted path."""
        _require_n2(system, "coefficient form")
        if len(coeffs) != 5:
            raise ValueError("coefficient form needs the five components "
                             f"(a0, a1, a2, a12, a21), got {len(coeffs)}")
        ps, qs, d = common_denominator(coeffs)
        return cls._new(system, dict(zip(N2_BASIS, zip(ps, qs))), d)

    # -- accessors ---------------------------------------------------------

    def support(self) -> list:
        return sorted(self._num, key=Word.sort_key)

    def coeffs_n2(self) -> tuple:
        """The five components (a0, a1, a2, a12, a21) for n=2."""
        _require_n2(self.system, "component form")
        num, d = self._num, self._d
        return tuple(_make(*num.get(w, (0, 0)), d) for w in N2_BASIS)

    def parity(self) -> int:
        """Common grade of the support; raises if not homogeneous."""
        grades = {w.parity for w in self._num}
        if len(grades) != 1:
            raise ValueError("element is not parity-homogeneous")
        return grades.pop()


N2_BASIS = (EMPTY_WORD, Word((1,)), Word((2,)), Word((1, 2)), Word((2, 1)))

THETA = RewriteSystem(2)  # the algebra on T1, T2; callers share its memo


def _require_n2(system: RewriteSystem, what: str) -> None:
    """Refuse every system but n=2 with `<what> requires n=2`."""
    if system.n != 2:
        raise ValueError(f"{what} requires n=2")


def term_body(mag: Scalar, two_part: bool, w: Word, symbol: str) -> str:
    """Canonical unsigned rendering of mag * w, mag with two parts or not."""
    coeff = f"({mag})" if two_part else str(mag)
    if len(w) == 0:
        return coeff
    return w.to_text(symbol) if mag == ONE else f"{coeff} {w.to_text(symbol)}"


# -- products ------------------------------------------------------------


def mul(a: Element, b: Element) -> Element:
    """Bilinear extension of the product of normal words: each term
    product, read from the system's product memo, is added into one dict
    of integer pairs as it is formed, over the denominator a._d * b._d."""
    a._require_same(b)
    products = a.system._products
    sums: dict = {}
    get = sums.get
    right = b._num.items()
    for u, (x0, x1) in a._num.items():
        for v, (y0, y1) in right:
            k = products[u, v]
            p0, q0 = get(k, (0, 0))
            sums[k] = (p0 + x0 * y0 - x1 * y1, q0 + x0 * y1 + x1 * (y0 - y1))
    return a._new(a._context, sums, a._d * b._d)


def mul_closed_form(a: Element, b: Element) -> Element:
    """The five displayed n=2 component formulas, evaluated literally.

    Independent of the rewriting product; the two are used as mutual
    oracles.  The four regularity cross terms (absent in the
    anticommutative case) are a1*b21 + a12*b1 on T1, a2*b12 + a21*b2 on
    T2, a12*b12 on T1T2 and a21*b21 on T2T1.
    """
    a._require_same(b)
    _require_n2(a.system, "closed form")
    a0, a1, a2, a12, a21 = a.coeffs_n2()
    b0, b1, b2, b12, b21 = b.coeffs_n2()
    return Element.from_coeffs(a.system, (
        a0 * b0,
        a0 * b1 + a1 * b0 + a1 * b21 + a12 * b1,
        a0 * b2 + a2 * b0 + a2 * b12 + a21 * b2,
        a0 * b12 + a1 * b2 + a12 * b0 + a12 * b12,
        a0 * b21 + a2 * b1 + a21 * b0 + a21 * b21,
    ))


# -- inversion -------------------------------------------------------------


def invert(a: Element) -> Element:
    """Closed-form n=2 inverse with denominator D.

    Requires a0 != 0 and D = (a0+a12)(a0+a21) - a1*a2 != 0; the result is
    always re-verified against the product before being returned.
    """
    _require_n2(a.system, "closed-form inverse")
    a0, a1, a2, a12, a21 = a.coeffs_n2()
    if a0.is_zero():
        raise NotInvertible("a0")
    d = (a0 + a12) * (a0 + a21) - a1 * a2
    if d.is_zero():
        raise NotInvertible("D")
    dinv = d.inverse()
    a0inv = a0.inverse()
    inv = Element.from_coeffs(a.system, (
        a0inv,
        -(dinv * a1),
        -(dinv * a2),
        -(dinv * (a12 * (ONE + a21 * a0inv) - a1 * a2 * a0inv)),
        -(dinv * (a21 * (ONE + a12 * a0inv) - a1 * a2 * a0inv)),
    ))
    one = Element.unit(a.system)
    if mul(a, inv) != one or mul(inv, a) != one:
        raise SelfCheckError("closed-form inverse failed self-check")
    return inv


def invert_by_solve(a: Element) -> Element:
    """n=2 inverse via an exact linear solve of a*x = 1 over the five-word
    basis, where the answer is exact and two-sided (and re-verified)."""
    space = _n2_span(a)
    one = Element.unit(a.system)
    try:
        x = left_mul_matrix(a, space, space).solve(one.coeffs_n2())
    except ValueError:
        raise NotInvertible("singular") from None
    out = Element.from_coeffs(a.system, x)
    if mul(a, out) != one or mul(out, a) != one:
        # a*x = 1 forces x*a = 1 in a finite-dimensional unital algebra
        raise SelfCheckError("solved inverse failed self-check")
    return out


def _n2_span(a: Element) -> Subspace:
    """The span of the five n=2 basis words; other n raises ValueError."""
    _require_n2(a.system, "solving over the algebra")
    return _N2_SPAN


# -- subspaces and multiplication operators ---------------------------------


class Subspace(NamedTuple("Subspace", [("label", str), ("basis", tuple)])):
    """An ordered basis of a finite-dimensional subspace.

    Basis entries are normal-form words for algebra-built spaces, or plain
    labels for spaces loaded from files; no entry may repeat.
    """

    __slots__ = ()
    # `_make` and `_replace` build through `__new__`, so they check too
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, label: str, basis: tuple):
        if len(set(basis)) != len(basis):
            raise ValueError(f"duplicate basis entries in {label}")
        return super().__new__(cls, label, basis)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def basis_texts(self) -> list:
        return [b.to_text() if isinstance(b, Word) else str(b)
                for b in self.basis]


_N2_SPAN = Subspace("span", N2_BASIS)


def _mul_matrix(a: Element, domain: Subspace, codomain: Subspace,
                left: bool) -> Matrix:
    """The matrix of x -> a*x (or x*a) over a._d: each of a's terms, times
    the normal form of a domain word, is added straight into that word's
    column, at the row of the codomain word with the same normal form.
    The summed image must vanish outside the codomain; a term that
    cancels there is no escape."""
    system = a.system
    products = system._products
    words = [system.normal_form(w) for w in domain.basis]
    index = {system.normal_form(w): i for i, w in enumerate(codomain.basis)}
    if ZERO in index or len(index) < codomain.dim:
        raise ValueError(f"codomain {codomain.label} has a word that "
                         "rewrites to 0 or to another one's normal form")
    P, Q = ([[0] * domain.dim for _ in codomain.basis] for _ in "PQ")
    for j, (w, v) in enumerate(zip(domain.basis, words)):
        if v is ZERO:
            continue
        escaped: dict = {}
        for u, (p, q) in a._num.items():
            k = products[u, v] if left else products[v, u]
            i = index.get(k)
            if i is not None:
                P[i][j] += p
                Q[i][j] += q
            elif k is not ZERO:
                p0, q0 = escaped.get(k, (0, 0))
                escaped[k] = (p0 + p, q0 + q)
        for k, pq in escaped.items():
            if pq != (0, 0):
                raise SpanEscapeError(w, k)
    return _reduced(codomain.dim, domain.dim, P, Q, a._d)


def left_mul_matrix(a: Element, domain: Subspace,
                    codomain: Subspace) -> Matrix:
    """Matrix of x -> a*x from the domain basis to the codomain basis, both
    read in normal form; a summed image with a nonzero coefficient outside
    the codomain raises SpanEscapeError."""
    return _mul_matrix(a, domain, codomain, left=True)


def right_mul_matrix(a: Element, domain: Subspace,
                     codomain: Subspace) -> Matrix:
    """Matrix of x -> x*a on the domain basis; see left_mul_matrix."""
    return _mul_matrix(a, domain, codomain, left=False)


def check_representation(n: int, max_deg: int) -> Verdict:
    """Verify L_i L_j = L_{ij} and R_i R_j = R_{ji} on all normal forms.

    Both identities are instances of associativity of the rewriting
    product, so a failure here flags a non-confluent presentation.  Each
    (i, j, word) is a `left` and a `right` instance.
    """
    sys = RewriteSystem(n)
    gens = [Element.generator(sys, i) for i in range(1, n + 1)]
    elements = [(w, Element.from_word(sys, w))
                for w in sys.enumerate_normal_forms(max_deg)]
    return verdict_of(_representation_laws(gens, elements))


def _representation_laws(gens: list, elements: list):
    for i, gi in enumerate(gens, start=1):
        for j, gj in enumerate(gens, start=1):
            gij = mul(gi, gj)
            gji = mul(gj, gi)
            for w, x in elements:
                yield "left", (i, j, w), mul(gi, mul(gj, x)), mul(gij, x)
                yield "right", (i, j, w), mul(mul(x, gj), gi), mul(x, gji)


# -- annihilators --------------------------------------------------------


def annihilator(a: Element, side: str) -> list:
    """Exact basis of {b : a*b = 0} (side='right') or {b : b*a = 0}, n=2.

    Computed as the nullspace of the left (resp. right) multiplication
    matrix over the five-word basis; each returned element has its leading
    coefficient normalized to 1.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    space = _n2_span(a)
    m = (left_mul_matrix if side == "right" else right_mul_matrix)(
        a, space, space)
    out = []
    for vec in m.nullspace():
        lead = next(s for s in vec if not s.is_zero())
        vec = [s * lead.inverse() for s in vec]
        out.append(Element.from_coeffs(a.system, vec))
    return out


# -- obstruction machinery (n=2) -------------------------------------------


def obstruction(a: Element) -> Element:
    """The affine obstruction map on n=2 elements.

    Sends a = a0 + a1 T1 + a2 T2 + a12 T1T2 + a21 T2T1 to
    1 + a2 T1 + a1 T2 + a21 T1T2 + a12 T2T1: the constant term is fixed
    to 1 whatever a0 is, and the indices swap 1<->2, 12<->21.
    """
    _require_n2(a.system, "obstruction map")
    # the index swap is the letter swap i <-> 3 - i, which keeps words normal
    sums = {EMPTY_WORD: (a._d, 0)}
    sums.update((_word([3 - i for i in w]), pq)
                for w, pq in a._num.items() if w)
    return a._new(a._context, sums, a._d)


def obstructed_product(a: Element, b: Element) -> Element:
    """The product that the obstruction map intertwines.

    Componentwise this is (1+a')(1+b') with the constant parts pinned to
    one, so obstruction(a) * obstruction(b) = obstruction(a ⋆ b) holds
    exactly; the intertwining is checked on every call.
    """
    a._require_same(b)
    _require_n2(a.system, "obstructed product")
    _, a1, a2, a12, a21 = a.coeffs_n2()
    _, b1, b2, b12, b21 = b.coeffs_n2()
    c = Element.from_coeffs(a.system, (
        ONE,
        a1 + b1 + a1 * b21 + a12 * b1,
        a2 + b2 + a2 * b12 + a21 * b2,
        a12 + b12 + a1 * b2 + a12 * b12,
        a21 + b21 + a2 * b1 + a21 * b21,
    ))
    if mul(obstruction(a), obstruction(b)) != obstruction(c):
        raise SelfCheckError("obstruction intertwining failed")
    return c


def find_idempotent_obstructions() -> list:
    """All idempotents of THETA of the form 1 + T1 + T2 + g T1T2 + d T2T1.

    Exact elimination on e*e = e over the affine family
    1 + x T1 + y T2 + g T1T2 + d T2T1 gives, for x = y = 1,
    d = -1 - g and g**2 + g + 1 = 0, whose two roots in Q(w) are w and
    w**2 (monic quadratics over a field have no further roots).  Each
    candidate is verified by multiplication before being returned.
    """
    out = []
    for g in (OMEGA, OMEGA2):
        if not (g * g + g + ONE).is_zero():
            raise SelfCheckError(f"{g} is not a root of g**2 + g + 1")
        d = -(ONE + g)
        e = Element.from_coeffs(THETA, (ONE, ONE, ONE, g, d))
        if mul(e, e) != e:
            raise SelfCheckError("candidate failed the idempotency check")
        out.append(e)
    return out


# -- decomposition and grading ----------------------------------------------


def decompose(system: RewriteSystem, max_deg: int) -> list:
    """Split the truncated span into the subspaces X_i.

    X_i collects the normal-form words of length <= max_deg whose first
    letter is i; together with the unit word these exhaust the truncated
    basis.
    """
    words = system.enumerate_normal_forms(max_deg)
    return [Subspace(f"X{i}",
                     tuple(w for w in words if len(w) and w[0] == i))
            for i in range(1, system.n + 1)]


def grading_check(a: Element, b: Element) -> Verdict:
    """Check parity additivity of a*b, and odd*odd*odd closure via a*b*a.

    Inputs must be parity-homogeneous.  Each product word is an instance of
    the law it must keep, with its actual and its expected grade.
    """
    a._require_same(b)
    pa, pb = a.parity(), b.parity()
    prod = mul(a, b)
    laws = [("product grade", prod, (pa + pb) % 2)]
    if pa == 1 and pb == 1:
        laws.append(("odd triple", mul(prod, a), 1))
    return verdict_of((law, w, w.parity, grade) for law, product, grade in laws
                      for w in product.support())

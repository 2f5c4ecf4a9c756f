"""The conjugated algebra pair, cross symmetries and the Hermitian Wick
cross product.

There is one pair: the base algebra THETA on T1, T2 and its dagger copy
XI on X1, X2, exchanged by an antilinear anti-isomorphism (word reversal
plus w -> w**2 on scalars).  A cross symmetry maps X-side (x) T-side to
T-side (x) X-side and extends from its values on generator pairs through
two coherence laws: peeling the last T-letter routes the remaining X-part
further right, peeling the last X-letter routes the T-part further left.
The extension is well-defined only if all peeling routes agree, which
`check_coherence` decides exhaustively up to a degree bound.
"""

from __future__ import annotations

from math import lcm
from typing import Callable, Dict, Tuple

from .algebra import THETA, Combination, Element, Verdict, verdict_of
from .rewrite import EMPTY_WORD, ZERO, Word
from .scalar import ONE
from .tensor import XI


class ConjugatedPair:
    """The algebra THETA on T1, T2 together with its dagger copy XI on X1,
    X2.  There is one pair: every call returns the same immutable object."""

    __slots__ = ()
    theta, xi = THETA, XI

    def __new__(cls):
        return _PAIR

    def __repr__(self):
        return "ConjugatedPair()"

    def dagger(self, a: Element) -> Element:
        """Antilinear anti-isomorphism: reverse words, conjugate scalars.

        Maps T-side elements to the X-side and back; involutive, and an
        anti-homomorphism because word reversal maps the n=2 relation set
        to itself.
        """
        if a.system == self.theta:
            target = self.xi
        elif a.system == self.xi:
            target = self.theta
        else:
            raise ValueError("element does not belong to this pair")
        # reversed words stay normal; w -> w**2 maps p + qw to p - q - qw
        return Element._new(target, {
            w.reverse(): (p - q, -q) for w, (p, q) in a._num.items()}, a._d)


_PAIR = object.__new__(ConjugatedPair)


class WickElement(Combination):
    """A weighted sum of pairs (T-word, X-word): an element of the
    cross-product carrier A (x) A-dagger.

    Built as `WickElement(pair, terms)`; keys are (theta word, xi word).
    """

    __slots__ = ()

    @property
    def pair(self) -> ConjugatedPair:
        return self._context

    def _legs(self) -> tuple:
        return (self._context.theta, self._context.xi)

    @classmethod
    def single(cls, pair, theta_word, xi_word, coeff=ONE):
        return cls(pair, [((theta_word, xi_word), coeff)])


class IncompleteBaseError(ValueError):
    """The cross symmetry base misses a generator pair."""


class CrossSymmetry:
    """A cross symmetry given by its values on generator pairs.

    `base[(i, j)]` is the value on X_i (x) T_j.  `apply` extends to
    arbitrary word pairs by peeling rightmost letters first: the last
    T-letter through the first coherence law, then the last X-letter
    through the second.  Results are memoized; the instance stays
    observably pure.
    """

    def __init__(self, pair: ConjugatedPair,
                 base: Dict[Tuple[int, int], WickElement], label: str):
        for i in (1, 2):
            for j in (1, 2):
                if (i, j) not in base:
                    raise IncompleteBaseError(
                        f"missing base value for X{i} (x) T{j}")
                WickElement(pair)._require_same(base[(i, j)])
        self.pair = pair
        self.base = dict(base)
        self.label = label
        self._cache: dict = {}
        self._groups: dict = {}

    @classmethod
    def flip(cls, pair: ConjugatedPair) -> "CrossSymmetry":
        """The trivial twist X_i (x) T_j -> T_j (x) X_i."""
        base = {(i, j): WickElement.single(pair, (j,), (i,))
                for i in (1, 2) for j in (1, 2)}
        return cls(pair, base, "flip")

    @classmethod
    def regular(cls, pair: ConjugatedPair, vacuum: str) -> "CrossSymmetry":
        """The regular cross symmetry on generator pairs: the flip, with
        its diagonal value T_i (x) X_i replaced by vac_i - T_i (x) X_i,
        where vac_i is the Wick unit 1 (x) 1 for vacuum='unit' or the
        embedded idempotent T_i T_{3-i} (x) 1 for vacuum='idem'.
        """
        if vacuum not in ("unit", "idem"):
            raise ValueError("vacuum must be 'unit' or 'idem'")
        base = cls.flip(pair).base
        for i in (1, 2):
            vac = (WickElement.unit(pair) if vacuum == "unit"
                   else WickElement.single(pair, (i, 3 - i), ()))
            base[i, i] = vac - base[i, i]
        return cls(pair, base, f"regular[{vacuum}]")

    # -- extension -------------------------------------------------------

    def apply(self, xi_word, theta_word) -> WickElement:
        """Value on xi_word (x) theta_word as a normally ordered element;
        zero when either word rewrites to 0."""
        xi = xi_word if isinstance(xi_word, Word) else Word(xi_word)
        theta = theta_word if isinstance(theta_word, Word) else Word(theta_word)
        key = (xi, theta)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        xi = self.pair.xi.normal_form(xi)
        theta = self.pair.theta.normal_form(theta)
        out = (WickElement(self.pair) if xi is ZERO or theta is ZERO
               else self._compute(xi, theta))
        self._cache[key] = out
        return out

    def _compute(self, xi: Word, theta: Word) -> WickElement:
        pair = self.pair
        if len(xi) == 0:
            return WickElement.single(pair, theta, ())
        if len(theta) == 0:
            return WickElement.single(pair, (), xi)
        if len(theta) > 1:
            # first law: psi(xi (x) u.t) routes psi(xi (x) u) into t
            return self._peel_theta(xi, Word(theta[:-1]), Word(theta[-1:]))
        if len(xi) > 1:
            # second law: psi(x.y (x) t) routes y into t first, then x
            return self._peel_xi(Word(xi[:-1]), Word(xi[-1:]), theta)
        return self.base[(xi[0], theta[0])]

    def _peel_theta(self, xi: Word, u: Word, v: Word) -> WickElement:
        """(m_A (x) id) . (id (x) psi) . (psi (x) id) on xi (x) u (x) v:
        the Wick product of psi(xi (x) u) with v (x) 1."""
        first, lefts = self._grouped_value(xi, u, 1)
        return _routed(self, first, lefts, {v: [(EMPTY_WORD, (1, 0))]},
                       first._d)

    def _peel_xi(self, x: Word, y: Word, theta: Word) -> WickElement:
        """(id (x) m_Ad) . (psi (x) id) . (id (x) psi) on x (x) y (x) theta:
        the Wick product of 1 (x) x with psi(y (x) theta)."""
        first, rights = self._grouped_value(y, theta, 0)
        return _routed(self, first, {x: [(EMPTY_WORD, (1, 0))]}, rights,
                       first._d)

    def _grouped_value(self, xi: Word, theta: Word, side: int) -> tuple:
        """(psi(xi (x) theta), its terms grouped on leg `side`), grouped the
        first time a peel asks for them and kept, like the value."""
        key = (xi, theta, side)
        hit = self._groups.get(key)
        if hit is None:
            first = self.apply(xi, theta)
            hit = self._groups[key] = (first, _grouped(first, side))
        return hit


def check_coherence(psi: CrossSymmetry, max_deg: int) -> Verdict:
    """Exhaustively test both coherence laws up to a degree bound.

    For every normal-form split the law value must agree with the direct
    value on the reduced product, including splits whose concatenation
    rewrites (these are the critical instances a fixed peeling order never
    exercises).  Instances split in two classes: *order* instances, where
    the split parts concatenate to a word already in normal form (these are
    the alternative peeling routes through normal forms), and *reduction*
    instances, where the concatenation rewrites, so the law constrains the
    extension against the algebra relations themselves.  Each split is an
    instance of the law `law1[order]`, `law1[reduction]` or `law2[...]` at
    the split.  The unit instances, one per T-word and one per X-word (10
    at degree 2), are instances too, but they cannot fail: `_compute`
    answers an empty word by construction.  Each split's product and class
    are formed once per call, not once per instance.
    """
    return verdict_of(_coherence_laws(psi, max_deg))


def _coherence_laws(psi: CrossSymmetry, max_deg: int):
    pair = psi.pair
    xis = pair.xi.enumerate_normal_forms(max_deg)
    thetas = pair.theta.enumerate_normal_forms(max_deg)
    nonunit_thetas = [w for w in thetas if len(w)]
    nonunit_xis = [w for w in xis if len(w)]
    # every split is named, so each word is written out once
    t_text = {w: w.to_text("T") for w in thetas}
    x_text = {w: w.to_text("X") for w in xis}

    for w in thetas:
        yield ("unit[order]", f"1 (x) {t_text[w]}",
               psi.apply(EMPTY_WORD, w), WickElement.single(pair, w, ()))
    for w in xis:
        yield ("unit[order]", f"{x_text[w]} (x) 1",
               psi.apply(w, EMPTY_WORD), WickElement.single(pair, (), w))

    zero = WickElement(pair)
    theta_splits = _splits(pair.theta, nonunit_thetas, t_text, "law1")
    for xi in xis:
        for u, v, law, split, prod in theta_splits:
            yield (law, f"{x_text[xi]} (x) {split}",
                   psi._peel_theta(xi, u, v),
                   zero if prod is ZERO else psi.apply(xi, prod))
    for x, y, law, split, prod in _splits(pair.xi, nonunit_xis, x_text,
                                          "law2"):
        for theta in thetas:
            yield (law, f"{split} (x) {t_text[theta]}",
                   psi._peel_xi(x, y, theta),
                   zero if prod is ZERO else psi.apply(prod, theta))


def _splits(system, words: list, text: dict, law: str) -> list:
    """(u, v, law[class], 'u.v', nf(u v)) for each pair of `words`, in
    order: the class is `reduction` when u v rewrites, `order` when the
    concatenation is already normal."""
    out = []
    for u in words:
        for v in words:
            prod = system.product(u, v)
            reduces = prod is ZERO or len(prod) != len(u) + len(v)
            out.append((u, v, f"{law}[{'reduction' if reduces else 'order'}]",
                        f"{text[u]}.{text[v]}", prod))
    return out


def order_coherent(verdict: Verdict) -> bool:
    """True when `check_coherence` found no order instance failing."""
    return not any(w.law.endswith("[order]") for w in verdict.witnesses)


# -- Wick multiplication --------------------------------------------------------


def wick_mul(x: WickElement, y: WickElement, psi: CrossSymmetry) -> WickElement:
    """(a (x) b)(c (x) d) routes b past c through the cross symmetry.

    psi(b (x) c) is looked up once per block of x's terms with X-word b and
    y's with T-word c.  Assumes psi is coherent at the degrees involved;
    run `check_coherence` first when in doubt.
    """
    x._require_same(y)
    return _routed(psi, x, _grouped(x, 1), _grouped(y, 0), x._d * y._d)


def _routed(psi: CrossSymmetry, like: WickElement, lefts: dict,
            rights: dict, den: int) -> WickElement:
    """The Wick product, like `like`, of lefts[b] = [(a, (p, q))] for a (x) b
    with rights[c] = [(d, (p, q))] for c (x) d, all over the denominator den;
    each leg product a.p and q.d is formed once per term p (x) q of psi, and
    each term's coefficient is added into one dict as it is formed."""
    theta, xi = psi.pair.theta._products, psi.pair.xi._products
    blocks = [(lefts[b], rights[c], psi.apply(b, c))
              for b in lefts for c in rights]
    e = lcm(*[value._d for _, _, value in blocks])
    sums: dict = {}
    get = sums.get
    for ls, rs, value in blocks:
        f = e // value._d
        for (p, q), (r0, r1) in value._num.items():
            right = [(v, t) for d, t in rs if (v := xi[q, d]) is not ZERO]
            r0, r1 = r0 * f, r1 * f
            for a, (s0, s1) in ls:
                if (u := theta[a, p]) is ZERO:
                    continue
                x0, x1 = s0 * r0 - s1 * r1, s0 * r1 + s1 * (r0 - r1)
                for v, (y0, y1) in right:
                    k = (u, v)
                    p0, q0 = get(k, (0, 0))
                    sums[k] = (p0 + x0 * y0 - x1 * y1,
                               q0 + x0 * y1 + x1 * (y0 - y1))
    return like._new(like._context, sums, den * e)


def _grouped(x: WickElement, side: int) -> dict:
    """x's terms by their word on leg `side`: [(other leg's word, (p, q))]."""
    groups: dict = {}
    for key, s in x._num.items():
        groups.setdefault(key[side], []).append((key[1 - side], s))
    return groups


def wick_mul_regular(x: WickElement, y: WickElement, psi: CrossSymmetry,
                     e_theta: Callable[[Element], Element],
                     e_xi: Callable[[Element], Element]) -> WickElement:
    """Wick product with obstruction maps on the outer tensor legs.

    The obstruction maps may be affine, so they act on each elementary
    term; the whole product is then the bilinear extension over terms.
    With both maps the identity this is exactly `wick_mul`.
    """
    return wick_mul(x.map_legs(e_theta, None), y.map_legs(None, e_xi), psi)


def check_regular_cross_symmetry(psi: CrossSymmetry,
                                 e_theta: Callable[[Element], Element],
                                 e_xi: Callable[[Element], Element],
                                 max_deg: int) -> Verdict:
    """(e_A (x) e_Ad) . psi = psi . (e_Ad (x) e_A) on word pairs.

    Both sides are evaluated termwise (the obstruction maps are affine)
    and compared exactly.  Each (xi, theta) is an instance.  The one-leg
    singles of the right side, 1 (x) e_Ad(xi) and e_A(theta) (x) 1, are
    mapped once per word, so each map must be a function of its argument.
    """
    pair = psi.pair
    lefts = [(xi, xi.to_text(pair.xi.symbol),
              WickElement.single(pair, (), xi).map_legs(None, e_xi))
             for xi in pair.xi.enumerate_normal_forms(max_deg)]
    rights = [(theta, WickElement.single(pair, theta, ()).map_legs(e_theta,
                                                                     None))
              for theta in pair.theta.enumerate_normal_forms(max_deg)]
    return verdict_of(
        ("regular cross symmetry", f"{text} (x) {theta}",
         psi.apply(xi, theta).map_legs(e_theta, e_xi),
         wick_mul(left, right, psi))
        for xi, text, left in lefts for theta, right in rights)

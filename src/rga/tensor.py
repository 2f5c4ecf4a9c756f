"""Tensor squares of the two-generator algebra THETA, its dual algebra XI
on X-generators, the word-reversal duality pairing between them, the
comultiplication it transports to XI, and the checkers for the coalgebra /
almost-bialgebra / module conditions.

A tensor is keyed by its algebra alone.  The sign rule belongs to the
product: `tensor_mul(s, t, signs)` multiplies legs independently under
'plain' and inserts (-1)**(|b|*|c|) when b crosses c in (a(x)b)(c(x)d)
under 'koszul', as the flip of a braided tensor product would.  Nothing in
the source material pins the convention down, so the almost-bialgebra
verdicts, which multiply tensors, are reported for both; the coalgebra laws
only map legs, so they need no convention.  `*` is the plain product.
"""

from __future__ import annotations

from typing import Callable, Dict

from math import lcm

from .algebra import (THETA, Combination, Element, Verdict, _lifted,
                      linear_combination, obstruction, verdict_of)
from .linalg import Matrix, _reduced
from .rewrite import ZERO, RewriteSystem, Word
from .scalar import ONE, ZERO_SCALAR, Scalar, _make, _times

SIGN_CONVENTIONS = ("plain", "koszul")


XI = RewriteSystem(2, symbol="X")
"""The dual two-generator algebra on X1, X2, built once.

It satisfies the same square-zero and cyclic relations as THETA (the
symmetric form X1 X2 X1 = X1; the variant X1 X2 X2 = X1 would contradict
X2**2 = 0 and is rejected as a typo).
"""


class TensorElement(Combination):
    """A Q(w)-weighted sum of word pairs u (x) v over one algebra.

    Built as `TensorElement(system, terms)`; keys are (u, v).
    """

    __slots__ = ()

    @property
    def system(self) -> RewriteSystem:
        return self._context

    def _legs(self) -> tuple:
        return (self._context, self._context)

    def _product(self, other):
        return tensor_mul(self, other)

    @classmethod
    def single(cls, system, u, v):
        return cls(system, [((u, v), ONE)])


def tensor_mul(s: TensorElement, t: TensorElement,
               signs: str = "plain") -> TensorElement:
    """(a(x)b)(c(x)d) = sign * (ac (x) bd), extended bilinearly.

    sign is 1 under 'plain' and (-1)**(parity(b)*parity(c)) under
    'koszul'; components are put back in normal form, annihilated terms
    drop out.
    """
    if signs not in SIGN_CONVENTIONS:
        raise ValueError(f"unknown sign convention {signs!r}")
    s._require_same(t)
    koszul = signs == "koszul"
    products = s.system._products
    sums: dict = {}
    get = sums.get
    right = t._num.items()
    for (a, b), (x0, x1) in s._num.items():
        for (c, d), (y0, y1) in right:
            if (u := products[a, c]) is ZERO or (v := products[b, d]) is ZERO:
                continue
            if koszul and b.parity * c.parity:
                y0, y1 = -y0, -y1
            k = (u, v)
            p0, q0 = get(k, (0, 0))
            sums[k] = (p0 + x0 * y0 - x1 * y1,
                       q0 + x0 * y1 + x1 * (y0 - y1))
    return s._new(s._context, sums, s._d * t._d)


def element_tensor(a: Element, b: Element) -> TensorElement:
    """Place two algebra elements side by side: a (x) b."""
    a._require_same(b)
    right = b._num.items()
    # the keys (u, v) are distinct, so each product is its own sum
    return TensorElement._new(a.system, {
        (u, v): (x0 * y0 - x1 * y1, x0 * y1 + x1 * (y0 - y1))
        for u, (x0, x1) in a._num.items() for v, (y0, y1) in right},
        a._d * b._d)


# -- duality pairing ---------------------------------------------------------


def pair_words(xi: Word, theta: Word) -> Scalar:
    """<xi-word | theta-word> = 1 exactly when theta is the reversal; 0
    when theta is ZERO."""
    return ONE if theta == xi.reverse() else ZERO_SCALAR


def pair(xi: Element, a: Element) -> Scalar:
    """Bilinear extension of the reversal pairing to elements."""
    return _paired(_partners(xi, Word.reverse), xi._d, a)


def pair_tensor(xi: TensorElement, a: TensorElement,
                convention: str) -> Scalar:
    """Pair X-side and T-side tensors leg by leg.

    'straight' pairs first with first; 'flip' pairs first with second,
    matching (X(x)Y)^dual = Y^dual (x) X^dual.
    """
    return _paired(_partners(xi, _tensor_partner(convention)), xi._d, a)


def _tensor_partner(convention: str):
    """The T-side key that an X-side tensor key pairs with under
    `convention`; an unknown convention raises ValueError."""
    if convention not in ("straight", "flip"):
        raise ValueError(f"unknown tensor pairing convention {convention!r}")
    step = -1 if convention == "flip" else 1
    return lambda key: tuple(w.reverse() for w in key[::step])


def _partners(xi: Combination, partner) -> dict:
    """xi's integer coefficients keyed by the key each pairs with: the
    keyed view every pairing reads.  A partner map reverses words, so it
    is one-to-one and no two of xi's keys meet."""
    return {partner(k): x for k, x in xi._num.items()}


def _paired(partners: dict, d: int, a: Combination) -> Scalar:
    """The pairing of the value keyed by `partners` over d with a: the sum
    of a's coefficient at each key times the partner's there."""
    p = q = 0
    for k, y in a._num.items():
        x = partners.get(k)
        if x is not None:
            s, t = _times(*x, *y)
            p, q = p + s, q + t
    return _make(p, q, d * a._d)


def pairing_matrix() -> Matrix:
    """Gram matrix of the pairing of XI with THETA on the (length, lex)
    ordered bases of degree <= 2."""
    xis = XI.enumerate_normal_forms(2)
    thetas = THETA.enumerate_normal_forms(2)
    return Matrix([[pair_words(x, t) for t in thetas] for x in xis])


# -- dual comultiplication ----------------------------------------------------


def dual_comultiplication() -> Dict[Word, TensorElement]:
    """Transport THETA's product through the pairing to a comultiplication
    on XI.

    For each X-basis word w of degree <= 2, Delta(w) sums <w, u*v> *
    (u-dual (x) v-dual) over all T-basis pairs, with u-dual the reversed
    word on the X side.
    """
    thetas = THETA.enumerate_normal_forms(2)
    return {w: TensorElement(XI, (
        ((u.reverse(), v.reverse()), ONE) for u in thetas for v in thetas
        if THETA._products[u, v] == w.reverse()))
        for w in XI.enumerate_normal_forms(2)}


def apply_delta(table: Dict[Word, TensorElement], e: Element) -> TensorElement:
    """Linear extension of a generator table, keyed by the words of e's
    system, to the element e."""
    if e.is_zero():
        return TensorElement(e.system)
    return linear_combination((s, table[w]) for w, s in e.terms())


def check_dual_pairing_identity(table, convention: str) -> Verdict:
    """Re-verify <Delta(w), u (x) v> = <w, u*v> on all THETA basis triples
    of degree <= 2, pairing the tensor legs by `convention` (see
    `pair_tensor`; an unknown one is refused before any instance).  Each
    Delta(w) is keyed by its pairing partners once per call, so each of
    its 25 targets u (x) v is one lookup."""
    return verdict_of(_pairing_laws(table, _tensor_partner(convention)))


def _pairing_laws(table, partner):
    thetas = THETA.enumerate_normal_forms(2)
    # each pair u (x) v as text, as a tensor and multiplied out
    targets = [(f"{u} (x) {v}", TensorElement.single(THETA, u, v),
                THETA._products[u, v]) for u in thetas for v in thetas]
    for w, delta_w in table.items():
        name = w.to_text(delta_w.system.symbol)
        partners = _partners(delta_w, partner)
        for text, target, uv in targets:
            yield ("pairing transport", f"<Delta({name}), {text}>",
                   _paired(partners, delta_w._d, target), pair_words(w, uv))


def check_coassociativity(table: Dict[Word, TensorElement]) -> Verdict:
    """(Delta (x) id) Delta = (id (x) Delta) Delta on the basis words."""
    return verdict_of(_coassociativity_laws(table))


def _coassociativity_laws(table: Dict[Word, TensorElement]):
    d = lcm(*(t._d for t in table.values()))
    lifted = {w: _lifted(t, d) for w, t in table.items()}
    for w, delta_w in table.items():
        legs = (delta_w.system,) * 3
        left, right = {}, {}
        for (u, v), (x0, x1) in delta_w._num.items():
            # Delta applied to u on the left side, to v on the right one
            for sums, expanded, kept in ((left, u, v), (right, v, u)):
                for (p, q), (y0, y1) in lifted[expanded]:
                    k = (p, q, kept) if sums is left else (kept, p, q)
                    p0, q0 = sums.get(k, (0, 0))
                    sums[k] = (p0 + x0 * y0 - x1 * y1,
                               q0 + x0 * y1 + x1 * (y0 - y1))
        yield ("coassociativity", w.to_text(delta_w.system.symbol),
               Combination._new(legs, left, delta_w._d * d),
               Combination._new(legs, right, delta_w._d * d))


def check_coalgebra_obstruction(table: Dict[Word, TensorElement]) -> Verdict:
    """Does Delta . e = (e (x) e) . Delta hold for the obstruction map?

    Each basis word is an instance.  The obstruction map is affine, so
    e (x) e is applied term by term.
    """
    return verdict_of(
        ("coalgebra obstruction", w.to_text(delta_w.system.symbol),
         apply_delta(table, obstruction(Element.from_word(delta_w.system, w))),
         delta_w.map_legs(obstruction, obstruction))
        for w in sorted(table, key=Word.sort_key) for delta_w in [table[w]])


# -- almost bialgebra ----------------------------------------------------------


# The defining relations a multiplicative Delta must satisfy, each the law
# of one `check_almost_bialgebra` witness.
BIALGEBRA_RELATIONS = ("Delta(T1)^2 = 0", "Delta(T2)^2 = 0",
                       "D1 D2 D1 = D1", "D2 D1 D2 = D2")


def check_almost_bialgebra(delta_gens: Dict[int, TensorElement],
                           convention: str) -> Verdict:
    """Test whether a candidate Delta on the generators extends
    multiplicatively: its values must satisfy the defining relations.
    Each relation is one instance, at the sign convention."""
    d1, d2 = delta_gens[1], delta_gens[2]
    zero = TensorElement(d1.system)
    sides = ((tensor_mul(d1, d1, convention), zero),
             (tensor_mul(d2, d2, convention), zero),
             (tensor_mul(tensor_mul(d1, d2, convention), d1, convention), d1),
             (tensor_mul(tensor_mul(d2, d1, convention), d2, convention), d2))
    return verdict_of((law, convention, lhs, rhs)
                      for law, (lhs, rhs) in zip(BIALGEBRA_RELATIONS, sides))


def bialgebra_candidates() -> Dict[str, Dict[int, TensorElement]]:
    """The four readings of Delta(T_i) = T_i (x) e_i + e_i (x) T_i on THETA.

    e_1 is either the unit or T1T2, e_2 either the unit or T2T1; the
    candidate name records the choice as unit/idem per generator.
    """
    unit = Element.unit(THETA)
    e12 = Element.from_word(THETA, Word((1, 2)))
    e21 = Element.from_word(THETA, Word((2, 1)))
    out = {}
    for name1, e1 in (("unit", unit), ("idem", e12)):
        for name2, e2 in (("unit", unit), ("idem", e21)):
            t1 = Element.generator(THETA, 1)
            t2 = Element.generator(THETA, 2)
            out[f"e1={name1},e2={name2}"] = {
                1: element_tensor(t1, e1) + element_tensor(e1, t1),
                2: element_tensor(t2, e2) + element_tensor(e2, t2),
            }
    return out


# -- regular module ------------------------------------------------------------


def check_regular_module(action: Dict[Word, Matrix],
                         e_algebra: Callable[[Element], Element],
                         e_module: Callable[[tuple], tuple],
                         system: RewriteSystem) -> Verdict:
    """Check rho . (e_A (x) e_M) = e_M . rho on all basis pairs.

    `action[w]` is the matrix of the basis word w acting on the module, in
    the order the words are checked; every matrix is square, of the
    module's dimension (other shapes are refused with ValueError).
    `e_algebra` maps elements of `system` to elements of `system` (an
    image elsewhere is refused with AlgebraMismatchError); `e_module` maps
    module coefficient vectors to vectors (it may be affine, like the
    element obstruction map).  Each pair (word, module basis index) is an
    instance.  Each map is applied once per basis element, so it must be
    a function of its argument: rho(e_A(w)) is formed once per word as one
    matrix, and e_M(e_j) once per module basis vector.
    """
    dim = max((m.ncols for m in action.values()), default=0)
    if any((m.nrows, m.ncols) != (dim, dim) for m in action.values()):
        raise ValueError(f"action matrices must all be {dim}x{dim}")
    return verdict_of(_module_laws(action, e_algebra, e_module, system, dim))


def _module_laws(action, e_algebra, e_module, system, dim):
    images = [e_module(e_j) for e_j in Matrix.identity(dim).rows]
    for w in action:
        a = Element.from_word(system, w)
        image = e_algebra(a)
        a._require_same(image)
        lhs = _represented(action, image, dim)
        columns = _represented(action, a, dim).transpose().rows
        for j in range(dim):
            yield ("regular module", (w, j), lhs.apply(images[j]),
                   e_module(columns[j]))


def _represented(action, x: Element, dim: int) -> Matrix:
    """rho(x), the sum of x's coefficient at each word u times action[u],
    added on the integers over one denominator."""
    terms = [(action[u], pq) for u, pq in x._num.items()]
    e = lcm(*(m.d for m, _ in terms))
    P = [[0] * dim for _ in range(dim)]
    Q = [[0] * dim for _ in range(dim)]
    for m, (x0, x1) in terms:
        f = e // m.d
        x0, x1 = x0 * f, x1 * f
        for p, q, mp, mq in zip(P, Q, m.P, m.Q):
            for k, (y0, y1) in enumerate(zip(mp, mq)):
                p[k] += x0 * y0 - x1 * y1
                q[k] += x0 * y1 + x1 * (y0 - y1)
    return _reduced(dim, dim, P, Q, x._d * e)

"""Shared random generators for the test suite (seeded, deterministic)."""

import operator
from fractions import Fraction
from functools import reduce
from random import Random

from rga.algebra import Combination, Element, Subspace, obstruction
from rga.category import Cocycle, LinearMap
from rga.linalg import Matrix
from rga.scalar import Scalar
from rga.tensor import TensorElement
from rga.wick import WickElement


def nested(depth: int, inner: str) -> str:
    """`inner` inside `depth` pairs of parentheses."""
    return "(" * depth + inner + ")" * depth


def rand_scalar(rng: Random, span: int = 6) -> Scalar:
    return Scalar(Fraction(rng.randint(-span, span), rng.randint(1, 4)),
                  Fraction(rng.randint(-span, span), rng.randint(1, 4)))


def rand_element(rng: Random, system, max_len: int = 2,
                 density: float = 0.7) -> Element:
    words = system.enumerate_normal_forms(max_len)
    return Element(system, {w: rand_scalar(rng)
                            for w in words if rng.random() < density})


def rand_invertible(rng: Random, system) -> Element:
    from rga.algebra import NotInvertible, invert
    while True:
        a = rand_element(rng, system)
        try:
            invert(a)
            return a
        except NotInvertible:
            continue


# -- reference implementations ---------------------------------------------
# Every reference sums its coefficients as `Scalar`s, the way combinations
# did before they stored integer numerators, so that the integer products
# of `rga` are checked against an independent summation.


def summed_reference(legs, terms):
    """{normal key: Scalar} summing (raw key, coefficient) pairs: each leg
    of a key in normal form through the systems `legs` (a key is a word
    when there is one leg), keys that rewrite to zero dropped, a tuple
    coefficient multiplied out, duplicates added and zero sums dropped."""
    from rga.rewrite import ZERO
    clean = {}
    for raw, s in terms:
        words = [leg.normal_form(w)
                 for leg, w in zip(legs, (raw,) if len(legs) == 1 else raw)]
        if any(w is ZERO for w in words):
            continue
        key = words[0] if len(legs) == 1 else tuple(words)
        if type(s) is tuple:
            s = reduce(operator.mul, s)
        elif not isinstance(s, Scalar):
            s = Scalar(s)
        clean[key] = clean[key] + s if key in clean else s
    return {k: s for k, s in clean.items() if s}


def wick_reference(pair, terms):
    """The WickElement over `pair` of raw terms, through `summed_reference`."""
    return WickElement(pair, summed_reference((pair.theta, pair.xi), terms))
# The hand-written leg loops that `Combination.map_legs` replaced, kept as
# oracles for it: the regular Wick product, both sides of the regular
# cross-symmetry law and the right side of the coalgebra obstruction law.


def wick_mul_regular_reference(x, y, psi, e_theta, e_xi):
    """`wick_mul_regular` with the maps applied inside the product loop."""
    pair = x.pair

    def terms():
        for (a, b), s in x.terms():
            ea = e_theta(Element.from_word(pair.theta, a))
            for (c, d), t in y.terms():
                ed = e_xi(Element.from_word(pair.xi, d))
                for (p, q), r in psi.apply(b, c).terms():
                    for lw, ls in ea.terms():
                        for rw, rs in ed.terms():
                            yield ((lw.letters + p.letters,
                                    q.letters + rw.letters),
                                   (s, t, r, ls, rs))
    return wick_reference(pair, terms())


def cross_symmetry_sides_reference(psi, e_theta, e_xi, xi, theta):
    """Both sides of (e_A (x) e_Ad) . psi = psi . (e_Ad (x) e_A) on the
    word pair xi (x) theta, as (lhs, rhs)."""
    pair = psi.pair

    def lhs_terms(xi, theta):
        for (p, q), s in psi.apply(xi, theta).terms():
            ep = e_theta(Element.from_word(pair.theta, p))
            eq = e_xi(Element.from_word(pair.xi, q))
            for pw, ps in ep.terms():
                for qw, qs in eq.terms():
                    yield (pw, qw), (s, ps, qs)

    def rhs_terms(xi, theta):
        exi = e_xi(Element.from_word(pair.xi, xi))
        etheta = e_theta(Element.from_word(pair.theta, theta))
        for xw, xs in exi.terms():
            for tw, ts in etheta.terms():
                for key, c in psi.apply(xw, tw).terms():
                    yield key, (xs, ts, c)

    return (wick_reference(pair, lhs_terms(xi, theta)),
            wick_reference(pair, rhs_terms(xi, theta)))


def tensor_map_reference(delta_w, xi_sys, e):
    """(e (x) e)(delta_w), summed term by term; with e = obstruction this
    is the right side of the coalgebra obstruction law."""
    terms = []
    for (u, v), s in delta_w.terms():
        eu = e(Element.from_word(xi_sys, u))
        ev = e(Element.from_word(xi_sys, v))
        terms += [((a, b), (s, x, y)) for a, x in eu.terms()
                  for b, y in ev.terms()]
    return TensorElement(xi_sys, summed_reference((xi_sys,) * 2, terms))


def coassociativity_sides_reference(table, w):
    """(Delta (x) id) Delta(w) and (id (x) Delta) Delta(w), summed term by
    term: the two sides of the coassociativity law at w."""
    delta_w = table[w]
    legs = (delta_w.system,) * 3
    left = [((p, q, v), (s, t)) for (u, v), s in delta_w.terms()
            for (p, q), t in table[u].terms()]
    right = [((u, p, q), (s, t)) for (u, v), s in delta_w.terms()
             for (p, q), t in table[v].terms()]
    return (Combination(legs, summed_reference(legs, left)),
            Combination(legs, summed_reference(legs, right)))


def scalar_text_reference(s):
    """`str(s)` as it was built from the two `Fraction` coordinates, each
    printed as `str` prints a Fraction, at any length."""
    a, b = s.a, s.b
    if b == 0:
        return fraction_text_reference(a)
    w = "w" if abs(b) == 1 else f"{fraction_text_reference(abs(b))}*w"
    if a == 0:
        return w if b > 0 else "-" + w
    return f"{fraction_text_reference(a)}{'+' if b > 0 else '-'}{w}"


def fraction_text_reference(a: Fraction) -> str:
    """`str(a)`, also past the interpreter's int/str digit limit."""
    num = decimal_reference(a.numerator)
    if a.denominator == 1:
        return num
    return f"{num}/{decimal_reference(a.denominator)}"


def decimal_reference(n: int) -> str:
    """`str(n)` at any length: 500-digit blocks, each within the smallest
    int/str digit limit the interpreter allows (640)."""
    m, blocks = abs(n), []
    while m >= 10 ** 500:
        m, block = divmod(m, 10 ** 500)
        blocks.append(f"{block:0500d}")
    return "-" * (n < 0) + str(m) + "".join(reversed(blocks))


def identity(a):
    return a


def shift(a):
    return a + Element.unit(a.system)


# the maps the leg and law properties draw from: affine, linear, affine
MAPS = (obstruction, identity, shift)


def module_action():
    """The regular module of THETA: each basis word's left multiplication
    on the five-word n = 2 basis."""
    from rga.algebra import N2_BASIS, THETA, left_mul_matrix
    space = Subspace("A", N2_BASIS)
    return {w: left_mul_matrix(Element.from_word(THETA, w), space, space)
            for w in N2_BASIS}


# Four basis-law checkers as they were before they built each basis value
# once per call: every value is formed again at each law instance that
# reads it.  They are the oracles of `check_regular_module`,
# `check_regular_cross_symmetry`, `check_dual_pairing_identity` and
# `check_coherence`, whose verdicts must equal theirs.


def regular_module_reference(action, e_algebra, e_module, system):
    """`check_regular_module` acting term by term with `Matrix.apply` and
    `Scalar` sums, both maps applied at every (word, index) pair."""
    from rga.algebra import verdict_of
    from rga.scalar import ONE, ZERO_SCALAR

    def act(element, vec):
        out = [ZERO_SCALAR] * len(vec)
        for w, s in element.terms():
            col = action[w].apply(vec)
            out = [o + s * c for o, c in zip(out, col)]
        return tuple(out)

    return verdict_of(
        ("regular module", (w, j), act(e_algebra(a), e_module(m_vec)),
         e_module(act(a, m_vec)))
        for w, m in action.items() for a in [Element.from_word(system, w)]
        for j in range(m.ncols) for m_vec in [tuple(
            ONE if k == j else ZERO_SCALAR for k in range(m.ncols))])


def cross_symmetry_verdict_reference(psi, e_theta, e_xi, max_deg):
    """`check_regular_cross_symmetry` with both one-leg singles mapped
    again at every word pair."""
    from rga.algebra import verdict_of
    from rga.wick import wick_mul
    pair = psi.pair
    return verdict_of(
        ("regular cross symmetry", f"{xi.to_text(pair.xi.symbol)} (x) {theta}",
         psi.apply(xi, theta).map_legs(e_theta, e_xi),
         wick_mul(WickElement.single(pair, (), xi).map_legs(None, e_xi),
                  WickElement.single(pair, theta, ()).map_legs(e_theta, None),
                  psi))
        for xi in pair.xi.enumerate_normal_forms(max_deg)
        for theta in pair.theta.enumerate_normal_forms(max_deg))


def pairing_verdict_reference(table, convention):
    """`check_dual_pairing_identity` pairing each Delta(w) with each target
    by a loop over Delta(w)'s terms, its partner key formed at every
    target."""
    from rga.algebra import THETA, verdict_of
    from rga.scalar import Scalar
    from rga.tensor import pair_words
    step = -1 if convention == "flip" else 1
    thetas = THETA.enumerate_normal_forms(2)

    def paired(xi, a):
        coeffs = dict(a.terms())
        total = Scalar(0)
        for k, x in xi.terms():
            y = coeffs.get(tuple(w.reverse() for w in k[::step]))
            if y is not None:
                total = total + x * y
        return total

    return verdict_of(
        ("pairing transport",
         f"<Delta({w.to_text(delta_w.system.symbol)}), {u} (x) {v}>",
         paired(delta_w, TensorElement.single(THETA, u, v)),
         pair_words(w, THETA.product(u, v)))
        for w, delta_w in table.items() for u in thetas for v in thetas)


def coherence_verdict_reference(psi, max_deg):
    """`check_coherence` forming each split's product and class, and a
    zero value, at every instance."""
    from rga.algebra import verdict_of
    from rga.rewrite import EMPTY_WORD, ZERO
    pair = psi.pair
    xis = pair.xi.enumerate_normal_forms(max_deg)
    thetas = pair.theta.enumerate_normal_forms(max_deg)
    nonunit_xis = [w for w in xis if len(w)]
    nonunit_thetas = [w for w in thetas if len(w)]

    def instances():
        for w in thetas:
            yield ("unit[order]", f"1 (x) {w.to_text('T')}",
                   psi.apply(EMPTY_WORD, w), WickElement.single(pair, w, ()))
        for w in xis:
            yield ("unit[order]", f"{w.to_text('X')} (x) 1",
                   psi.apply(w, EMPTY_WORD), WickElement.single(pair, (), w))
        for xi in xis:
            for u in nonunit_thetas:
                for v in nonunit_thetas:
                    prod = pair.theta.product(u, v)
                    reduces = prod is ZERO or len(prod) != len(u) + len(v)
                    yield (f"law1[{'reduction' if reduces else 'order'}]",
                           f"{xi.to_text('X')} (x) "
                           f"{u.to_text('T')}.{v.to_text('T')}",
                           peel_theta_reference(psi, xi, u, v),
                           WickElement(pair) if prod is ZERO
                           else psi.apply(xi, prod))
        for x in nonunit_xis:
            for y in nonunit_xis:
                for theta in thetas:
                    prod = pair.xi.product(x, y)
                    reduces = prod is ZERO or len(prod) != len(x) + len(y)
                    yield (f"law2[{'reduction' if reduces else 'order'}]",
                           f"{x.to_text('X')}.{y.to_text('X')} (x) "
                           f"{theta.to_text('T')}",
                           peel_xi_reference(psi, x, y, theta),
                           WickElement(pair) if prod is ZERO
                           else psi.apply(prod, theta))

    return verdict_of(instances())


# The products as they were before `RewriteSystem.product`: raw
# concatenations of the operands' words handed to the public, normalising
# constructor.  They are the oracles of the memoised products.


def mul_reference(a, b):
    """`mul`: every word product normalised by the reference sum."""
    return Element(a.system, summed_reference((a.system,), (
        (u.letters + v.letters, (su, sv))
        for u, su in a.terms() for v, sv in b.terms())))


def tensor_mul_reference(s, t, signs="plain"):
    """`tensor_mul`: both legs concatenated, then normalised."""
    koszul = signs == "koszul"
    return TensorElement(s.system, summed_reference(
        (s.system,) * 2,
        (((a.letters + c.letters, b.letters + d.letters),
          (-x if koszul and b.parity * c.parity else x, y))
         for (a, b), x in s.terms() for (c, d), y in t.terms())))


def wick_mul_reference(x, y, psi):
    """`wick_mul`: b routed past c by psi, outer legs concatenated."""
    return wick_reference(x.pair, (
        ((a.letters + p.letters, q.letters + d.letters), (s, t, r))
        for (a, b), s in x.terms()
        for (c, d), t in y.terms()
        for (p, q), r in psi.apply(b, c).terms()))


def peel_theta_reference(psi, xi, u, v):
    """The first coherence law's left side on xi (x) u (x) v: the X-word
    of each term of psi(xi (x) u) routed past v by psi."""
    return wick_reference(psi.pair, (
        ((p.letters + r.letters, w), (s, t))
        for (p, q), s in psi.apply(xi, u).terms()
        for (r, w), t in psi.apply(q, v).terms()))


def peel_xi_reference(psi, x, y, theta):
    """The second coherence law's left side on x (x) y (x) theta: x
    routed past the T-word of each term of psi(y (x) theta) by psi."""
    return wick_reference(psi.pair, (
        ((p, q.letters + w.letters), (s, t))
        for (r, w), t in psi.apply(y, theta).terms()
        for (p, q), s in psi.apply(x, r).terms()))


# The elimination as it was before the fraction-free Gauss-Jordan of
# `rga.linalg`: Gauss-Jordan entry by entry in `Scalar` arithmetic, on
# tuples of Scalar rows.  It is the oracle of `Matrix.rref`, `inverse`,
# `solve` and `nullspace`.


def rref_reference(rows, ncols):
    """(reduced rows, pivot columns) of a list of Scalar rows."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return tuple(map(tuple, rows)), pivots


def nullspace_reference(rows, ncols):
    """One kernel vector per free column, in column order."""
    red, pivots = rref_reference(rows, ncols)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [Scalar(0)] * ncols
        v[free] = Scalar(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][free]
        basis.append(tuple(v))
    return basis


def solve_reference(rows, ncols, rhs):
    """The unique x with rows @ x = rhs; ValueError if none or many."""
    red, pivots = rref_reference([list(r) + [b] for r, b in zip(rows, rhs)],
                                 ncols + 1)
    if ncols in pivots:
        raise ValueError("inconsistent system")
    if len(pivots) < ncols:
        raise ValueError("underdetermined system")
    return tuple(red[r][ncols] for r in range(ncols))


def inverse_reference(rows):
    """The inverse of a square list of Scalar rows; ValueError if singular."""
    n = len(rows)
    red, pivots = rref_reference(
        [list(r) + [Scalar(int(i == j)) for j in range(n)]
         for i, r in enumerate(rows)], 2 * n)
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    return tuple(r[n:] for r in red)


# The truncation of `cocycle_from_algebra` as it was before it went through
# `RewriteSystem.product`: each image is a full element product, read off
# through its support.  It is the oracle of the word-by-word pruning.


def cocycle_from_algebra_reference(system, max_deg):
    """(cocycle, pruned) of `cocycle_from_algebra`, pruned by `mul`."""
    from rga.algebra import Subspace, decompose, left_mul_matrix, mul
    from rga.category import Cocycle, LinearMap
    n = system.n
    bases = {i + 1: list(s.basis)
             for i, s in enumerate(decompose(system, max_deg))}
    removed = []
    changed = True
    while changed:
        changed = False
        for i in range(1, n + 1):
            src = (i % n) + 1
            gen = Element.generator(system, i)
            keep = []
            for w in bases[src]:
                support = mul(gen, Element.from_word(system, w)).support()
                if all(u in bases[i] for u in support):
                    keep.append(w)
                else:
                    bad = next(u for u in support if u not in bases[i])
                    removed.append((f"X{src}", w, bad))
                    changed = True
            bases[src] = keep
    spaces = {i: Subspace(f"X{i}", tuple(bases[i])) for i in range(1, n + 1)}

    def f_map(i):
        src = (i % n) + 1
        return LinearMap(spaces[src], spaces[i], left_mul_matrix(
            Element.generator(system, i), spaces[src], spaces[i]))

    order = [1] + list(range(n, 1, -1))
    return (Cocycle([spaces[i] for i in order],
                    [f_map(order[(k + 1) % n]) for k in range(n)]),
            tuple(removed))


def regularity_failures_reference(mats):
    """The 1-based indices i at which psi_i . e_i != psi_i, for a cyclic
    chain given by the integer matrices psi_1 .. psi_n (rows = codomain),
    where e_i = psi_{i-1} ... psi_{i+1} psi_i is the round trip from the
    domain of psi_i, multiplied out as plain integer lists."""
    def matmul(a, b):
        return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
                for row in a]
    n = len(mats)
    failures = []
    for i, psi in enumerate(mats):
        e = psi
        for k in range(1, n):
            e = matmul(mats[(i + k) % n], e)
        if matmul(psi, e) != psi:
            failures.append(i + 1)
    return failures


def loop_lifting_functor():
    """(chain, morphism map) that respect composition but not obstructions.

    X1 -> X2 -> X3 -> X1 by [0], [1], [0]: every cycle composite is zero
    (and the chain is not regular at 2).  Sending the zero loop at X1 to
    [1] still respects every composable pair of generators (the only pair
    landing on that loop is the loop with itself, and [1].[1] = [1]), but
    it moves the obstruction at X1."""
    x1, x2, x3 = (Subspace(f"X{i}", ("u",)) for i in (1, 2, 3))
    c = Cocycle([x1, x2, x3], [LinearMap(x1, x2, Matrix([[0]])),
                               LinearMap(x2, x3, Matrix([[1]])),
                               LinearMap(x3, x1, Matrix([[0]]))])
    loop = c.cycle_composite(0)

    def lift_loop(m: LinearMap) -> LinearMap:
        return LinearMap(x1, x1, Matrix([[1]])) if m == loop else m

    return c, lift_loop

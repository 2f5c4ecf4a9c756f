"""The four workloads: seeded input generation, the operations, and the
output checks.

Inputs are generated in two steps.  `generate` makes plain Python data
(fractions, letter tuples, document dicts) from the seed alone, with no
call into `rga`, so the inputs of a seed can be digested and compared
across commits.  `setup` turns that data into `rga` objects.  Every check
compares an output with an independent computation or a required
property, never with a stored copy of an earlier output; the only stored
copies are the snapshot files and the CLI strings the repository pins.

Operations look `rga` functions up through their module or object when
they run and never keep one from set-up: the traced run replaces the
module attributes, and a function held from before would bypass it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from collections import defaultdict
from fractions import Fraction
from random import Random

from harness import Incorrect, Op, OpFailed, require

# -- exact Q(w) arithmetic on (a, b) = a + b*w, independent of rga ----------

Q0 = (Fraction(0), Fraction(0))
Q1 = (Fraction(1), Fraction(0))


def qadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def qsub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def qmul(x, y):
    # (a + bw)(c + dw) with w**2 = -1 - w
    a, b = x
    c, d = y
    return (a * c - b * d, a * d + b * c - b * d)


def qscale(k, x):
    return (k * x[0], k * x[1])


def rand_q(rng, span, den):
    return (Fraction(rng.randint(-span, span), rng.randint(1, den)),
            Fraction(rng.randint(-span, span), rng.randint(1, den)))


def qmatmul(a, b):
    cols = list(zip(*b))
    out = []
    for row in a:
        out_row = []
        for col in cols:
            acc = Q0
            for x, y in zip(row, col):
                if x != Q0 and y != Q0:
                    acc = qadd(acc, qmul(x, y))
            out_row.append(acc)
        out.append(out_row)
    return out


def qidentity(d):
    return [[Q1 if i == j else Q0 for j in range(d)] for i in range(d)]


UNITS = tuple((Fraction(a), Fraction(b)) for a, b in
              ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)))
# the diagonal of U is a shuffle of this list (cut to size): every draw
# has the same determinant up to a unit, so the heights, and the cost, of
# one matrix differ little from those of another of its size
DIAGONAL = ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(1)),
            (Fraction(1, 2), Fraction(0)), (Fraction(-1), Fraction(0)),
            (Fraction(1), Fraction(1)), (Fraction(1), Fraction(0)))


def rand_triangular(rng, d, unit_diag):
    """Lower bidiagonal: the subdiagonal entries are units of Z[w], the
    diagonal is 1 or (without `unit_diag`) a shuffle of DIAGONAL."""
    diag = [Q1] * d
    if not unit_diag:
        diag = (list(DIAGONAL) * d)[:d]
        rng.shuffle(diag)
    return [[rng.choice(UNITS) if j == i - 1 else diag[i] if j == i else Q0
             for j in range(d)] for i in range(d)]


def unit_lower_inverse(m):
    """Inverse of a unit lower triangular matrix by forward substitution."""
    d = len(m)
    inv = qidentity(d)
    for i in range(d):
        for j in range(i):
            acc = Q0
            for k in range(j, i):
                acc = qadd(acc, qmul(m[i][k], inv[k][j]))
            inv[i][j] = qsub(Q0, acc)
    return inv


def transpose(m):
    return [list(r) for r in zip(*m)]


def rand_invertible(rng, d, unit_diag=False):
    """L * U^T with L, U lower triangular: invertible by construction.

    With `unit_diag` the inverse is exact without division and is returned
    as well; otherwise the second item is None.
    """
    low = rand_triangular(rng, d, True)
    up = transpose(rand_triangular(rng, d, unit_diag))
    inv = None
    if unit_diag:
        inv = qmatmul(transpose(unit_lower_inverse(transpose(up))),
                      unit_lower_inverse(low))
    return qmatmul(low, up), inv


def qtext(x):
    """Canonical scalar text, as the README's file format spells it."""
    a, b = x
    if b == 0:
        return str(a)
    w = "w" if abs(b) == 1 else f"{abs(b)}*w"
    if a == 0:
        return w if b > 0 else "-" + w
    return f"{a}{'+' if b > 0 else '-'}{w}"


def qmatrix_text(m):
    return [[qtext(x) for x in row] for row in m]


# -- n = 2 closed forms, from the paper's component formulas -----------------

N2_WORD_TEXT = ("1", "T1", "T2", "T1 T2", "T2 T1")


def n2_product(a, b):
    """The five displayed component formulas of the n=2 product."""
    a0, a1, a2, a12, a21 = a
    b0, b1, b2, b12, b21 = b

    def s(*terms):
        acc = Q0
        for x, y in terms:
            acc = qadd(acc, qmul(x, y))
        return acc

    return (s((a0, b0)),
            s((a0, b1), (a1, b0), (a1, b21), (a12, b1)),
            s((a0, b2), (a2, b0), (a2, b12), (a21, b2)),
            s((a0, b12), (a1, b2), (a12, b0), (a12, b12)),
            s((a0, b21), (a2, b1), (a21, b0), (a21, b21)))


def n2_left_matrix(k):
    """Matrix of x -> e_k * x on the five-word basis."""
    e = [Q0] * 5
    e[k] = Q1
    cols = []
    for j in range(5):
        f = [Q0] * 5
        f[j] = Q1
        cols.append(n2_product(tuple(e), tuple(f)))
    return transpose(cols)


def n2_expression(coeffs):
    """An element as text, each coefficient parenthesised: the parser must
    fold the grouping away to print the canonical form."""
    parts = []
    for x, word in zip(coeffs, N2_WORD_TEXT):
        if x == Q0:
            continue
        a, b = x
        coeff = f"({a} {'+' if b >= 0 else '-'} {abs(b)}*w)"
        parts.append(coeff if word == "1" else f"{coeff} {word}")
    return " + ".join(parts) or "0"


def n2_invertible(a):
    a0, a1, a2, a12, a21 = a
    d = qsub(qmul(qadd(a0, a12), qadd(a0, a21)), qmul(a1, a2))
    return a0 != Q0 and d != Q0


def rand_n2(rng):
    """Five coefficients with both parts nonzero: a cost that varies with
    the heights drawn, not with how many terms happen to vanish."""
    def part():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 6),
                        rng.randint(1, 4))
    return tuple((part(), part()) for _ in range(5))


def rand_n2_invertible(rng):
    while True:
        a = rand_n2(rng)
        if n2_invertible(a):
            return a


# -- words ---------------------------------------------------------------


def has_redex(letters, n):
    """Does a square_zero or cyclic pattern occur in the word?

    The cyclic pattern for i is i, i+1, ..., n, 1, ..., i: n+1 letters,
    each the cyclic successor of the one before.
    """
    run = 0
    for x, y in zip(letters, letters[1:]):
        if x == y:
            return True
        if y == x % n + 1:
            run += 1
            if run >= n:
                return True
        else:
            run = 0
    return False


def count_normal_words(n, max_len):
    """Number of pattern-free words of each length 0..max_len (n >= 2).

    Dynamic program over (last letter, current run of cyclic successors).
    """
    counts = [1]
    state = {(x, 0): 1 for x in range(1, n + 1)}
    for length in range(1, max_len + 1):
        if length > 1:
            nxt = defaultdict(int)
            for (x, run), c in state.items():
                for y in range(1, n + 1):
                    if y == x:
                        continue
                    if y == x % n + 1:
                        if run + 1 < n:
                            nxt[(y, run + 1)] += c
                    else:
                        nxt[(y, 0)] += c
            state = nxt
        counts.append(sum(state.values()))
    return counts


def rand_walk(rng, n, length):
    """A word with no two equal adjacent letters."""
    letters = [rng.randint(1, n)]
    while len(letters) < length:
        y = rng.randint(1, n - 1)
        letters.append(y if y < letters[-1] else y + 1)
    return tuple(letters)


# -- generation -------------------------------------------------------------

N2_POOL = 64
REWRITE_POOL = 4000
ENUMERATE_N, ENUMERATE_DEG = 4, 9
CONFLUENCE_NS = range(2, 8)
# (n, truncation degree, dimension of every space) of the algebra cocycles
COCYCLES = ((2, 2, 2), (2, 2, 2), (3, 3, 3), (4, 4, 4), (3, 4, 6))


def gen_n2(rng):
    return [(rand_n2_invertible(rng), rand_n2(rng)) for _ in range(N2_POOL)]


def gen_rewrite(rng):
    words = []
    for _ in range(REWRITE_POOL):
        n = rng.randint(2, 5)
        if rng.random() < 0.125:
            k = rng.randint(1, 200 // n)
            letters = tuple(range(1, n + 1)) * k + (1,)
            kind = "cycle"
        else:
            length = int(8 * 25 ** rng.random())
            letters = rand_walk(rng, n, length)
            kind = "walk"
        words.append((n, letters, rng.randint(0, len(letters)), kind))
    return words


def gen_cocycle(rng):
    return [(n, deg, [rand_invertible(rng, dim)[0] for _ in range(n)],
             [rand_invertible(rng, dim)[0] for _ in range(n)])
            for n, deg, dim in COCYCLES]


def two_cycle_doc(rng, dim, pairings, doubled=False):
    """A regular 2-cycle X1 -> X2 -> X1 with maps P and P^-1.

    P (P^-1 P) = P, so the chain is regular; doubling P breaks it at the
    first map, since 2P (P^-1 2P) = 4P.
    """
    p, p_inv = rand_invertible(rng, dim, unit_diag=True)
    if doubled:
        p = [[qscale(2, x) for x in row] for row in p]
    doc = {
        "spaces": [{"name": "X1", "basis": [f"u{i}" for i in range(dim)]},
                   {"name": "X2", "basis": [f"v{i}" for i in range(dim)]}],
        "maps": [{"from": "X1", "to": "X2", "matrix": qmatrix_text(p)},
                 {"from": "X2", "to": "X1", "matrix": qmatrix_text(p_inv)}],
    }
    if pairings:
        doc["pairings"] = {label: qmatrix_text(rand_invertible(rng, dim)[0])
                           for label in ("X1", "X2")}
    return doc


def module_doc(actions, e_module):
    return {"n": 2, "module_dim": 5,
            "action": {w: qmatrix_text(m)
                       for w, m in zip(N2_WORD_TEXT, actions)},
            "e_algebra": "identity",
            "e_module": e_module if isinstance(e_module, str)
            else qmatrix_text(e_module)}


def gen_cli(rng):
    left = [n2_left_matrix(k) for k in range(5)]
    p, p_inv = rand_invertible(rng, 5, unit_diag=True)
    conjugated = [qmatmul(qmatmul(p, m), p_inv) for m in left]
    c = Q0
    while c == Q0:
        c = rand_q(rng, 3, 3)
    corner = [[Q1 if i == j == 0 else Q0 for j in range(5)] for i in range(5)]
    walk_n = rng.randint(2, 5)
    return {
        "cocycle_paired": two_cycle_doc(rng, 2, True),
        "cocycle_plain": two_cycle_doc(rng, 3, False),
        "cocycle_doubled": two_cycle_doc(rng, 2, False, doubled=True),
        "functor": {"cocycle": two_cycle_doc(rng, 3, False),
                    "base_change": {
                        label: qmatrix_text(rand_invertible(rng, 3)[0])
                        for label in ("X1", "X2")}},
        "module_scaled": (module_doc(conjugated,
                                     [[c if i == j else Q0 for j in range(5)]
                                      for i in range(5)]), None),
        "module_corner": (module_doc(left, corner), (left, corner)),
        "eval": [rand_n2(rng) for _ in range(2)],
        "invert": [rand_n2_invertible(rng) for _ in range(2)],
        "nf": [(walk_n, rand_walk(rng, walk_n, rng.randint(8, 60)))
               for _ in range(2)],
    }


GENERATORS = {"n2-elements": gen_n2, "cocycle-functor": gen_cocycle,
              "rewrite-words": gen_rewrite, "cli-reports": gen_cli}


def generate(workload, seed):
    """The workload's inputs for `seed`, as plain data."""
    return GENERATORS[workload](Random(f"{workload}/{seed}"))


def inputs_digest(workload, seed):
    return hashlib.sha256(
        repr(generate(workload, seed)).encode()).hexdigest()


# -- n2-elements ------------------------------------------------------------


def setup_n2(rga, raw, ctx):
    alg, wick = rga["algebra"], rga["wick"]
    Scalar = rga["scalar"].Scalar
    s2 = rga["rewrite"].RewriteSystem(2)
    pair = wick.ConjugatedPair()
    flip = wick.CrossSymmetry.flip(pair)
    WickElement = wick.WickElement
    one = alg.Element.unit(s2)

    def elem(coeffs):
        return alg.Element.from_coeffs(s2, [Scalar(*x) for x in coeffs])

    def tensor(x, y):
        return WickElement(pair, {(u, v): s * t for u, s in x.terms()
                                  for v, t in y.terms()})

    def make(a, b):
        def call():
            inv = alg.invert(a)
            inv_solve = alg.invert_by_solve(a)
            prod = alg.mul(a, b)
            star = alg.obstructed_product(a, b)
            da, db, dprod = pair.dagger(a), pair.dagger(b), pair.dagger(prod)
            flipped = wick.wick_mul(tensor(a, db), tensor(b, da), flip)
            back = rga["parser"].parse_element(str(a), s2)
            return inv, inv_solve, prod, star, da, db, dprod, flipped, back

        def check(out):
            inv, inv_solve, prod, star, da, db, dprod, flipped, back = out
            cf = alg.mul_closed_form
            require(cf(a, inv) == one and cf(inv, a) == one,
                    f"closed-form inverse of {a} is not two-sided")
            require(inv_solve == inv, f"solve inverse differs for {a}")
            require(prod == cf(a, b), f"mul != closed form for {a}, {b}")
            require(alg.mul(alg.obstruction(a), alg.obstruction(b))
                    == alg.obstruction(star),
                    f"obstruction does not intertwine {a}, {b}")
            require(dprod == alg.mul(db, da), "dagger is not anti-multiplicative")
            require(back == a, f"parse(print(a)) != a for {a}")
            require(flipped == tensor(prod, alg.mul(db, da)),
                    "flip-Wick product != ac (x) bd")
        return Op("n2", call, check)

    ops = [make(elem(a), elem(b)) for a, b in raw]
    return lambda r: ops


# -- cocycle-functor ----------------------------------------------------------


def to_q(m):
    return [[(x.a, x.b) for x in row] for row in m.rows]


def regular_by_hand(maps):
    """psi_i . (cycle from i) == psi_i for every i, in Q(w) pairs."""
    n = len(maps)
    for i in range(n):
        e = maps[i]
        for k in range(1, n):
            e = qmatmul(maps[(i + k) % n], e)
        if qmatmul(maps[i], e) != maps[i]:
            return False
    return True


def setup_cocycle(rga, raw, ctx):
    cat, linalg = rga["category"], rga["linalg"]
    RewriteSystem = rga["rewrite"].RewriteSystem
    Scalar = rga["scalar"].Scalar
    cocycles = {}
    for n, deg, dim in COCYCLES:
        c, _ = cat.cocycle_from_algebra(RewriteSystem(n), deg)
        dims = [s.dim for s in c.spaces]
        if dims != [dim] * n:
            raise Incorrect(f"cocycle n={n} deg={deg} has dims {dims}, "
                            f"the benchmark's inputs assume {dim}")
        cocycles[(n, deg)] = c

    def matrix(m):
        return linalg.Matrix([[Scalar(*x) for x in row] for row in m])

    def make(n, deg, change_raw, pairing_raw):
        c = cocycles[(n, deg)]
        labels = [f"X{i}" for i in range(1, n + 1)]
        change = {lab: matrix(m) for lab, m in zip(labels, change_raw)}
        pairings = {lab: matrix(m) for lab, m in zip(labels, pairing_raw)}

        def call():
            functor = cat.MatrixFunctor.base_change(change)
            verdict = cat.check_obstructed_functor(functor, [c])
            image = cat.Cocycle(c.spaces, [functor(m) for m in c.maps])
            obs = [cat.obstruction_of(image, i) for i in range(image.order)]
            dual = cat.dual_cocycle(image, pairings)
            dual_ok = cat.check_duality_identity(image, dual, pairings)
            return verdict, image, obs, dual, dual_ok

        def check(out):
            verdict, image, obs, dual, dual_ok = out
            where = f"cocycle n={n} deg={deg}"
            require(verdict.ok and verdict.composition_ok
                    and verdict.images_regular, f"functor verdict {verdict} "
                    f"on {where}")
            require(regular_by_hand([to_q(m.matrix) for m in image.maps]),
                    f"base-change image of {where} is not regular")
            for o in obs:
                e = to_q(o.map.matrix)
                require(qmatmul(e, e) == e,
                        f"obstruction of {where} is not idempotent")
            require(dual_ok and cat.check_regular_cocycle(dual).ok,
                    f"duality identity fails on {where}")
            doubled = cat.Cocycle(image.spaces, [
                cat.LinearMap(m.domain, m.codomain, m.matrix.scale(2))
                if k == 0 else m for k, m in enumerate(image.maps)])
            require(not cat.check_regular_cocycle(doubled).ok,
                    f"{where} with one map doubled is reported regular")
        return Op(f"cocycle n={n} deg={deg}", call, check)

    ops = [make(n, deg, ch, pa) for n, deg, ch, pa in raw]
    return lambda r: ops


# -- rewrite-words ---------------------------------------------------------------


def setup_rewrite(rga, raw, ctx):
    rw = rga["rewrite"]
    Word, ZERO = rw.Word, rw.ZERO
    systems = {n: rw.RewriteSystem(n) for n in range(2, 8)}
    expected_counts = count_normal_words(ENUMERATE_N, ENUMERATE_DEG)

    def make_word(n, letters, k, kind):
        sys_ = systems[n]
        word = Word(letters)

        def check(out):
            if out is ZERO:
                u = sys_.normal_form(letters[:k])
                if u is not ZERO:
                    require(sys_.normal_form(u.letters + letters[k:]) is ZERO,
                            f"nf(nf(u) v) != 0 = nf(u v) for {letters}")
                require(kind == "walk", f"cycle word {letters} reduced to 0")
                return
            got = out.letters
            require(all(1 <= x <= n for x in got), f"bad letters in {got}")
            require(not has_redex(got, n), f"{got} still holds a rule pattern")
            require((len(letters) - len(got)) % n == 0,
                    f"n={n}: {len(letters)} -> {len(got)} letters")
            require(sys_.normal_form(out) == out, f"nf not idempotent on {got}")
            u = sys_.normal_form(letters[:k])
            v_nf = ZERO if u is ZERO else sys_.normal_form(u.letters + letters[k:])
            require(v_nf == out, f"nf(nf(u) v) != nf(u v) for {letters}")
            if kind == "cycle":
                require(got == (1,), f"(1..{n})^k 1 reduced to {got}")
        return Op(f"normal_form n={n}", lambda: sys_.normal_form(word), check)

    def check_enumeration(words):
        counts = [0] * (ENUMERATE_DEG + 1)
        for w in words:
            counts[len(w)] += 1
            require(not has_redex(w.letters, ENUMERATE_N),
                    f"enumerated word {w.letters} is not normal")
        require(counts == expected_counts,
                f"per-length counts {counts} != {expected_counts}")
        require(len(set(words)) == len(words), "enumeration repeats a word")

    def check_confluence(report):
        require(report.locally_confluent and report.critical_pairs
                and all(p.joinable for p in report.critical_pairs),
                f"n={report.n} is not locally confluent")

    big = systems[ENUMERATE_N]
    ops = [make_word(*w) for w in raw]
    ops.append(Op(f"enumerate n={ENUMERATE_N} deg={ENUMERATE_DEG}",
                  lambda: big.enumerate_normal_forms(ENUMERATE_DEG),
                  check_enumeration))
    for n in CONFLUENCE_NS:
        ops.append(Op(f"confluence n={n}",
                      lambda s=systems[n]: s.check_local_confluence(),
                      check_confluence))
    return lambda r: ops


# -- cli-reports ----------------------------------------------------------------

# Stdout the README and tests/test_cli.py pin, with the exit code the
# README's rule gives (0 success, 1 checker false, 2 bad input).
PINNED = [
    (["eval", "-n", "2", "T1 T2 T1"], 0, "T1\n"),
    (["nf", "-n", "3", "1 2 3 1 2"], 0, "T1 T2\n"),
    (["nf", "-n", "2", "1 1"], 0, "0\n"),
    (["invert", "-n", "2", "1 + T1"], 0, "1 - T1\n"),
    (["invert", "-n", "2", "T1"], 1, "error: not invertible (a0 = 0)\n"),
    (["annihilate", "-n", "2", "--side", "right", "T1"], 0,
     "T1\nT1 T2\n1 - T2 T1\n"),
    (["annihilate", "-n", "2", "--side", "right", "1"], 0, "0\n"),
    (["obstruction", "-n", "2", "T1"], 0, "1 + T2\n"),
    (["confluence", "-n", "2"], 0,
     "locally confluent: true (critical pairs: 10, all joinable)\n"),
    (["decompose", "-n", "2", "--max-deg", "2"], 0,
     "X1: T1, T1 T2\nX2: T2, T2 T1\n"),
    (["check", "bialgebra", "-n", "2", "--signs", "koszul", "--evacuum",
      "idem"], 1, "Delta(T1)^2 = 0: true\nDelta(T2)^2 = 0: true\n"
     "D1 D2 D1 = D1: false\nD2 D1 D2 = D2: false\n"),
    (["wick", "eval", "X1 T1"], 0, "1 (x) 1 - T1 (x) X1\n"),
    (["wick", "eval", "(1 (x) X1) (T1 (x) 1)"], 0, "1 (x) 1 - T1 (x) X1\n"),
    (["wick", "eval", "X1 T1 T2"], 0, "T2 (x) 1 - T1 T2 (x) X1\n"),
    (["wick", "eval", "X1 T1", "--vacuum", "idem"], 0,
     "-T1 (x) X1 + T1 T2 (x) 1\n"),
]

README_COCYCLE = {
    "spaces": [{"name": "X1", "basis": ["T1", "T1 T2"]},
               {"name": "X2", "basis": ["T2", "T2 T1"]}],
    "maps": [{"from": "X1", "to": "X2", "matrix": [["0", "1"], ["1", "0"]]},
             {"from": "X2", "to": "X1", "matrix": [["0", "1"], ["1", "0"]]}],
    "pairings": {"X1": [["1", "0"], ["0", "1"]],
                 "X2": [["1", "0"], ["0", "1"]]},
}

FAILING_COCYCLE = {
    "spaces": [{"name": "X1", "basis": ["u"]}, {"name": "X2", "basis": ["v"]}],
    "maps": [{"from": "X1", "to": "X2", "matrix": [["0"]]},
             {"from": "X2", "to": "X1", "matrix": [["1"]]}],
}

TEST_FUNCTOR_BASE_CHANGE = {"X1": [["1", "1"], ["0", "1"]],
                            "X2": [["1", "0"], ["1", "1"]]}

# Documents the README promises to refuse with exit 2 and an `error:` line.
MALFORMED = {
    "numeric-entry.json": json.dumps({
        "spaces": [{"name": "X1", "basis": ["u"]},
                   {"name": "X2", "basis": ["v"]}],
        "maps": [{"from": "X1", "to": "X2", "matrix": [[1]]},
                 {"from": "X2", "to": "X1", "matrix": [["1"]]}]}),
    "top-level-list.json": json.dumps([README_COCYCLE]),
    "invalid.json": '{"spaces": [',
    "unknown-label.json": json.dumps({
        "spaces": [{"name": "X1", "basis": ["u"]},
                   {"name": "X2", "basis": ["v"]}],
        "maps": [{"from": "X9", "to": "X2", "matrix": [["1"]]},
                 {"from": "X2", "to": "X1", "matrix": [["1"]]}]}),
}

SNAPSHOTS = ("confluence.txt", "representation.txt", "grading.txt",
             "zero_divisor.txt", "bialgebra.txt", "psi_coherence.txt",
             "dual_comultiplication.txt", "wick_regular.txt")


def read_snapshots(root):
    snap = os.path.join(root, "tests", "snapshots")
    out = {}
    for name in SNAPSHOTS:
        with open(os.path.join(snap, name), encoding="utf-8", newline="") as fh:
            out[name] = fh.read()
    return out


def bialgebra_rows(text):
    """(candidate, signs) -> (sq1, sq2, 121, 212) from the snapshot table."""
    rows = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 7 and parts[0].startswith("e1="):
            rows[(parts[0], parts[1])] = parts[2:6]
    return rows


def coherence_block(text, label):
    """(disagreement count, shown lines) of one block of psi_coherence.txt."""
    lines = text.splitlines()
    start = next(i for i, ln in enumerate(lines)
                 if ln.startswith(f"base={label} "))
    count = int(lines[start + 1].split()[1])
    shown = []
    for ln in lines[start + 2:]:
        if not ln.startswith("  law"):
            break
        shown.append(ln)
    return count, shown


def setup_cli(rga, raw, ctx):
    cli = rga["cli"]
    parse = rga["parser"].parse_element
    alg = rga["algebra"]
    Scalar = rga["scalar"].Scalar
    s2 = rga["rewrite"].RewriteSystem(2)
    workdir = ctx["workdir"]
    snaps = ctx["snapshots"]
    one = alg.Element.unit(s2)

    def elem(coeffs):
        return alg.Element.from_coeffs(s2, [Scalar(*x) for x in coeffs])

    def write(name, doc):
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(doc if isinstance(doc, str) else json.dumps(doc))
        return path

    def invoke(argv):
        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            return code, out.getvalue()
        return call

    ops = []

    def add(label, argv, check):
        ops.append(Op(label, invoke(argv), check))

    def expect(code, stdout):
        def check(got):
            require(got == (code, stdout), f"got {got!r}, want "
                    f"{(code, stdout)!r}")
        return check

    for argv, code, stdout in PINNED:
        add(" ".join(argv[:2]), argv, expect(code, stdout))

    def check_idempotents(got):
        code, out = got
        lines = out.splitlines()
        require(code == 0 and len(lines) == 2, f"idempotents: {got!r}")
        seen = set()
        for line in lines:
            e = parse(line, s2)
            a0, a1, a2, a12, a21 = e.coeffs_n2()
            require(alg.mul_closed_form(e, e) == e, f"{line} not idempotent")
            require((a0, a1, a2) == (1, 1, 1) and a12 * a12 + a12 + 1 == 0
                    and a21 == -(a12 + 1), f"{line} is not 1+T1+T2+g..+d..")
            seen.add(a12)
        require(len(seen) == 2, "the two idempotents coincide")
    add("idempotents", ["idempotents", "-n", "2"], check_idempotents)

    def check_decompose3(got):
        code, out = got
        lines = out.splitlines()
        require(code == 0 and len(lines) == 3, f"decompose: {got!r}")
        total = 0
        for i, line in enumerate(lines, start=1):
            label, _, words = line.partition(": ")
            require(label == f"X{i}", f"decompose label {label}")
            for text in words.split(", "):
                letters = tuple(int(t[1:]) for t in text.split())
                require(letters[0] == i and not has_redex(letters, 3),
                        f"{text} misplaced or not normal")
                total += 1
        require(total == sum(count_normal_words(3, 2)[1:]),
                f"decompose -n 3 lists {total} words")
    add("decompose", ["decompose", "-n", "3", "--max-deg", "2"],
        check_decompose3)

    def check_confluence1(got):
        require(got[0] == 1 and got[1].startswith("locally confluent: false"),
                f"confluence -n 1: {got!r}")
    add("confluence", ["confluence", "-n", "1"], check_confluence1)

    def check_error(code):
        def check(got):
            require(got[0] == code and got[1].startswith("error:"),
                    f"want exit {code} with an error line, got {got!r}")
        return check
    add("eval", ["eval", "-n", "2", "T1 +"], check_error(2))
    add("eval", ["eval", "-n", "0", "T1"], check_error(2))

    def check_usage(got):
        require(got[0] == 2 and got[1] == "", f"usage error: {got!r}")
    add("frobnicate", ["frobnicate"], check_usage)

    rows = bialgebra_rows(snaps["bialgebra.txt"])
    for signs in ("plain", "koszul"):
        for vac in ("unit", "idem"):
            sq1, sq2, c1, c2 = rows[(f"e1={vac},e2={vac}", signs)]
            want = (f"Delta(T1)^2 = 0: {sq1}\nDelta(T2)^2 = 0: {sq2}\n"
                    f"D1 D2 D1 = D1: {c1}\nD2 D1 D2 = D2: {c2}\n")
            ok = (sq1, sq2, c1, c2) == ("true",) * 4
            add("check bialgebra", ["check", "bialgebra", "-n", "2", "--signs",
                                    signs, "--evacuum", vac],
                expect(0 if ok else 1, want))

    count, shown = coherence_block(snaps["psi_coherence.txt"], "regular[unit]")
    head = (f"coherent: false (instances: 170, order coherent: true, "
            f"disagreements: {count})")

    def check_coherence(got):
        code, out = got
        lines = out.splitlines()
        require(code == 1 and lines[0] == head, f"coherence head {lines[:1]}")
        require(lines[1:1 + len(shown)] == shown,
                "coherence witnesses differ from psi_coherence.txt")
        require(len(lines) == 1 + min(10, count), "coherence witness count")
    # n=2 has the same five normal forms at every degree >= 2, so degree 3
    # must give the degree-2 answer
    add("wick coherence", ["wick", "coherence", "--max-deg", "2"],
        check_coherence)
    add("wick coherence", ["wick", "coherence", "--max-deg", "3"],
        check_coherence)

    delta_lines = [ln for ln in snaps["dual_comultiplication.txt"].splitlines()
                   if ln.startswith("Delta(")]
    add("dual delta", ["dual", "delta"],
        expect(0, "".join(ln + "\n" for ln in delta_lines)))

    report_dir = os.path.join(workdir, "reports")

    def check_report(got):
        code, out = got
        want = "".join(f"wrote {os.path.join(report_dir, n)}\n"
                       for n in SNAPSHOTS)
        require(code == 0 and out == want, f"report --all printed {out!r}")
        for name in SNAPSHOTS:
            with open(os.path.join(report_dir, name), encoding="utf-8",
                      newline="") as fh:
                require(fh.read() == snaps[name],
                        f"{name} differs from tests/snapshots/{name}")
    add("report --all", ["report", "--all", "--out", report_dir], check_report)

    # cocycle, functor and module documents
    add("check cocycle", ["check", "cocycle",
                          write("readme-cocycle.json", README_COCYCLE)],
        expect(0, "regular cocycle: true\nduality identity: true\n"))
    add("check cocycle", ["check", "cocycle",
                          write("failing-cocycle.json", FAILING_COCYCLE)],
        expect(1, "regular cocycle: false (fails at index 2)\n"))
    add("check cocycle", ["check", "cocycle",
                          write("paired.json", raw["cocycle_paired"])],
        expect(0, "regular cocycle: true\nduality identity: true\n"))
    add("check cocycle", ["check", "cocycle",
                          write("plain.json", raw["cocycle_plain"])],
        expect(0, "regular cocycle: true\n"))
    add("check cocycle", ["check", "cocycle",
                          write("doubled.json", raw["cocycle_doubled"])],
        expect(1, "regular cocycle: false (fails at index 1)\n"))
    test_functor = {"cocycle": {
        "spaces": README_COCYCLE["spaces"], "maps": README_COCYCLE["maps"]},
        "base_change": TEST_FUNCTOR_BASE_CHANGE}
    add("check functor", ["check", "functor",
                          write("test-functor.json", test_functor)],
        expect(0, "obstructed functor: true\n"))
    add("check functor", ["check", "functor",
                          write("functor.json", raw["functor"])],
        expect(0, "obstructed functor: true\n"))

    # the module law rho(a) E = E rho(a) (e_algebra is the identity)
    add("check module", ["check", "module", write("module-identity.json",
        module_doc([n2_left_matrix(k) for k in range(5)], "identity"))],
        expect(0, "regular module law: true\n"))
    doc, _ = raw["module_scaled"]
    add("check module", ["check", "module", write("module-scaled.json", doc)],
        expect(0, "regular module law: true\n"))
    doc, (left, corner) = raw["module_corner"]
    witness = next((k, j) for k in range(5) for j in range(5)
                   if [r[j] for r in qmatmul(left[k], corner)]
                   != [r[j] for r in qmatmul(corner, left[k])])
    add("check module", ["check", "module", write("module-corner.json", doc)],
        expect(1, "regular module law: false\n  first failure at word "
                  f"{N2_WORD_TEXT[witness[0]]} basis index {witness[1]}\n"))

    # seeded expressions
    for coeffs in raw["eval"]:
        value = elem(coeffs)

        def check_eval(got, value=value):
            code, out = got
            require(code == 0 and parse(out, s2) == value,
                    f"eval printed {out!r}, want {value}")
            require(out == f"{parse(out, s2)}\n", f"{out!r} is not canonical")
        add("eval", ["eval", "-n", "2", n2_expression(coeffs)], check_eval)
    for coeffs in raw["invert"]:
        value = elem(coeffs)

        def check_invert(got, value=value):
            code, out = got
            require(code == 0, f"invert exit {code}: {out!r}")
            inv = parse(out, s2)
            require(alg.mul_closed_form(inv, value) == one
                    and alg.mul_closed_form(value, inv) == one,
                    f"invert printed {out!r}, not the inverse of {value}")
        add("invert", ["invert", "-n", "2", n2_expression(coeffs)],
            check_invert)
    for n, letters in raw["nf"]:
        def check_nf(got, n=n, letters=letters):
            code, out = got
            require(code == 0, f"nf exit {code}")
            text = out.strip()
            if text == "0":
                return
            got_letters = tuple(int(t[1:]) for t in text.split())
            require(not has_redex(got_letters, n)
                    and (len(letters) - len(got_letters)) % n == 0,
                    f"nf -n {n} printed {text}")
        add("nf", ["nf", "-n", str(n), " ".join(map(str, letters))], check_nf)

    # malformed documents: each must be refused with exit 2 and `error:`
    def check_refused(got):
        code, out = got
        if code != 2 or not out.startswith("error:"):
            raise OpFailed(f"exit {code}, want 2 with an error line")
    for name, text in MALFORMED.items():
        add(f"check cocycle {name}", ["check", "cocycle", write(name, text)],
            check_refused)
    return lambda r: ops


SETUPS = {"n2-elements": setup_n2, "cocycle-functor": setup_cocycle,
          "rewrite-words": setup_rewrite, "cli-reports": setup_cli}

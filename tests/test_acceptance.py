"""Acceptance suite: one test per criterion, every tolerance exact.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion.  Failure content of the documented-discrepancy snapshots is
itself the deliverable; those tests pin the computed verdicts.
"""

from itertools import product
from pathlib import Path
from random import Random

from rga.algebra import (Element, N2_BASIS,
                         find_idempotent_obstructions, invert,
                         invert_by_solve, mul, mul_closed_form,
                         obstructed_product, obstruction)
from rga.category import (MatrixFunctor, check_duality_identity,
                          check_obstructed_functor, check_regular_cocycle,
                          cocycle_from_algebra, dual_cocycle, obstruction_of)
from rga.cli import main
from rga.linalg import Matrix
from rga.parser import parse_element
from rga.reports import REPORTS
from rga.rewrite import RewriteSystem
from rga.scalar import OMEGA, OMEGA2, ONE
from rga.wick import (ConjugatedPair, CrossSymmetry, WickElement,
                      check_coherence, wick_mul)

from helpers import rand_element, rand_invertible, rand_scalar

S2 = RewriteSystem(2)
T1 = Element.generator(S2, 1)
T2 = Element.generator(S2, 2)
E12 = mul(T1, T2)
E21 = mul(T2, T1)
UNIT = Element.unit(S2)
GOLDEN = Path(__file__).parent / "snapshots"


def _ok(k, text):
    print(f"criterion {k:2d} PASS - {text}")


def test_criterion_01_regularity_and_idempotents():
    assert mul(mul(T1, T2), T1) == T1
    assert mul(mul(T2, T1), T2) == T2
    assert mul(E12, E12) == E12
    assert mul(E21, E21) == E21
    assert mul(E12, E21).is_zero() and mul(E21, E12).is_zero()
    assert mul(E12, T1) == T1 and mul(T1, E21) == T1
    assert mul(E21, T2) == T2 and mul(T2, E12) == T2
    _ok(1, "regularity relations and idempotent identities, exact")


def test_criterion_02_multiplication_oracle():
    basis = [Element.from_word(S2, w) for w in N2_BASIS]
    for a in basis:
        for b in basis:
            assert mul(a, b) == mul_closed_form(a, b)
    rng = Random(1002)
    for _ in range(1000):
        a, b = rand_element(rng, S2), rand_element(rng, S2)
        assert mul(a, b) == mul_closed_form(a, b)
    for a, b, c in product(basis, repeat=3):
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
    _ok(2, "rewriting product == closed form (25 basis + 1000 random), "
           "associativity on 125 triples")


def test_criterion_03_inverse():
    rng = Random(1003)
    for _ in range(1000):
        a = rand_invertible(rng, S2)
        inv = invert(a)
        assert mul(a, inv) == UNIT and mul(inv, a) == UNIT
        assert invert_by_solve(a) == inv
    _ok(3, "closed-form inverse two-sided and equal to the 5x5 solve "
           "on 1000 random invertible elements")


def test_criterion_04_idempotent_obstructions():
    got = find_idempotent_obstructions()
    want = {Element.from_coeffs(S2, (ONE, ONE, ONE, OMEGA, OMEGA2)),
            Element.from_coeffs(S2, (ONE, ONE, ONE, OMEGA2, OMEGA))}
    assert set(got) == want and len(got) == 2
    for e in got:
        assert mul(e, e) == e
    _ok(4, "exactly the two idempotent obstructions with coefficients "
           "w and w**2, verified by multiplication")


def test_criterion_05_obstruction_intertwining():
    rng = Random(1005)
    for _ in range(1000):
        a, b = rand_element(rng, S2), rand_element(rng, S2)
        c = obstructed_product(a, b)
        assert mul(obstruction(a), obstruction(b)) == obstruction(c)
    _ok(5, "e(a)e(b) = e(a*b) under the component product, "
           "1000 random pairs, exact")


def test_criterion_06_rewrite_engine_and_snapshots():
    for bound in range(2, 9):
        assert len(S2.enumerate_normal_forms(bound)) == 5
    assert RewriteSystem(2).check_local_confluence().locally_confluent
    for name in ("confluence.txt", "representation.txt"):
        text = REPORTS[name]()
        assert text == REPORTS[name]()  # byte-stable across regeneration
        assert text == (GOLDEN / name).read_text(encoding="utf-8")
    confluence = REPORTS["confluence.txt"]()
    assert "n=3 strategy=leftmost critical_pairs=18 " \
           "locally_confluent=true" in confluence
    assert "n=3 max_deg=4 words=43 left_right_operator_laws=pass" \
        in REPORTS["representation.txt"]()
    _ok(6, "five normal forms for every bound >= 2; n=2 confluent; "
           "n=3 confluence and representation snapshots byte-stable")


def test_criterion_07_cocycle_suite():
    c, pruned = cocycle_from_algebra(S2, 2)
    assert not pruned
    swap = Matrix([[0, 1], [1, 0]])
    assert [m.matrix for m in c.maps] == [swap, swap]
    assert check_regular_cocycle(c).ok

    corpus = [c]
    from rga.algebra import Subspace
    from rga.category import Cocycle, LinearMap
    p = Subspace("Y1", ("p",))
    q = Subspace("Y2", ("q", "r"))
    corpus.append(Cocycle([p, q],
                          [LinearMap(p, q, Matrix([[1], [0]])),
                           LinearMap(q, p, Matrix([[1, 0]]))]))
    c3, _ = cocycle_from_algebra(RewriteSystem(3), 4)
    corpus.append(c3)
    for cc in corpus:
        assert check_regular_cocycle(cc).ok
        for i in range(cc.order):
            e = obstruction_of(cc, i).map
            assert e.compose(e) == e

    rng = Random(1007)
    for cc in corpus[:2]:
        for _ in range(5):
            pairings = {}
            for s in cc.spaces:
                while True:
                    m = Matrix([[rand_scalar(rng, 3) for _ in range(s.dim)]
                                for _ in range(s.dim)])
                    if m.is_invertible():
                        break
                pairings[s.label] = m
            d = dual_cocycle(cc, pairings)
            assert check_regular_cocycle(d).ok
            assert check_duality_identity(cc, d, pairings).ok
    _ok(7, "swap-matrix cocycle regular; all corpus obstructions "
           "idempotent; duality adjoint identity exact")


def test_criterion_08_functor_lemma():
    rng = Random(1008)
    c2, _ = cocycle_from_algebra(S2, 2)
    c3, _ = cocycle_from_algebra(RewriteSystem(3), 4)
    for source in (c2, c3):
        for _ in range(5):
            change = {}
            for s in source.spaces:
                while True:
                    m = Matrix([[rand_scalar(rng, 2) for _ in range(s.dim)]
                                for _ in range(s.dim)])
                    if m.is_invertible():
                        break
                change[s.label] = m
            functor = MatrixFunctor.base_change(change)
            verdict = check_obstructed_functor(functor, [source])
            assert verdict.ok and verdict.images_regular
    _ok(8, "base-change functor images of regular cocycles are regular, "
           "obstructions preserved, exact")


def test_criterion_09_wick_suite():
    pair = ConjugatedPair()
    psi = CrossSymmetry.regular(pair, "unit")
    got = psi.apply((1,), (1, 2))
    want = WickElement.single(pair, (2,), ()) \
        - WickElement.single(pair, (1, 2), (1,))
    assert got == want  # bit-exact under the 1 (x) 1 vacuum

    rng = Random(1009)
    for _ in range(1000):
        a, b = rand_element(rng, pair.theta), rand_element(rng, pair.theta)
        assert pair.dagger(mul(a, b)) == mul(pair.dagger(b), pair.dagger(a))
        assert pair.dagger(pair.dagger(a)) == a

    # associativity holds whenever the coherence report passes at the
    # degrees involved; the flip base passes, the regular base does not
    # (its report is the documented answer) so it is exempt here
    bases = [CrossSymmetry.flip(pair), psi]
    words_t = pair.theta.enumerate_normal_forms(2)
    words_x = pair.xi.enumerate_normal_forms(2)
    tested_any = False
    for base in bases:
        if not check_coherence(base, 2).ok:
            continue
        tested_any = True
        for _ in range(200):
            xs = []
            for _ in range(3):
                terms = {(rng.choice(words_t), rng.choice(words_x)):
                         rand_scalar(rng) for _ in range(3)}
                xs.append(WickElement(pair, terms))
            x, y, z = xs
            assert wick_mul(wick_mul(x, y, base), z, base) \
                == wick_mul(x, wick_mul(y, z, base), base)
    assert tested_any
    _ok(9, "psi(X1 (x) T1T2) bit-exact; dagger an involutive "
           "anti-homomorphism (1000 pairs); Wick product associative "
           "conditional on coherence")


def test_criterion_10_discrepancy_snapshots():
    names = ("zero_divisor.txt", "bialgebra.txt", "psi_coherence.txt",
             "grading.txt")
    for name in names:
        text = REPORTS[name]()
        assert text == REPORTS[name]()
        assert text == (GOLDEN / name).read_text(encoding="utf-8")
    # the recorded verdicts (the deliverable is the content, not a pass)
    assert "b annihilates only that family, not every element" \
        in REPORTS["zero_divisor.txt"]()
    assert "no candidate satisfies all defining relations" \
        in REPORTS["bialgebra.txt"]()
    assert "order_coherent=true full_law_coherent=false" \
        in REPORTS["psi_coherence.txt"]()
    assert "n=3: pairs=441 pair_violations=51 odd_triple_violations=18" \
        in REPORTS["grading.txt"]()
    _ok(10, "documented-discrepancy snapshots exist, stable, and record "
            "the computed verdicts")


def test_criterion_11_cli(capsys):
    rng = Random(1011)
    for _ in range(1000):
        e = rand_element(rng, S2)
        assert parse_element(str(e), S2) == e

    def run(argv):
        code = main(argv)
        return code, capsys.readouterr().out

    assert run(["eval", "-n", "2", "T1 T2 T1"]) == (0, "T1\n")
    assert run(["invert", "-n", "2", "T1"]) \
        == (1, "error: not invertible (a0 = 0)\n")
    assert run(["confluence", "-n", "2"]) \
        == (0, "locally confluent: true (critical pairs: 10, "
               "all joinable)\n")
    _ok(11, "1000 parse/print round trips; documented invocations give "
            "the expected stdout and exit codes")

"""Every law checker answers with one `Verdict`, folded by `verdict_of`
from its stream of law instances, and a false verdict names where its law
fails: each checker below is made to fail once on a hand-broken input,
and its first witness must carry the right law and place and two unequal
sides."""

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import rga.rewrite
from rga.algebra import (THETA, Element, N2_BASIS, Subspace, Verdict,
                         check_representation, grading_check,
                         left_mul_matrix, verdict_of)
from rga.category import (Cocycle, LinearMap, MatrixFunctor,
                          check_cocycle_morphism, check_duality_identity,
                          check_natural_transformation,
                          check_obstructed_functor, check_regular_cocycle,
                          check_tensor_obstruction, cocycle_from_algebra,
                          dual_cocycle)
from rga.linalg import Matrix
from rga.rewrite import ZERO, RewriteSystem, Word
from rga.scalar import Scalar
from rga.tensor import (XI, TensorElement, bialgebra_candidates,
                        check_almost_bialgebra, check_coalgebra_obstruction,
                        check_coassociativity, check_dual_pairing_identity,
                        check_regular_module, dual_comultiplication,
                        tensor_mul)
from rga.wick import (ConjugatedPair, CrossSymmetry, check_coherence,
                      check_regular_cross_symmetry)

from helpers import loop_lifting_functor, regularity_failures_reference

SRC = Path(__file__).resolve().parent.parent / "src" / "rga"
T1 = Word([1])


def one_dim_cocycle(a, b):
    x1 = Subspace("X1", ("u",))
    x2 = Subspace("X2", ("v",))
    return Cocycle([x1, x2], [LinearMap(x1, x2, Matrix([[a]])),
                              LinearMap(x2, x1, Matrix([[b]]))])


def first_witness(verdict, law, at):
    assert isinstance(verdict, Verdict)
    assert not verdict.ok and not verdict
    w = verdict.witnesses[0]
    assert (w.law, w.at) == (law, at)
    assert w.lhs != w.rhs
    return w


def test_verdict_is_true_exactly_without_witnesses():
    good = verdict_of([("law", 1, 2, 2)])
    assert good.ok and good and good.checked == 1
    bad = verdict_of([("law", 1, 2, 2), ("law", 3, 1, 2), ("law", 4, 1, 3)])
    assert not bad.ok and not bad and bad.checked == 3
    assert [str(w) for w in bad.witnesses] == ["law at 3: 1 != 2",
                                               "law at 4: 1 != 3"]
    assert verdict_of(iter(())) == Verdict((), 0)


def test_witness_prints_tuples_item_by_item():
    w = verdict_of([("law", (T1, 0), (Scalar(1),), (Scalar(0),))]).witnesses
    assert str(w[0]) == "law at (T1, 0): (1) != (0)"


def test_regular_cocycle():
    w = first_witness(check_regular_cocycle(one_dim_cocycle(0, 1)),
                      "regularity", 2)
    assert (w.lhs.matrix, w.rhs.matrix) == (Matrix([[0]]), Matrix([[1]]))


@st.composite
def square_cocycles(draw):
    """A cyclic chain of 1 to 4 maps between spaces of one dimension, 1 or
    2, with small integer entries: its integer matrices and the chain."""
    dim = draw(st.sampled_from([1, 2]))
    row = st.lists(st.integers(-1, 2), min_size=dim, max_size=dim)
    mats = draw(st.lists(st.lists(row, min_size=dim, max_size=dim),
                         min_size=1, max_size=4))
    spaces = [Subspace(f"X{i}", tuple(range(dim)))
              for i in range(1, len(mats) + 1)]
    return mats, Cocycle(spaces, [
        LinearMap(s, spaces[(i + 1) % len(spaces)], Matrix(m))
        for i, (s, m) in enumerate(zip(spaces, mats))])


@settings(max_examples=150, deadline=None)
@given(square_cocycles())
def test_regular_cocycle_lists_every_failure(case):
    mats, cocycle = case
    verdict = check_regular_cocycle(cocycle)
    assert [w.at for w in verdict.witnesses] \
        == regularity_failures_reference(mats)
    assert verdict.checked == len(mats)


def test_regular_cocycle_verdict_is_kept():
    c = one_dim_cocycle(0, 1)
    assert check_regular_cocycle(c) is check_regular_cocycle(c)


def test_cocycle_morphism():
    c = one_dim_cocycle(1, 1)
    alpha = [LinearMap.identity(c.spaces[0]),
             LinearMap(c.spaces[1], c.spaces[1], Matrix([[2]]))]
    first_witness(check_cocycle_morphism(alpha, c, c), "square", 1)


def test_cocycle_morphism_obstruction_intertwining():
    # identity components from the identity chain to the zero chain: both
    # squares fail, and so does alpha_1 . e_X1 = e_Y1 . alpha_1, whose two
    # sides are products with an identity factor
    c, d = one_dim_cocycle(1, 1), one_dim_cocycle(0, 0)
    verdict = check_cocycle_morphism(
        [LinearMap.identity(s) for s in c.spaces], c, d)
    assert verdict.checked == 3
    assert [(w.law, w.at) for w in verdict.witnesses] == [
        ("square", 1), ("square", 2), ("obstruction intertwining", 1)]
    first_witness(verdict, "square", 1)
    assert all((w.lhs.matrix, w.rhs.matrix) == (Matrix([[1]]), Matrix([[0]]))
               for w in verdict.witnesses)


def warp(m: LinearMap) -> LinearMap:
    """The swap sent to a nilpotent map, every other morphism kept."""
    if m.matrix == Matrix([[0, 1], [1, 0]]):
        return LinearMap(m.domain, m.codomain, Matrix([[0, 1], [0, 0]]))
    return m


def double(m: LinearMap) -> LinearMap:
    return LinearMap(m.domain, m.codomain, m.matrix.scale(2))


def two_chain():
    """Y1 -> Y2 -> Y1 by [1; 0] and [1 0], whose obstruction at Y2 is not
    the identity."""
    y1, y2 = Subspace("Y1", ("p",)), Subspace("Y2", ("q", "r"))
    return Cocycle([y1, y2], [LinearMap(y1, y2, Matrix([[1], [0]])),
                              LinearMap(y2, y1, Matrix([[1, 0]]))])


@pytest.mark.parametrize("morphism_map,source,lhs,rhs", [
    # both maps of the algebra's chain are the swap, so psi1 . psi2 is the
    # identity of X2, which the warp keeps while squaring its nilpotent
    (warp, lambda: cocycle_from_algebra(RewriteSystem(2), 2)[0],
     Matrix.identity(2), Matrix([[0, 0], [0, 0]])),
    # F(g.f) = 2 g f while F(g) F(f) = 4 g f
    (double, two_chain, Matrix([[2, 0], [0, 0]]), Matrix([[4, 0], [0, 0]])),
], ids=["warp", "double"])
def test_obstructed_functor_composition(morphism_map, source, lhs, rhs):
    verdict = check_obstructed_functor(MatrixFunctor(morphism_map), [source()])
    w = first_witness(verdict, "composition", ("psi2", "psi1"))
    assert (w.lhs.matrix, w.rhs.matrix) == (lhs, rhs)
    assert w.lhs.domain.label == w.lhs.codomain.label == w.rhs.domain.label
    assert not verdict.composition_ok
    # two composable pairs before each of the four generators, two
    # obstructions and two regularity laws
    assert verdict.checked == 12


def test_obstructed_functor_obstruction():
    c, lift_loop = loop_lifting_functor()
    verdict = check_obstructed_functor(MatrixFunctor(lift_loop), [c])
    w = first_witness(verdict, "obstruction", 1)
    assert (w.lhs.matrix, w.rhs) == (Matrix([[1]]), c.cycle_composite(0))
    # the source itself is not regular at 2, so neither is its image
    assert [(w.law, w.at) for w in verdict.witnesses] == [
        ("obstruction", 1), ("regularity", 2)]
    assert verdict.checked == 6 * 2 + 3 + 3


def test_obstructed_functor_regularity():
    # the identity functor keeps composition and obstructions; its image is
    # the source, whose regularity fails where `check_regular_cocycle` says
    c = one_dim_cocycle(0, 1)
    verdict = check_obstructed_functor(MatrixFunctor.identity(), [c])
    first_witness(verdict, "regularity", 2)
    assert verdict.witnesses == check_regular_cocycle(c).witnesses
    assert verdict.composition_ok and verdict.obstruction_preserved
    assert not verdict.images_regular


def test_grading_product_grade():
    s3 = RewriteSystem(3)
    a = Element.from_word(s3, Word([1, 2, 3]))
    w = first_witness(grading_check(a, Element.generator(s3, 1)),
                      "product grade", T1)
    assert (w.lhs, w.rhs) == (1, 0)


def test_grading_odd_triple():
    s3 = RewriteSystem(3)
    a = Element.from_word(s3, Word([1, 2, 1]))
    b = Element.from_word(s3, Word([3, 2, 3]))
    w = first_witness(grading_check(a, b), "odd triple",
                      Word([1, 2, 1, 3, 2, 1]))
    assert (w.lhs, w.rhs) == (0, 1)


def test_natural_transformation():
    c = one_dim_cocycle(1, 1)
    comps = {"X1": LinearMap.identity(c.spaces[0]),
             "X2": LinearMap(c.spaces[1], c.spaces[1], Matrix([[2]]))}
    f = MatrixFunctor.identity()
    first_witness(check_natural_transformation(comps, f, f, list(c.maps)),
                  "naturality", c.maps[0])


def test_tensor_obstruction():
    e_x = Matrix([[1, 0], [0, 0]])
    w = first_witness(check_tensor_obstruction(e_x, Matrix.identity(2),
                                               Matrix.identity(4)),
                      "tensor obstruction", 2)
    assert w.lhs == Matrix.identity(4).rows[2]
    assert w.rhs == (Scalar(0),) * 4


def test_duality_identity():
    # the dual of the zero chain, checked against the identity chain
    pairings = {"X1": Matrix([[3]]), "X2": Matrix([[5]])}
    dual = dual_cocycle(one_dim_cocycle(0, 0), pairings)
    w = first_witness(check_duality_identity(one_dim_cocycle(1, 1), dual,
                                             pairings), "duality", "X1")
    assert (w.lhs, w.rhs) == (Matrix([[0]]), Matrix([[3]]))


def test_dual_pairing_identity():
    table = dict(dual_comultiplication())
    table[T1] = TensorElement(XI)
    w = first_witness(check_dual_pairing_identity(table, "straight"),
                      "pairing transport", "<Delta(X1), 1 (x) T1>")
    assert (w.lhs, w.rhs) == (Scalar(0), Scalar(1))


def test_coassociativity():
    table = dict(dual_comultiplication())
    table[T1] = TensorElement.single(XI, (1,), ()).scale(Scalar(2))
    first_witness(check_coassociativity(table), "coassociativity", "X1")


def test_coalgebra_obstruction():
    # the transported comultiplication does not intertwine the obstruction
    # map; the first of its four failures is at X1, named with its own symbol
    w = first_witness(check_coalgebra_obstruction(
        dual_comultiplication()), "coalgebra obstruction", "X1")
    assert str(w) == (
        "coalgebra obstruction at X1: 1 (x) 1 + 1 (x) X2 + X2 (x) 1 "
        "+ X2 (x) X2 X1 + X1 X2 (x) X2 != 4 (x) 1 + 2 (x) X2 + 1 (x) X2 X1 "
        "+ 2 X2 (x) 1 + X2 (x) X2 X1 + X1 X2 (x) 1 + X1 X2 (x) X2")


def test_regular_module():
    space = Subspace("A", N2_BASIS)
    action = {w: left_mul_matrix(Element.from_word(THETA, w), space, space)
              for w in N2_BASIS}

    def zero_first(vec):
        return (Scalar(0),) + tuple(vec[1:])

    first_witness(check_regular_module(action, lambda a: a, zero_first,
                                       THETA),
                  "regular module", (T1, 0))


def test_regular_cross_symmetry():
    psi = CrossSymmetry.regular(ConjugatedPair(), "unit")

    def shifted(a):
        return a + Element.unit(a.system)

    w = first_witness(check_regular_cross_symmetry(psi, shifted,
                                                   lambda a: a, 2),
                      "regular cross symmetry", "X1 (x) T1")
    assert str(w) == ("regular cross symmetry at X1 (x) T1: 2 (x) 1 "
                      "- 1 (x) X1 - T1 (x) X1 != 1 (x) 1 + 1 (x) X1 "
                      "- T1 (x) X1")


def test_coherence():
    # the regular base with the unit vacuum fails the full law on splits
    # whose product rewrites; the first is the first pinned snapshot line
    verdict = check_coherence(CrossSymmetry.regular(ConjugatedPair(), "unit"),
                              2)
    w = first_witness(verdict, "law1[reduction]", "X1 (x) T1.T2 T1")
    assert str(w) == ("law1[reduction] at X1 (x) T1.T2 T1: T1 (x) X1 "
                      "- T1 T2 (x) 1 + T2 T1 (x) 1 != 1 (x) 1 - T1 (x) X1")
    assert verdict.checked == 170


def test_almost_bialgebra():
    gens = bialgebra_candidates()["e1=unit,e2=unit"]
    w = first_witness(check_almost_bialgebra(gens, "plain"),
                      "Delta(T1)^2 = 0", "plain")
    assert w.lhs == tensor_mul(gens[1], gens[1], "plain")
    assert w.rhs == TensorElement(THETA)


def test_representation(monkeypatch):
    # a word product with T1 T1 = T1 in place of ZERO is not associative:
    # the left law fails first at T1 T1 acting on T2, where T1 (T1 T2)
    # still rewrites to ZERO
    seam = rga.rewrite._Products.__missing__
    monkeypatch.setattr(rga.rewrite._Products, "__missing__",
                        lambda memo, key: key[0] if key == ((1,), (1,))
                        else seam(memo, key))
    verdict = check_representation(2, 2)
    w = first_witness(verdict, "left", (1, 1, Word((2,))))
    assert (w.lhs, w.rhs) == (ZERO, (1, 2))
    # two laws at each of the 2 * 2 generator pairs and 5 words
    assert verdict.checked == 40


# -- every checker answers with a Verdict -------------------------------------

# The checker that keeps its own answer type, with the benchmark line that
# reads its fields.
OWN_ANSWER = {
    # perfbench/workloads.py:550 reads locally_confluent, critical_pairs
    # and joinable
    "check_local_confluence": "ConfluenceReport",
}


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_checkers_return_no_bool_or_tuple(path):
    # every check_* is annotated `-> Verdict`, save the one named above
    bad = [f"{node.name} (line {node.lineno})"
           for node in ast.walk(_tree(path))
           if isinstance(node, ast.FunctionDef)
           and node.name.startswith("check_")
           and ast.unparse(node.returns or ast.Constant(None))
           != OWN_ANSWER.get(node.name, "Verdict")]
    assert not bad, f"{path.name}: checkers not answering a Verdict: {bad}"


def test_only_the_fold_builds_a_verdict():
    # every checker answers through `verdict_of`, which alone calls Verdict
    built = []
    for path in sorted(SRC.glob("*.py")):
        tree = _tree(path)
        fold = [range(node.lineno, node.end_lineno + 1)
                for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                and node.name == "verdict_of"]
        built += [(path.name, bool(fold) and node.lineno in fold[0])
                  for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and getattr(node.func, "id", getattr(node.func, "attr", ""))
                  == "Verdict"]
    assert built == [("algebra.py", True)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_only_reports_and_cli_print(path):
    # the library returns data; reports.py and cli.py turn it into text
    if path.name in ("reports.py", "cli.py"):
        return
    bad = [node.lineno for node in ast.walk(_tree(path))
           if isinstance(node, ast.FunctionDef) and node.name == "render"
           or isinstance(node, ast.Call)
           and isinstance(node.func, ast.Name) and node.func.id == "print"]
    assert not bad, f"{path.name} renders or prints at lines {bad}"

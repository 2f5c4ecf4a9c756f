from random import Random

import pytest

from rga.algebra import THETA, Element, N2_BASIS, mul, obstruction
from rga.rewrite import Word
from rga.scalar import ONE, Scalar
from rga.tensor import (BIALGEBRA_RELATIONS, SIGN_CONVENTIONS, XI,
                        TensorElement, bialgebra_candidates,
                        check_almost_bialgebra, check_coalgebra_obstruction,
                        check_coassociativity, check_dual_pairing_identity,
                        check_regular_module, dual_comultiplication,
                        element_tensor, pair, pair_tensor, pairing_matrix,
                        tensor_mul)

from helpers import module_action, rand_element, rand_scalar



def tensor(u, v, coeff=ONE):
    return TensorElement.single(THETA, u, v).scale(coeff)


def test_tensor_mul_componentwise():
    assert tensor_mul(tensor((1,), ()), tensor((), (1,))) == tensor((1,), (1,))


def test_koszul_sign():
    a = tensor((), (1,))
    b = tensor((2,), ())
    assert tensor_mul(a, b, "koszul") == tensor((2,), (1,), Scalar(-1))
    assert tensor_mul(a, b) == a * b == tensor((2,), (1,))


def test_nilpotent_square_both_conventions():
    for signs in SIGN_CONVENTIONS:
        d = tensor((1,), (1, 2)) + tensor((1, 2), (1,))
        assert tensor_mul(d, d, signs).is_zero()


def test_tensor_mul_associative():
    rng = Random(31)
    words = THETA.enumerate_normal_forms(2)

    def rand_tensor():
        terms = {}
        for _ in range(4):
            terms[(rng.choice(words), rng.choice(words))] = rand_scalar(rng)
        return TensorElement(THETA, terms)

    for signs in SIGN_CONVENTIONS:
        for _ in range(100):
            x, y, z = (rand_tensor() for _ in range(3))
            assert tensor_mul(tensor_mul(x, y, signs), z, signs) \
                == tensor_mul(x, tensor_mul(y, z, signs), signs)


def test_unknown_sign_convention_rejected():
    with pytest.raises(ValueError, match="unknown sign convention 'other'"):
        tensor_mul(tensor((1,), ()), tensor((1,), ()), "other")
    with pytest.raises(ValueError, match="unknown sign convention 'other'"):
        check_almost_bialgebra(bialgebra_candidates()["e1=unit,e2=unit"],
                               "other")


def test_element_tensor_bilinear():
    a = Element.generator(THETA, 1) + Element.unit(THETA)
    b = Element.generator(THETA, 2)
    t = element_tensor(a, b)
    assert t == tensor((1,), (2,)) + tensor((), (2,))


# -- pairing -------------------------------------------------------------------


def test_pairing_displayed_values():
    assert pair(Element.generator(XI, 1), Element.generator(THETA, 1)) == ONE
    assert pair(Element.generator(XI, 2), Element.generator(THETA, 2)) == ONE
    assert pair(Element.from_word(XI, (1, 2)),
                Element.from_word(THETA, (2, 1))) == ONE
    assert pair(Element.from_word(XI, (2, 1)),
                Element.from_word(THETA, (1, 2))) == ONE
    assert pair(Element.generator(XI, 1),
                Element.generator(THETA, 2)).is_zero()
    assert pair(Element.unit(XI), Element.unit(THETA)) == ONE


def test_pairing_matrix_is_permutation():
    m = pairing_matrix()
    assert m.nrows == m.ncols == 5
    assert m.is_invertible()
    for row in m.rows:
        assert sum(1 for x in row if not x.is_zero()) == 1
        assert all(x.is_zero() or x == ONE for x in row)


def test_pair_bilinear():
    rng = Random(32)
    for _ in range(100):
        x = rand_element(rng, XI)
        a = rand_element(rng, THETA)
        b = rand_element(rng, THETA)
        assert pair(x, a + b) == pair(x, a) + pair(x, b)


# -- dual comultiplication --------------------------------------------------------


def test_delta_unit():
    table = dual_comultiplication()
    assert table[Word(())] == TensorElement.unit(XI)


def test_delta_generator_value():
    table = dual_comultiplication()
    d1 = table[Word([1])]
    # <X1, T1 * T2T1> = <X1, T1> = 1 lands on X1 (x) X1X2
    assert d1.coeff(Word([1]), Word([1, 2])) == ONE
    expected = (TensorElement.single(XI, (), (1,))
                + TensorElement.single(XI, (1,), ())
                + TensorElement.single(XI, (1,), (1, 2))
                + TensorElement.single(XI, (2, 1), (1,)))
    assert d1 == expected


def test_delta_brute_force_table():
    # independent oracle: coefficient of u^ (x) v^ in Delta(w) must equal
    # <w, u v> for every one of the 125 triples
    table = dual_comultiplication()
    words = THETA.enumerate_normal_forms(2)
    for w in XI.enumerate_normal_forms(2):
        for u in words:
            for v in words:
                prod = mul(Element.from_word(THETA, u),
                           Element.from_word(THETA, v))
                want = pair(Element.from_word(XI, w), prod)
                got = table[w].coeff(u.reverse(), v.reverse())
                assert got == want


def test_delta_coassociative():
    assert check_coassociativity(dual_comultiplication()).ok


def test_delta_pairing_identity_conventions():
    table = dual_comultiplication()
    assert check_dual_pairing_identity(table, "straight").ok
    assert not check_dual_pairing_identity(table, "flip").ok


def test_delta_obstruction_law_verdict():
    # frozen verdict: the transported comultiplication does not intertwine
    # the obstruction map (documented discrepancy)
    v = check_coalgebra_obstruction(dual_comultiplication())
    assert not v.ok
    assert len(v.witnesses) == 4


def test_pair_tensor_conventions():
    t = element_tensor(Element.generator(XI, 1), Element.from_word(XI, (1, 2)))
    a = element_tensor(Element.generator(THETA, 1),
                       Element.from_word(THETA, (2, 1)))
    assert pair_tensor(t, a, "straight") == ONE
    assert pair_tensor(t, a, "flip").is_zero()


# -- almost bialgebra -------------------------------------------------------------


def test_bialgebra_candidates_shape():
    cands = bialgebra_candidates()
    assert set(cands) == {"e1=unit,e2=unit", "e1=unit,e2=idem",
                          "e1=idem,e2=unit", "e1=idem,e2=idem"}
    prim = cands["e1=unit,e2=unit"][1]
    assert prim == (TensorElement.single(THETA, (1,), ())
                    + TensorElement.single(THETA, (), (1,)))


def test_almost_bialgebra_table_frozen():
    # frozen verdicts: koszul signs fix the squares, nothing fixes the
    # cyclic relations
    squares, cyclic = BIALGEBRA_RELATIONS[:2], BIALGEBRA_RELATIONS[2:]

    def failed(gens, signs):
        verdict = check_almost_bialgebra(gens, signs)
        assert all(w.at == signs for w in verdict.witnesses)
        return {w.law for w in verdict.witnesses}

    cands = bialgebra_candidates()
    for name, gens in cands.items():
        plain = failed(gens, "plain")
        koszul = failed(gens, "koszul")
        assert koszul.isdisjoint(squares)
        assert plain.issuperset(cyclic)
        assert koszul.issuperset(cyclic)
    assert failed(cands["e1=idem,e2=idem"], "plain").isdisjoint(squares)
    assert failed(cands["e1=unit,e2=unit"], "plain").issuperset(squares)


def test_idem_interpretation_kills_cross_product():
    # Delta(T1) Delta(T2) = 0 under the idempotent reading, which is why
    # the cyclic relation cannot hold there
    gens = bialgebra_candidates()["e1=idem,e2=idem"]
    assert tensor_mul(gens[1], gens[2]).is_zero()


# -- regular module ---------------------------------------------------------------


def test_module_identity_maps_pass():
    action = module_action()
    v = check_regular_module(action, lambda a: a, lambda v: v, THETA)
    assert v.ok and not v.witnesses


def test_module_obstruction_verdict_frozen():
    action = module_action()

    def e_module(vec):
        e = obstruction(Element(THETA, dict(zip(N2_BASIS, vec))))
        return tuple(e.coeff(w) for w in N2_BASIS)

    v = check_regular_module(action, obstruction, e_module, THETA)
    assert not v.ok and len(v.witnesses) == 16


def test_module_perturbed_map_fails():
    # zeroing one coordinate does not commute with left multiplication
    action = module_action()

    def perturbed(vec):
        return (Scalar(0),) + tuple(vec[1:])

    v = check_regular_module(action, lambda a: a, perturbed, THETA)
    assert not v.ok

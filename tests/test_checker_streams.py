"""The four basis-law checkers that build each basis value once per call,
against the per-instance loops they replaced (`helpers`): the same verdict,
so the same witnesses in the same order with the same sides, and the same
`checked`; and how often each checker calls the maps it is handed."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rga.algebra import N2_BASIS, THETA, Element, obstruction
from rga.linalg import Matrix
from rga.scalar import Scalar
from rga.tensor import (XI, TensorElement, check_dual_pairing_identity,
                        check_regular_module, dual_comultiplication)
import rga.wick
from rga.wick import (ConjugatedPair, CrossSymmetry, WickElement,
                      check_coherence, check_regular_cross_symmetry, wick_mul)

from helpers import (MAPS, coherence_verdict_reference,
                     cross_symmetry_verdict_reference, identity,
                     module_action, pairing_verdict_reference,
                     regular_module_reference)

PAIR = ConjugatedPair()
PSIS = (CrossSymmetry.flip(PAIR), CrossSymmetry.regular(PAIR, "unit"),
        CrossSymmetry.regular(PAIR, "idem"))
DEGREES = (0, 1, 2, 3)


def coeffs_obstruction(vec):
    """The obstruction map on module coefficient vectors (M = A)."""
    e = obstruction(Element(THETA, dict(zip(N2_BASIS, vec))))
    return tuple(e.coeff(w) for w in N2_BASIS)


def zero_first(vec):
    return (Scalar(0),) + tuple(vec[1:])


MODULE_MAPS = (identity, coeffs_obstruction, zero_first)


# -- regular module ----------------------------------------------------------


@pytest.mark.parametrize("e_algebra, e_module", [
    (identity, identity), (obstruction, coeffs_obstruction),
    (identity, zero_first)], ids=["identity", "obstruction", "perturbed"])
def test_module_verdict_matches_reference(e_algebra, e_module):
    action = module_action()
    assert check_regular_module(action, e_algebra, e_module, THETA) \
        == regular_module_reference(action, e_algebra, e_module, THETA)


rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
scalars = st.builds(Scalar, rationals, rationals)
# unit triangular factors, so every drawn base change is invertible
triangles = st.lists(scalars, min_size=10, max_size=10)


def unit_triangle(entries, lower):
    """The 5x5 matrix with ones on its diagonal and `entries` below it (or
    above it), so it is invertible."""
    below = iter(entries)
    m = Matrix([[Scalar(1) if i == j else next(below) if i > j
                 else Scalar(0) for j in range(5)] for i in range(5)])
    return m if lower else m.transpose()


@settings(max_examples=25, deadline=None)
@given(triangles, triangles, st.sampled_from(MAPS), scalars,
       st.sampled_from(MODULE_MAPS))
def test_conjugated_module_verdict_matches_reference(low, up, f, c,
                                                     e_module):
    g = unit_triangle(low, True) * unit_triangle(up, False)
    g_inv = g.inverse()
    action = {w: g * m * g_inv for w, m in module_action().items()}

    def e_algebra(a):
        # a multiple of a drawn map, so its images have w-parts too
        return f(a).scale(c)

    assert check_regular_module(action, e_algebra, e_module, THETA) \
        == regular_module_reference(action, e_algebra, e_module, THETA)


# -- cross symmetries ----------------------------------------------------------


@pytest.mark.parametrize("max_deg", DEGREES)
@pytest.mark.parametrize("psi", PSIS, ids=lambda p: p.label)
def test_cross_symmetry_verdict_matches_reference(psi, max_deg):
    for e_theta in MAPS:
        for e_xi in MAPS:
            assert check_regular_cross_symmetry(psi, e_theta, e_xi, max_deg) \
                == cross_symmetry_verdict_reference(psi, e_theta, e_xi,
                                                    max_deg)


@pytest.mark.parametrize("max_deg", DEGREES)
@pytest.mark.parametrize("psi", PSIS, ids=lambda p: p.label)
def test_coherence_verdict_matches_reference(psi, max_deg):
    assert check_coherence(psi, max_deg) \
        == coherence_verdict_reference(psi, max_deg)


# -- pairing transport ----------------------------------------------------------


def changed_tables():
    """The transported table, and that table with one Delta(w) zeroed or
    doubled."""
    table = dual_comultiplication()
    yield "as transported", table
    for w in XI.enumerate_normal_forms(2):
        name = w.to_text("X")
        yield f"{name} zeroed", {**table, w: TensorElement(XI)}
        yield f"{name} doubled", {**table, w: table[w].scale(2)}


TABLES = dict(changed_tables())


@pytest.mark.parametrize("convention", ("straight", "flip"))
@pytest.mark.parametrize("table", TABLES.values(), ids=TABLES.keys())
def test_pairing_verdict_matches_reference(table, convention):
    assert check_dual_pairing_identity(table, convention) \
        == pairing_verdict_reference(table, convention)


# -- each basis value built once --------------------------------------------------


def counted(f, calls, name):
    def g(x):
        calls[name] += 1
        return f(x)
    return g


def test_module_maps_run_once_per_basis_element():
    action = module_action()  # five words on a five-dimensional module
    calls = Counter()
    check_regular_module(action, counted(obstruction, calls, "e_A"),
                         counted(coeffs_obstruction, calls, "e_M"), THETA)
    # e_A once per word; e_M once per basis vector, once per instance
    assert calls == {"e_A": 5, "e_M": 5 + 25}
    calls.clear()
    regular_module_reference(action, counted(obstruction, calls, "e_A"),
                             counted(coeffs_obstruction, calls, "e_M"), THETA)
    assert calls == {"e_A": 25, "e_M": 50}


@pytest.mark.parametrize("psi", PSIS, ids=lambda p: p.label)
def test_cross_symmetry_maps_run_once_per_single(psi):
    calls, before = Counter(), Counter()
    check_regular_cross_symmetry(psi, counted(obstruction, calls, "e_A"),
                                 counted(obstruction, calls, "e_Ad"), 2)
    cross_symmetry_verdict_reference(
        psi, counted(obstruction, before, "e_A"),
        counted(obstruction, before, "e_Ad"), 2)
    # the 25 word pairs map their singles once per word: 5 of each side
    assert calls == before - Counter({"e_A": 20, "e_Ad": 20})
    assert max(calls.values()) <= 52



@pytest.mark.parametrize("vacuum", ["unit", "idem"])
def test_coherence_groups_each_peeled_value_once(vacuum, monkeypatch):
    grouped, sides = rga.wick._grouped, []
    monkeypatch.setattr(rga.wick, "_grouped",
                        lambda x, side: sides.append(side) or grouped(x, side))
    verdict = check_coherence(CrossSymmetry.regular(PAIR, vacuum), 2)
    # one grouping per (word pair, side) a peel asks for; 172 when each
    # peel grouped its value again
    assert len(sides) <= 40
    monkeypatch.undo()
    assert verdict == coherence_verdict_reference(
        CrossSymmetry.regular(PAIR, vacuum), 2)


@pytest.mark.parametrize("psi", PSIS, ids=lambda p: p.label)
def test_peels_are_wick_products(psi):
    fresh = CrossSymmetry(PAIR, psi.base, psi.label)
    thetas = PAIR.theta.enumerate_normal_forms(2)
    xis = PAIR.xi.enumerate_normal_forms(2)
    for _ in range(2):  # the second pass reads the kept groupings
        for xi in xis:
            for u in thetas[1:]:
                for v in thetas[1:]:
                    assert fresh._peel_theta(xi, u, v) == wick_mul(
                        fresh.apply(xi, u), WickElement.single(PAIR, v, ()),
                        fresh)
        for x in xis[1:]:
            for y in xis[1:]:
                for theta in thetas:
                    assert fresh._peel_xi(x, y, theta) == wick_mul(
                        WickElement.single(PAIR, (), x),
                        fresh.apply(y, theta), fresh)

import json
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from rga.algebra import Subspace
from rga.category import (ChainTypeError, Cocycle, DegeneratePairingError,
                          LinearMap, MatrixFunctor,
                          check_cocycle_morphism, check_duality_identity,
                          check_natural_transformation,
                          check_obstructed_functor, check_regular_cocycle,
                          check_tensor_obstruction, cocycle_from_algebra,
                          cocycle_from_json, cocycle_to_json, dual_cocycle,
                          module_from_json, obstruction_of, obstruction_order)
from rga.linalg import Matrix
from rga.rewrite import RewriteSystem, require_size
from rga.scalar import Scalar

from helpers import (cocycle_from_algebra_reference, loop_lifting_functor,
                     rand_scalar)

SWAP = Matrix([[0, 1], [1, 0]])


def algebra_cocycle():
    c, pruned = cocycle_from_algebra(RewriteSystem(2), 2)
    assert not pruned
    return c


def one_dim_cocycle(a, b):
    x1 = Subspace("X1", ("u",))
    x2 = Subspace("X2", ("v",))
    return Cocycle([x1, x2], [LinearMap(x1, x2, Matrix([[a]])),
                              LinearMap(x2, x1, Matrix([[b]]))])


def obstructed_example():
    y1 = Subspace("Y1", ("p",))
    y2 = Subspace("Y2", ("q", "r"))
    psi1 = LinearMap(y1, y2, Matrix([[1], [0]]))
    psi2 = LinearMap(y2, y1, Matrix([[1, 0]]))
    return Cocycle([y1, y2], [psi1, psi2])


def test_algebra_cocycle_is_swap_pair():
    c = algebra_cocycle()
    assert [m.matrix for m in c.maps] == [SWAP, SWAP]
    assert check_regular_cocycle(c).ok


def test_identity_cocycle_regular():
    c = one_dim_cocycle(1, 1)
    assert check_regular_cocycle(c).ok
    assert repr(c) == "Cocycle(X1 -> X2 -> X1)"


def test_zero_one_cocycle_fails_at_two():
    v = check_regular_cocycle(one_dim_cocycle(0, 1))
    assert not v.ok and v.witnesses[0].at == 2


def chain(dims, entry):
    """A cyclic chain between spaces of the given dims (0 allowed) whose
    matrix entries are drawn by calling `entry()`."""
    spaces = [Subspace(f"X{i + 1}", tuple(f"b{j}" for j in range(d)))
              for i, d in enumerate(dims)]
    maps = []
    for s, t in zip(spaces, spaces[1:] + spaces[:1]):
        rows = [[entry() for _ in s.basis] for _ in t.basis]
        matrix = Matrix(rows) if rows else Matrix.from_columns([()] * s.dim)
        maps.append(LinearMap(s, t, matrix))
    return Cocycle(spaces, maps)


def random_chain(rng, dims):
    """A cyclic chain of random maps between spaces of the given dims (not
    regular in general)."""
    return chain(dims, lambda: rand_scalar(rng, 3))


def fold(c, start):
    """The cycle composite at `start`, one left fold of n - 1 products."""
    n = c.order
    out = c.maps[start % n]
    for k in range(1, n):
        out = c.maps[(start + k) % n].compose(out)
    return out


def test_cycle_composite_is_the_fold_at_every_start():
    c = random_chain(Random(31), [2, 3, 1, 2])
    n = c.order
    for i in range(-n, 2 * n):
        assert c.cycle_composite(i) == fold(c, i)
        assert c.cycle_composite(i) == c.cycle_composite(i + n)


coordinates = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
entries = st.builds(Scalar, coordinates, coordinates)


@st.composite
def chains(draw):
    dims = draw(st.lists(st.integers(0, 3), min_size=1, max_size=5))
    return chain(dims, lambda: draw(entries))


@settings(max_examples=60, deadline=None)
@given(chains(), st.data())
def test_cycle_composite_is_the_fold_whichever_start_comes_first(c, data):
    n = c.order
    first = data.draw(st.integers(-n, 2 * n - 1), label="first start")
    for i in [first, *range(-n, 2 * n)]:
        assert c.cycle_composite(i) == fold(c, i)


@pytest.fixture
def composes(monkeypatch):
    """Every (self, other) pair LinearMap.compose multiplies while the
    test runs."""
    calls = []
    compose = LinearMap.compose

    def spy(self, other):
        calls.append((self, other))
        return compose(self, other)

    monkeypatch.setattr(LinearMap, "compose", spy)
    return calls


@pytest.mark.parametrize("n", range(1, 6))
def test_composites_share_prefix_and_suffix_products(composes, n):
    # 3n - 4 products for all n composites (none at n = 1), not n(n - 1)
    budget = 3 * n - 4 if n > 1 else 0
    for first in range(n):
        c = random_chain(Random(n), [1 + k % 3 for k in range(n)])
        composes.clear()
        c.cycle_composite(first)
        assert len(composes) == budget
        for i in range(n):
            c.cycle_composite(i)
        assert len(composes) == budget


def test_cocycle_stays_immutable():
    c = algebra_cocycle()
    c.cycle_composite(0)
    for name in ("maps", "spaces", "_composites", "other"):
        with pytest.raises(AttributeError):
            setattr(c, name, None)


def test_doubled_chain_fails_after_composites_of_the_original_were_used():
    c = algebra_cocycle()
    assert check_regular_cocycle(c).ok
    first = c.maps[0]
    doubled = Cocycle(c.spaces, [LinearMap(first.domain, first.codomain,
                                           first.matrix.scale(2))]
                      + list(c.maps[1:]))
    v = check_regular_cocycle(doubled)
    assert not v.ok and v.witnesses[0].at == 1
    assert check_regular_cocycle(c).ok


def test_chain_type_error():
    x1 = Subspace("X1", ("u",))
    x2 = Subspace("X2", ("v", "w"))
    with pytest.raises(ChainTypeError,
                       match="^map 0 does not end at space 1$"):
        Cocycle([x1, x2], [LinearMap(x1, x1, Matrix([[1]])),
                           LinearMap(x2, x1, Matrix([[1, 0]]))])


def test_obstructions_identity_for_algebra_cocycle():
    c = algebra_cocycle()
    for i in range(2):
        assert obstruction_of(c, i).is_identity()
    assert obstruction_order([c]) is None


def test_obstruction_idempotent_and_order():
    c = obstructed_example()
    assert check_regular_cocycle(c).ok
    e = obstruction_of(c, 1)
    assert not e.is_identity()
    assert e.map.compose(e.map) == e.map
    assert e.map.matrix == Matrix([[1, 0], [0, 0]])
    assert obstruction_order([algebra_cocycle(), c]) == 2
    assert obstruction_order([]) is None


def test_obstruction_of_refuses_irregular():
    with pytest.raises(ChainTypeError):
        obstruction_of(one_dim_cocycle(0, 1), 0)


def test_cocycle_morphism_identity():
    c = algebra_cocycle()
    ident = [LinearMap.identity(s) for s in c.spaces]
    v = check_cocycle_morphism(ident, c, c)
    assert v.ok and not v.witnesses


def test_cocycle_morphism_violation():
    c = algebra_cocycle()
    bad = [LinearMap.identity(c.spaces[0]),
           LinearMap(c.spaces[1], c.spaces[1], Matrix([[2, 0], [0, 1]]))]
    v = check_cocycle_morphism(bad, c, c)
    assert not v.ok and v.witnesses[0].law == "square"
    assert v.witnesses[0].at in (1, 2)


def test_cocycle_morphism_with_distinct_components_on_three_spaces():
    # each square alpha_{i+1} . psi_i = phi_i . alpha_i holds only with the
    # component at the codomain of psi_i: 2 = 2 . 1, 4 = 2 . 2, 1 = 4 / 4
    c = chain([1, 1, 1], lambda: 1)
    d = Cocycle(c.spaces, [LinearMap(m.domain, m.codomain, Matrix([[x]]))
                           for m, x in zip(c.maps, (2, 2, Fraction(1, 4)))])
    alpha = [LinearMap(s, s, Matrix([[x]]))
             for s, x in zip(c.spaces, (1, 2, 4))]
    v = check_cocycle_morphism(alpha, c, d)
    assert v.ok and v.checked == 4


def test_swap_conjugation_is_cocycle_morphism():
    # conjugating both spaces by the swap maps the chain to itself
    c = algebra_cocycle()
    alpha = [LinearMap(s, s, SWAP) for s in c.spaces]
    assert check_cocycle_morphism(alpha, c, c).ok


def test_identity_functor():
    assert check_obstructed_functor(MatrixFunctor.identity(),
                                    [algebra_cocycle(),
                                     obstructed_example()]).ok


def rand_invertible(rng, dim):
    while True:
        m = Matrix([[rand_scalar(rng, 3) for _ in range(dim)]
                    for _ in range(dim)])
        if m.is_invertible():
            return m


def test_base_change_functor():
    rng = Random(21)
    for source in (algebra_cocycle(), obstructed_example()):
        change = {s.label: rand_invertible(rng, s.dim)
                  for s in source.spaces}
        f = MatrixFunctor.base_change(change)
        v = check_obstructed_functor(f, [source])
        assert v.ok and v.images_regular and v.obstruction_preserved


def test_functor_maps_each_generator_once():
    source = obstructed_example()
    seen = []

    def on_map(m: LinearMap) -> LinearMap:
        seen.append(m)
        return m

    functor = MatrixFunctor(on_map)
    assert check_obstructed_functor(functor, [source]).ok
    gens = list(source.maps) + [source.cycle_composite(i)
                                for i in range(source.order)]
    assert [sum(m is g for m in seen) for g in gens] == [1] * len(gens)
    # and every other distinct morphism once: psi . e_X is psi again
    assert len(seen) == len(set(seen))


def test_base_change_maps_each_distinct_morphism_once():
    source, _ = cocycle_from_algebra(RewriteSystem(3), 3)
    rng = Random(5)
    base = MatrixFunctor.base_change(
        {s.label: rand_invertible(rng, s.dim) for s in source.spaces})
    seen = []

    def counted(m: LinearMap) -> LinearMap:
        seen.append(m)
        return base.morphism_map(m)

    assert check_obstructed_functor(MatrixFunctor(counted), [source]).ok
    gens = list(source.maps) + [source.cycle_composite(i)
                                for i in range(source.order)]
    assert set(gens) <= set(seen) and len(seen) == len(set(seen))


def test_functor_image_is_regular_cocycle():
    # the lemma: images of regular cocycles are regular
    source = obstructed_example()
    change = {"Y1": Matrix([[2]]), "Y2": Matrix([[1, 1], [0, 1]])}
    f = MatrixFunctor.base_change(change)
    image = Cocycle(source.spaces, [f(m) for m in source.maps])
    assert check_regular_cocycle(image).ok


def test_singular_base_change_rejected():
    change = {"Y1": Matrix([[2]]), "Y2": Matrix([[1, 1], [2, 2]])}
    with pytest.raises(DegeneratePairingError,
                       match="^base change at Y2 is singular$"):
        MatrixFunctor.base_change(change)


def test_functor_breaking_obstruction_detected():
    # doubling every morphism breaks composition (F(g.f) = 2 g f while
    # F(g)F(f) = 4 g f), sends the obstruction 2 e to no obstruction 4 e,
    # and leaves an image chain that is not regular
    c = obstructed_example()

    def double(m: LinearMap) -> LinearMap:
        return LinearMap(m.domain, m.codomain, m.matrix.scale(2))

    verdict = check_obstructed_functor(MatrixFunctor(double), [c])
    # every composable pair (f, g), by generator names, g by g
    assert [(w.law, w.at) for w in verdict.witnesses] == [
        ("composition", pair) for pair in [
            ("psi2", "psi1"), ("e1", "psi1"), ("psi1", "psi2"),
            ("e2", "psi2"), ("psi2", "e1"), ("e1", "e1"), ("psi1", "e2"),
            ("e2", "e2")]] + [("obstruction", 1), ("obstruction", 2),
                              ("regularity", 1), ("regularity", 2)]
    assert not (verdict.composition_ok or verdict.obstruction_preserved
                or verdict.images_regular or verdict)


def test_functor_that_composes_but_moves_an_obstruction():
    c, lift_loop = loop_lifting_functor()
    verdict = check_obstructed_functor(MatrixFunctor(lift_loop), [c])
    assert verdict.composition_ok and not verdict.obstruction_preserved
    assert not verdict.ok and bool(verdict) is False


def test_natural_transformation_identity_components():
    c = algebra_cocycle()
    f = MatrixFunctor.identity()
    comps = {s.label: LinearMap.identity(s) for s in c.spaces}
    assert check_natural_transformation(comps, f, f, list(c.maps)).ok


def test_natural_transformation_obstruction_components():
    # s_X = e_X is natural from the identity functor to itself on a
    # regular cocycle
    c = obstructed_example()
    f = MatrixFunctor.identity()
    comps = {s.label: c.cycle_composite(i) for i, s in enumerate(c.spaces)}
    assert check_natural_transformation(comps, f, f, list(c.maps)).ok


def test_natural_transformation_scaled_component_fails():
    c = obstructed_example()
    f = MatrixFunctor.identity()
    comps = {s.label: LinearMap.identity(s) for s in c.spaces}
    comps["Y2"] = LinearMap(c.spaces[1], c.spaces[1],
                            Matrix([[2, 0], [0, 2]]))
    assert not check_natural_transformation(comps, f, f, list(c.maps)).ok


def test_tensor_obstruction():
    e_x = Matrix([[1, 0], [0, 0]])
    e_y = Matrix.identity(2)
    expected = Matrix([[1, 0, 0, 0], [0, 1, 0, 0],
                       [0, 0, 0, 0], [0, 0, 0, 0]])
    assert check_tensor_obstruction(e_x, e_y, expected).ok
    assert not check_tensor_obstruction(e_x, e_y, Matrix.identity(4)).ok
    with pytest.raises(ValueError):
        check_tensor_obstruction(e_x, e_y, Matrix.identity(3))


def test_identity_tensor_obstruction():
    assert check_tensor_obstruction(Matrix.identity(2), Matrix.identity(3),
                                    Matrix.identity(6)).ok


# -- duality ---------------------------------------------------------------------


def test_dual_of_algebra_cocycle_with_unit_pairings():
    c = algebra_cocycle()
    pairings = {s.label: Matrix.identity(s.dim) for s in c.spaces}
    d = dual_cocycle(c, pairings)
    assert [m.matrix for m in d.maps] == [SWAP, SWAP]
    assert check_regular_cocycle(d).ok
    assert check_duality_identity(c, d, pairings).ok


def test_dual_of_identity_cocycle():
    c = one_dim_cocycle(1, 1)
    pairings = {"X1": Matrix([[3]]), "X2": Matrix([[5]])}
    d = dual_cocycle(c, pairings)
    assert check_regular_cocycle(d).ok
    assert check_duality_identity(c, d, pairings).ok


def test_dual_random_pairings():
    rng = Random(23)

    def rand_invertible(dim):
        while True:
            m = Matrix([[rand_scalar(rng, 3) for _ in range(dim)]
                        for _ in range(dim)])
            if m.is_invertible():
                return m

    for source in (algebra_cocycle(), obstructed_example()):
        for _ in range(10):
            pairings = {s.label: rand_invertible(s.dim)
                        for s in source.spaces}
            d = dual_cocycle(source, pairings)
            assert check_regular_cocycle(d).ok
            assert check_duality_identity(source, d, pairings).ok


def test_degenerate_pairing_rejected():
    c = one_dim_cocycle(1, 1)
    with pytest.raises(DegeneratePairingError,
                       match="^pairing at X1 is singular$"):
        dual_cocycle(c, {"X1": Matrix([[0]]), "X2": Matrix([[1]])})


# -- truncated construction and JSON ----------------------------------------------


def test_cocycle_from_algebra_n3():
    c, pruned = cocycle_from_algebra(RewriteSystem(3), 4)
    assert check_regular_cocycle(c).ok
    assert [s.dim for s in c.spaces] == [6, 6, 6]
    assert len(pruned) > 0  # truncation is reported, not hidden


@pytest.mark.parametrize("n,max_deg",
                         [(n, d) for n in range(2, 6) for d in range(7)])
def test_cocycle_pruning_matches_reference(n, max_deg):
    require_size(n, max_deg)  # every case is within the enumeration ceiling
    c, pruned = cocycle_from_algebra(RewriteSystem(n), max_deg)
    want, want_pruned = cocycle_from_algebra_reference(RewriteSystem(n),
                                                       max_deg)
    assert pruned == want_pruned
    assert [s.dim for s in c.spaces] == [s.dim for s in want.spaces]
    assert c.spaces == want.spaces and c.maps == want.maps


def test_cocycle_from_algebra_rejects_n1():
    with pytest.raises(ValueError):
        cocycle_from_algebra(RewriteSystem(1), 2)


def test_json_round_trip():
    c = algebra_cocycle()
    pairings = {s.label: Matrix.identity(s.dim) for s in c.spaces}
    doc = cocycle_to_json(c, pairings)
    text = json.dumps(doc)
    c2, p2 = cocycle_from_json(json.loads(text))
    assert [m.matrix for m in c2.maps] == [m.matrix for m in c.maps]
    assert [s.label for s in c2.spaces] == [s.label for s in c.spaces]
    assert p2 == pairings
    # and scalar entries keep exact values through the text form
    assert json.loads(text)["maps"][0]["matrix"][0] == ["0", "1"]


def test_json_scalar_entries_exact():
    x1 = Subspace("X1", ("u",))
    m = LinearMap(x1, x1, Matrix([[Scalar(1, -2)]]))
    c = Cocycle([x1], [m])
    doc = cocycle_to_json(c)
    c2, _ = cocycle_from_json(doc)
    assert c2.maps[0].matrix == m.matrix
    assert doc["maps"][0]["matrix"] == [["1-2*w"]]


def test_json_cycle_through_three_spaces():
    # each map runs from a space to the next one listed
    doc = {"spaces": [{"name": f"X{i}", "basis": ["u"]} for i in (1, 2, 3)],
           "maps": [{"from": f"X{i}", "to": f"X{i % 3 + 1}",
                     "matrix": [["1"]]} for i in (1, 2, 3)]}
    c, pairings = cocycle_from_json(doc)
    assert repr(c) == "Cocycle(X1 -> X2 -> X3 -> X1)"
    assert pairings is None


def test_module_document_without_n_is_over_two_generators():
    action, _, _, system = module_from_json(
        {"module_dim": 1, "action": {"1": [["1"]]}})
    assert system.n == 2
    assert list(action.values()) == [Matrix([[1]])]

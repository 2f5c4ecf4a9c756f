"""The deliberate oracles fire: each self-check re-verifies a closed form
by an independent computation, so each is broken here through
`monkeypatch` and must raise SelfCheckError, not return a wrong answer."""

import pytest

import rga.algebra
import rga.category
from rga.algebra import (Element, Subspace, find_idempotent_obstructions,
                         invert, invert_by_solve, obstructed_product,
                         verdict_of)
from rga.category import Cocycle, LinearMap, obstruction_of
from rga.linalg import Matrix
from rga.rewrite import RewriteSystem, SelfCheckError
from rga.scalar import ONE

S2 = RewriteSystem(2)


@pytest.fixture
def skewed_mul(monkeypatch):
    """A product that adds its left factor: wrong, so every oracle built
    on the product disagrees with its closed form."""
    mul = rga.algebra.mul
    monkeypatch.setattr(rga.algebra, "mul", lambda a, b: mul(a, b) + a)


def test_inverse_self_check(skewed_mul):
    with pytest.raises(SelfCheckError, match="^closed-form inverse failed "
                                             "self-check$"):
        invert(Element.from_coeffs(S2, (1, 1, 0, 0, 0)))


def test_solved_inverse_self_check(monkeypatch):
    # a solve that answers its right-hand side, the unit, as the inverse
    monkeypatch.setattr(Matrix, "solve", lambda m, rhs: tuple(rhs))
    with pytest.raises(SelfCheckError, match="^solved inverse failed "
                                             "self-check$"):
        invert_by_solve(Element.from_coeffs(S2, (1, 1, 0, 0, 0)))


def test_obstruction_intertwining_self_check(skewed_mul):
    a = Element.generator(S2, 1)
    with pytest.raises(SelfCheckError,
                       match="^obstruction intertwining failed$"):
        obstructed_product(a, a)


def test_idempotent_root_self_check(monkeypatch):
    monkeypatch.setattr(rga.algebra, "OMEGA", ONE)
    with pytest.raises(SelfCheckError,
                       match=r"^1 is not a root of g\*\*2 \+ g \+ 1$"):
        find_idempotent_obstructions()


def test_idempotency_self_check(skewed_mul):
    with pytest.raises(SelfCheckError,
                       match="^candidate failed the idempotency check$"):
        find_idempotent_obstructions()


def test_obstruction_idempotency_self_check(monkeypatch):
    # a chain whose round trip is 2, passed off as regular
    monkeypatch.setattr(rga.category, "check_regular_cocycle",
                        lambda c: verdict_of(()))
    x = Subspace("X", ("x",))
    c = Cocycle([x], [LinearMap(x, x, Matrix([[2]]))])
    with pytest.raises(SelfCheckError, match="^obstruction of a regular "
                                             "cocycle must be idempotent$"):
        obstruction_of(c, 0)

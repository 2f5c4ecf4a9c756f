from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from rga.linalg import Matrix
from rga.scalar import Scalar

from helpers import rand_scalar


def rand_matrix(rng, rows, cols):
    return Matrix([[rand_scalar(rng, 3) for _ in range(cols)]
                   for _ in range(rows)])


def test_mul_and_identity():
    rng = Random(5)
    for _ in range(30):
        a = rand_matrix(rng, 3, 4)
        assert Matrix.identity(3) * a == a
        assert a * Matrix.identity(4) == a


def test_inverse_random():
    rng = Random(6)
    done = 0
    while done < 25:
        m = rand_matrix(rng, 3, 3)
        if not m.is_invertible():
            continue
        done += 1
        assert m * m.inverse() == Matrix.identity(3)
        assert m.inverse() * m == Matrix.identity(3)


def test_singular_inverse_raises():
    m = Matrix([[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        m.inverse()


def test_solve():
    m = Matrix([[2, 1], [1, 1]])
    x = m.solve([3, 2])
    assert m.apply(x) == (Scalar(3), Scalar(2))
    with pytest.raises(ValueError):
        Matrix([[1, 1], [1, 1]]).solve([1, 0])  # inconsistent
    with pytest.raises(ValueError):
        Matrix([[1, 1]]).solve([1])  # underdetermined


def test_nullspace():
    m = Matrix([[1, 0, -1], [0, 1, 2]])
    basis = m.nullspace()
    assert len(basis) == 1
    assert m.apply(basis[0]) == (Scalar(0), Scalar(0))
    assert m.rank() == 2


def test_rank_nullity():
    rng = Random(7)
    for _ in range(30):
        m = rand_matrix(rng, 3, 5)
        assert m.rank() + len(m.nullspace()) == 5
        for v in m.nullspace():
            assert all(x.is_zero() for x in m.apply(v))


def test_kron():
    a = Matrix([[1, 0], [0, 0]])
    b = Matrix.identity(2)
    k = a.kron(b)
    assert k.nrows == 4
    assert k == Matrix([[1, 0, 0, 0], [0, 1, 0, 0],
                        [0, 0, 0, 0], [0, 0, 0, 0]])


def test_transpose_of_product():
    rng = Random(8)
    a = rand_matrix(rng, 2, 3)
    b = rand_matrix(rng, 3, 2)
    assert (a * b).transpose() == b.transpose() * a.transpose()


# -- the integer product kernel against Scalar-by-Scalar arithmetic ---------------

def scalar_dot(xs, ys):
    return sum((x * y for x, y in zip(xs, ys)), Scalar(0))


denominators = st.sampled_from([1, 2, 3, 4, 6, 9])
coordinates = st.builds(Fraction, st.integers(-50, 50), denominators)
nonzero = st.builds(Fraction, st.integers(1, 50) | st.integers(-50, -1),
                    denominators)
entries = st.one_of(st.just(Scalar(0)), st.builds(Scalar, coordinates),
                    st.builds(Scalar, coordinates, coordinates),
                    st.builds(Scalar, nonzero, nonzero))


@st.composite
def matrices(draw, nrows, ncols):
    """nrows x ncols matrices, some rows and columns all zero."""
    rows = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    for i in draw(st.sets(st.integers(0, nrows - 1), max_size=2)):
        rows[i] = [Scalar(0)] * ncols
    for j in draw(st.sets(st.integers(0, ncols - 1), max_size=2)):
        for row in rows:
            row[j] = Scalar(0)
    return Matrix(rows)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_product_matches_scalar_arithmetic(data):
    m, k, n = (data.draw(st.integers(1, 6)) for _ in range(3))
    a, b = data.draw(matrices(m, k)), data.draw(matrices(k, n))
    vec = data.draw(st.lists(entries, min_size=k, max_size=k))
    ab = a * b
    assert ab.rows == tuple(tuple(scalar_dot(row, col)
                                  for col in zip(*b.rows)) for row in a.rows)
    assert (ab.nrows, ab.ncols) == (m, n)
    assert ab == Matrix(ab.rows) and hash(ab) == hash(Matrix(ab.rows))
    assert a.apply(vec) == tuple(scalar_dot(row, vec) for row in a.rows)

from fractions import Fraction
from math import gcd
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import rga.linalg
from rga.linalg import Matrix, _quotients
from rga.rewrite import SelfCheckError
from rga.scalar import OMEGA, Scalar, _conjugate, _times

from helpers import (inverse_reference, nullspace_reference, rand_scalar,
                     rref_reference, solve_reference)


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
def scalar_rows(draw, nrows, ncols):
    """nrows x ncols lists of Scalars, some rows and columns all zero."""
    rows = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    if nrows:
        for i in draw(st.sets(st.integers(0, nrows - 1), max_size=2)):
            rows[i] = [Scalar(0)] * ncols
    if ncols:
        for j in draw(st.sets(st.integers(0, ncols - 1), max_size=2)):
            for row in rows:
                row[j] = Scalar(0)
    return rows


def matrices(nrows, ncols):
    return scalar_rows(nrows, ncols).map(Matrix)


def matrix_of(rows, ncols):
    """The Matrix of `rows`, ncols wide even when there are no rows."""
    return Matrix(rows) if rows else Matrix.from_columns([()] * ncols)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_product_matches_scalar_arithmetic(data):
    m, k, n = (data.draw(st.integers(1, 6)) for _ in range(3))
    # the unit law returns the other factor: an identity on the left, the
    # right or both sides must still agree with the dot products
    unit = data.draw(st.sampled_from([(), ("left",), ("right",),
                                      ("left", "right")]))
    m, n = (k if "left" in unit else m), (k if "right" in unit else n)
    a, b = data.draw(matrices(m, k)), data.draw(matrices(k, n))
    a = Matrix.identity(k) if "left" in unit else a
    b = Matrix.identity(k) if "right" in unit else b
    # a factor without w parts takes fewer dot products
    a, b = (Matrix([[Scalar(x.a) for x in r] for r in f.rows])
            if data.draw(st.booleans()) else f for f in (a, b))
    vec = data.draw(st.lists(entries, min_size=k, max_size=k))
    ab = a * b
    assert ab.rows == tuple(tuple(scalar_dot(row, col)
                                  for col in zip(*b.rows)) for row in a.rows)
    assert (ab.nrows, ab.ncols) == (m, n)
    assert ab == Matrix(ab.rows) and hash(ab) == hash(Matrix(ab.rows))
    assert a.apply(vec) == tuple(scalar_dot(row, vec) for row in a.rows)


def test_identity_factor_runs_no_kernel(monkeypatch):
    def refuse(*args):
        raise AssertionError("kernel product with an identity factor")

    rng = Random(9)
    a = rand_matrix(rng, 3, 4)
    monkeypatch.setattr(rga.linalg, "_products", refuse)
    assert Matrix.identity(3) * a is a and a * Matrix.identity(4) is a
    assert Matrix.identity(2) * Matrix.identity(2) == Matrix.identity(2)
    with pytest.raises(AssertionError, match="kernel product"):
        a * a.transpose()


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_entry_is_the_row_entry(data):
    m, n = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    a = data.draw(matrices(m, n))
    rows = a.rows
    assert all(a[i, j] == rows[i][j] and type(a[i, j]) is Scalar
               for i in range(m) for j in range(n))


# -- the fraction-free elimination against Scalar elimination ---------------


@st.composite
def systems(draw, square=False):
    """(rows, ncols): up to 7 x 7, with k x 0 and 0 x k; about half of
    them have rank below min(nrows, ncols), as a product through a
    narrower middle (rank 0 included)."""
    nrows = draw(st.integers(0, 7))
    ncols = nrows if square else draw(st.integers(0, 7))
    if min(nrows, ncols) and draw(st.booleans()):
        r = draw(st.integers(0, min(nrows, ncols) - 1))
        left = draw(scalar_rows(nrows, r))
        right = draw(scalar_rows(r, ncols))
        rows = [[scalar_dot(a, [row[j] for row in right])
                 for j in range(ncols)] for a in left]
    else:
        rows = draw(scalar_rows(nrows, ncols))
    return rows, ncols


def assert_canonical(m):
    """m is the unique integer form of its entries."""
    again = matrix_of(m.rows, m.ncols)
    assert again == m and hash(again) == hash(m)
    assert len(m.P) == len(m.Q) == m.nrows
    assert all(len(r) == m.ncols for r in m.P + m.Q)
    assert m.d > 0
    assert gcd(m.d, *(x for r in m.P + m.Q for x in r)) == 1


ELIMINATION = settings(max_examples=150, deadline=None)


@ELIMINATION
@given(systems())
def test_rref_matches_scalar_elimination(case):
    rows, ncols = case
    m = matrix_of(rows, ncols)
    red, pivots = m.rref()
    want, want_pivots = rref_reference(rows, ncols)
    assert (red.rows, pivots) == (want, want_pivots)
    assert (red.nrows, red.ncols) == (m.nrows, m.ncols)
    assert m.rank() == len(want_pivots)
    assert m.nullspace() == nullspace_reference(rows, ncols)
    for x in (m, red, m.transpose()):
        assert_canonical(x)


@ELIMINATION
@given(systems(square=True))
def test_inverse_matches_scalar_elimination(case):
    rows, n = case
    m = matrix_of(rows, n)
    try:
        want = inverse_reference(rows)
    except ValueError:
        assert not m.is_invertible()
        with pytest.raises(ValueError, match="singular"):
            m.inverse()
        return
    assert m.is_invertible()
    inv = m.inverse()
    assert inv.rows == want and (inv.nrows, inv.ncols) == (n, n)
    assert_canonical(inv)


@ELIMINATION
@given(systems(), st.data())
def test_solve_matches_scalar_elimination(case, data):
    rows, ncols = case
    m = matrix_of(rows, ncols)
    if data.draw(st.booleans()):
        rhs = data.draw(st.lists(entries, min_size=len(rows),
                                 max_size=len(rows)))
    else:  # consistent by construction
        x = data.draw(st.lists(entries, min_size=ncols, max_size=ncols))
        rhs = [scalar_dot(r, x) for r in rows]
    try:
        want = solve_reference(rows, ncols, rhs)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            m.solve(rhs)
        return
    assert m.solve(rhs) == want


@settings(max_examples=100, deadline=None)
@given(systems(), systems(), entries)
def test_integer_operations_stay_canonical(a, b, s):
    x, y = matrix_of(*a), matrix_of(*b)
    assert_canonical(x.scale(s))
    assert_canonical(x.kron(y))
    assert_canonical(x - x)
    assert (x - x).is_zero() and (x + x) == x.scale(2)
    assert_canonical(x + x.scale(s))
    if x.ncols == y.nrows:
        assert_canonical(x * y)


def test_empty_shapes_survive():
    assert (Matrix([[], []]).transpose().nrows,
            Matrix([[], []]).transpose().ncols) == (0, 2)
    wide = Matrix.from_columns([()] * 3)
    assert (wide.nrows, wide.ncols) == (0, 3)
    assert (wide.transpose().nrows, wide.transpose().ncols) == (3, 0)
    product = wide.transpose() * wide
    assert (product.nrows, product.ncols) == (3, 3) and product.is_zero()
    assert wide.nullspace() == [(Scalar(1), Scalar(0), Scalar(0)),
                                (Scalar(0), Scalar(1), Scalar(0)),
                                (Scalar(0), Scalar(0), Scalar(1))]
    assert Matrix.identity(0).inverse() == Matrix.identity(0)
    # identities are units on both sides of k x 0 and 0 x k; `==` compares
    # the shape too
    tall, empty = wide.transpose(), Matrix.identity(0)
    for x, want in ((empty * wide, wide), (tall * empty, tall),
                    (wide * Matrix.identity(3), wide),
                    (Matrix.identity(3) * tall, tall)):
        assert x == want
    assert (empty * empty).is_identity()
    # +, -, scale and kron keep the shapes k x 0 and 0 x k, and are zero
    square = Matrix([[1, 2], [3, OMEGA]])
    for m in (wide, tall):
        k, n = m.nrows, m.ncols
        for x, shape in ((m + m, (k, n)), (m - m, (k, n)),
                         (m.scale(OMEGA), (k, n)),
                         (m.scale(Fraction(-2, 3)), (k, n)),
                         (m.kron(square), (2 * k, 2 * n)),
                         (square.kron(m), (2 * k, 2 * n)),
                         (m.kron(m), (k * k, n * n)),
                         (m.kron(m.transpose()), (k * n, n * k))):
            assert (x.nrows, x.ncols) == shape and x.is_zero()
            assert_canonical(x)


def test_inexact_division_is_refused():
    # 1/(c + fw) = (e0 + e1 w)/n, and a quotient with a remainder raises,
    # also under -O
    for c, f in ((3, 0), (-2, 0), (1, 1), (2, 1), (-5, 7)):
        e0, e1, n = _conjugate(c, f)
        assert _times(c, f, e0, e1) == (n, 0)
    assert _quotients([6, -3, 0], 3) == [2, -1, 0]
    assert _quotients([6, -3], -3) == [-2, 1]
    for xs, n in (([1], 2), ([3, 1], 3), ([4], -3)):
        with pytest.raises(SelfCheckError):
            _quotients(xs, n)


# -- +, -, scale and kron, built from Scalars, against the kernel product ------


def shaped(nrows, ncols):
    """Matrices of the shape nrows x ncols, k x 0 and 0 x k included, with
    no row or column zeroed on purpose: at these sizes that would leave
    too few nonzero entries to tell a permuted result."""
    row = st.lists(entries, min_size=ncols, max_size=ncols)
    return st.lists(row, min_size=nrows, max_size=nrows).map(
        lambda rows: matrix_of(rows, ncols))


@settings(max_examples=100, deadline=None)
@given(st.data(), entries)
def test_entrywise_operations_agree_with_the_kernel_product(data, s):
    m, k, n, p, q, r = (data.draw(st.integers(0, 3)) for _ in range(6))
    a, c = data.draw(shaped(m, k)), data.draw(shaped(k, n))
    b, d = data.draw(shaped(p, q)), data.draw(shaped(q, r))
    # the mixed-product law (A (x) B)(C (x) D) = AC (x) BD
    assert a.kron(b) * c.kron(d) == (a * c).kron(b * d)
    x, y = a, data.draw(shaped(m, k))
    assert (x + y).scale(s) == x.scale(s) + y.scale(s)
    # a scale is a product with the diagonal s, and * distributes
    diagonal = matrix_of([[s if i == j else 0 for j in range(k)]
                          for i in range(k)], k)
    assert x.scale(s) == x * diagonal
    assert (x + y) * c == x * c + y * c
    assert (x - y) + y == x and (x - y) * c == x * c - y * c

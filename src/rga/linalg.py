"""Dense exact matrices over the Q(w) scalar field.

Every space in the package has dimension at most a few dozen, and
exactness is the whole point.  A matrix is stored the way a number-field
library stores a vector (the layout of `rga.scalar`, one level up): integer
numerator rows `P` and `Q` over one denominator `d`, so that entry (i, j) is
(P[i][j] + Q[i][j]*w)/d, with d > 0 and gcd(all P, all Q, d) == 1.  That
form is unique, so `==` and `hash` compare integers; `rows` and `m[i, j]`
build `Scalar`s on demand.  The shape is stored, so k x 0 and 0 x k
matrices keep it.

Products, `apply`, `transpose` and elimination run on the integers through
the Z[w] kernel of `rga.scalar`; `+`, `-`, `scale` and `kron` form their
entries as `Scalar`s and pass them to the constructor, which finds the one
canonical form.  A product with an identity factor is the other factor, by
the unit law id . f = f = f . id (Mac Lane, Categories for the Working
Mathematician, I.1), and costs no arithmetic; any other product takes one
pass of the kernel and one gcd.  RREF, rank, nullspace, solve and inverse
share one fraction-free Gauss-Jordan elimination over Z[w], the
Eisenstein integers (Bareiss, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 22, 1968; Cohen, A
Course in Computational Algebraic Number Theory, 2.2): each step divides
exactly by the previous pivot, as a product with its conjugate and an
integer division by its norm, and checks the remainder.  A row with a zero
in the pivot column is skipped and divides by its own last pivot at its
next step.  Only the finished rows are normalised.
"""

from __future__ import annotations

from functools import cache
from itertools import chain, repeat
from math import gcd, lcm
from operator import add, floordiv, mod
from typing import Sequence

from .rewrite import SelfCheckError
from .scalar import (ONE, ZERO_SCALAR, _conjugate, _make, _products,
                     _scaled_rows, _times, common_denominator)


class Matrix:
    """An nrows x ncols matrix over Q(w) whose entry (i, j) is
    (P[i][j] + Q[i][j]*w)/d: `P` and `Q` are tuples of integer rows, d > 0
    and gcd(all P, all Q, d) == 1.  Immutable."""

    __slots__ = ("nrows", "ncols", "P", "Q", "d")

    def __init__(self, rows: Sequence[Sequence]):
        rows = [list(r) for r in rows]
        width = len(rows[0]) if rows else 0
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        # canonical Scalars over their lcm: the content is already 1
        ps, qs, d = common_denominator([x for r in rows for x in r])
        cuts = [slice(i * width, (i + 1) * width) for i in range(len(rows))]
        _init(self, len(rows), width, tuple(tuple(ps[c]) for c in cuts),
              tuple(tuple(qs[c]) for c in cuts), d)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        """The n x n identity, over the integer rows `_unit` keeps for n."""
        return _matrix(n, n, *_unit(n), 1)

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence]) -> "Matrix":
        """The matrix with columns `cols`; k empty columns make it 0 x k."""
        return cls(cols).transpose()

    @property
    def rows(self) -> tuple:
        """The entries as `Scalar`s, row by row, built on each call."""
        d = repeat(self.d)
        return tuple(tuple(map(_make, p, q, d))
                     for p, q in zip(self.P, self.Q))

    def __getitem__(self, ij):
        i, j = ij
        return _make(self.P[i][j], self.Q[i][j], self.d)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.nrows == other.nrows
                and self.ncols == other.ncols and self.d == other.d
                and self.P == other.P and self.Q == other.Q)

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.d, self.P, self.Q))

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combined(other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combined(other, -1)

    def _combined(self, other: "Matrix", sign: int) -> "Matrix":
        """self + sign * other, entry by entry."""
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return _built([[x + sign * y for x, y in zip(r, u)]
                       for r, u in zip(self.rows, other.rows)], self.ncols)

    def scale(self, s) -> "Matrix":
        return _built([[x * s for x in r] for r in self.rows], self.ncols)

    def __mul__(self, other):
        """The matrix product.  Past the type and shape checks, an identity
        factor returns the other factor (the unit law); any other product
        runs the kernel's `_products` and one gcd."""
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError(
                f"cannot compose {self.nrows}x{self.ncols} "
                f"with {other.nrows}x{other.ncols}")
        if _is_identity(self):
            return other
        if _is_identity(other):
            return self
        P, Q = _products(self.P, self.Q, _columns(other.P, other.ncols),
                         _columns(other.Q, other.ncols))
        return _reduced(self.nrows, other.ncols, P, Q, self.d * other.d)

    def apply(self, vec: Sequence) -> tuple:
        vec = list(vec)
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        c, f, e = common_denominator(vec)
        P, Q = _products(self.P, self.Q, [c], [f])
        return tuple(map(_make, chain.from_iterable(P),
                         chain.from_iterable(Q), repeat(self.d * e)))

    def transpose(self) -> "Matrix":
        return _matrix(self.ncols, self.nrows, _columns(self.P, self.ncols),
                       _columns(self.Q, self.ncols), self.d)

    def kron(self, other: "Matrix") -> "Matrix":
        """The Kronecker product: entry ((i, k), (j, l)) is a_ij b_kl."""
        return _built([[a * b for a in ar for b in br]
                       for ar in self.rows for br in other.rows],
                      self.ncols * other.ncols)

    def is_identity(self) -> bool:
        """Square, d == 1, P the unit rows and Q zero (`_is_identity`)."""
        return _is_identity(self)

    def is_zero(self) -> bool:
        return not any(map(any, self.P)) and not any(map(any, self.Q))

    # -- elimination ----------------------------------------------------

    def rref(self):
        """Reduced row echelon form; returns (matrix, pivot column list)."""
        P, Q, pivots, c, f = _eliminated(self.P, self.Q)
        return _over(self.nrows, self.ncols, P, Q, c, f, 1), pivots

    def rank(self) -> int:
        return len(_eliminated(self.P, self.Q)[2])

    def nullspace(self) -> list:
        """Basis of the kernel, one vector per free column, in column order."""
        red, pivots = self.rref()
        pivot_set = set(pivots)
        basis = []
        for free in range(self.ncols):
            if free in pivot_set:
                continue
            v = [ZERO_SCALAR] * self.ncols
            v[free] = ONE
            for r, c in enumerate(pivots):
                v[c] = _make(-red.P[r][free], -red.Q[r][free], red.d)
            basis.append(tuple(v))
        return basis

    def solve(self, rhs: Sequence) -> tuple:
        """Unique solution of self @ x = rhs; raises if none or many."""
        rhs = list(rhs)
        if len(rhs) != self.nrows:
            raise ValueError("rhs length mismatch")
        # [A | b] over one denominator has the RREF of [A/d | b/e]
        bp, bq, e = common_denominator(rhs)
        d = lcm(self.d, e)
        s, t = d // self.d, d // e
        n = self.ncols
        P, Q, pivots, c, f = _eliminated(
            [[x * s for x in r] + [y * t] for r, y in zip(self.P, bp)],
            [[x * s for x in r] + [y * t] for r, y in zip(self.Q, bq)])
        if n in pivots:
            raise ValueError("inconsistent system")
        if len(pivots) < n:
            raise ValueError("underdetermined system")
        x = _over(n, 1, [r[n:] for r in P[:n]], [r[n:] for r in Q[:n]],
                  c, f, 1)
        return tuple(chain.from_iterable(x.rows))

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("only square matrices invert")
        n = self.nrows
        unit_p, unit_q = _unit(n)
        P, Q, pivots, c, f = _eliminated(map(add, self.P, unit_p),
                                         map(add, self.Q, unit_q))
        if pivots != list(range(n)):
            raise ValueError("singular matrix")
        # (A/d)^-1 = d * A^-1, and A^-1 is the right half over the pivot
        return _over(n, n, [r[n:] for r in P], [r[n:] for r in Q], c, f,
                     self.d)

    def is_invertible(self) -> bool:
        return self.nrows == self.ncols and self.rank() == self.nrows

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self.rows)
        return f"Matrix[{body}]"


_set_nrows = Matrix.nrows.__set__
_set_ncols = Matrix.ncols.__set__
_set_P = Matrix.P.__set__
_set_Q = Matrix.Q.__set__
_set_d = Matrix.d.__set__


def _init(m: Matrix, nrows: int, ncols: int, P: tuple, Q: tuple, d: int):
    _set_nrows(m, nrows)
    _set_ncols(m, ncols)
    _set_P(m, P)
    _set_Q(m, Q)
    _set_d(m, d)


def _matrix(nrows: int, ncols: int, P: tuple, Q: tuple, d: int) -> Matrix:
    """The Matrix over tuples of integer rows already in canonical form;
    skips the public constructor's conversion."""
    m = object.__new__(Matrix)
    _init(m, nrows, ncols, P, Q, d)
    return m


def _built(rows: list, ncols: int) -> Matrix:
    """`Matrix(rows)`, which is 0 x 0 for no rows, with the column count
    `ncols` kept when there are none."""
    return Matrix(rows) if rows else _matrix(0, ncols, (), (), 1)


@cache
def _unit(n: int) -> tuple:
    """(P, Q) of the n x n identity: the unit rows and n zero rows, built
    once for each n and shared by every identity of that size."""
    zeros = (0,) * n
    return (tuple(zeros[:i] + (1,) + zeros[i + 1:] for i in range(n)),
            (zeros,) * n)


def _is_identity(m: Matrix) -> bool:
    """m is an identity matrix.  Its canonical form is unique, so this is
    d == 1, a square shape and (P, Q) equal to `_unit`'s rows: integer
    comparisons only, and no public method that a caller may wrap."""
    return m.d == 1 and m.nrows == m.ncols and (m.P, m.Q) == _unit(m.nrows)


def _reduced(nrows: int, ncols: int, P: list, Q: list, d: int) -> Matrix:
    """The Matrix (P + Q*w)/d for lists of integer rows and d > 0, with
    the one gcd of all its integers divided out."""
    if d != 1:
        g = gcd(d, *chain.from_iterable(P), *chain.from_iterable(Q))
        if g != 1:
            P = [[x // g for x in r] for r in P]
            Q = [[x // g for x in r] for r in Q]
            d //= g
    return _matrix(nrows, ncols, tuple(map(tuple, P)), tuple(map(tuple, Q)),
                   d)


def _columns(rows: tuple, ncols: int) -> tuple:
    """The columns of a tuple of rows that are `ncols` long."""
    return tuple(zip(*rows)) if rows else ((),) * ncols


def _eliminated(P, Q) -> tuple:
    """Fraction-free Gauss-Jordan elimination of the Z[w] matrix P + Q*w,
    given as two iterables of integer rows.

    Returns (P, Q, pivots, c, f): the eliminated rows as lists, the pivot
    columns and the last pivot c + f*w.  At the end every pivot entry is
    c + f*w, the rows past the pivots are zero, and P + Q*w divided by
    c + f*w is the reduced row echelon form.

    A step with pivot row y and pivot g + h*w replaces every other row x by
    ((g + hw)x - (x's pivot-column entry)y) / (previous pivot), so every
    entry is a minor of the input and every division is exact in Z[w]
    (Sylvester's identity).  A row whose pivot-column entry is zero would
    only be scaled by (g + hw)/(previous pivot), so it is left as it is
    and remembers the pivot it is over, `over[i]`: its next step divides
    by that pivot instead, which scales it by the whole product of the
    skipped ratios at once.
    """
    P, Q = list(map(list, P)), list(map(list, Q))
    nrows = len(P)
    ncols = len(P[0]) if P else 0
    over = [(1, 0)] * nrows
    pivots = []
    prev = (1, 0)
    for col in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        i = next((i for i in range(r, nrows) if P[i][col] or Q[i][col]),
                 None)
        if i is None:
            continue
        for rows in (P, Q, over):
            rows[r], rows[i] = rows[i], rows[r]
        _rescale(P, Q, over, r, prev)
        yp, yq = P[r], Q[r]
        g, h = yp[col], yq[col]
        for i in range(nrows):
            if i == r or not (P[i][col] or Q[i][col]):
                continue
            # a division by the row's pivot is a product with e0 + e1 w,
            # folded into the two row factors, then one by n
            e0, e1, n = _conjugate(*over[i])
            g0, g1 = _times(g, h, e0, e1)
            xp, xq = P[i], Q[i]
            a0, a1 = _times(xp[col], xq[col], e0, e1)
            # a row below the pivot row is zero left of the pivot column,
            # and so is the pivot row: only the other entries change
            k = col if i > r else 0
            # (g0 + g1 w)(x0 + x1 w) - (a0 + a1 w)(y0 + y1 w): two
            # products of the kernel's `_times`, fused into one update
            terms = list(zip(xp[k:], xq[k:], yp[k:], yq[k:]))
            xp[k:] = _quotients([g0 * x0 - g1 * x1 - a0 * y0 + a1 * y1
                                 for x0, x1, y0, y1 in terms], n)
            xq[k:] = _quotients([g0 * x1 + g1 * (x0 - x1) - a0 * y1
                                 - a1 * (y0 - y1)
                                 for x0, x1, y0, y1 in terms], n)
            over[i] = (g, h)
        over[r] = prev = (g, h)
        pivots.append(col)
    for i in range(nrows):
        _rescale(P, Q, over, i, prev)
    return (P, Q, pivots) + prev


def _rescale(P: list, Q: list, over: list, i: int, pivot: tuple):
    """Bring row i from the pivot it is over to `pivot`: times `pivot`,
    divided exactly by `over[i]`."""
    if over[i] == pivot or not (any(P[i]) or any(Q[i])):
        return
    e0, e1, n = _conjugate(*over[i])
    (p,), (q,) = _scaled_rows([P[i]], [Q[i]], *_times(*pivot, e0, e1))
    P[i], Q[i], over[i] = _quotients(p, n), _quotients(q, n), pivot


def _quotients(xs: list, n: int) -> list:
    """The integers `xs` divided exactly by n.  Sylvester's identity makes
    every elimination quotient exact, so a remainder is a fault:
    SelfCheckError."""
    if n == 1:
        return xs
    if any(map(mod, xs, repeat(n))):
        raise SelfCheckError("fraction-free elimination: inexact division")
    return list(map(floordiv, xs, repeat(n)))


def _over(nrows: int, ncols: int, P: list, Q: list, c: int, f: int,
          k: int) -> Matrix:
    """The Matrix k * (P + Q*w) / (c + f*w) for integer rows P and Q, an
    integer k and a nonzero c + f*w."""
    e0, e1, n = _conjugate(c, f)
    return _reduced(nrows, ncols, *_scaled_rows(P, Q, e0 * k, e1 * k), n)

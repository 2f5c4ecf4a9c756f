"""Dense exact matrices over the Q(w) scalar field.

Every space in the package has dimension at most a few dozen, and
exactness is the whole point, so a matrix is a tuple of rows of `Scalar`s.
Products and matrix-vector applications run on integers: each row of the
left factor and each column of the right factor is brought to one common
denominator once, every entry is then one Z[w] integer dot product, and
only the finished entry is normalised into a `Scalar`.  Elimination (RREF,
solve, inverse) works entry by entry in `Scalar` arithmetic.
"""

from __future__ import annotations

from operator import mul
from typing import Iterable, Sequence

from .scalar import ONE, ZERO_SCALAR, Scalar, _make, common_denominator


def _scal(x) -> Scalar:
    if isinstance(x, Scalar):
        return x
    return Scalar(x)


class Matrix:
    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Sequence[Sequence]):
        rows = tuple(tuple(_scal(x) for x in r) for r in rows)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
        else:
            width = 0
        _set_rows(self, rows)
        _set_nrows(self, len(rows))
        _set_ncols(self, width)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[ONE if i == j else ZERO_SCALAR for j in range(n)]
                    for i in range(n)])

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence]) -> "Matrix":
        cols = [tuple(_scal(x) for x in c) for c in cols]
        if not cols:
            return cls([])
        return cls([[c[i] for c in cols] for i in range(len(cols[0]))])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.nrows == other.nrows
                and self.ncols == other.ncols and self.rows == other.rows)

    def __hash__(self):
        return hash(self.rows)

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return _matrix(tuple(tuple(a + b for a, b in zip(r, s))
                             for r, s in zip(self.rows, other.rows)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return _matrix(tuple(tuple(a - b for a, b in zip(r, s))
                             for r, s in zip(self.rows, other.rows)))

    def scale(self, s) -> "Matrix":
        s = _scal(s)
        return _matrix(tuple(tuple(s * x for x in r) for r in self.rows))

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError(
                f"cannot compose {self.nrows}x{self.ncols} "
                f"with {other.nrows}x{other.ncols}")
        return _matrix(_products(self.rows, zip(*other.rows)))

    def apply(self, vec: Sequence) -> tuple:
        vec = tuple(_scal(x) for x in vec)
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        return tuple(r[0] for r in _products(self.rows, [vec]))

    def transpose(self) -> "Matrix":
        return _matrix(tuple(zip(*self.rows)))

    def kron(self, other: "Matrix") -> "Matrix":
        return _matrix(tuple(tuple(a * b for a in r for b in s)
                             for r in self.rows for s in other.rows))

    def is_identity(self) -> bool:
        return self.nrows == self.ncols and all(
            r[i] == ONE and not any(r[:i]) and not any(r[i + 1:])
            for i, r in enumerate(self.rows))

    def is_zero(self) -> bool:
        return all(x.is_zero() for r in self.rows for x in r)

    # -- elimination ----------------------------------------------------

    def rref(self):
        """Reduced row echelon form; returns (matrix, pivot column list)."""
        rows = [list(r) for r in self.rows]
        pivots = []
        r = 0
        for c in range(self.ncols):
            pivot = next((i for i in range(r, self.nrows) if rows[i][c]), None)
            if pivot is None:
                continue
            rows[r], rows[pivot] = rows[pivot], rows[r]
            inv = rows[r][c].inverse()
            rows[r] = [x * inv for x in rows[r]]
            for i in range(self.nrows):
                if i != r and rows[i][c]:
                    f = rows[i][c]
                    rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
            pivots.append(c)
            r += 1
            if r == self.nrows:
                break
        return _matrix(tuple(map(tuple, rows))), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullspace(self) -> list:
        """Basis of the kernel, one vector per free column, in column order."""
        red, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivot_set]
        basis = []
        for f in free:
            v = [ZERO_SCALAR] * self.ncols
            v[f] = ONE
            for r, c in enumerate(pivots):
                v[c] = -red.rows[r][f]
            basis.append(tuple(v))
        return basis

    def solve(self, rhs: Sequence) -> tuple:
        """Unique solution of self @ x = rhs; raises if none or many."""
        rhs = tuple(_scal(x) for x in rhs)
        if len(rhs) != self.nrows:
            raise ValueError("rhs length mismatch")
        aug = Matrix([list(r) + [b] for r, b in zip(self.rows, rhs)]
                     if self.rows else [])
        red, pivots = aug.rref()
        if self.ncols in pivots:
            raise ValueError("inconsistent system")
        if len(pivots) < self.ncols:
            raise ValueError("underdetermined system")
        x = [ZERO_SCALAR] * self.ncols
        for r, c in enumerate(pivots):
            x[c] = red.rows[r][self.ncols]
        return tuple(x)

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("only square matrices invert")
        n = self.nrows
        aug = _matrix(tuple(r + e for r, e
                            in zip(self.rows, Matrix.identity(n).rows)))
        red, pivots = aug.rref()
        if pivots != list(range(n)):
            raise ValueError("singular matrix")
        return _matrix(tuple(r[n:] for r in red.rows))

    def is_invertible(self) -> bool:
        return self.nrows == self.ncols and self.rank() == self.nrows

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self.rows)
        return f"Matrix[{body}]"


_set_rows = Matrix.rows.__set__
_set_nrows = Matrix.nrows.__set__
_set_ncols = Matrix.ncols.__set__


def _matrix(rows: tuple) -> Matrix:
    """The Matrix over `rows`, a tuple of equal-length tuples of Scalars
    built by the caller; skips the public constructor's conversion."""
    m = object.__new__(Matrix)
    _set_rows(m, rows)
    _set_nrows(m, len(rows))
    _set_ncols(m, len(rows[0]) if rows else 0)
    return m


def _products(rows: Sequence[Sequence[Scalar]],
              cols: Iterable[Sequence[Scalar]]) -> tuple:
    """The entries sum_k row[k]*col[k] for every row and column, as a tuple
    of rows: integer dot products over each row's and column's common
    denominator, (a + bw)(c + fw) = ac - bf + (af + bc - bf)w."""
    cols = [common_denominator(c) for c in cols]
    out = []
    for row in rows:
        a, b, d = common_denominator(row)
        entries = []
        for c, f, e in cols:
            bf = sum(map(mul, b, f))
            entries.append(_make(sum(map(mul, a, c)) - bf,
                                 sum(map(mul, a, f)) + sum(map(mul, b, c))
                                 - bf, d * e))
        out.append(tuple(entries))
    return tuple(out)

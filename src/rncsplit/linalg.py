"""Exact linear algebra over the rationals and prime fields.

Matrices are lists of rows at every boundary; numpy arrays are accepted as
input.  Rational matrices are reduced over the integers in pure Python: each
row is cleared of denominators once, and elimination cross-multiplies two rows
and divides out the content of the result (fraction-free, as in Bareiss 1968,
but dividing by the row content rather than by the previous pivot).  Every
integer row stays a nonzero multiple of the row rational Gauss-Jordan would
hold, so dividing each pivot row by its pivot gives the same reduced echelon
form; ``Fraction`` entries are made only for the output.

Prime-field matrices are lists of Python ints in 0..p-1, reduced by the same
list kernels as rational ones (`_pivots`, `_echelon`) with a row operation mod
p.  Those kernels skip the rows already zero in the pivot column, so a sparse
matrix costs little more than its fill.  A matrix with more than
DENSE_NONZEROS nonzero entries goes instead to vectorized numpy row reduction
mod p, whose results come back as lists; numpy is imported only there.  That
path is why FieldSpec takes p < 2^31: int64 is safe because all intermediate
products stay below p^2 < 2^63.

Rank and the pivot columns need no reduced form.  `row_echelon` runs forward
elimination only (each pivot row clears the rows below it, with no
back-substitution) and keeps its pivot rows; `pivot_columns` and `rank` read
its pivots.  The nullity scan hands it section matrices already built as
rows of Python ints and reads both the section counts and the kernel
generators from the rows it returns, so no matrix is eliminated twice.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from typing import TYPE_CHECKING

from .fields import FieldSpec

if TYPE_CHECKING:
    import numpy as np

#: Prime-field matrices with more nonzero entries than this are reduced by
#: numpy.  On uniform random dense square matrices mod 32003 numpy overtakes
#: the list kernels at about 40 (rref) to 90 (forward elimination) nonzeros,
#: and is 3-5 times faster at 625 and 10-13 times faster at 6400.  Section
#: matrices are sparse, though, and most rows are zero in each pivot column:
#: `verify` on the published tables up to n = 14, whose matrices have at most
#: 182 nonzeros, runs 20% faster on lists than on numpy even with numpy
#: loaded, and loading it costs about 70 ms once per process.
DENSE_NONZEROS = 500


def _listed(a):
    """A numpy array as (nested) lists of Python ints; anything else as is."""
    return a.tolist() if hasattr(a, "tolist") else a


def _mod_rows(rows, p: int) -> list[list[int]]:
    """A fresh copy of rows as lists of ints in 0..p-1."""
    return [[x % p for x in row] for row in _listed(rows)]


def _is_dense(A: list[list[int]]) -> bool:
    return sum(len(row) - row.count(0) for row in A) > DENSE_NONZEROS


def _to_np(A: list[list[int]], width: int):
    import numpy as np

    return np.array(A, dtype=np.int64).reshape(len(A), width)


def _rref_mod(A: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    import numpy as np

    A = A % p
    m, n = A.shape
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
        inv = pow(int(A[r, c]), p - 2, p)
        A[r] = (A[r] * inv) % p
        others = np.nonzero(A[:, c])[0]
        others = others[others != r]
        if others.size:
            # the pivot row is zero left of c
            A[others, c:] = (A[others, c:] - np.outer(A[others, c], A[r, c:])) % p
        pivots.append(c)
        r += 1
    return A, pivots


def _pivots_mod(A: np.ndarray, p: int) -> tuple[list[list[int]], list[int]]:
    """Forward elimination of A mod p: (pivot rows as lists, pivot columns)."""
    import numpy as np

    A = A % p
    m, n = A.shape
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
        below = r + 1 + np.nonzero(A[r + 1 :, c])[0]
        if below.size:
            f = A[below, c] * pow(int(A[r, c]), p - 2, p) % p
            A[below, c:] = (A[below, c:] - np.outer(f, A[r, c:])) % p
        pivots.append(c)
        r += 1
    return A[:r].tolist(), pivots


def _integer_row(row) -> list[int]:
    """A primitive integer multiple of a row of Fractions or ints."""
    den = math.lcm(*(x.denominator for x in row))
    return _primitive([x.numerator * (den // x.denominator) for x in row])


def _primitive(row: list[int]) -> list[int]:
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _eliminate(row: list[int], pivot_row: list[int], c: int) -> list[int]:
    """Clear column c of row by pivot_row (pivot_row[c] != 0): a primitive
    integer multiple of row - (row[c] / pivot_row[c]) * pivot_row."""
    g = math.gcd(row[c], pivot_row[c])
    a, b = row[c] // g, pivot_row[c] // g
    return _primitive([b * x - a * y for x, y in zip(row, pivot_row)])


def _eliminate_mod(row: list[int], pivot_row: list[int], c: int, p: int) -> list[int]:
    """row - (row[c] / pivot_row[c]) * pivot_row mod p, for a pivot row that
    is zero left of c (so row keeps its entries there)."""
    f = row[c] * pow(pivot_row[c], p - 2, p) % p
    return row[:c] + [(x - f * y) % p for x, y in zip(row[c:], pivot_row[c:])]


def _pivots(A: list[list], width: int, eliminate) -> tuple[list[list], list[int]]:
    """Forward elimination of A (consumes A): each pivot row clears column c
    of the rows left, skipping those already zero there, and is kept as it
    is.  Returns (pivot rows, pivot columns)."""
    rows, pivots = [], []
    for c in range(width):
        if not A:
            break
        piv = next((i for i, row in enumerate(A) if row[c]), None)
        if piv is None:
            continue
        P = A.pop(piv)
        A = [eliminate(row, P, c) if row[c] else row for row in A]
        rows.append(P)
        pivots.append(c)
    return rows, pivots


def _echelon(A: list[list], width: int, eliminate) -> tuple[list[list], list[int]]:
    """Gauss-Jordan on A in place: returns (A, pivot_columns), where row k is
    zero in every pivot column but its own, pivots[k], and the rows past the
    rank are zero.  Row k divided by its pivot is row k of the rref."""
    m = len(A)
    pivots = []
    r = 0
    for c in range(width):
        if r == m:
            break
        piv = next((i for i in range(r, m) if A[i][c]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        P = A[r]
        for i in range(m):
            if i != r and A[i][c]:
                A[i] = eliminate(A[i], P, c)
        pivots.append(c)
        r += 1
    return A, pivots


def _echelon_q(rows, width: int) -> tuple[list[list[int]], list[int]]:
    """_echelon of a rational matrix on primitive integer rows."""
    return _echelon([_integer_row(row) for row in rows], width, _eliminate)


def rref(rows, field: FieldSpec, width: int | None = None):
    """Reduced row echelon form; returns (rref_rows, pivot_columns)."""
    if width is None:
        width = len(rows[0]) if len(rows) else 0
    p = field.p
    if p is not None:
        A = _mod_rows(rows, p)
        if _is_dense(A):
            R, pivots = _rref_mod(_to_np(A, width), p)
            return R.tolist(), pivots
        A, pivots = _echelon(A, width, partial(_eliminate_mod, p=p))
        for k, c in enumerate(pivots):
            inv = pow(A[k][c], p - 2, p)
            A[k] = [x * inv % p for x in A[k]]
        return A, pivots
    A, pivots = _echelon_q(rows, width)
    R = [[Fraction(x, row[c]) for x in row] for row, c in zip(A, pivots)]
    return R + [[Fraction(0)] * len(row) for row in A[len(pivots) :]], pivots


def row_echelon(A: list[list[int]], field: FieldSpec, width: int) -> tuple[list[list[int]], list[int]]:
    """Forward elimination of a matrix of Python ints (consumed): entries in
    0..p-1 over GF(p), any integers over Q, where a rational matrix scaled by
    a common denominator has the same pivots and kernel.  Returns (rows,
    pivots): pivots increase, row k is zero left of pivots[k], and the rows
    whose pivots lie in the first k columns span the row space of those
    columns, so they have the same kernel there."""
    p = field.p
    if p is None:
        return _pivots(A, width, _eliminate)
    if _is_dense(A):
        return _pivots_mod(_to_np(A, width), p)
    return _pivots(A, width, partial(_eliminate_mod, p=p))


def pivot_columns(rows, field: FieldSpec, width: int | None = None) -> list[int]:
    """Pivot columns of the row echelon form (the same as rref's), by forward
    elimination only: column k is a pivot iff it is independent of columns
    0..k-1, so the rank of the first k columns is the number of pivots < k."""
    if width is None:
        width = len(rows[0]) if len(rows) else 0
    p = field.p
    A = [_integer_row(row) for row in rows] if p is None else _mod_rows(rows, p)
    return row_echelon(A, field, width)[1]


def rank(rows, field: FieldSpec, width: int | None = None) -> int:
    return len(pivot_columns(rows, field, width))


def solve(rows, rhs, field: FieldSpec, width: int | None = None):
    """One particular solution of A x = rhs (free variables set to 0), or None."""
    if width is None:
        width = len(rows[0]) if len(rows) else 0
    aug = [list(row) + [b] for row, b in zip(_listed(rows), _listed(rhs))]
    if not aug:
        return [field.zero] * width
    p = field.p
    A, pivots = rref(aug, field, width + 1) if p is not None else _echelon_q(aug, width + 1)
    if width in pivots:
        return None
    x = [field.zero] * width
    for row, pc in zip(A, pivots):
        x[pc] = row[width] if p is not None else Fraction(row[width], row[pc])
    return x


class RowSpace:
    """Incrementally maintained row space with exact reduction.

    Stores an echelon basis kept mutually reduced (each stored row is zero in
    the pivot columns of the others): lists of ints in 0..p-1 with pivot 1
    over GF(p), primitive integer rows over Q.  `insert` extends the span
    when a vector's residual against it is nonzero.  Rows are touched one at
    a time, so GF(p) rows stay lists whatever their density.
    """

    def __init__(self, field: FieldSpec, width: int):
        self.field = field
        self.width = width
        self._rows: list = []
        self._pivots: list[int] = []

    def _reduce(self, vec):
        p = self.field.p
        if p is not None:
            v = [x % p for x in _listed(vec)]
            for piv, row in zip(self._pivots, self._rows):
                c = v[piv]
                if c:
                    v = [(x - c * y) % p for x, y in zip(v, row)]
            return v
        v = _integer_row(vec)
        for piv, row in zip(self._pivots, self._rows):
            if v[piv]:
                v = _eliminate(v, row, piv)
        return v

    def insert(self, vec):
        """Reduce and, if independent, add; returns the residual (zero in
        every earlier pivot column, its own pivot entry 1) or None."""
        p = self.field.p
        v = self._reduce(vec)
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is None:
            return None
        if p is not None:
            inv = pow(v[piv], p - 2, p)
            v = [x * inv % p for x in v]
            for i, row in enumerate(self._rows):
                c = row[piv]
                if c:
                    self._rows[i] = [(x - c * y) % p for x, y in zip(row, v)]
            residual = v
        else:
            for i, row in enumerate(self._rows):
                if row[piv]:
                    self._rows[i] = _eliminate(row, v, piv)
            residual = [Fraction(x, v[piv]) for x in v]
        self._rows.append(v)
        self._pivots.append(piv)
        return residual

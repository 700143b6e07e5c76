"""Exact dense linear algebra over the rationals and prime fields.

Rational matrices are reduced over the integers in pure Python: each row is
cleared of denominators once, and elimination cross-multiplies two rows and
divides out the content of the result (fraction-free, as in Bareiss 1968, but
dividing by the row content rather than by the previous pivot).  Every
integer row stays a nonzero multiple of the row rational Gauss-Jordan would
hold, so dividing each pivot row by its pivot gives the same reduced echelon
form; ``Fraction`` entries are made only for the output.  Prime-field matrices
go through vectorized numpy row reduction mod p (int64 is safe: all
intermediate products stay below p^2 < 2^63 for any 31-bit prime).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .fields import FieldSpec


def _to_np(rows: Sequence[Sequence[int]], p: int, width: int) -> np.ndarray:
    if isinstance(rows, np.ndarray):
        return rows.astype(np.int64) % p
    if len(rows) == 0:
        return np.zeros((0, width), dtype=np.int64)
    return np.array([[int(x) % p for x in row] for row in rows], dtype=np.int64)


def _rref_mod(A: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
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
            A[others] = (A[others] - np.outer(A[others, c], A[r])) % p
        pivots.append(c)
        r += 1
    return A, pivots


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


def _echelon(rows) -> tuple[list[list[int]], list[int]]:
    """Integer Gauss-Jordan over Q: returns (rows, pivot_columns), where row k
    is zero in every pivot column but its own, pivots[k], and the rows past
    the rank are zero.  Row k divided by its pivot is row k of the rref."""
    A = [_integer_row(row) for row in rows]
    m = len(A)
    n = len(A[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        piv = next((i for i in range(r, m) if A[i][c]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        P = A[r]
        for i in range(m):
            if i != r and A[i][c]:
                A[i] = _eliminate(A[i], P, c)
        pivots.append(c)
        r += 1
    return A, pivots


def rref(rows, field: FieldSpec, width: int | None = None):
    """Reduced row echelon form; returns (rref_rows, pivot_columns)."""
    if width is None:
        width = len(rows[0]) if len(rows) else 0
    if field.p is not None:
        return _rref_mod(_to_np(rows, field.p, width), field.p)
    A, pivots = _echelon(rows)
    R = [[Fraction(x, row[c]) for x in row] for row, c in zip(A, pivots)]
    return R + [[Fraction(0)] * len(row) for row in A[len(pivots) :]], pivots


def rank(rows, field: FieldSpec, width: int | None = None) -> int:
    if field.p is None:
        return len(_echelon(rows)[1])
    return len(rref(rows, field, width)[1])


def nullspace(rows, field: FieldSpec, width: int | None = None) -> list[list]:
    """Basis of the right kernel, one vector (length = width) per free column."""
    if width is None:
        width = len(rows[0]) if len(rows) else 0
    if field.p is not None:
        R, pivots = rref(rows, field, width)
    else:
        A, pivots = _echelon(rows)
    piv_set = set(pivots)
    free = [j for j in range(width) if j not in piv_set]
    if field.p is not None:
        B = np.zeros((len(free), width), dtype=np.int64)
        B[range(len(free)), free] = 1
        B[:, pivots] = -R[: len(pivots)][:, free].T % field.p
        return B.tolist()
    basis = []
    for f in free:
        v = [field.zero] * width
        v[f] = field.one
        for row, pc in zip(A, pivots):
            if row[f]:
                v[pc] = Fraction(-row[f], row[pc])
        basis.append(v)
    return basis


def solve(rows, rhs, field: FieldSpec, width: int | None = None):
    """One particular solution of A x = rhs (free variables set to 0), or None."""
    if width is None:
        width = len(rows[0]) if len(rows) else 0
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    if not aug:
        return [field.zero] * width
    if field.p is not None:
        R, pivots = rref(aug, field, width + 1)
    else:
        A, pivots = _echelon(aug)
    if width in pivots:
        return None
    x = [field.zero] * width
    for k, pc in enumerate(pivots):
        x[pc] = int(R[k, width]) if field.p is not None else Fraction(A[k][width], A[k][pc])
    return x


class RowSpace:
    """Incrementally maintained row space with exact reduction.

    Stores an echelon basis kept mutually reduced (each stored row is zero in
    the pivot columns of the others): numpy rows with pivot 1 over GF(p),
    primitive integer rows over Q.  `insert` extends the span when a vector's
    residual against it is nonzero.
    """

    def __init__(self, field: FieldSpec, width: int):
        self.field = field
        self.width = width
        self._rows: list = []
        self._pivots: list[int] = []

    def _reduce(self, vec):
        K = self.field
        if K.p is not None:
            v = np.asarray([int(x) % K.p for x in vec], dtype=np.int64)
            for piv, row in zip(self._pivots, self._rows):
                c = int(v[piv])
                if c:
                    v = (v - c * row) % K.p
            return v
        v = _integer_row(vec)
        for piv, row in zip(self._pivots, self._rows):
            if v[piv]:
                v = _eliminate(v, row, piv)
        return v

    def insert(self, vec):
        """Reduce and, if independent, add; returns the residual (zero in
        every earlier pivot column, its own pivot entry 1) or None."""
        K = self.field
        v = self._reduce(vec)
        if K.p is not None:
            nz = np.nonzero(v)[0]
            if nz.size == 0:
                return None
            piv = int(nz[0])
            v = (v * pow(int(v[piv]), K.p - 2, K.p)) % K.p
            for i, row in enumerate(self._rows):
                c = int(row[piv])
                if c:
                    self._rows[i] = (row - c * v) % K.p
            residual = v
        else:
            piv = next((i for i, x in enumerate(v) if x), None)
            if piv is None:
                return None
            for i, row in enumerate(self._rows):
                if row[piv]:
                    self._rows[i] = _eliminate(row, v, piv)
            residual = [Fraction(x, v[piv]) for x in v]
        self._rows.append(v)
        self._pivots.append(piv)
        return residual

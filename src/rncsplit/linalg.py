"""Exact dense linear algebra over the rationals and prime fields.

Rational matrices are reduced with ``fractions.Fraction`` rows in pure Python;
prime-field matrices go through vectorized numpy row reduction mod p (int64 is
safe: all intermediate products stay below p^2 < 2^63 for any 31-bit prime).
"""

from __future__ import annotations

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


def _rref_frac(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    A = [list(row) for row in rows]
    m = len(A)
    n = len(A[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        piv = next((i for i in range(r, m) if A[i][c] != 0), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = 1 / A[r][c]
        A[r] = [x * inv for x in A[r]]
        for i in range(m):
            if i != r and A[i][c] != 0:
                f = A[i][c]
                A[i] = [a - f * b for a, b in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
    return A, pivots


def rref(rows, field: FieldSpec, width: int | None = None):
    """Reduced row echelon form; returns (rref_rows, pivot_columns)."""
    if width is None:
        width = len(rows[0]) if len(rows) else 0
    if field.p is not None:
        return _rref_mod(_to_np(rows, field.p, width), field.p)
    return _rref_frac([[Fraction(x) for x in row] for row in rows])


def rank(rows, field: FieldSpec, width: int | None = None) -> int:
    return len(rref(rows, field, width)[1])


def nullspace(rows, field: FieldSpec, width: int | None = None) -> list[list]:
    """Basis of the right kernel, one vector (length = width) per free column."""
    if width is None:
        width = len(rows[0]) if len(rows) else 0
    R, pivots = rref(rows, field, width)
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
        for row_idx, pc in enumerate(pivots):
            v[pc] = field.neg(R[row_idx][f])
        basis.append(v)
    return basis


def solve(rows, rhs, field: FieldSpec, width: int | None = None):
    """One particular solution of A x = rhs (free variables set to 0), or None."""
    if width is None:
        width = len(rows[0]) if len(rows) else 0
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    if not aug:
        return [field.zero] * width
    R, pivots = rref(aug, field, width + 1)
    if width in pivots:
        return None
    x = [field.zero] * width
    for row_idx, pc in enumerate(pivots):
        entry = R[row_idx][width] if field.p is None else int(R[row_idx, width])
        x[pc] = entry
    return x


class RowSpace:
    """Incrementally maintained row space with exact reduction.

    Stores an internal echelon basis; `reduce` returns the residual of a vector
    against the span, `insert` extends the span when the residual is nonzero.
    """

    def __init__(self, field: FieldSpec, width: int):
        self.field = field
        self.width = width
        self._rows: list = []     # echelon rows, pivot normalized to 1
        self._pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self._rows)

    def _pivot_of(self, vec):
        if self.field.p is not None:
            nz = np.nonzero(vec)[0]
            return int(nz[0]) if nz.size else None
        return next((i for i, x in enumerate(vec) if x != 0), None)

    def reduce(self, vec):
        K = self.field
        if K.p is not None:
            v = np.asarray([int(x) % K.p for x in vec], dtype=np.int64)
            for piv, row in zip(self._pivots, self._rows):
                c = int(v[piv])
                if c:
                    v = (v - c * row) % K.p
            return v
        v = [Fraction(x) for x in vec]
        for piv, row in zip(self._pivots, self._rows):
            c = v[piv]
            if c != 0:
                v = [a - c * b for a, b in zip(v, row)]
        return v

    def insert(self, vec):
        """Reduce and, if independent, add; returns the residual or None."""
        K = self.field
        v = self.reduce(vec)
        piv = self._pivot_of(v)
        if piv is None:
            return None
        if K.p is not None:
            v = (v * pow(int(v[piv]), K.p - 2, K.p)) % K.p
        else:
            inv = 1 / v[piv]
            v = [inv * x for x in v]
        # keep stored rows mutually reduced so `reduce` terminates fully
        for i, (pv, row) in enumerate(zip(self._pivots, self._rows)):
            c = row[piv]
            if (int(c) if K.p is not None else c) != 0:
                if K.p is not None:
                    self._rows[i] = (row - int(c) * v) % K.p
                else:
                    self._rows[i] = [a - c * b for a, b in zip(row, v)]
        self._rows.append(v)
        self._pivots.append(piv)
        return v

"""Exact linear algebra over the rationals and prime fields.

Matrices are lists of rows at every boundary.  Every function works on rows
of Python ints: over Q each row is cleared of denominators once (a primitive
integer multiple), over GF(p) its entries are taken mod p.  Each field has one
row operation, which clears a column of a row by a pivot row (`_row_op`):
over Q, `_eliminate` cross-multiplies the two rows and divides out the
content of the result (fraction-free, as in Bareiss 1968, but dividing by the
row content rather than by the previous pivot); mod p, it subtracts a
multiple of the pivot row.  A row stays a nonzero multiple of the row
rational elimination would hold, so ``Fraction`` entries are made only for
the output.

There is one elimination: `row_echelon` runs forward elimination only (each
pivot row clears the rows below it) and keeps its pivot rows, each zero left
of its pivot.  `rank` is the number of its pivots.  No reduced echelon form
is built: `RowSpace` reduces each vector by the row operation against an
echelon basis kept in pivot order, and only the residual it returns is
divided by its pivot.  The nullity scan hands `row_echelon` section matrices
already built as rows of Python ints and reads both the section counts and
the kernel generators from the rows it returns, so no matrix is eliminated
twice: for the generators it back-eliminates the pivot rows of a prefix
once, reads each kernel vector off the reduced rows, and eliminates those
vectors forward once (sheafmap._kernel_basis).

The one kernel, `_pivots`, makes one pass over the rows left per pivot
column to find the rows nonzero there; the first is the pivot row, and only
the others are touched.  Over GF(p) it finds the pivot row's nonzero columns
and its pivot's inverse once per pivot, and updates each such row in place
at those columns only: a multiply-add per nonzero of the pivot row.  The
public functions eliminate fresh copies of the caller's rows.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from functools import partial
from itertools import compress

from .fields import FieldSpec


def _int_row(row, p: int | None) -> list[int]:
    """A fresh row of Python ints: a primitive integer multiple of a row of
    Fractions or ints over Q, the entries mod p over GF(p)."""
    if p is not None:
        return [x % p for x in row]
    den = math.lcm(*(x.denominator for x in row))
    return _primitive([x.numerator * (den // x.denominator) for x in row])


def _normalized(row: list[int], c: int, p: int | None) -> list:
    """row / row[c]: Fractions over Q, ints in 0..p-1 over GF(p)."""
    if p is None:
        return [Fraction(x, row[c]) for x in row]
    inv = pow(row[c], -1, p)
    return [x * inv % p for x in row]


def _primitive(row: list[int]) -> list[int]:
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _eliminate(row: list[int], pivot_row: list[int], c: int) -> list[int]:
    """Clear column c of row by pivot_row (pivot_row[c] != 0): a primitive
    integer multiple of row - (row[c] / pivot_row[c]) * pivot_row."""
    g = math.gcd(row[c], pivot_row[c])
    a, b = row[c] // g, pivot_row[c] // g
    return _primitive([b * x - a * y for x, y in zip(row, pivot_row)])


def _row_op(P: list[int], c: int, p: int | None):
    """The function that clears column c of a row by pivot row P (P[c] != 0)
    and returns it: _eliminate over Q; mod p, row -= (row[c] / P[c]) * P in
    place, at the nonzero columns of P, found here once."""
    if p is None:
        return partial(_eliminate, pivot_row=P, c=c)
    inv = pow(P[c], -1, p)
    nonzero = [(k, P[k]) for k in compress(range(len(P)), P)]

    def clear(row: list[int]) -> list[int]:
        f = row[c] * inv % p
        for k, x in nonzero:
            row[k] = (row[k] - f * x) % p
        return row

    return clear


def _pivots(A: list[list], columns, p: int | None) -> tuple[list[list], list[int]]:
    """Forward elimination of A (consumes A) over the given columns, in their
    order.  One pass over the rows left finds those nonzero in column c: the
    first is its pivot row, which clears column c of the others (_row_op)
    and is then deleted from A and kept as it is.  Returns (pivot rows,
    pivot columns)."""
    rows, pivots = [], []
    for c in columns:
        if not A:
            break
        hits = [i for i, row in enumerate(A) if row[c]]
        if not hits:
            continue
        P = A[hits[0]]
        if len(hits) > 1:
            clear = _row_op(P, c, p)
            for i in hits[1:]:
                A[i] = clear(A[i])
        del A[hits[0]]
        rows.append(P)
        pivots.append(c)
    return rows, pivots


def row_echelon(A: list[list[int]], field: FieldSpec, width: int) -> tuple[list[list[int]], list[int]]:
    """Forward elimination of a matrix of Python ints (consumed): entries in
    0..p-1 over GF(p), any integers over Q, where a rational matrix scaled by
    a common denominator has the same pivots and kernel.  Returns (rows,
    pivots): pivots increase, row k is zero left of pivots[k], and the rows
    whose pivots lie in the first k columns span the row space of those
    columns, so they have the same kernel there.  The pivots are those of the
    rref: column k is a pivot iff it is independent of columns 0..k-1."""
    return _pivots(A, range(width), field.p)


def rank(rows, field: FieldSpec, width: int | None = None) -> int:
    """The number of pivots of one forward elimination."""
    if width is None:
        width = len(rows[0]) if len(rows) else 0
    return len(row_echelon([_int_row(row, field.p) for row in rows], field, width)[1])


class RowSpace:
    """Incrementally maintained row space with exact reduction.

    Stores an echelon basis in increasing pivot order: each row is the
    integer residual (primitive over Q, entries mod p over GF(p)) it was
    inserted as, zero left of its pivot, kept as its row operation.
    `insert` reduces a vector by the rows in that order, which leaves it
    zero in every pivot column, and extends the span when the result is
    nonzero.  Up to scale, that residual is the one vector of v + span that
    is zero at the span's pivot columns, and it is returned with a leading
    1.  So what `insert` returns depends only on the span and on v modulo
    the span, up to a nonzero multiple of v: the basis needs no
    back-substitution, and the scale of its rows does not show.
    """

    def __init__(self, field: FieldSpec, width: int):
        self.field = field
        self.width = width
        self._ops: list = []
        self._pivots: list[int] = []

    def insert(self, vec):
        """Reduce and, if independent, add; returns the residual (zero in
        every earlier pivot column, its own pivot entry 1) or None."""
        p = self.field.p
        v = _int_row(vec, p)
        for piv, clear in zip(self._pivots, self._ops):
            if v[piv]:
                v = clear(v)
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is None:
            return None
        k = bisect_left(self._pivots, piv)
        self._pivots.insert(k, piv)
        self._ops.insert(k, _row_op(v, piv, p))
        return _normalized(v, piv, p)

"""Shared generators and oracles for the test suite."""

import itertools
from fractions import Fraction

from rncsplit import linalg
from rncsplit.binform import BinaryForm, bf_gcd, parse_binary_form
from rncsplit.fields import FieldSpec, RATIONALS
from rncsplit.multipoly import IdealCombination, MultiPoly
from rncsplit.sheafmap import (
    CertificationError,
    GradedSheafMap,
    _scan_window,
    generic_rank,
    section_kernel_dim,
)

GF = FieldSpec(32003)


def from_rows(rows, source, target, field=RATIONALS):
    """Build a graded map from a list-of-lists of binary-form strings."""
    entries = {}
    for i, row in enumerate(rows):
        for j, text in enumerate(row):
            if text in ("0", "", None):
                continue
            entries[(i, j)] = parse_binary_form(text, field, degree=target[i] - source[j])
    return GradedSheafMap(field, tuple(source), tuple(target), entries)


def random_poly(rnd, context, degree):
    terms = {}
    for _ in range(rnd.randrange(1, 5)):
        exp = [0] * context.nvars
        for _ in range(degree):
            exp[rnd.randrange(0, context.nvars)] += 1
        terms[tuple(exp)] = context.field.from_int(rnd.randrange(-9, 10))
    return MultiPoly(context, degree, terms)


def random_combination(rnd, context, linear_prob=0.6):
    quadric = {
        (i, i + 1): random_poly(rnd, context, context.d - 2) for i in range(1, context.e)
    }
    linear = {}
    for k in range(context.e + 1, context.n + 1):
        if rnd.random() < linear_prob:
            linear[k] = random_poly(rnd, context, context.d - 1)
    return IdealCombination(context, quadric, linear)


def _monomials(nvars, degree):
    if nvars == 1:
        yield (degree,)
        return
    for a in range(degree, -1, -1):
        for rest in _monomials(nvars - 1, degree - a):
            yield (a,) + rest


def dense_combination(rnd, context, bound=9):
    """Random F with every Q_{i,j} and every linear coefficient G_k dense:
    each monomial gets a nonzero integer coefficient in [-bound, bound]."""

    def dense_poly(degree):
        terms = {
            exp: context.field.from_int(rnd.choice([-1, 1]) * rnd.randint(1, bound))
            for exp in _monomials(context.nvars, degree)
        }
        return MultiPoly(context, degree, terms)

    e, n, d = context.e, context.n, context.d
    quadric = {(i, j): dense_poly(d - 2) for i in range(1, e + 1) for j in range(i + 1, e + 1)}
    linear = {k: dense_poly(d - 1) for k in range(e + 1, n + 1)}
    return IdealCombination(context, quadric, linear)


def random_surjective_map(rnd, field=GF, max_rank=6, spread=8):
    """Random graded map of full rank at every point (surjective onto the
    target twist-sum), retrying the generic draw until the certificate holds."""
    while True:
        nrows = rnd.randrange(1, 3)
        ncols = rnd.randrange(nrows + 1, max_rank + 1)
        base = rnd.randrange(0, 3)
        source = tuple(
            sorted((base + rnd.randrange(0, spread + 1) for _ in range(ncols)), reverse=True)
        )
        shift = rnd.randrange(1, 4)
        target = tuple(max(source) + shift + rnd.randrange(0, 2) for _ in range(nrows))
        entries = {}
        for i in range(nrows):
            for j in range(ncols):
                deg = target[i] - source[j]
                coeffs = [field.from_int(rnd.randrange(0, field.p)) for _ in range(deg + 1)]
                f = BinaryForm(field, deg, tuple(coeffs))
                if not f.is_zero():
                    entries[(i, j)] = f
        M = GradedSheafMap(field, source, target, entries)
        if full_rank_everywhere(M):
            return M


def full_window_splitting(M):
    """Parts of the splitting of ker M by the full-window nullity scan: count
    sections at every twist of the window, with no early stop.  Oracle for the
    early-stopping scan in splitting_of_kernel."""
    if M.ncols == 0:
        return ()
    m_bottom, m_top = _scan_window(M)
    parts = []
    prev_count = prev_inc = 0
    for m in range(m_bottom + 1, m_top + 1):
        count = section_kernel_dim(M, m)
        inc = count - prev_count
        assert inc >= prev_inc, f"section counts not monotone at twist {m}"
        parts.extend([-m] * (inc - prev_inc))
        prev_count, prev_inc = count, inc
    assert prev_inc == M.ncols - generic_rank(M)
    return tuple(sorted(parts))


# -- maximal-minor oracle for full rank at every point -----------------------------
#
# Independent of the nullity scan: the gcd of all maximal minors, each
# interpolated from determinants.  Oracle for kernel_matrix / cokernel_matrix.


def det(rows, field: FieldSpec):
    """Determinant of a square scalar matrix by fraction-free-enough Gaussian
    elimination over the field."""
    n = len(rows)
    if n == 0:
        return field.one
    A = [list(r) for r in rows]
    sign = False
    acc = field.one
    for c in range(n):
        piv = next((i for i in range(c, n) if not field.is_zero(A[i][c])), None)
        if piv is None:
            return field.zero
        if piv != c:
            A[c], A[piv] = A[piv], A[c]
            sign = not sign
        acc = field.mul(acc, A[c][c])
        inv = field.inv(A[c][c])
        for i in range(c + 1, n):
            if field.is_zero(A[i][c]):
                continue
            f = field.mul(A[i][c], inv)
            A[i] = [field.sub(a, field.mul(f, b)) for a, b in zip(A[i], A[c])]
    return field.neg(acc) if sign else acc


def _interpolate_form(field: FieldSpec, degree: int, values: list) -> BinaryForm:
    """Homogeneous form of the given degree from degree+1 values at (1, k)."""
    K = field
    npts = degree + 1
    rows = []
    for k in range(npts):
        tau = K.from_int(k)
        row = [K.one]
        for _ in range(degree):
            row.append(K.mul(row[-1], tau))
        rows.append(row)
    coeffs = linalg.solve(rows, values, K, npts)
    if coeffs is None:
        raise CertificationError("interpolation failed")
    return BinaryForm(K, degree, tuple(coeffs))


def minor_form(M: GradedSheafMap, rows: tuple, cols: tuple) -> BinaryForm:
    """The minor det M[rows, cols] as a binary form (exact, by interpolation
    at degree+1 points; the minor is homogeneous of degree sum c_i - sum b_j)."""
    K = M.field
    D = sum(M.target[i] for i in rows) - sum(M.source[j] for j in cols)
    if D < 0:
        return BinaryForm.zero(K)
    if K.p is not None and D + 1 > K.p:
        raise CertificationError(f"minor degree {D} too large for GF({K.p}) interpolation")
    values = []
    for k in range(D + 1):
        P = (K.one, K.from_int(k))
        sub = [[M.entry(i, j).eval(P) for j in cols] for i in rows]
        values.append(det(sub, K))
    f = _interpolate_form(K, D, values)
    return f if not f.is_zero() else BinaryForm.zero(K)


def full_rank_everywhere(M: GradedSheafMap) -> bool:
    """True iff the maximal minors have no common projective zero (their gcd is
    a nonzero constant) and the generic rank is min(#rows, #cols)."""
    r = min(M.nrows, M.ncols)
    if r == 0:
        return True
    if M.nrows >= M.ncols:
        subsets = ((rows, tuple(range(M.ncols))) for rows in itertools.combinations(range(M.nrows), r))
    else:
        subsets = ((tuple(range(M.nrows)), cols) for cols in itertools.combinations(range(M.ncols), r))
    g: BinaryForm | None = None
    for rows, cols in subsets:
        minor = minor_form(M, rows, cols)
        if minor.is_zero():
            continue
        g = minor if g is None else bf_gcd([g, minor])
        if g.degree == 0:
            return True
    return g is not None and g.degree == 0


# -- Fraction elimination oracle for the integer rational backend ----------------
#
# The rational Gauss-Jordan elimination and Fraction row space that linalg
# used before it eliminated over the integers.  Both compute the unique
# reduced echelon form, so linalg must agree with these exactly.


def rref_frac(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
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


def nullspace_frac(rows, width: int) -> list[list[Fraction]]:
    R, pivots = rref_frac([[Fraction(x) for x in row] for row in rows])
    piv_set = set(pivots)
    free = [j for j in range(width) if j not in piv_set]
    basis = []
    for f in free:
        v = [RATIONALS.zero] * width
        v[f] = RATIONALS.one
        for row_idx, pc in enumerate(pivots):
            v[pc] = RATIONALS.neg(R[row_idx][f])
        basis.append(v)
    return basis


def solve_frac(rows, rhs, width: int):
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    if not aug:
        return [RATIONALS.zero] * width
    R, pivots = rref_frac([[Fraction(x) for x in row] for row in aug])
    if width in pivots:
        return None
    x = [RATIONALS.zero] * width
    for row_idx, pc in enumerate(pivots):
        x[pc] = R[row_idx][width]
    return x


class FractionRowSpace:
    """Row space over Q with Fraction echelon rows, pivots normalized to 1."""

    def __init__(self, width: int):
        self.width = width
        self._rows: list = []
        self._pivots: list[int] = []

    def reduce(self, vec):
        v = [Fraction(x) for x in vec]
        for piv, row in zip(self._pivots, self._rows):
            c = v[piv]
            if c != 0:
                v = [a - c * b for a, b in zip(v, row)]
        return v

    def insert(self, vec):
        """Reduce and, if independent, add; returns the residual or None."""
        v = self.reduce(vec)
        piv = next((i for i, x in enumerate(v) if x != 0), None)
        if piv is None:
            return None
        inv = 1 / v[piv]
        v = [inv * x for x in v]
        for i, (pv, row) in enumerate(zip(self._pivots, self._rows)):
            c = row[piv]
            if c != 0:
                self._rows[i] = [a - c * b for a, b in zip(row, v)]
        self._rows.append(v)
        self._pivots.append(piv)
        return v

"""Shared generators and oracles for the test suite."""

import itertools
import re
from fractions import Fraction

import numpy as np

from rncsplit import linalg
from rncsplit.binform import BinaryForm, bf_gcd, parse_binary_form
from rncsplit.constructor import UnsupportedCaseError, _check_constructive
from rncsplit.fields import FieldSpec, RATIONALS
from rncsplit.multipoly import IdealCombination, MultiPoly, PolyError, restrict_to_curve
from rncsplit.sheafmap import (
    CertificationError,
    GradedSheafMap,
    MapError,
    _onto_everywhere,
    _scan_window,
    build_delta,
    normal_twists,
    tangent_twists,
)
from rncsplit.splitting import EXACT, predicted_splitting

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


def bf_mul(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """The product of two binary forms, one field operation per coefficient
    pair.  Oracle for the integer convolution in sheafmap.compose."""
    K = f.field
    if f.degree == -1 or g.degree == -1:
        return BinaryForm.zero(K)
    out = [K.zero] * (f.degree + g.degree + 1)
    for i, a in enumerate(f.coeffs):
        if K.is_zero(a):
            continue
        for j, b in enumerate(g.coeffs):
            out[i + j] = K.add(out[i + j], K.mul(a, b))
    return BinaryForm(K, f.degree + g.degree, tuple(out))


def compose_forms(outer: GradedSheafMap, inner: GradedSheafMap) -> GradedSheafMap:
    """Matrix product outer ∘ inner by bf_mul and BinaryForm.add on each
    product of entries.  Oracle for sheafmap.compose."""
    if inner.target != outer.source:
        raise MapError(f"twist mismatch: inner target {inner.target} != outer source {outer.source}")
    entries: dict = {}
    for (k, j), f in inner.entries.items():
        for i in range(outer.nrows):
            g = outer.entries.get((i, k))
            if g is None:
                continue
            prod = bf_mul(g, f)
            cur = entries.get((i, j))
            entries[(i, j)] = prod if cur is None else cur.add(prod)
    entries = {k: f for k, f in entries.items() if not f.is_zero()}
    return GradedSheafMap(outer.field, inner.source, outer.target, entries)


def extension_schedule(d, e, n_target):
    """The catalog splittings from n = e up to n_target that build_chain
    extends through."""
    _check_constructive(d, e, n_target)
    out = []
    for m in range(e, n_target + 1):
        pred = predicted_splitting(d, e, m)
        if pred.verdict != EXACT:
            raise UnsupportedCaseError(f"no exact predicted splitting at (d={d}, e={e}, n={m})")
        out.append(pred.splitting)
    return out


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
    """Random one-row graded map onto its target at every point, retrying the
    generic draw until the gcd of its entries is constant.  Coefficients are
    uniform mod p, or integers in [-9, 9] over Q."""
    draw = (lambda: rnd.randrange(-9, 10)) if field.p is None else (lambda: rnd.randrange(0, field.p))
    while True:
        ncols = rnd.randrange(2, max_rank + 1)
        base = rnd.randrange(0, 3)
        source = tuple(
            sorted((base + rnd.randrange(0, spread + 1) for _ in range(ncols)), reverse=True)
        )
        c = max(source) + rnd.randrange(1, 4) + rnd.randrange(0, 2)
        entries = {}
        for j in range(ncols):
            deg = c - source[j]
            coeffs = [field.from_int(draw()) for _ in range(deg + 1)]
            f = BinaryForm(field, deg, tuple(coeffs))
            if not f.is_zero():
                entries[(0, j)] = f
        M = GradedSheafMap(field, source, (c,), entries)
        if _onto_everywhere(M):
            return M


def section_matrix(M: GradedSheafMap, m: int):
    """Matrix of the induced map ⊕Γ(O(b_j+m)) -> ⊕Γ(O(c_i+m)) in coefficient
    coordinates, columns in block order, built column by column as lists of
    field elements; returns (matrix, n_cols).  Oracle for
    sheafmap._section_rows."""
    zero = M.field.zero
    src_dims = [max(0, b + m + 1) for b in M.source]
    tgt_dims = [max(0, c + m + 1) for c in M.target]
    # M_ij has degree c_i - b_j, so column q of block j holds every
    # coefficient of M_ij, coefficient u in row q + u of block i
    cols = []
    for j, ds in enumerate(src_dims):
        for q in range(ds):
            col = []
            for i, dt in enumerate(tgt_dims):
                f = M.entries.get((i, j))
                if f is None:
                    col += [zero] * dt
                else:
                    col += [zero] * q + list(f.coeffs) + [zero] * (dt - q - f.degree - 1)
            cols.append(col)
    A = [list(row) for row in zip(*cols)] if cols else [[] for _ in range(sum(tgt_dims))]
    return A, len(cols)


def nullspace(rows, field: FieldSpec, width: int | None = None) -> list[list]:
    """Basis of the right kernel, one vector per free column of the rref:
    1 there, 0 at the other free columns, minus the rref entries at the
    pivots.  Oracle for the scan's kernel bases (sheafmap._kernel_basis)."""
    if width is None:
        width = len(rows[0]) if len(rows) else 0
    R, pivots = linalg.rref(rows, field, width)
    basis = []
    for f in sorted(set(range(width)) - set(pivots)):
        v = [field.zero] * width
        v[f] = field.one
        for row, pc in zip(R, pivots):
            v[pc] = field.neg(row[f])
        basis.append(v)
    return basis


def section_kernel_dim(M: GradedSheafMap, m: int) -> int:
    """dim ker of the induced linear map on global sections twisted by m: one
    section matrix and one Gauss-Jordan elimination per twist.  Oracle for
    the counts the nullity scan reads off one level-ordered matrix."""
    A, C = section_matrix(M, m)
    return C - len(linalg.rref(A, M.field, C)[1])


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
    assert prev_inc == M.ncols - (1 if M.entries else 0)
    return tuple(sorted(parts))


def section_matrix_loop(M, m):
    """The GF(p) section matrix of M at twist m, one numpy assignment per
    coefficient.  Oracle for section_matrix."""
    K = M.field
    src_dims = [max(0, b + m + 1) for b in M.source]
    tgt_dims = [max(0, c + m + 1) for c in M.target]
    col_off = [0]
    for d in src_dims:
        col_off.append(col_off[-1] + d)
    row_off = [0]
    for d in tgt_dims:
        row_off.append(row_off[-1] + d)
    A = np.zeros((row_off[-1], col_off[-1]), dtype=np.int64)
    for (i, j), f in M.entries.items():
        ds, dt = src_dims[j], tgt_dims[i]
        if ds == 0 or dt == 0:
            continue
        for u, coeff in enumerate(f.coeffs):
            c = int(coeff) % K.p
            if c == 0:
                continue
            width = min(ds, dt - u)
            if width > 0:
                idx = np.arange(width)
                A[row_off[i] + u + idx, col_off[j] + idx] = c
    return A, col_off[-1]


# -- the gradient route ----------------------------------------------------------
#
# A second description of a hypersurface through the curve: assemble F as one
# polynomial, differentiate, and restrict.  Oracles for the closed-form
# build_delta and for check_smooth_along_curve, which read everything off the
# restrictions of F's coefficients.


def build_quadric(context, i, j):
    """Q_{i,j} = x_i x_{j-1} - x_{i-1} x_j for 1 <= i < j <= e."""
    if not (1 <= i < j <= context.e):
        raise PolyError(f"quadric indices ({i},{j}) outside 1 <= i < j <= e = {context.e}")
    K = context.field

    def mono(a, b):
        exp = [0] * context.nvars
        exp[a] += 1
        exp[b] += 1
        return tuple(exp)

    return MultiPoly(context, 2, {mono(i, j - 1): K.one, mono(i - 1, j): K.neg(K.one)})


def assemble(F: IdealCombination) -> MultiPoly:
    """F = sum F_{i,j} Q_{i,j} + sum G_k x_k as one polynomial."""
    ctx = F.context
    out = MultiPoly.zero(ctx, ctx.d)
    for (i, j), poly in sorted(F.quadric_coeffs.items()):
        out = out.add(poly.mul(build_quadric(ctx, i, j)))
    for k, poly in sorted(F.linear_coeffs.items()):
        out = out.add(poly.mul(MultiPoly.variable(ctx, k)))
    return out


def partial(p: MultiPoly, index: int) -> MultiPoly:
    """The partial derivative of p with respect to x_index."""
    K = p.context.field
    out = {}
    for exp, c in p.terms.items():
        k = exp[index]
        if k == 0:
            continue
        new = list(exp)
        new[index] = k - 1
        out[tuple(new)] = K.mul(K.from_int(k), c)
    return MultiPoly(p.context, max(p.total_degree - 1, 0), out)


def gradient_on_curve(p: MultiPoly) -> list:
    """Restrictions of all n+1 partial derivatives of p to the curve."""
    return [restrict_to_curve(partial(p, m)) for m in range(p.context.nvars)]


def gradient_map(F: IdealCombination) -> GradedSheafMap:
    """The gradient route O(e)^(n+1) -> O(de) with entries (dF/dx_m)|_C."""
    ctx = F.context
    grads = gradient_on_curve(assemble(F))
    entries = {(0, m): g for m, g in enumerate(grads) if not g.is_zero()}
    return GradedSheafMap(ctx.field, (ctx.e,) * ctx.nvars, (ctx.d * ctx.e,), entries)


def gradient_smooth(F: IdealCombination) -> bool:
    """True iff the restricted gradient entries have no common projective zero."""
    grads = list(gradient_map(F).entries.values())
    return bool(grads) and bf_gcd(grads).degree == 0


def h0_euler_crosscheck(F: IdealCombination, m: int) -> bool:
    """Compare section-kernel dimensions of delta and the gradient route; valid
    for m >= -1 where the twisted Euler sequence has no H^1."""
    if m < -1:
        raise ValueError(f"twist m = {m} < -1 outside the valid comparison range")
    if not gradient_smooth(F):
        raise ValueError("hypersurface is singular along the curve")
    left = section_kernel_dim(build_delta(F), m)
    right = section_kernel_dim(gradient_map(F), m) - max(0, m + 1)
    return left == right


def build_beta(ctx) -> GradedSheafMap:
    """Comparison map T_{P^n}|_C -> N_{C/P^n}: bidiagonal (t, -s) block on the
    tangent part, identity on the O(e) part."""
    K = ctx.field
    e, n = ctx.e, ctx.n
    entries = {}
    t = BinaryForm.monomial(K, 1, 1)
    minus_s = BinaryForm.monomial(K, 1, 0, K.neg(K.one))
    one = BinaryForm.constant(K, K.one)
    for i in range(e - 1):
        entries[(i, i)] = t
        entries[(i, i + 1)] = minus_s
    for k in range(n - e):
        entries[(e - 1 + k, e + k)] = one
    return GradedSheafMap(K, tangent_twists(ctx), normal_twists(ctx), entries)


def build_df(ctx) -> GradedSheafMap:
    """The tangent-line column (s^(e-1), ..., t^(e-1); 0, ..., 0): O(2) -> T_{P^n}|_C."""
    K = ctx.field
    entries = {(i, 0): BinaryForm.monomial(K, ctx.e - 1, i) for i in range(ctx.e)}
    return GradedSheafMap(K, (2,), tangent_twists(ctx), entries)


# -- maximal-minor oracle for full rank at every point -----------------------------
#
# Independent of the nullity scan: the gcd of all maximal minors, each
# interpolated from determinants.  Oracle for kernel_matrix / cokernel_matrix.


def evaluate(f: BinaryForm, point):
    """Exact value of the form f at the point (s0, t0) != (0, 0)."""
    K = f.field
    s0, t0 = point
    if K.is_zero(s0) and K.is_zero(t0):
        raise ValueError("evaluation point (0, 0) is not a point of the projective line")
    if f.degree == -1:
        return K.zero
    # Horner in t/s-split form: sum c_i s^(d-i) t^i.
    acc = K.zero
    spow = K.one
    tpow = [K.one]
    for _ in range(f.degree):
        tpow.append(K.mul(tpow[-1], t0))
    for i in range(f.degree, -1, -1):
        acc = K.add(acc, K.mul(f.coeffs[i], K.mul(spow, tpow[i])))
        spow = K.mul(spow, s0)
    return acc


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
        sub = [[evaluate(M.entry(i, j), P) for j in cols] for i in rows]
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


class NumpyRowSpace:
    """Row space over GF(p) with int64 numpy rows, pivots normalized to 1:
    the vectorized form of linalg.RowSpace's prime-field path, and its oracle."""

    def __init__(self, field: FieldSpec):
        self.p = field.p
        self._rows: list = []
        self._pivots: list[int] = []

    def insert(self, vec):
        """Reduce and, if independent, add; returns the residual or None."""
        p = self.p
        v = np.asarray([int(x) % p for x in vec], dtype=np.int64)
        for piv, row in zip(self._pivots, self._rows):
            c = int(v[piv])
            if c:
                v = (v - c * row) % p
        nz = np.nonzero(v)[0]
        if nz.size == 0:
            return None
        piv = int(nz[0])
        v = (v * pow(int(v[piv]), p - 2, p)) % p
        for i, row in enumerate(self._rows):
            c = int(row[piv])
            if c:
                self._rows[i] = (row - c * v) % p
        self._rows.append(v)
        self._pivots.append(piv)
        return v


# -- map serialization parsers: round-trip oracles for format_map and map_to_json --


def parse_map(text: str, field: FieldSpec) -> GradedSheafMap:
    """Parse the text of sheafmap.format_map."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise MapError("empty map serialization")
    m = re.match(r"^map\s+(\d+)\s*x\s*(\d+)\s*:\s*\[([^\]]*)\]\s*<-\s*\[([^\]]*)\]$", lines[0])
    if not m:
        raise MapError(f"bad map header: {lines[0]!r}")
    nrows, ncols = int(m.group(1)), int(m.group(2))
    target = tuple(int(x) for x in m.group(3).split(",") if x.strip() != "")
    source = tuple(int(x) for x in m.group(4).split(",") if x.strip() != "")
    if len(target) != nrows or len(source) != ncols:
        raise MapError("map header dimensions disagree with twist lists")
    entries = {}
    for ln in lines[1:]:
        em = re.match(r"^\((\d+)\s*,\s*(\d+)\)\s*:\s*(.+)$", ln)
        if not em:
            raise MapError(f"bad entry line: {ln!r}")
        i, j = int(em.group(1)) - 1, int(em.group(2)) - 1
        entries[(i, j)] = parse_binary_form(em.group(3), field, degree=target[i] - source[j])
    return GradedSheafMap(field, source, target, entries)


def map_from_json(obj: dict, field: FieldSpec) -> GradedSheafMap:
    """Parse the object of sheafmap.map_to_json."""
    target = tuple(int(x) for x in obj["target"])
    source = tuple(int(x) for x in obj["source"])
    entries = {}
    for i, j, text in obj["entries"]:
        entries[(int(i) - 1, int(j) - 1)] = parse_binary_form(
            text, field, degree=target[int(i) - 1] - source[int(j) - 1]
        )
    return GradedSheafMap(field, source, target, entries)

"""Shared generators and oracles for the test suite."""

import argparse
import itertools
import json
import math
import re
import sys
from bisect import bisect_left
from collections import Counter
from fractions import Fraction

import numpy as np

from rncsplit import linalg
from rncsplit.binform import BinaryForm, DegreeError
from rncsplit.cli import (
    cmd_compute,
    cmd_dominates,
    cmd_extend,
    cmd_glue,
    cmd_interp,
    cmd_predict,
    cmd_verify,
)
from rncsplit.constructor import UnsupportedCaseError, _check_constructive
from rncsplit.fields import FieldError, FieldSpec, RATIONALS
from rncsplit.multipoly import CurveContext, HsfError, IdealCombination, MultiPoly, PolyError
from rncsplit.sheafmap import (
    CertificationError,
    GradedSheafMap,
    MapError,
    _integer_lines,
    _scan_window,
    _width,
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


def canonical_q(x) -> bool:
    """x is a rational in the form the program stores over Q: an int when
    its denominator is 1, a (reduced) Fraction otherwise."""
    return type(x) is int if x.denominator == 1 else type(x) is Fraction


def maps_equal(M: GradedSheafMap, N: GradedSheafMap) -> bool:
    """Equality of graded maps: the same twists and equal entries."""
    if M.source != N.source or M.target != N.target:
        return False
    # entries hold no zero forms, so equal maps have the same keys
    return M.entries.keys() == N.entries.keys() and all(f.equals(N.entries[k]) for k, f in M.entries.items())


# -- report text oracles -----------------------------------------------------------
#
# The stdlib JSON encoder and the per-term form formatter that the CLI's
# report path replaced: each new writer must print their bytes exactly.


def json_indent2(obj) -> str:
    """What ``--format json`` prints, less its final newline."""
    return json.dumps(obj, indent=2)


def format_scalar_oracle(K: FieldSpec, a) -> str:
    """FieldSpec.format_scalar by numerator and denominator (over Q) and the
    balanced representative (over GF(p))."""
    if K.p is None:
        try:
            return str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"
        except ValueError:  # Python prints ints of at most sys.get_int_max_str_digits() digits
            raise FieldError("a coefficient has too many digits to print") from None
    r = a % K.p
    return str(r - K.p) if r > K.p // 2 else str(r)


def format_binary_form_oracle(f: BinaryForm) -> str:
    """format_binary_form in two passes: (sign, body) pairs with a factor
    list per term, then the signs joined in."""
    if f.is_zero():
        return "0"
    K, cs = f.field, f.coeffs
    parts = []
    for i in itertools.compress(range(len(cs)), cs):
        c, sexp, texp = cs[i], f.degree - i, i
        factors = []
        if sexp > 0:
            factors.append("s" if sexp == 1 else f"s^{sexp}")
        if texp > 0:
            factors.append("t" if texp == 1 else f"t^{texp}")
        txt = format_scalar_oracle(K, c)
        neg = txt.startswith("-")
        if neg:
            txt = txt[1:]
        if factors and txt == "1":
            body = "*".join(factors)
        else:
            body = "*".join([txt] + factors)
        parts.append(("-" if neg else "+", body))
    out = ""
    for sign, body in parts:
        if not out:
            out = body if sign == "+" else "-" + body
        else:
            out += sign + body
    return out


def _bf_addsub(f: BinaryForm, g: BinaryForm, sub: bool) -> BinaryForm:
    K = f.field
    if f.degree == -1 and g.degree == -1:
        return f
    if f.degree == -1:
        return g.neg() if sub else g
    if g.degree == -1:
        return f
    if f.degree != g.degree:
        raise DegreeError(f"degree mismatch: {f.degree} vs {g.degree}")
    op = K.sub if sub else K.add
    return BinaryForm(K, f.degree, tuple(op(a, b) for a, b in zip(f.coeffs, g.coeffs)))


def bf_add(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """f + g; a strictly zero form (degree -1) adds to any degree."""
    return _bf_addsub(f, g, sub=False)


def bf_sub(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """f - g; a strictly zero form (degree -1) subtracts from any degree."""
    return _bf_addsub(f, g, sub=True)


def bf_scale(f: BinaryForm, scalar) -> BinaryForm:
    """scalar * f."""
    if f.degree == -1:
        return f
    K = f.field
    return BinaryForm(K, f.degree, tuple(K.mul(scalar, c) for c in f.coeffs))


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
    """Matrix product outer ∘ inner by bf_mul and bf_add on each
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
            entries[(i, j)] = prod if cur is None else bf_add(cur, prod)
    entries = {k: f for k, f in entries.items() if not f.is_zero()}
    return GradedSheafMap(outer.field, inner.source, outer.target, entries)


def compose_lines(outer: GradedSheafMap, inner: GradedSheafMap) -> GradedSheafMap:
    """Matrix product outer ∘ inner over every outer row and inner column,
    each cleared of denominators by its lcm, one integer convolution per
    entry over the intersection of the row with the column.  Oracle for the
    sparse sheafmap.compose."""
    if inner.target != outer.source:
        raise MapError(f"twist mismatch: inner target {inner.target} != outer source {outer.source}")
    K = outer.field
    cols = _integer_lines(inner.entries, K, 1)
    entries = {}
    for i, (row_den, row) in _integer_lines(outer.entries, K, 0).items():
        for j, (col_den, col) in cols.items():
            pairs = [(a, col[k]) for k, a in row.items() if k in col]
            if not pairs:
                continue
            acc = [0] * (outer.target[i] - inner.source[j] + 1)
            for a, b in pairs:
                if len(a) > len(b):
                    a, b = b, a
                for u, x in enumerate(a):
                    if x:
                        for v, y in enumerate(b, u):
                            acc[v] += x * y
            if K.p is None:
                coeffs = tuple(Fraction(c, row_den * col_den) for c in acc)
            else:
                coeffs = tuple(c % K.p for c in acc)
            if any(coeffs):
                entries[(i, j)] = BinaryForm(K, len(acc) - 1, coeffs)
    return GradedSheafMap(K, inner.source, outer.target, entries)


def select_strategy_counter(S, T, e: int) -> str:
    """The extension strategy by multiset arithmetic on the parts.  Oracle
    for constructor._select_strategy."""
    cS, cT = Counter(S.parts), Counter(T.parts)
    if cT == cS + Counter({e: 1}):
        return "J0"
    a = min(S.parts)
    if set(S.parts) <= {a, a + 1}:
        if cS[a] >= 1 and cT == cS - Counter({a: 1}) + Counter({a + 1: 2}):
            return "J1"
        if cS[a] >= 2 and cT == cS - Counter({a: 2}) + Counter({a + 1: 3}):
            return "J2"
    raise UnsupportedCaseError(f"target {list(T.parts)} unreachable from {list(S.parts)}")


# -- strategy columns split by form arithmetic ----------------------------------------


def split_off_t_power(f: BinaryForm):
    """f = s*p + c*t^deg; returns (p, c)."""
    K = f.field
    if f.is_zero():
        return BinaryForm.zero(K), K.zero
    c = f.coeffs[f.degree]
    rest = f if K.is_zero(c) else bf_sub(f, BinaryForm.monomial(K, f.degree, f.degree, c))
    return rest.shift(-1, 0), c


def split_off_s_power(f: BinaryForm):
    """f = t*q + c*s^deg; returns (q, c)."""
    K = f.field
    if f.is_zero():
        return BinaryForm.zero(K), K.zero
    c = f.coeffs[0]
    rest = f if K.is_zero(c) else bf_sub(f, BinaryForm.monomial(K, f.degree, 0, c))
    return rest.shift(0, -1), c


def strategy_n1_by_forms(K_perm: GradedSheafMap, a: int, strategy: str) -> dict:
    """The entries of N1 for a J1 or J2 step on the kernel K_perm (columns
    sorted by twist, least twist a), its leading columns split by form
    subtraction and shifts.  Oracle for constructor._build_J1/_build_J2,
    which read the same splits off the coefficient tuples."""
    field = K_perm.field
    w = K_perm.ncols + 1
    N1_entries = {}
    if strategy == "J1":
        for i in range(K_perm.nrows):
            p, c = split_off_t_power(K_perm.entry(i, 0))
            if not p.is_zero():
                N1_entries[(i, 0)] = p
            if not field.is_zero(c):
                k = K_perm.entry(i, 0)
                N1_entries[(i, w - 1)] = BinaryForm.monomial(field, k.degree - 1, k.degree - 1, c)
        kept = 1
    else:
        for i in range(K_perm.nrows):
            deg = K_perm.target[i] - a
            p, c1 = split_off_t_power(K_perm.entry(i, 0))
            q, c2 = split_off_s_power(K_perm.entry(i, 1))
            if deg < 2 and not (field.is_zero(c1) and field.is_zero(c2)):
                raise CertificationError("J2 decomposition needs entry degree >= 2")
            col0 = p
            if not field.is_zero(c2):
                col0 = bf_sub(col0, BinaryForm.monomial(field, deg - 1, 1, c2))
            col1 = q
            if not field.is_zero(c1):
                col1 = bf_sub(col1, BinaryForm.monomial(field, deg - 1, deg - 2, c1))
            last = BinaryForm.zero(field)
            if not field.is_zero(c1):
                last = bf_add(last, BinaryForm.monomial(field, deg - 1, deg - 1, c1))
            if not field.is_zero(c2):
                last = bf_add(last, BinaryForm.monomial(field, deg - 1, 0, c2))
            if not col0.is_zero():
                N1_entries[(i, 0)] = col0
            if not col1.is_zero():
                N1_entries[(i, 1)] = col1
            if not last.is_zero():
                N1_entries[(i, w - 1)] = last
        kept = 2
    for (i, j), f in K_perm.entries.items():
        if j >= kept:
            N1_entries[(i, j)] = f
    return N1_entries


# -- the gcd of binary forms -----------------------------------------------------
#
# Smoothness along the curve by the gcd of delta's entries.  Oracles for
# check_smooth_along_curve, which decides by the scanned degree of ker delta.


def bf_gcd(forms) -> BinaryForm:
    """Greatest common divisor, monic in the dehomogenization at s = 1.

    Common powers of s and t are split off first; the remaining parts are
    reduced by the Euclidean algorithm on their dehomogenizations.
    """
    nonzero = [f for f in forms if not f.is_zero()]
    if not nonzero:
        raise ValueError("gcd of strictly zero forms")
    K = nonzero[0].field

    def s_valuation(f: BinaryForm) -> int:
        return f.degree - max(i for i, c in enumerate(f.coeffs) if not K.is_zero(c))

    s_val = min(s_valuation(f) for f in nonzero)
    # the t-valuation of each form: the index of its first nonzero coefficient
    lows = [next(i for i, c in enumerate(f.coeffs) if not K.is_zero(c)) for f in nonzero]
    t_val = min(lows)

    def core(f: BinaryForm, lo: int) -> list:
        # dehomogenization at s=1 of f stripped of its s- and t-power factors
        return list(f.coeffs[lo : f.degree - s_valuation(f) + 1])

    g = core(nonzero[0], lows[0])
    for f, lo in zip(nonzero[1:], lows[1:]):
        g = _poly_gcd(K, g, core(f, lo))
        if len(g) == 1:
            break
    g = _poly_monic(K, g)
    deg = s_val + t_val + len(g) - 1
    coeffs = [K.zero] * (deg + 1)
    for i, c in enumerate(g):
        coeffs[t_val + i] = c
    return BinaryForm(K, deg, tuple(coeffs))


def _poly_trim(K: FieldSpec, a: list) -> list:
    while len(a) > 1 and K.is_zero(a[-1]):
        a.pop()
    if not a:
        a.append(K.zero)
    return a


def _poly_monic(K: FieldSpec, a: list) -> list:
    inv = K.inv(a[-1])
    return [K.mul(inv, c) for c in a]


def _poly_gcd(K: FieldSpec, a: list, b: list) -> list:
    a = _poly_trim(K, list(a))
    b = _poly_trim(K, list(b))
    while not (len(b) == 1 and K.is_zero(b[0])):
        a, b = b, _poly_mod(K, a, b)
    return a


def _poly_mod(K: FieldSpec, a: list, b: list) -> list:
    r = list(a)
    db, lead = len(b) - 1, b[-1]
    while len(r) - 1 >= db and not (len(r) == 1 and K.is_zero(r[0])):
        c = K.div(r[-1], lead)
        off = len(r) - 1 - db
        for i in range(db + 1):
            r[off + i] = K.sub(r[off + i], K.mul(c, b[i]))
        r.pop()
        _poly_trim(K, r)
        if len(r) == 1 and K.is_zero(r[0]):
            break
    return _poly_trim(K, r)


def onto_everywhere(M: GradedSheafMap) -> bool:
    """True iff the one-row map M is onto its target at every point of the
    line: its row is nonzero and the gcd of its entries is constant."""
    return bool(M.entries) and bf_gcd(list(M.entries.values())).degree == 0


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


def general_psi_targets(d: int, n: int, field: FieldSpec) -> list[BinaryForm]:
    """Monomial psi ladder of the d >= 5 seed at e = n >= 2d-2: starting at
    s^(dn-n-2), the t-power grows by d-1 for the first n-2d+2 entries and by
    d afterwards."""
    D = d * n - n - 2
    targets = []
    for l in range(1, n):
        if l <= n - 2 * d + 2:
            texp = (l - 1) * (d - 1)
        else:
            texp = D - (n - 1 - l) * d
        targets.append(BinaryForm.monomial(field, D, texp))
    return targets


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
        if onto_everywhere(M):
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


def section_rows_by_column(M: GradedSheafMap, T: int):
    """sheafmap._section_rows built one column at a time, every cell of the
    column as a Python int, then transposed: (rows, the (j, q) of each
    column).  Oracle for the scatter build, which writes only the nonzero
    coefficients."""
    lines = _integer_lines(M.entries, M.field, 0)
    ints = {(i, j): list(cs) for i, (_, line) in lines.items() for j, cs in line.items()}
    heights = [max(0, c + T + 1) for c in M.target]
    keys = [
        (j, b + T - level)
        for level in range(max(M.source, default=-1) + T, -1, -1)
        for j, b in enumerate(M.source)
        if b + T >= level
    ]
    cols = []
    for j, q in keys:
        col = []
        for i, h in enumerate(heights):
            f = ints.get((i, j))
            col += [0] * h if f is None else [0] * q + f + [0] * (h - q - len(f))
        cols.append(col)
    rows = [list(row) for row in zip(*cols)] if cols else [[] for _ in range(sum(heights))]
    return rows, keys


def nullspace(rows, field: FieldSpec, width: int | None = None) -> list[list]:
    """Basis of the right kernel, one vector per free column of the rref:
    1 there, 0 at the other free columns, minus the rref entries at the
    pivots.  Oracle for the scan's kernel bases (sheafmap._kernel_basis)."""
    if width is None:
        width = len(rows[0]) if len(rows) else 0
    R, pivots = rref(rows, field, width)
    basis = []
    for f in sorted(set(range(width)) - set(pivots)):
        v = [field.zero] * width
        v[f] = field.one
        for row, pc in zip(R, pivots):
            v[pc] = field.neg(row[f])
        basis.append(v)
    return basis


def kernel_basis_by_columns(M: GradedSheafMap, rows: list, pivots: list[int], keys: list, m: int) -> list[list]:
    """sheafmap._kernel_basis by one back-substitution per free column: the
    prefix kernel vector of each free level-order column f, built from
    {f: 1} through the pivot rows above f, last first, by a dot product with
    the vector so far (over Q on integers, scaling the vector by the pivot
    over its gcd with the residual).  The reduced echelon form of those
    vectors, with the columns reversed, is the block-order rref basis.
    Oracle for the one back-elimination of the pivot rows."""
    K, p = M.field, M.field.p
    w = _width(M, m)
    r = bisect_left(pivots, w)
    rows, pivots = rows[:r], pivots[:r]
    offsets = [0, *itertools.accumulate(max(0, b + m + 1) for b in M.source)]
    where = [w - 1 - offsets[j] - q for j, q in keys[:w]]  # block order, reversed
    piv_set = set(pivots)
    reversed_basis = []
    for f in range(w):
        if f in piv_set:
            continue
        v = {f: 1}
        for row, c in zip(reversed(rows), reversed(pivots)):
            if c > f:
                continue
            s = sum(row[x] * y for x, y in v.items())
            if not s:
                continue
            if p is not None:
                v[c] = -s * pow(row[c], -1, p) % p
                continue
            g = math.gcd(s, row[c])
            if row[c] != g:
                v = {x: y * (row[c] // g) for x, y in v.items()}
            v[c] = -s // g
        vec = [0] * w
        for x, y in v.items():
            vec[where[x]] = y
        reversed_basis.append(vec)
    R, _ = rref(reversed_basis, K, w)
    return [row[::-1] for row in reversed(R)]


def section_kernel_dim(M: GradedSheafMap, m: int) -> int:
    """dim ker of the induced linear map on global sections twisted by m: one
    section matrix and one Gauss-Jordan elimination per twist.  Oracle for
    the counts the nullity scan reads off one level-ordered matrix."""
    A, C = section_matrix(M, m)
    return C - len(rref(A, M.field, C)[1])


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
        out = out.add(poly.mul(poly_variable(ctx, k)))
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
    return [restrict_dense(partial(p, m)) for m in range(p.context.nvars)]


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


def restrict_dense(poly: MultiPoly) -> BinaryForm:
    """multipoly.restrict_to_curve summed into one dense integer list (over
    Q numerators over the lcm of all the denominators) and reduced at every
    position.  Oracle for the builder, which reduces only the positions some
    term hits: it returns the strictly zero form exactly when the integer
    sums all vanish, so a form whose sums are nonzero multiples of p comes
    back as the all-zero form of degree e*k."""
    K, e = poly.context.field, poly.context.e
    p = K.p
    terms = [(exp, c) for exp, c in poly.terms.items() if not any(exp[e + 1 :])]
    den = math.lcm(*(c.denominator for _, c in terms)) if p is None else 1
    acc = [0] * (e * poly.total_degree + 1)
    for exp, c in terms:
        acc[sum(a * m for m, a in enumerate(exp[: e + 1]))] += c if p else c.numerator * (den // c.denominator)
    if not any(acc):
        return BinaryForm.zero(K)
    coeffs = tuple([x % p for x in acc]) if p else tuple([Fraction(x, den) for x in acc])
    return BinaryForm(K, len(acc) - 1, coeffs)


def restriction_maps_dense(ctx: CurveContext, quadric: dict, linear: dict):
    """sheafmap._restriction_maps with each C_l one dense list of Python
    ints (over Q numerators over the lcm of the F_{i,j}|_C denominators),
    delta's t C_l - s C_(l-1) formed on whole lists, and every coefficient of
    psi and delta reduced.  Oracle for the builder, which keeps only the
    nonzero coefficients."""
    K, p, e, de = ctx.field, ctx.field.p, ctx.e, ctx.d * ctx.e
    L, ints = _integer_lines({(0, key): r for key, r in quadric.items()}, K, 0).get(0, (1, {}))
    C = [[0] * (de - e - 1) for _ in range(e + 1)]
    for (i, j), cs in ints.items():
        for l in range(i, j):
            u = j + i - l - 2
            C[l][u : u + len(cs)] = [a + b for a, b in zip(C[l][u : u + len(cs)], cs)]

    def form(acc: list) -> BinaryForm:
        coeffs = [Fraction(c, L) for c in acc] if p is None else [c % p for c in acc]
        return BinaryForm(K, len(acc) - 1, tuple(coeffs))

    psi = {(0, l - 1): form(C[l]) for l in range(1, e)}
    delta = {(0, l - 1): form([a - b for a, b in zip([0, *C[l]], [*C[l - 1], 0])]) for l in range(1, e + 1)}
    psi.update(((0, k - 2), r) for k, r in linear.items())
    delta.update(((0, k - 1), r) for k, r in linear.items())
    maps = ((normal_twists(ctx), psi), (tangent_twists(ctx), delta))
    return tuple(GradedSheafMap(K, source, (de,), entries) for source, entries in maps)


def build_psi_forms(F: IdealCombination) -> GradedSheafMap:
    """psi by BinaryForm.shift and bf_add on each restriction:
    column l (1-based, l <= e-1) collects s^(e-j-i+l) t^(j+i-l-2) F_{i,j}|_C
    over stored pairs with i <= l < j; trailing columns are the G_k|_C.
    Every restriction is the dense oracle's (restrict_dense), so no part of
    the builder behind sheafmap.build_psi checks itself.  Oracle for that
    builder."""
    ctx = F.context
    K, e = ctx.field, ctx.e
    entries: dict = {}
    restr = {key: restrict_dense(poly) for key, poly in F.quadric_coeffs.items()}
    for l in range(1, e):
        acc = BinaryForm.zero(K)
        for (i, j), r in restr.items():
            if i <= l < j and not r.is_zero():
                acc = bf_add(acc, r.shift(e - j - i + l, j + i - l - 2))
        if not acc.is_zero():
            entries[(0, l - 1)] = acc
    for k, poly in F.linear_coeffs.items():
        r = restrict_dense(poly)
        if not r.is_zero():
            entries[(0, k - 2)] = r
    return GradedSheafMap(K, normal_twists(ctx), (ctx.d * e,), entries)


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
    coeffs = solve_frac(rows, values, npts) if K.p is None else solve_list_mod(rows, values, npts, K.p)
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


def rref(rows, field: FieldSpec, width: int | None = None):
    """Reduced row echelon form; returns (rref_rows, pivot_columns), with the
    rows past the rank zero.  One forward elimination (linalg.row_echelon),
    then back-substitution as the same elimination of its pivot rows, last
    first, over their pivot columns, last first: each pivot row in turn is
    the first row left that is nonzero in its pivot column, so it clears
    that column of the rows above it.  Each row is then divided by its
    pivot.  Oracle for the kernel bases and section counts the scan reads
    off one forward elimination."""
    if width is None:
        width = len(rows[0]) if len(rows) else 0
    p = field.p
    A, pivots = linalg.row_echelon([linalg._int_row(row, p) for row in rows], field, width)
    A = linalg._pivots(A[::-1], pivots[::-1], p)[0][::-1]
    R = [linalg._normalized(row, c, p) for row, c in zip(A, pivots)]
    return R + [[field.zero] * width for _ in range(len(rows) - len(R))], pivots


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


def rref_mod(rows: list[list[int]], width: int, p: int) -> tuple[list[list[int]], list[int]]:
    """Vectorized Gauss-Jordan mod p on an int64 numpy copy of rows, returned
    as lists: the numpy rref linalg used before it back-substituted on its
    forward elimination, and the dense GF(p) oracle of linalg.rref."""
    A = np.array(rows, dtype=np.int64).reshape(len(rows), width) % p
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
    return A.tolist(), pivots


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
        return v.tolist()


# The GF(p) elimination linalg ran before its row operation updated rows in
# place: each row operation builds a new row from every column at or right of
# the pivot, with the pivot's inverse taken per row.  The oracle of the mod-p
# kernel, in the same pivot order, so linalg must agree with it exactly.


def eliminate_mod(row: list[int], pivot_row: list[int], c: int, p: int) -> list[int]:
    """row - (row[c] / pivot_row[c]) * pivot_row mod p, for a pivot row that
    is zero left of c (so row keeps its entries there)."""
    f = row[c] * pow(pivot_row[c], -1, p) % p
    return row[:c] + [(x - f * y) % p for x, y in zip(row[c:], pivot_row[c:])]


def pivots_mod(A: list[list[int]], columns, p: int) -> tuple[list[list[int]], list[int]]:
    """linalg._pivots by eliminate_mod: a new list of rows after each pivot."""
    rows, pivots = [], []
    for c in columns:
        if not A:
            break
        piv = next((i for i, row in enumerate(A) if row[c]), None)
        if piv is None:
            continue
        P = A.pop(piv)
        A = [eliminate_mod(row, P, c, p) if row[c] else row for row in A]
        rows.append(P)
        pivots.append(c)
    return rows, pivots


def row_echelon_list_mod(rows, width: int, p: int) -> tuple[list[list[int]], list[int]]:
    return pivots_mod([[x % p for x in row] for row in rows], range(width), p)


def rref_list_mod(rows, width: int, p: int) -> tuple[list[list[int]], list[int]]:
    """linalg.rref by pivots_mod: forward elimination, then back-substitution
    on the pivot rows in reverse order, each row divided by its pivot."""
    A, pivots = row_echelon_list_mod(rows, width, p)
    A = pivots_mod(A[::-1], pivots[::-1], p)[0][::-1]
    R = [[x * pow(row[c], -1, p) % p for x in row] for row, c in zip(A, pivots)]
    return R + [[0] * width for _ in range(len(rows) - len(R))], pivots


def solve_list_mod(rows, rhs, width: int, p: int):
    R, pivots = rref_list_mod([list(row) + [b] for row, b in zip(rows, rhs)], width + 1, p)
    if width in pivots:
        return None
    x = [0] * width
    for row, c in zip(R, pivots):
        x[c] = row[width]
    return x


class ListRowSpaceMod:
    """linalg.RowSpace over GF(p) by eliminate_mod against stored rows."""

    def __init__(self, p: int):
        self.p = p
        self._rows: list[list[int]] = []
        self._pivots: list[int] = []

    def insert(self, vec):
        p = self.p
        v = [x % p for x in vec]
        for piv, row in zip(self._pivots, self._rows):
            if v[piv]:
                v = eliminate_mod(v, row, piv, p)
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is None:
            return None
        k = bisect_left(self._pivots, piv)
        self._pivots.insert(k, piv)
        self._rows.insert(k, v)
        inv = pow(v[piv], -1, p)
        return [x * inv % p for x in v]


# -- the binary form text grammar: round-trip oracle for format_binary_form ------
#
# Terms `c*s^a*t^b` joined by + / -, with one optional leading sign; factors are
# joined by `*`, and the exponent is omitted when 1,
# e.g. `-s^11+t^11`, `s^10*t`, `3*s*t^2`.

_FORM_TOKEN = re.compile(r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<var>[st])(?:\^(?P<exp>\d+))?|(?P<op>[+*-]))")


def parse_binary_form(text: str, field: FieldSpec, degree: int | None = None) -> BinaryForm:
    """Parse the textual form grammar; `degree` pins the slot for zero input."""
    terms = []  # (coeff, s_exp, t_exp)
    pos = 0
    sign = 1
    cur = None  # (coeff, s, t) of term under construction
    text = text.strip()
    if text in ("0", ""):
        if degree is None or degree < 0:
            return BinaryForm.zero(field)
        return BinaryForm.zero_of_degree(field, degree)

    after_factor = False  # whether the last token was a number or a variable
    while pos < len(text):
        m = _FORM_TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"syntax error in binary form at position {pos}: {text[pos:]!r}")
        pos = m.end()
        token = m.group().lstrip()
        at = pos - len(token)
        op = m.group("op")
        # operators and factors alternate; a sign may also open the text
        if after_factor != bool(op) and not (at == 0 and op in ("+", "-")):
            raise ValueError(f"unexpected {token!r} at position {at} in binary form")
        after_factor = not op
        if op == "*":
            continue
        if op:
            if cur is not None:
                terms.append(cur)
            cur = None
            sign = -1 if op == "-" else 1
            continue
        if cur is None:
            cur = (field.one if sign > 0 else field.neg(field.one), 0, 0)
        c, a, b = cur
        if m.group("num"):
            cur = (field.mul(c, field.parse_scalar(m.group("num"))), a, b)
        else:
            exp = int(m.group("exp") or 1)
            cur = (c, a + exp, b) if m.group("var") == "s" else (c, a, b + exp)
    if not after_factor:
        raise ValueError(f"binary form ends in an operator at position {at}")
    terms.append(cur)
    deg = terms[0][1] + terms[0][2]
    for _, a, b in terms:
        if a + b != deg:
            raise ValueError(f"non-homogeneous binary form: degree {a + b} term among degree {deg}")
    if degree is not None and degree != deg:
        raise DegreeError(f"expected degree {degree}, parsed degree {deg}")
    coeffs = [field.zero] * (deg + 1)
    for c, _, b in terms:
        coeffs[b] = field.add(coeffs[b], c)
    return BinaryForm(field, deg, tuple(coeffs))


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


# -- the full argument parser ------------------------------------------------------
#
# Every subcommand with all of its arguments, written out one by one.  Oracle
# for the CLI's parse: the Namespace, help, usage and error text of both its
# lone subcommand parser and its full parser.


def full_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rncsplit",
        description="Splitting types of restricted tangent and normal bundles of "
        "rational normal curves on hypersurfaces (exact arithmetic).",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--output", help="write the report to a file instead of stdout")

    def field(p):  # compute, verify and extend only, after the common options
        p.add_argument("--field", help="rational or prime:<p>")

    p = sub.add_parser("compute", help="splitting data of a given or generated hypersurface")
    p.add_argument("--d", type=int)
    p.add_argument("--e", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--poly", help="hypersurface file")
    common(p)
    field(p)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("verify", help="sweep a published table and compare every case")
    p.add_argument("--theorem", required=True, choices=("quadrics", "cubics", "quartics", "general"))
    p.add_argument("--d", type=int, help="hypersurface degree (general theorem only)")
    p.add_argument("--max-n", type=int, required=True, dest="max_n")
    p.add_argument("--workers", type=int, default=1)
    common(p)
    field(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("extend", help="run the dimension-extension engine")
    p.add_argument("--poly", help="hypersurface file to extend")
    p.add_argument("--d", type=int)
    p.add_argument("--e", type=int)
    p.add_argument("--to-n", type=int, required=True, dest="to_n")
    common(p)
    field(p)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("glue", help="index-wise gluing bound of two splittings")
    p.add_argument("A")
    p.add_argument("B")
    common(p)
    p.set_defaults(func=cmd_glue)

    p = sub.add_parser("dominates", help="specialization dominance of two splittings")
    p.add_argument("A")
    p.add_argument("B")
    common(p)
    p.set_defaults(func=cmd_dominates)

    p = sub.add_parser("interp", help="interpolation count of a splitting")
    p.add_argument("splitting")
    p.add_argument("--d", type=int)
    p.add_argument("--e", type=int)
    p.add_argument("--n", type=int)
    common(p)
    p.set_defaults(func=cmd_interp)

    p = sub.add_parser("predict", help="catalog prediction for (d, e, n)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_predict)
    return ap


# -- MultiPoly arithmetic the library does not use ----------------------------------


def poly_variable(context: CurveContext, index: int) -> MultiPoly:
    """The variable x_index as a degree-1 MultiPoly."""
    if not 0 <= index <= context.n:
        raise PolyError(f"variable x{index} outside x0..x{context.n}")
    exp = [0] * context.nvars
    exp[index] = 1
    return MultiPoly(context, 1, {tuple(exp): context.field.one})


def poly_scale(poly: MultiPoly, scalar) -> MultiPoly:
    """scalar * poly."""
    K = poly.context.field
    return MultiPoly(poly.context, poly.total_degree, {e: K.mul(scalar, c) for e, c in poly.terms.items()})


def poly_neg(poly: MultiPoly) -> MultiPoly:
    """-poly."""
    K = poly.context.field
    return poly_scale(poly, K.neg(K.one))


def poly_sub(P: MultiPoly, Q: MultiPoly) -> MultiPoly:
    """P - Q by MultiPoly.add, with its degree checks."""
    return P.add(poly_neg(Q))


# -- the .hsf polynomial parser oracle ---------------------------------------------

_POLY_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|x(?P<var>\d+)|(?P<op>[-+*^()]))"
)


class _PolyParser:
    def __init__(self, text: str, context: CurveContext, degree: int):
        self.tokens: list = []
        self.context = context
        self.degree = degree  # the expected degree, which no power may exceed
        # the most digits Python reads or prints in one int (0: no limit)
        self.limit = getattr(sys, "get_int_max_str_digits", int)()
        pos = 0
        while pos < len(text):
            if text[pos].isspace():
                pos += 1
                continue
            m = _POLY_TOKEN.match(text, pos)
            if not m:
                raise HsfError(f"syntax error at position {pos}: {text[pos:]!r}")
            if self.limit and any(len(run) > self.limit for run in re.findall(r"\d+", m.group())):
                raise HsfError(f"number at position {pos} has more than {self.limit} digits")
            if m.group("num"):
                self.tokens.append(("num", m.group("num"), pos))
            elif m.group("var") is not None:
                self.tokens.append(("var", int(m.group("var")), pos))
            else:
                self.tokens.append(("op", m.group("op"), pos))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise HsfError("unexpected end of input")
        self.i += 1
        return tok

    def parse(self) -> MultiPoly:
        p = self.expr()
        tok = self.peek()
        if tok is not None:
            raise HsfError(f"unexpected token at position {tok[2]}")
        return p

    def expr(self) -> MultiPoly:
        # the terms add into one dict, as MultiPoly.add would one at a time:
        # a zero sum takes the degree of the next term
        first = self.term()
        K = self.context.field
        out, degree = dict(first.terms), first.total_degree
        while True:
            tok = self.peek()
            if not (tok and tok[0] == "op" and tok[1] in "+-"):
                return MultiPoly(self.context, degree, out)
            self.next()
            right = self.term()
            if not out:
                degree = right.total_degree
            elif right.terms and right.total_degree != degree:
                raise HsfError(f"degree mismatch: {degree} vs {right.total_degree}")
            for exp, c in right.terms.items():
                total = K.add(out.get(exp, K.zero), c if tok[1] == "+" else K.neg(c))
                if K.is_zero(total):
                    del out[exp]
                else:
                    out[exp] = total

    def term(self) -> MultiPoly:
        left = self.factor()
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] == "*":
                self.next()
                left = left.mul(self.factor())
            else:
                return left

    def factor(self) -> MultiPoly:
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "-":
            self.next()
            return poly_neg(self.factor())
        base = self.atom()
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "^":
            self.next()
            exp_tok = self.next()
            if exp_tok[0] != "num" or "/" in exp_tok[1]:
                raise HsfError(f"expected integer exponent at position {exp_tok[2]}")
            power = int(exp_tok[1])
            K = self.context.field
            if base.is_zero() or base.total_degree == 0:  # 0^k and c^k in one step
                c = next(iter(base.terms.values()), K.zero)
                # |c|^power has at least power * bits + 1 bits, and 10^limit 3.33 * limit
                bits = 0 if K.p else max(abs(c.numerator).bit_length(), c.denominator.bit_length()) - 1
                if self.limit and power * bits > 4 * self.limit:
                    raise HsfError(f"power at position {exp_tok[2]} has more than {self.limit} digits")
                return MultiPoly.constant(self.context, c**power if K.p is None else pow(c, power, K.p))
            if base.total_degree * power > self.degree:
                raise HsfError(f"power at position {exp_tok[2]} above the expected degree {self.degree}")
            out = MultiPoly.constant(self.context, K.one)
            for _ in range(power):
                out = out.mul(base)
            return out
        return base

    def atom(self) -> MultiPoly:
        tok = self.next()
        if tok[0] == "num":
            return MultiPoly.constant(self.context, self.context.field.parse_scalar(tok[1]))
        if tok[0] == "var":
            if tok[1] > self.context.n:
                raise HsfError(f"variable x{tok[1]} exceeds ambient dimension n = {self.context.n}")
            return poly_variable(self.context, tok[1])
        if tok[1] == "(":
            inner = self.expr()
            close = self.next()
            if close[0] != "op" or close[1] != ")":
                raise HsfError(f"expected ')' at position {close[2]}")
            return inner
        raise HsfError(f"unexpected token {tok[1]!r} at position {tok[2]}")


# One pass over a sum of monomials: signed terms, each a *-product of numbers
# a or a/b and powers x<k> or x<k>^<m>.  Anything else is _PolyParser's.
_FACTOR = r"(?:\d+(?:/\d+)?|x\d+(?:\s*\^\s*\d+)?)"
_SUM = re.compile(rf"-?\s*{_FACTOR}(?:\s*[-+*]\s*{_FACTOR})*")
_SUM_TOKEN = re.compile(r"([-+])|(\d+)(?:/(\d+))?|x(\d+)(?:\s*\^\s*(\d+))?")


def _read_sum(text: str, context: CurveContext, degree: int) -> MultiPoly | None:
    """The sum of monomials ``text`` (stripped) as _PolyParser reads it, its
    terms added into one dict; None where _PolyParser must decide: other
    syntax (parentheses, a sign inside a term, a power of a number), x<k> past
    n, a term of another degree, a number past Python's digit limit, or a
    zero coefficient or denominator."""
    if not _SUM.fullmatch(text):
        return None
    K, n, p = context.field, context.n, context.field.p
    tokens = _SUM_TOKEN.findall(text)
    neg = text[0] == "-"
    terms = []  # (negated, numerator, denominator, exponents) per term
    num, den, exp = 1, 1, [0] * (n + 1)
    try:
        for sign, a, b, k, m in tokens[1:] if neg else tokens:
            if sign:
                terms.append((neg, num, den, exp))
                neg, num, den, exp = sign == "-", 1, 1, [0] * (n + 1)
            elif a:
                num *= int(a)
                if b:
                    den *= int(b)
            else:
                k = int(k)
                if k > n:
                    return None
                exp[k] += int(m) if m else 1
    except ValueError:  # more digits than Python reads
        return None
    terms.append((neg, num, den, exp))
    out: dict = {}
    for neg, num, den, exp in terms:
        if sum(exp) != degree:
            return None
        if p is None:
            if not num or not den:
                return None
            c = Fraction(-num if neg else num, den)
        else:
            if not num % p or not den % p:
                return None
            c = (-num if neg else num) * pow(den, p - 2, p) % p
        key = tuple(exp)
        prev = out.get(key)
        if prev is None:
            out[key] = c
        else:
            total = K.add(prev, c)
            if K.is_zero(total):
                del out[key]
            else:
                out[key] = total
    return MultiPoly(context, degree, out)


def parse_poly_oracle(text: str, context: CurveContext, expected_degree: int) -> MultiPoly:
    """multipoly.parse_poly as two parsers of one grammar: the one-pass reader
    _read_sum for a sum of monomials, else the token-at-a-time recursive
    descent _PolyParser.  Oracle for the one parser in multipoly."""
    text = text.strip()
    if text == "0":
        return MultiPoly.zero(context, expected_degree)
    raw = _read_sum(text, context, expected_degree)
    if raw is None:
        raw = _PolyParser(text, context, expected_degree).parse()
    if raw.is_zero():
        return MultiPoly.zero(context, expected_degree)
    degrees = {sum(exp) for exp in raw.terms}
    if len(degrees) > 1:
        raise HsfError(f"non-homogeneous polynomial: term degrees {sorted(degrees)}")
    if raw.total_degree != expected_degree:
        raise HsfError(
            f"expected degree {expected_degree}, parsed degree {raw.total_degree}"
        )
    return raw

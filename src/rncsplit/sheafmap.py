"""Graded matrices between twist-sums of line bundles on the projective line.

A map ⊕_j O(b_j) -> ⊕_i O(c_i) is a matrix of binary forms whose (i, j) entry
is homogeneous of degree c_i - b_j (or strictly zero).  This module builds the
maps psi and delta attached to a hypersurface X through a rational normal
curve C (their kernels are N_{C/X} and T_X|_C), recovers splitting types of
kernels of one-row maps by an exact nullity scan over twists, and extracts
minimal kernel matrices.  One certificate, certify_kernel, proves a matrix
generates a kernel of known rank and degree from its rank at one point; full
rank at every point of the line follows from it.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate, compress
from math import lcm

from . import linalg
from .binform import BinaryForm
from .fields import FieldSpec
from .multipoly import CurveContext, IdealCombination, restrict_to_curve
from .splitting import SplittingType

TwistSum = tuple  # sequence of integers, order significant


class MapError(ValueError):
    pass


class CertificationError(RuntimeError):
    """An internal exactness certificate failed; signals a bug, not bad input."""


class GradedSheafMap:
    """A graded matrix of binary forms; `==` is identity."""

    __slots__ = ("field", "source", "target", "entries")

    def __init__(self, field: FieldSpec, source: TwistSum, target: TwistSum, entries: dict):
        # entries: (row, col) -> BinaryForm; zero entries are dropped
        source, target = tuple(source), tuple(target)
        clean = {}
        for (i, j), f in entries.items():
            if not (0 <= i < len(target) and 0 <= j < len(source)):
                raise MapError(f"entry ({i},{j}) outside {len(target)}x{len(source)}")
            if f.is_zero():
                continue
            if f.degree != target[i] - source[j]:
                raise MapError(
                    f"entry ({i},{j}) has degree {f.degree}, expected c_i - b_j = {target[i] - source[j]}"
                )
            clean[(i, j)] = f
        self.field, self.source, self.target, self.entries = field, source, target, clean

    @classmethod
    def _built(cls, field: FieldSpec, source: tuple, target: tuple, entries: dict) -> "GradedSheafMap":
        """The map with these entries, unchecked: for the builders here and
        in the constructor, whose entries are nonzero forms of degree
        c_i - b_j inside the matrix by construction.  The tests pass every
        such map through __init__, which keeps all the checks."""
        M = cls.__new__(cls)
        M.field, M.source, M.target, M.entries = field, source, target, entries
        return M

    @property
    def nrows(self) -> int:
        return len(self.target)

    @property
    def ncols(self) -> int:
        return len(self.source)

    def entry(self, i: int, j: int) -> BinaryForm:
        return self.entries.get((i, j), BinaryForm.zero(self.field))

    def is_zero_map(self) -> bool:
        return not self.entries

    def permute_columns(self, perm: list[int]) -> "GradedSheafMap":
        """New map whose column k is the old column perm[k]."""
        inv = {old: new for new, old in enumerate(perm)}
        return GradedSheafMap._built(
            self.field,
            tuple(self.source[old] for old in perm),
            self.target,
            {(i, inv[j]): f for (i, j), f in self.entries.items()},
        )

    def __repr__(self) -> str:
        return f"GradedSheafMap({list(self.target)} <- {list(self.source)}, {len(self.entries)} entries)"


def compose(outer: GradedSheafMap, inner: GradedSheafMap) -> GradedSheafMap:
    """Matrix product outer ∘ inner, as one integer convolution per entry.

    Each outer row and each inner column is cleared of denominators once, by
    their lcm (over GF(p) there is nothing to clear), and the inner entries
    are grouped by row once.  Entry (i, k) of outer is multiplied by entry
    (k, j) of inner only where both are nonzero; each product adds into one
    list of Python ints per (i, j), and each coefficient is reduced once:
    mod p, or to one Fraction over the row and column lcms."""
    if inner.target != outer.source:
        raise MapError(f"twist mismatch: inner target {inner.target} != outer source {outer.source}")
    K, p = outer.field, outer.field.p
    cols = _integer_lines(inner.entries, K, 1)
    by_row: dict = {}
    for j, (_, col) in cols.items():
        for k, b in col.items():
            by_row.setdefault(k, []).append((j, b))
    entries = {}
    for i, (row_den, row) in _integer_lines(outer.entries, K, 0).items():
        accs: dict = {}
        for k, a in row.items():
            for j, b in by_row.get(k, ()):
                acc = accs.get(j)
                if acc is None:
                    acc = accs[j] = [0] * (outer.target[i] - inner.source[j] + 1)
                short, long = (a, b) if len(a) <= len(b) else (b, a)
                for u, x in enumerate(short):
                    if x:
                        for v, y in enumerate(long, u):
                            acc[v] += x * y
        for j, acc in accs.items():
            if p is None:
                den = row_den * cols[j][0]
                coeffs = [Fraction(c, den) for c in acc]
            else:
                coeffs = [c % p for c in acc]
            if any(coeffs):
                entries[(i, j)] = BinaryForm(K, len(acc) - 1, tuple(coeffs))
    return GradedSheafMap._built(K, inner.source, outer.target, entries)


def _integer_lines(entries: dict, K: FieldSpec, axis: int) -> dict:
    """The rows (axis 0) or columns (axis 1) of a map's entries, each as
    (lcm L of its denominators, {other index: coefficients times L})."""
    lines: dict = {}
    for key, f in entries.items():
        lines.setdefault(key[axis], {})[key[1 - axis]] = f.coeffs
    if K.p is not None:
        return {x: (1, line) for x, line in lines.items()}
    out = {}
    for x, line in lines.items():
        L = lcm(*(c.denominator for cs in line.values() for c in cs))
        out[x] = (L, {k: [c.numerator * (L // c.denominator) for c in cs] for k, cs in line.items()})
    return out


def _column_hits(entries: dict, K: FieldSpec, starts) -> tuple[dict, dict]:
    """The nonzero coefficients of each column j's entries (i, j), found
    with compress, as (starts[i] + index, Python int) pairs, and the lcm L_i
    of the denominators of each row i: over Q the pairs hold numerators over
    L_i, over GF(p) the canonical coefficients (and no L_i is returned)."""
    rational, scale = K.p is None, {}
    if rational:
        for (i, _), f in entries.items():
            scale[i] = lcm(scale.get(i, 1), *(c.denominator for c in compress(f.coeffs, f.coeffs)))
    hits: dict = {}
    for (i, j), f in entries.items():
        cs, start = f.coeffs, starts[i]
        us = compress(range(len(cs)), cs)
        if rational:
            L = scale[i]
            hits.setdefault(j, []).extend([(start + u, cs[u].numerator * (L // cs[u].denominator)) for u in us])
        else:
            hits.setdefault(j, []).extend([(start + u, cs[u]) for u in us])
    return hits, scale


# -- maps attached to a hypersurface through the curve -------------------------


def tangent_twists(ctx: CurveContext) -> TwistSum:
    """T_{P^n}|_C = O(e+1)^e ⊕ O(e)^(n-e)."""
    return (ctx.e + 1,) * ctx.e + (ctx.e,) * (ctx.n - ctx.e)


def normal_twists(ctx: CurveContext) -> TwistSum:
    """N_{C/P^n} = O(e+2)^(e-1) ⊕ O(e)^(n-e)."""
    return (ctx.e + 2,) * (ctx.e - 1) + (ctx.e,) * (ctx.n - ctx.e)


def build_psi(F: IdealCombination) -> GradedSheafMap:
    """Induced map N_{C/P^n} -> O(de) of F through the curve (_restriction_maps)."""
    return _psi_and_delta(F)[0]


def build_delta(F: IdealCombination) -> GradedSheafMap:
    """delta = psi ∘ beta : T_{P^n}|_C -> O(de) (_restriction_maps)."""
    return _psi_and_delta(F)[1]


def _psi_and_delta(F: IdealCombination) -> tuple[GradedSheafMap, GradedSheafMap]:
    """psi and delta of F: one _restriction_maps call on its restricted
    coefficients, made on first use and kept on F (F.maps)."""
    if F.maps is None:
        quadric, linear = ({k: restrict_to_curve(p) for k, p in c.items()} for c in (F.quadric_coeffs, F.linear_coeffs))
        F.maps = _restriction_maps(F.context, quadric, linear)
    return F.maps


def _restriction_maps(ctx: CurveContext, quadric: dict, linear: dict) -> tuple[GradedSheafMap, GradedSheafMap]:
    """psi and delta from the restrictions quadric[(i, j)] = F_{i,j}|_C and
    linear[k] = G_k|_C, in one pass.

    Column l (1-based, l <= e-1) of psi is C_l, the sum of
    s^(e-j-i+l) t^(j+i-l-2) F_{i,j}|_C over pairs with i <= l < j.  beta :
    T_{P^n}|_C -> N_{C/P^n} is the quotient map (bidiagonal (t, -s) block on
    the tangent part, identity on O(e)^(n-e)), so delta = psi ∘ beta has
    tangent columns t C_l - s C_(l-1) for l = 1..e (C_0 = C_e = 0).  The
    trailing columns of both are the G_k|_C.  The builder pays per nonzero
    coefficient: each C_l is a dict {t-power: Python int} of the nonzero
    coefficients of the F_{i,j}|_C that reach it (over Q numerators over the
    lcm of their denominators, as in compose), delta's columns are formed
    from those dicts, and each entry of a column is scattered into a tuple
    of the field's zeros, reduced once (one % p or one Fraction)."""
    K, p, e, de = ctx.field, ctx.field.p, ctx.e, ctx.d * ctx.e
    lines, scale = _column_hits({(0, key): r for key, r in quadric.items()}, K, (0,))
    L, zero = scale.get(0, 1), K.zero
    C: list[dict] = [{} for _ in range(e + 1)]
    for (i, j), pairs in lines.items():
        for l in range(i, j):
            col, off = C[l], j + i - l - 2
            for u, x in pairs:
                col[off + u] = col.get(off + u, 0) + x

    def form(col: dict, size: int) -> BinaryForm:
        coeffs = [zero] * size
        for u, x in col.items():
            coeffs[u] = x % p if p else Fraction(x, L)
        return BinaryForm(K, size - 1, tuple(coeffs))

    psi = {(0, l - 1): form(C[l], de - e - 1) for l in range(1, e) if C[l]}
    delta = {}
    for l in range(1, e + 1):
        col = {u + 1: x for u, x in C[l].items()}  # t C_l - s C_(l-1)
        for u, x in C[l - 1].items():
            col[u] = col.get(u, 0) - x
        if col:
            delta[(0, l - 1)] = form(col, de - e)
    psi.update(((0, k - 2), r) for k, r in linear.items())
    delta.update(((0, k - 1), r) for k, r in linear.items())
    maps = ((normal_twists(ctx), psi), (tangent_twists(ctx), delta))
    # a sum that cancels mod p, or a G_k|_C that does, is an all-zero form
    return tuple(
        GradedSheafMap._built(K, source, (de,), {k: f for k, f in entries.items() if not f.is_zero()})
        for source, entries in maps
    )


# -- sections and the nullity scan ---------------------------------------------


def _section_rows(M: GradedSheafMap, T: int) -> tuple[list[list[int]], list[tuple[int, int]]]:
    """The twist-T section matrix ⊕Γ(O(b_j+T)) -> ⊕Γ(O(c_i+T)) of M in
    coefficient coordinates, built once as rows of Python ints.  Column
    (j, q) is coefficient q of block j, that of s^(b_j+T-q) t^q; M_ij has
    degree c_i - b_j and puts its coefficient u in row q + u of block i.  The
    columns run in level order: by level b_j + T - q, descending, ties in
    block order (see _nullity_scan).  Over GF(p) the entries are the
    canonical coefficients; over Q, each row of M is scaled by the lcm of its
    denominators, which leaves the kernel and the pivots unchanged.  It pays
    per nonzero coefficient: _column_hits finds each entry's nonzeros with
    compress (and over Q scales only those), the zero rows are allocated
    once, and each nonzero of the matrix is written once: a nonzero
    coefficient of M_ij once per column of block j.  Returns (rows, the
    (j, q) of each column)."""
    heights = [max(0, c + T + 1) for c in M.target]
    starts = [0, *accumulate(heights)]
    keys = [
        (j, b + T - level)
        for level in range(max(M.source, default=-1) + T, -1, -1)
        for j, b in enumerate(M.source)
        if b + T >= level
    ]
    # block j's nonzero coefficients, as (row at q = 0, value)
    hits = _column_hits(M.entries, M.field, starts)[0]
    rows = [[0] * len(keys) for _ in range(starts[-1])]
    for k, (j, q) in enumerate(keys):
        for r, x in hits.get(j, ()):
            rows[r + q][k] = x
    return rows, keys


def _scan_window(M: GradedSheafMap) -> tuple[int, int]:
    B, c = max(M.source), M.target[0]
    a_spec = sum(M.source) - c - M.ncols * B
    a_safe = sum(M.source) - max(c, 0) - (M.ncols - 1) * max(B, 0)
    return -B - 1, -min(a_spec, a_safe)


def _width(M: GradedSheafMap, m: int) -> int:
    """Columns of the twist-m section matrix."""
    return sum(max(0, b + m + 1) for b in M.source)


def _twist_echelon(M: GradedSheafMap, T: int) -> tuple[list, list[int], list]:
    """One forward elimination of the level-ordered twist-T section matrix:
    (pivot rows, pivot columns, the (j, q) of each column)."""
    A, keys = _section_rows(M, T)
    return (*linalg.row_echelon(A, M.field, len(keys)), keys)


def _count(M: GradedSheafMap, pivots: list[int], m: int) -> int:
    """N(m), the nullity of the twist-m section matrix, from the pivots of a
    twist T >= m elimination: that matrix is its prefix of width _width(M, m)."""
    w = _width(M, m)
    return w - bisect_left(pivots, w)


def _kernel_basis(M: GradedSheafMap, rows: list, pivots: list[int], keys: list, m: int) -> list[list]:
    """A basis of the nullspace of the twist-m section matrix in block order,
    as integer rows whose last nonzero positions strictly increase.  Read
    from a twist T >= m elimination (rows, pivots, keys; see _twist_echelon)
    with no second elimination of the matrix.

    The pivot rows inside the prefix of width w = _width(M, m) span its row
    space.  One back-elimination reduces them: linalg._pivots, with its one
    row operation, runs on fresh copies of them cut to the prefix and on
    their pivots, last first, so each row is zero at every other pivot
    column.  The prefix kernel vector of a free level-order column f is then
    read off with no dot product: 1 at f and -row[f] / row[c] at the pivot c
    of each row, which is zero unless c < f.  Column (j, q) of the prefix is
    column off(j) + q of the twist-m matrix in block order.  These vectors
    span the kernel, and one forward elimination over the block-order
    columns, last first, leaves each a last nonzero position of its own.
    Reversed, the first k rows span the kernel vectors that are zero past
    the k-th of those positions, as the first k rows of the reduced echelon
    basis do, which is all kernel_matrix depends on."""
    p = M.field.p
    w = _width(M, m)
    r = bisect_left(pivots, w)
    rows, pivots = linalg._pivots([row[:w] for row in rows[:r][::-1]], pivots[:r][::-1], p)
    offsets = [0, *accumulate(max(0, b + m + 1) for b in M.source)]
    where = [offsets[j] + q for j, q in keys[:w]]  # block order
    free = sorted(set(range(w)).difference(pivots))
    basis = [[0] * w for _ in free]
    for vec, f in zip(basis, free):
        vec[where[f]] = 1
    for row, c in zip(rows, pivots):
        x, scale = where[c], Fraction(-1, row[c]) if p is None else p - pow(row[c], -1, p)
        for vec, f in zip(basis, free):
            if row[f]:
                vec[x] = row[f] * scale  # -row[f] / row[c], reduced mod p by _int_row
    basis = [linalg._int_row(vec, p) for vec in basis]
    return linalg._pivots(basis, range(w - 1, -1, -1), p)[0][::-1]


def _nullity_scan(M: GradedSheafMap, generators: bool = False):
    """Nullity scan of a one-row map M : ⊕O(b_j) -> O(c).  For ker M ≅ ⊕O(a_i)
    the section counts N(m) = dim ker of the twist-m section matrix obey
    N(m) = h^0(ker M(m)) and N(m) - N(m-1) = #{i : a_i >= -m}; at each twist
    m where this increment grows, yields (m, new_parts, sections), and
    sections(m) gives the (basis, width) of the nullspace at m, in block
    order (_kernel_basis).  Any other map raises MapError.

    One elimination gives every count below a twist T (the single-rref idea
    of Hong, Hough and Kogan, "Algorithm for computing μ-bases of univariate
    polynomials", J. Symbolic Comput. 80, 2017).  Coefficient q of block j at
    twist T is the coefficient of s^(b_j+T-q) t^q; give its column the level
    b_j + T - q.  Multiplication by s^k embeds the sections at T - k into
    those at T as the columns of level >= k, and the target rows above
    c + T - k are zero on them: those columns are the section matrix at
    T - k.  Ordered by level, descending, they are a prefix, and the rank of
    a prefix is the number of pivots in it.  So the pivot levels of one
    forward elimination give N(T - k) for every k >= 0 (_count), and its
    pivot rows give the kernel at every T - k as well (_kernel_basis).  Each
    twist's matrix is built once, as integer rows in level order
    (_section_rows), and eliminated once (_twist_echelon).

    The scan first eliminates at T = m0 + 1 (m0 as in the χ stop below),
    where a balanced kernel meets χ, so one matrix answers the N(m0) = 0
    check, any step down and the χ stop.  With generators=True and parts
    that differ, it eliminates at m0 + 2 instead, where a balanced kernel's
    last generators appear, so that one elimination serves all of them.  It
    eliminates at a higher twist only when an unbalanced kernel climbs past
    T, and sections(m) reads the lowest eliminated twist >= m.

    The kernel's rank r and a lower bound D on its degree come from the shape.
    A nonzero row has image O(c - deg g), g the gcd of its entries, so
    r = cols - 1 and deg ker M = D + deg g with D = Σb_j - c.  It is onto at
    a point iff g is nonzero there, and g has a zero (over the algebraic
    closure) iff deg g > 0: so deg ker M = D iff the row is onto at every
    point.  The zero row, onto nowhere, has kernel ⊕O(b_j): r = cols and
    D = Σb_j, which is not Σb_j - c for c != 0.

    Euler-characteristic stop: Riemann-Roch gives
    N(m) >= χ(ker M(m)) = r(m+1) + deg ker M >= r(m+1) + D.  So at a twist m
    with N(m) = r(m+1) + D both inequalities are equalities: deg ker M = D
    (a nonzero row is onto everywhere) and h^1(ker M(m)) = 0, which says
    every a_i >= -m-1.  The parts a_i >= -m are the ones found so far; the
    remaining r - inc parts are -m-1, and their generators are yielded at
    twist m+1.  Multiplication by s injects the sections at m into those at
    m+1, so N(m) = 0 forces N = 0 below m: the scan starts at
    m0 = floor(-D/r) - 1 (a balanced kernel of degree D has no sections
    there, and meets χ at m0 + 1), stepping down only while N(m0) > 0.

    Increment stop: where the row is not onto at some point, deg ker M > D
    and χ is never met; the scan stops at the first twist where the increment
    inc = N(m) - N(m-1) equals r, so every part has appeared.  Once all parts
    are in, N(m) = r(m+1) + deg ker M, so a stop here with χ unmet means the
    row is not onto at some point.

    _scan_window bounds the scan: if neither stop is met inside it, the scan
    raises CertificationError.  The final checks run once the generator is
    exhausted."""
    if M.nrows != 1:
        raise MapError(f"the nullity scan takes one-row maps, not {M.nrows} rows")
    rank, degree = M.ncols, sum(M.source)
    if M.entries:
        rank, degree = rank - 1, degree - M.target[0]
    if rank == 0:
        return
    m_bottom, m_top = _scan_window(M)
    built: dict = {}  # twist T -> _twist_echelon(M, T)

    def echelon(m: int):
        top = min((t for t in built if t >= m), default=m)
        if top not in built:
            built[top] = _twist_echelon(M, top)
        return built[top]

    def count(m: int) -> int:
        return _count(M, echelon(m)[1], m)

    def sections(m: int):
        return _kernel_basis(M, *echelon(m), m), _width(M, m)

    start = max(m_bottom + 1, min(-degree // rank - 1, m_top))
    # eliminate first at the χ twist of a balanced kernel, or, when the
    # generators are wanted and the parts differ, one twist higher, where the
    # last generators appear
    echelon(start + 1 + (generators and degree % rank != 0))
    while start > m_bottom + 1 and count(start):
        start -= 1
    parts: list[int] = []
    prev_count, prev_inc = count(start - 1), 0
    m_stop = m_top
    chi_met = False
    for m in range(start, m_top + 1):
        n = count(m)
        inc = n - prev_count
        if inc < prev_inc:
            raise CertificationError(f"section counts not monotone at twist {m}")
        if inc > prev_inc:
            new_parts = [-m] * (inc - prev_inc)
            parts.extend(new_parts)
            yield m, new_parts, sections
        prev_count, prev_inc = n, inc
        chi_met = n == rank * (m + 1) + degree
        if chi_met or inc == rank:
            m_stop = m
            break
    if chi_met and inc < rank:
        rest = [-m_stop - 1] * (rank - inc)
        parts.extend(rest)
        yield m_stop + 1, rest, sections
    if len(parts) != rank:
        raise CertificationError(
            f"scan found {len(parts)} kernel parts inside the window, expected rank {rank}"
        )
    for m in (m_stop - 1, m_stop):
        want = sum(max(0, a + m + 1) for a in parts)
        if count(m) != want:
            raise CertificationError(
                f"recovered splitting {sorted(parts)} inconsistent with count at twist {m}"
            )


def splitting_of_kernel(M: GradedSheafMap) -> SplittingType:
    """Splitting type of ker M for a one-row map M, read off the nullity scan
    (_nullity_scan)."""
    return SplittingType(tuple(sorted(a for _, new, _ in _nullity_scan(M) for a in new)))


def _vector_to_forms(M: GradedSheafMap, vec, twist: int) -> dict:
    """Cut a section-space kernel vector at m = -twist into per-column forms."""
    forms = {}
    off = 0
    for j, b in enumerate(M.source):
        dim = max(0, b - twist + 1)
        if dim == 0:
            continue
        f = BinaryForm(M.field, b - twist, tuple(vec[off : off + dim]))
        if not f.is_zero():
            forms[j] = f
        off += dim
    return forms


def kernel_matrix(M: GradedSheafMap) -> GradedSheafMap:
    """A minimal generating matrix K of ker M for a one-row map M:
    compose(M, K) = 0, source twists equal splitting_of_kernel(M) sorted
    descending, and K has full rank at every point of the line.

    Columns of twist a are the scan's nullspace vectors at m = -a (an
    echelon basis of the block-order section matrix, read from the scan's
    own eliminations; _kernel_basis) that are independent of the shifts of
    the columns found before, each as RowSpace.insert returns it.  Those
    columns depend only on the nested spans of the basis's first k vectors,
    so every basis whose last nonzero positions strictly increase, the
    reduced echelon one among them, gives the same K.  Each shift
    s^(b-a-w) t^w of an earlier column of twist b is written straight into a
    twist-a vector, from coefficient tuples: block j gets the column's form
    j, w places into the block.  The scan proves ker M ≅ ⊕O(a_i), which gives
    certify_kernel its rank and degree."""
    gens: list[tuple[int, dict]] = []  # (twist, column forms)
    parts: list[int] = []
    for m, new_parts, sections in _nullity_scan(M, generators=True):
        basis, width = sections(m)
        parts.extend(new_parts)
        a = -m
        span = linalg.RowSpace(M.field, width)
        offsets = [0, *accumulate(max(0, b - a + 1) for b in M.source)]
        for twist, forms in gens:
            for w in range(twist - a + 1):
                vec = [0] * width
                for j, f in forms.items():
                    vec[offsets[j] + w : offsets[j] + w + len(f.coeffs)] = f.coeffs
                span.insert(vec)
        found = 0
        for v in basis:
            res = span.insert(v)
            if res is not None:
                gens.append((a, _vector_to_forms(M, res, a)))
                found += 1
                if found == len(new_parts):
                    break
        if found != len(new_parts):
            raise CertificationError(
                f"expected {len(new_parts)} new kernel generators at twist {a}, found {found}"
            )
    source = tuple(a for a, _ in gens)
    entries = {}
    for col, (a, forms) in enumerate(gens):
        for j, f in forms.items():
            entries[(j, col)] = f
    K_map = GradedSheafMap._built(M.field, source, M.source, entries)
    certify_kernel(M, K_map, len(parts), sum(parts))
    return K_map


def certify_kernel(M: GradedSheafMap, K: GradedSheafMap, rank: int, degree: int) -> None:
    """Certify that K is a minimal generating matrix of ker M, given that
    ker M is a bundle of this rank and degree: raises CertificationError
    unless compose(M, K) = 0, K has `rank` columns of twist sum `degree`, and
    K has full rank at the point (1 : 0), where each entry is its s-power
    coefficient.

    One nonzero maximal minor at one point makes K generically injective.  K
    then maps ⊕O(b_j) into ker M, and a generically injective map between
    bundles of equal rank and degree is an isomorphism (its determinant is a
    nonzero constant), so K has full rank at every point of the line.  The
    check refuses no correct K over any field: the quotient of the source by
    ker M embeds in the target, so it is locally free, ker M is a subbundle,
    and a minimal generating matrix is injective at every point."""
    if not compose(M, K).is_zero_map():
        raise CertificationError("kernel matrix does not annihilate the map")
    if K.ncols != rank or sum(K.source) != degree:
        raise CertificationError(
            f"kernel matrix has rank {K.ncols} and degree {sum(K.source)}, "
            f"the kernel has rank {rank} and degree {degree}"
        )
    at_point = [[K.field.zero] * K.ncols for _ in range(K.nrows)]
    for (i, j), f in K.entries.items():
        at_point[i][j] = f.coeffs[0]
    if linalg.rank(at_point, K.field, K.ncols) != K.ncols:
        raise CertificationError("kernel matrix is not injective at the point (1 : 0)")


# -- hypersurface-level checks -----------------------------------------------------


def check_smooth_along_curve(F: IdealCombination) -> bool:
    """True iff X = V(F) is smooth at every point of the curve C, that is,
    iff delta is onto O(de) at every point of C, decided as compute decides
    it: by the degree of the scanned ker delta.

    X is smooth at a point of C iff dF|_C is nonzero there.  F vanishes on
    C, so dF|_C : T_{P^n}|_C -> O(de) kills T_C and factors through the
    surjection T_{P^n}|_C -> N_{C/P^n} followed by psi; that composite is
    delta.  So dF|_C and delta have the same image in O(de), and they vanish
    at the same points.  deg ker delta = Σsource - de exactly when delta is
    onto at every point (_nullity_scan)."""
    delta = build_delta(F)
    return splitting_of_kernel(delta).degree == sum(delta.source) - F.context.d * F.context.e


# -- serialization -----------------------------------------------------------------


def format_map(M: GradedSheafMap) -> str:
    from .binform import format_binary_form

    head = (
        f"map {M.nrows} x {M.ncols} : "
        f"[{','.join(str(c) for c in M.target)}] <- [{','.join(str(b) for b in M.source)}]"
    )
    lines = [head]
    for (i, j) in sorted(M.entries):
        lines.append(f"({i + 1},{j + 1}) : {format_binary_form(M.entries[(i, j)])}")
    return "\n".join(lines) + "\n"


def map_to_json(M: GradedSheafMap) -> dict:
    from .binform import format_binary_form

    return {
        "rows": M.nrows,
        "cols": M.ncols,
        "target": list(M.target),
        "source": list(M.source),
        "entries": [
            [i + 1, j + 1, format_binary_form(f)] for (i, j), f in sorted(M.entries.items())
        ],
    }

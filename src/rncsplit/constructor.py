"""Generation of explicit hypersurfaces with prescribed restricted-tangent
splitting, and the inductive dimension-extension engine.

Seeds exist at n = e for each constructive degree (chains of curve quadrics
for d = 2, 3, 4; monomial psi-ladders for d >= 5 with e = n >= 2d-2).  For
d = 3, 4 the case n > e is reached one dimension at a time: a strategy matrix
J builds one map N, whose first n rows N1 give K = N1·J and whose last row
is coker J; the row (delta, g) with (delta, g)·N = 0 extends delta by one
entry g, found by one shift by t^-k, and g lifts to the new coefficient
G_(n+1).  certify_kernel, proving N generates the kernel of that row, is
the one check a step's answer rests on; the J identities are facts about
how N is built, and the tests pin them.  The new hypersurface keeps the old
psi and delta (F.maps) with one column appended, G_(n+1)|_C, which equals a
rebuild (extend_dimension).  Every seed is a closed-form polynomial; a
d >= 5 ladder lifts one monomial per superdiagonal coefficient.
"""

from __future__ import annotations

from .binform import BinaryForm, DegreeError
from .fields import RATIONALS, FieldSpec
from .multipoly import (
    CurveContext,
    IdealCombination,
    MultiPoly,
    lift_binary_form,
    restrict_to_curve,
)
from .sheafmap import (
    CertificationError,
    GradedSheafMap,
    _psi_and_delta,
    certify_kernel,
    compose,
    kernel_matrix,
    normal_twists,
    tangent_twists,
)
from .splitting import EXACT, SplittingType, predicted_splitting


class UnsupportedCaseError(ValueError):
    """Requested parameters lie outside the constructive range."""


#: Why compute and extend refuse a hypersurface whose ker delta has degree
#: above Σsource - de (see _nullity_scan).
SINGULAR_ALONG_CURVE = (
    "the hypersurface is singular along the curve (delta is not onto O(de) "
    "at every point), so ker delta is not T_X|_C"
)


class ExtensionStep:
    """One certified step: input_F and output_F (IdealCombination), strategy
    ("J0" | "J1" | "J2"), the maps J, N and delta_out (GradedSheafMap),
    target_splitting (SplittingType) and g (BinaryForm).  N's first n rows
    are N1 (K = N1·J), its last row is the cokernel row of J."""

    __slots__ = ("input_F", "strategy", "output_F", "J", "N", "delta_out", "target_splitting", "g")

    def __init__(self, **fields):
        for name in self.__slots__:
            setattr(self, name, fields.pop(name))
        if fields:
            raise TypeError(f"unknown ExtensionStep fields {sorted(fields)}")


# -- context embedding ---------------------------------------------------------


def _embed_poly(poly: MultiPoly, ctx: CurveContext) -> MultiPoly:
    pad = ctx.nvars - poly.context.nvars
    if pad < 0:
        raise ValueError("cannot shrink the ambient dimension")
    return MultiPoly(
        ctx, poly.total_degree, {exp + (0,) * pad: c for exp, c in poly.terms.items()}
    )


# -- seeds at n = e ---------------------------------------------------------------


def _var_poly(ctx: CurveContext, index: int, power: int = 1) -> MultiPoly:
    exp = [0] * ctx.nvars
    exp[index] = power
    return MultiPoly.monomial(ctx, exp)


def _pair_poly(ctx: CurveContext, a: int, b: int) -> MultiPoly:
    exp = [0] * ctx.nvars
    exp[a] += 1
    exp[b] += 1
    return MultiPoly.monomial(ctx, exp)


def _seed_quadric_chain(e: int, n: int, field: FieldSpec) -> IdealCombination:
    ctx = CurveContext(2, e, n, field)
    one = MultiPoly.constant(ctx, field.one)
    return IdealCombination(ctx, {(i, i + 1): one for i in range(1, e)}, {})


def _seed_cubic(e: int, field: FieldSpec) -> IdealCombination:
    # x0 Q12 + ... + x_(e-4) Q_(e-3,e-2) + x_(e-2) Q_(e-2,e-1) + x_e Q_(e-1,e);
    # at e = 4 this instantiates to x0 Q12 + x2 Q23 + x4 Q34, the polynomial
    # inducing delta = (s^6 t, -s^7 + s^3 t^4, -s^4 t^3 + t^7, -s t^6).
    ctx = CurveContext(3, e, e, field)
    if e == 3:
        coeffs = {(1, 2): _var_poly(ctx, 0), (2, 3): _var_poly(ctx, 3)}
    else:
        coeffs = {(i, i + 1): _var_poly(ctx, i - 1) for i in range(1, e - 2)}
        coeffs[(e - 2, e - 1)] = _var_poly(ctx, e - 2)
        coeffs[(e - 1, e)] = _var_poly(ctx, e)
    return IdealCombination(ctx, coeffs, {})


def _seed_quartic(e: int, field: FieldSpec) -> IdealCombination:
    ctx = CurveContext(4, e, e, field)
    if e == 4:
        return IdealCombination(
            ctx,
            {
                (1, 2): _var_poly(ctx, 0, 2),
                (2, 3): _var_poly(ctx, 2, 2),
                (3, 4): _var_poly(ctx, 4, 2),
            },
            {},
        )
    if e == 5:
        return IdealCombination(
            ctx,
            {
                (1, 2): _var_poly(ctx, 0, 2),
                (2, 3): _pair_poly(ctx, 0, 3),
                (3, 4): _pair_poly(ctx, 1, 5),
                (4, 5): _var_poly(ctx, 5, 2),
            },
            {},
        )
    if e == 6:
        return IdealCombination(
            ctx,
            {
                (1, 2): _var_poly(ctx, 0, 2),
                (2, 3): _pair_poly(ctx, 0, 3),
                (3, 4): _var_poly(ctx, 3, 2),
                (4, 5): _pair_poly(ctx, 3, 6),
                (5, 6): _var_poly(ctx, 6, 2),
                (3, 6): _var_poly(ctx, 3, 2),
            },
            {},
        )
    return _seed_quartic_family(e, field)


def _seed_quartic_family(e: int, field: FieldSpec) -> IdealCombination:
    """Quartic seed for e >= 7.  The coefficient of Q_(e-2,e-1) is the square
    x_(e-2)^2 when e ≡ 3 (mod 4) and the product x_(e-2)*x_(e-1) otherwise;
    the tests certify that this gives the catalog splitting."""
    ctx = CurveContext(4, e, e, field)
    coeffs = {(i, i + 1): _var_poly(ctx, i - 1, 2) for i in range(1, e - 4)}
    coeffs[(e - 4, e - 3)] = _pair_poly(ctx, e - 5, e - 4)
    coeffs[(e - 3, e - 2)] = _var_poly(ctx, e - 3, 2)
    coeffs[(e - 1, e)] = _var_poly(ctx, e, 2)
    if e % 4 == 3:
        coeffs[(e - 2, e - 1)] = _var_poly(ctx, e - 2, 2)
    else:
        coeffs[(e - 2, e - 1)] = _pair_poly(ctx, e - 2, e - 1)
    return IdealCombination(ctx, coeffs, {})


def _seed_general(d: int, n: int, field: FieldSpec) -> IdealCombination:
    """The degree-d seed at e = n >= 2d-2.  F_(l,l+1) lifts the monomial of
    degree n(d-2) and t-power t_l - l + 1, so psi's column l is
    s^(D-t_l) t^t_l with D = dn-n-2: starting at s^D, t_l grows by d-1 for
    the first n-2d+2 columns and by d afterwards, up to t^D."""
    ctx = CurveContext(d, n, n, field)
    D = d * n - n - 2
    coeffs = {}
    for l in range(1, n):
        t_l = (l - 1) * (d - 1) if l <= n - 2 * d + 2 else D - (n - 1 - l) * d
        coeffs[(l, l + 1)] = lift_binary_form(BinaryForm.monomial(field, n * (d - 2), t_l - l + 1), ctx, d - 2)
    return IdealCombination(ctx, coeffs, {})


# -- schedules and generation -------------------------------------------------------


def _check_constructive(d: int, e: int, n: int) -> None:
    if d == 2:
        if not 2 <= e <= n:
            raise UnsupportedCaseError(
                f"quadric chains need 2 <= e <= n, got (e={e}, n={n}); "
                "the quadrics theorem covers e = 1 without a generated example"
            )
    elif d == 3:
        if not 3 <= e <= n:
            raise UnsupportedCaseError(
                f"cubic examples need 3 <= e <= n, got (e={e}, n={n}); "
                "lines and conics are covered by the slope corollary only"
            )
    elif d == 4:
        if not 4 <= e <= n:
            raise UnsupportedCaseError(
                f"quartic examples need 4 <= e <= n, got (e={e}, n={n}); "
                "e <= 3 is covered by the slope corollary only"
            )
    elif d >= 5:
        if e != n:
            raise UnsupportedCaseError(
                f"degree {d} >= 5 examples are constructed only at e = n "
                f"(got e={e}, n={n}); no single extension strategy reaches the "
                "balanced target one dimension up"
            )
        if e < 2 * d - 2:
            raise UnsupportedCaseError(
                f"degree {d} needs e = n >= 2d-2 = {2 * d - 2} (got e={e}); "
                "no example is constructed for d >= 5 with e = n < 2d-2"
            )
    else:
        raise UnsupportedCaseError(f"degree d = {d} out of range")


def seed_example(d: int, e: int, field: FieldSpec = RATIONALS) -> IdealCombination:
    """The explicit hypersurface at the base level of the induction (n = e for
    d >= 3, n = max(e, 3) for quadrics), refused there as build_chain refuses it."""
    _check_constructive(d, e, max(e, 3) if d == 2 else e)
    if d == 2:
        return _seed_quadric_chain(e, max(e, 3), field)
    if d == 3:
        return _seed_cubic(e, field)
    if d == 4:
        return _seed_quartic(e, field)
    return _seed_general(d, e, field)


def build_chain(
    d: int, e: int, n: int, field: FieldSpec = RATIONALS
) -> tuple[IdealCombination, list[ExtensionStep]]:
    """Seed plus the certified extension steps (extend_chain) carrying it
    from n = e up to n.

    Returns (final F, steps); for quadrics the chain polynomial works at every
    n directly and the step list is empty.
    """
    _check_constructive(d, e, n)
    if d == 2:
        return _seed_quadric_chain(e, n, field), []
    F = seed_example(d, e, field)
    steps = extend_chain(F, n)
    return (steps[-1].output_F if steps else F), steps


def extend_chain(F: IdealCombination, n: int) -> list[ExtensionStep]:
    """Certified extend_dimension steps carrying F up to dimension n, each to
    the catalog prediction at its level.  Each step hands its certified
    kernel N to the next, and its output_F keeps delta_out (F.maps), so the
    chain builds a kernel matrix and a delta only for F itself."""
    ctx = F.context
    steps: list[ExtensionStep] = []
    kernel = None
    for m in range(ctx.n + 1, n + 1):
        pred = predicted_splitting(ctx.d, ctx.e, m)
        if pred.verdict != EXACT:
            raise UnsupportedCaseError(
                f"no exact predicted splitting at (d={ctx.d}, e={ctx.e}, n={m}); "
                f"the catalog gives {pred.verdict} [{pred.provenance}]"
            )
        step = extend_dimension(F, pred.splitting, _kernel=kernel)
        steps.append(step)
        F, kernel = step.output_F, step.N
    return steps


# -- the extension engine --------------------------------------------------------


def _select_strategy(S: SplittingType, T: SplittingType, e: int) -> str:
    # the parts of T each strategy makes from S: append e; or trade the least
    # part a for (a+1)^2 (J1), or two of them for (a+1)^3 (J2)
    parts = S.parts
    if T.parts == tuple(sorted(parts + (e,))):
        return "J0"
    if parts and parts[-1] <= parts[0] + 1:
        a = parts[0]
        if T.parts == parts[1:] + (a + 1,) * 2:
            return "J1"
        if parts[1:2] == (a,) and T.parts == parts[2:] + (a + 1,) * 3:
            return "J2"
    raise UnsupportedCaseError(
        f"target {list(T.parts)} unreachable from {list(S.parts)} by a single "
        "strategy (append O(e); or trade one/two minimal summands per the J1/J2 shapes)"
    )


def _build_J0(K_map: GradedSheafMap, e: int):
    field = K_map.field
    one = BinaryForm.constant(field, field.one)
    src = K_map.source
    E = src + (e,)
    J = GradedSheafMap._built(field, src, E, {(j, j): one for j in range(len(src))})
    # N is K with the cokernel row (0, ..., 0, 1) below it
    return J, GradedSheafMap._built(field, E, K_map.target + (e,), {**K_map.entries, (K_map.nrows, len(src)): one})


def _build_J1(K_perm: GradedSheafMap, a: int):
    field = K_perm.field
    r = sum(1 for b in K_perm.source if b == a)
    s_cnt = K_perm.ncols - r
    w = r + s_cnt + 1
    E = (a + 1,) + (a,) * (r - 1) + (a + 1,) * s_cnt + (a + 1,)
    one = BinaryForm.constant(field, field.one)
    s_form = BinaryForm.monomial(field, 1, 0)
    t_form = BinaryForm.monomial(field, 1, 1)
    J_entries = {(0, 0): s_form, (w - 1, 0): t_form}
    for j in range(1, r + s_cnt):
        J_entries[(j, j)] = one
    J = GradedSheafMap._built(field, K_perm.source, E, J_entries)
    N_entries = {}
    for i in range(K_perm.nrows):
        k = K_perm.entry(i, 0)
        if k.is_zero():
            continue
        # k = s·p + c·t^deg: p is every coefficient of k but the last
        p, c = k.coeffs[:-1], k.coeffs[-1]
        if any(p):
            N_entries[(i, 0)] = BinaryForm(field, k.degree - 1, p)
        if not field.is_zero(c):
            N_entries[(i, w - 1)] = BinaryForm.monomial(field, k.degree - 1, k.degree - 1, c)
    for (i, j), f in K_perm.entries.items():
        if j >= 1:
            N_entries[(i, j)] = f
    # the cokernel row (t, 0, ..., 0, -s)
    N_entries[(K_perm.nrows, 0)], N_entries[(K_perm.nrows, w - 1)] = t_form, s_form.neg()
    return J, GradedSheafMap._built(field, E, K_perm.target + (a + 2,), N_entries)


def _build_J2(K_perm: GradedSheafMap, a: int):
    field = K_perm.field
    r = sum(1 for b in K_perm.source if b == a)
    s_cnt = K_perm.ncols - r
    w = r + s_cnt + 1
    E = (a + 1,) * 2 + (a,) * (r - 2) + (a + 1,) * s_cnt + (a + 1,)
    one = BinaryForm.constant(field, field.one)
    s_form = BinaryForm.monomial(field, 1, 0)
    t_form = BinaryForm.monomial(field, 1, 1)
    J_entries = {
        (0, 0): s_form,
        (1, 1): t_form,
        (w - 1, 0): t_form,
        (w - 1, 1): s_form,
    }
    for j in range(2, r + s_cnt):
        J_entries[(j, j)] = one
    J = GradedSheafMap._built(field, K_perm.source, E, J_entries)
    N_entries = {}
    zero = field.zero
    for i in range(K_perm.nrows):
        deg = K_perm.target[i] - a
        k1, k2 = K_perm.entry(i, 0).coeffs, K_perm.entry(i, 1).coeffs
        # k1 = s·p + c1·t^deg and k2 = t·q + c2·s^deg, read off the coefficients
        col0, c1 = (list(k1[:-1]), k1[-1]) if k1 else ([zero] * deg, zero)
        col1, c2 = (list(k2[1:]), k2[0]) if k2 else ([zero] * deg, zero)
        if deg < 2 and not (field.is_zero(c1) and field.is_zero(c2)):
            raise CertificationError("J2 decomposition needs entry degree >= 2")
        last = [zero] * deg
        if not field.is_zero(c2):  # col0 = p - c2·s^(deg-2)·t
            col0[1] = field.sub(col0[1], c2)
            last[0] = c2
        if not field.is_zero(c1):  # col1 = q - c1·s·t^(deg-2)
            col1[deg - 2] = field.sub(col1[deg - 2], c1)
            last[deg - 1] = c1
        for j, cs in ((0, col0), (1, col1), (w - 1, last)):
            if any(cs):
                N_entries[(i, j)] = BinaryForm(field, deg - 1, tuple(cs))
    for (i, j), f in K_perm.entries.items():
        if j >= 2:
            N_entries[(i, j)] = f
    # the cokernel row (t^2, s^2, 0, ..., 0, -st)
    for j, t_power, c in ((0, 2, 1), (1, 0, 1), (w - 1, 1, -1)):
        N_entries[(K_perm.nrows, j)] = BinaryForm.monomial(field, 2, t_power, field.from_int(c))
    return J, GradedSheafMap._built(field, E, K_perm.target + (a + 3,), N_entries)


def extend_dimension(
    F: IdealCombination,
    target: SplittingType,
    *,
    _kernel: GradedSheafMap | None = None,
) -> ExtensionStep:
    """One inductive step n -> n+1: realize `target` as the splitting of the
    restricted tangent bundle of an extension F + G_(n+1) x_(n+1).

    The strategy is selected by shape and builds N as one map: rows 0..n-1
    are N1, row n is the cokernel row of J, (1) in the last column for J0,
    (t, ..., -s) for J1 and (t^2, s^2, ..., -st) for J2.  In the first
    column j where row n is nonzero it holds t^k (k = 0, 1, 2), so the new
    entry g of delta_out = (delta_in, g) is read off (delta_in, g)·N = 0 by
    one shift: g = -(delta_in · column j of N1) / t^k.  For N of corank one
    that row is unique up to a scalar, and a builder that broke the t^k
    shape would give a g that certify_kernel refuses.

    certify_kernel alone certifies the step: it proves N generates
    ker delta_out (so N has full rank everywhere), and the splitting of N's
    source equals the target.  How N was built does not enter that proof,
    so the strategy identities N1·J = K (the kernel, its columns sorted by
    twist for J1 and J2) and (row n)·J = 0 are pinned by the tests, not
    checked here.  certify_kernel is given the degree Σtarget - de of
    ker delta_out, which holds iff delta_out is onto O(de) at every point
    (_nullity_scan); no gcd checks that.  The step refuses a delta_in whose
    certified kernel degree is not Σsource - de, which proves delta_in onto
    at every point, and delta_out = (delta_in, g) has an image at least as
    large.  Along a chain this runs by induction from the seed's scanned
    kernel: extend_chain hands each step's N, certified with that degree, to
    the next step as `_kernel`, which is private to it and is not certified
    again; without it the step builds kernel_matrix(delta_in).  psi_in and
    delta_in are F.maps: built once from F, or carried onto F by the step
    that made it.

    g lifts to G_(n+1), and the step checks that G_(n+1)|_C is g.  output_F
    keeps F's psi and delta (F.maps) with G_(n+1)|_C appended as their last
    column, which is what rebuilding them from output_F gives: embedding a
    coefficient pads each exponent with a zero for x_(n+1), which
    restrict_to_curve ignores, and the twists at n+1 are those at n
    followed by e.  So a step restricts one coefficient, not all of them.
    """
    ctx = F.context
    e, n, d = ctx.e, ctx.n, ctx.d
    field = ctx.field
    psi_in, delta_in = _psi_and_delta(F)
    K_map = _kernel if _kernel is not None else kernel_matrix(delta_in)
    # deg ker delta = Σsource - de exactly when delta is onto everywhere
    if sum(K_map.source) != sum(delta_in.source) - d * e:
        raise UnsupportedCaseError(SINGULAR_ALONG_CURVE)
    S = SplittingType(tuple(sorted(K_map.source)))
    if target.rank != S.rank + 1 or target.degree != S.degree + e:
        raise UnsupportedCaseError(
            f"target {list(target.parts)} does not extend {list(S.parts)} by rank 1 "
            f"and degree e = {e}"
        )
    strategy = _select_strategy(S, target, e)
    if strategy == "J0":
        J, N = _build_J0(K_map, e)
    else:
        perm = sorted(range(K_map.ncols), key=lambda j: (K_map.source[j], j))
        build = _build_J1 if strategy == "J1" else _build_J2
        J, N = build(K_map.permute_columns(perm), min(K_map.source))
    ctx_out = CurveContext(d, e, n + 1, field)
    if N.target != tangent_twists(ctx_out):
        raise CertificationError("N has unexpected target twists")

    # (delta_in, g)·N = 0 in the first column j where row n of N is nonzero:
    # that entry is t^k, so g is -(delta_in times column j above row n) / t^k
    j = min(c for i, c in N.entries if i == n)
    col_j = GradedSheafMap._built(
        field, (N.source[j],), N.target[:n], {(i, 0): f for (i, c), f in N.entries.items() if c == j and i < n}
    )
    try:
        g = compose(delta_in, col_j).entry(0, 0).neg().shift(0, -N.entries[(n, j)].degree)
    except DegreeError as exc:
        raise CertificationError(f"t^k does not divide delta_in·N in column {j}") from exc
    G = lift_binary_form(g, ctx_out, d - 1)
    column = restrict_to_curve(G)  # G_(n+1)|_C, the new last column of psi and delta
    if not column.equals(g):
        raise CertificationError("the lifted coefficient G_(n+1) does not restrict to g")
    delta_entries, psi_entries = dict(delta_in.entries), dict(psi_in.entries)
    if not column.is_zero():  # a J0 step's g is zero, and the maps keep no zero entry
        delta_entries[(0, n)] = psi_entries[(0, n - 1)] = column
    delta_out = GradedSheafMap._built(field, N.target, delta_in.target, delta_entries)
    # onto at every point, as delta_in is: ker delta_out has rank n and degree Σ - de
    certify_kernel(delta_out, N, n, sum(N.target) - d * e)

    quadric = {key: _embed_poly(p, ctx_out) for key, p in F.quadric_coeffs.items()}
    linear = {k: _embed_poly(p, ctx_out) for k, p in F.linear_coeffs.items()}
    linear[n + 1] = G
    output_F = IdealCombination(ctx_out, quadric, linear)
    psi_out = GradedSheafMap._built(field, normal_twists(ctx_out), psi_in.target, psi_entries)
    output_F.maps = (psi_out, delta_out)
    if tuple(sorted(N.source)) != target.parts:
        raise CertificationError(
            f"extension produced splitting {sorted(N.source)}, wanted {list(target.parts)}"
        )
    return ExtensionStep(
        input_F=F,
        strategy=strategy,
        output_F=output_F,
        J=J,
        N=N,
        delta_out=delta_out,
        target_splitting=target,
        g=g,
    )

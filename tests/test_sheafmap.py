import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from rncsplit import constructor, linalg, sheafmap
from rncsplit.binform import BinaryForm
from rncsplit.fields import FieldSpec, RATIONALS
from rncsplit.multipoly import CurveContext, IdealCombination, parse_hypersurface, parse_poly, restrict_to_curve
from rncsplit.sheafmap import (
    CertificationError,
    GradedSheafMap,
    MapError,
    build_delta,
    build_psi,
    check_smooth_along_curve,
    certify_kernel,
    compose,
    format_map,
    kernel_matrix,
    map_to_json,
    splitting_of_kernel,
    tangent_twists,
)
from tests.helpers import (
    GF,
    bf_gcd,
    bf_mul,
    bf_scale,
    build_beta,
    build_df,
    build_psi_forms,
    build_quadric,
    canonical_q,
    compose_forms,
    compose_lines,
    dense_combination,
    from_rows,
    full_rank_everywhere,
    full_window_splitting,
    gradient_map,
    gradient_smooth,
    h0_euler_crosscheck,
    kernel_basis_by_columns,
    map_from_json,
    maps_equal,
    parse_map,
    random_combination,
    random_surjective_map,
    nullspace,
    parse_binary_form,
    restrict_dense,
    restriction_maps_dense,
    onto_everywhere,
    rref,
    section_kernel_dim,
    section_matrix,
    section_matrix_loop,
    section_rows_by_column,
)


def bform(text, field=RATIONALS, degree=None):
    return parse_binary_form(text, field, degree)


def quintic_surface():
    ctx = CurveContext(5, 3, 3, RATIONALS)
    return IdealCombination(
        ctx,
        {(1, 2): parse_poly("x0^3", ctx, 3), (2, 3): parse_poly("x3^3", ctx, 3)},
        {},
    )


def cubic_surface():
    ctx = CurveContext(3, 3, 3, RATIONALS)
    return IdealCombination(
        ctx,
        {(1, 2): parse_poly("x0", ctx, 1), (2, 3): parse_poly("x3", ctx, 1)},
        {},
    )


def quadric_chain(e, n, field=GF):
    return chain_hypersurface(2, e, n, field)


def chain_hypersurface(d, e, n, field=GF):
    from rncsplit.constructor import build_chain

    return build_chain(d, e, n, field)[0]


from tests.helpers import random_combination


# -- builders -----------------------------------------------------------------------


def test_beta_golden_e3():
    ctx = CurveContext(3, 3, 3, RATIONALS)
    beta = build_beta(ctx)
    want = from_rows(
        [["t", "-s", "0"], ["0", "t", "-s"]],
        source=(4, 4, 4),
        target=(5, 5),
    )
    assert maps_equal(beta, want)


def test_beta_degenerate_line():
    ctx = CurveContext(3, 1, 4, RATIONALS)
    beta = build_beta(ctx)
    assert beta.source == (2, 1, 1, 1)
    assert beta.target == (1, 1, 1)
    for k in range(3):
        assert beta.entry(k, k + 1).equals(bform("1"))
        assert beta.entry(k, 0).is_zero()


@pytest.mark.parametrize("e", range(1, 9))
def test_beta_annihilates_df(e):
    ctx = CurveContext(3, e, max(e, 3) + 1, RATIONALS)
    assert compose(build_beta(ctx), build_df(ctx)).is_zero_map()


def test_psi_quintic_golden():
    psi = build_psi(quintic_surface())
    assert psi.source == (5, 5)
    assert psi.target == (15,)
    assert psi.entry(0, 0).equals(bform("s^10"))
    assert psi.entry(0, 1).equals(bform("t^10"))


def test_psi_quadric_chain_golden():
    for e in (2, 4, 5):
        n = e + 2
        F = quadric_chain(e, n)
        psi = build_psi(F)
        for l in range(e - 1):
            assert psi.entry(0, l).equals(
                BinaryForm.monomial(GF, e - 2, l)
            ), f"column {l} of the degree-{e} chain"
        for k in range(e - 1, n - 1):
            assert psi.entry(0, k).is_zero()


def test_psi_single_term_column():
    # one stored coefficient F_(l,l+1) contributes only to column l
    ctx = CurveContext(3, 4, 4, RATIONALS)
    F = IdealCombination(ctx, {(2, 3): parse_poly("x1", ctx, 1)}, {})
    psi = build_psi(F)
    l = 2
    want = bf_mul(bform("s^3*t"), BinaryForm.monomial(RATIONALS, 2, l - 1))
    assert psi.entry(0, 1).equals(want)
    assert psi.entry(0, 0).is_zero()
    assert psi.entry(0, 2).is_zero()


def test_delta_goldens():
    d_quintic = build_delta(quintic_surface())
    assert [d_quintic.entry(0, j) for j in range(3)] == [
        d_quintic.entry(0, j) for j in range(3)
    ]
    assert d_quintic.entry(0, 0).equals(bform("s^10*t"))
    assert d_quintic.entry(0, 1).equals(bform("-s^11+t^11"))
    assert d_quintic.entry(0, 2).equals(bform("-s*t^10"))

    d_cubic = build_delta(cubic_surface())
    assert d_cubic.entry(0, 0).equals(bform("s^4*t"))
    assert d_cubic.entry(0, 1).equals(bform("-s^5+t^5"))
    assert d_cubic.entry(0, 2).equals(bform("-s*t^4"))

    ctx = CurveContext(4, 4, 4, RATIONALS)
    F = IdealCombination(
        ctx,
        {
            (1, 2): parse_poly("x0^2", ctx, 2),
            (2, 3): parse_poly("x2^2", ctx, 2),
            (3, 4): parse_poly("x4^2", ctx, 2),
        },
        {},
    )
    d_quartic = build_delta(F)
    want = ["s^10*t", "-s^11+s^5*t^6", "-s^6*t^5+t^11", "-s*t^10"]
    for j, text in enumerate(want):
        assert d_quartic.entry(0, j).equals(bform(text))


def test_compose_reproduces_delta_closed_form():
    rnd = random.Random(47)
    for _ in range(20):
        e = rnd.randrange(2, 6)
        n = rnd.randrange(max(e, 3), 7)
        ctx = CurveContext(rnd.randrange(2, 5), e, n, GF)
        F = random_combination(rnd, ctx)
        assert maps_equal(compose(build_psi(F), build_beta(ctx)), build_delta(F))


@pytest.mark.parametrize("field", [RATIONALS, GF, FieldSpec(7), FieldSpec(2)], ids=str)
@pytest.mark.parametrize("d", range(2, 7))
def test_builder_matches_binary_form_oracle(field, d):
    # psi and delta from one pass of integer columns against psi by
    # BinaryForm shift/add and delta = psi ∘ beta by compose; dense
    # coefficients, so every column sums several restrictions
    rnd = random.Random(100 * d + (field.p or 0))
    for e, n in [(3, 3), (3, 5), (5, 6)] if d <= 4 else [(3, 4)]:
        ctx = CurveContext(d, e, n, field)
        F = dense_combination(rnd, ctx)
        psi = build_psi_forms(F)
        assert maps_equal(build_psi(F), psi), (e, n)
        assert maps_equal(build_delta(F), compose(psi, build_beta(ctx))), (e, n)


def _unreduced_columns(F):
    """psi's columns C_1..C_(e-1) and delta's t·C_l − s·C_(l−1), l = 1..e,
    as integer sums of the canonical F_{i,j}|_C coefficients, before any
    reduction mod p."""
    e = F.context.e
    C = [[0] * (F.context.d * e - e - 1) for _ in range(e + 1)]
    for (i, j), poly in F.quadric_coeffs.items():
        for l in range(i, j):
            for u, x in enumerate(restrict_dense(poly).coeffs, j + i - l - 2):
                C[l][u] += x
    delta = [[a - b for a, b in zip([0, *C[l]], [*C[l - 1], 0])] for l in range(1, e + 1)]
    return C[1:e], delta


@pytest.mark.parametrize(
    "field, draw",
    [(GF, "superdiagonal"), (FieldSpec(2**31 - 1), "superdiagonal"), (FieldSpec(2), "dense"), (FieldSpec(3), "dense")],
    ids=str,
)
def test_builder_output_is_canonical_mod_p(field, draw):
    # every coefficient of psi and delta comes out in [0, p), equal to the
    # oracle's.  Superdiagonal F (the shape of the general seeds) fills each
    # psi column from one pair F_(l,l+1), so those sums are in [0, p)
    # already; dense F over GF(2) and GF(3) sums several pairs past p.  In
    # both, delta's t·C_l − s·C_(l−1) goes negative.  A builder that skips
    # the reduction of some lists, or reduces only past p, fails here
    rnd = random.Random(31 + field.p % 1000)
    p = field.p
    wrapped = negative = False
    for d, e, n in [(2, 5, 6), (3, 5, 5), (4, 7, 7), (6, 5, 5)]:  # e prime to p
        ctx = CurveContext(d, e, n, field)
        F = random_combination(rnd, ctx) if draw == "superdiagonal" else dense_combination(rnd, ctx)
        psi_cols, delta_cols = _unreduced_columns(F)
        if draw == "superdiagonal":
            assert all(0 <= x < p for col in psi_cols for x in col), (d, e, n)
        wrapped |= any(x >= p for col in psi_cols for x in col)
        negative |= any(x < 0 for col in delta_cols for x in col)
        psi, delta = build_psi(F), build_delta(F)
        assert all(0 <= x < p for M in (psi, delta) for f in M.entries.values() for x in f.coeffs), (d, e, n)
        oracle = build_psi_forms(F)
        assert maps_equal(psi, oracle), (d, e, n)
        assert maps_equal(delta, compose(oracle, build_beta(ctx))), (d, e, n)
    assert negative and wrapped == (draw == "dense")


@st.composite
def curve_restrictions(
    draw, fields=(RATIONALS, FieldSpec(2), FieldSpec(3), FieldSpec(7), GF, FieldSpec(2**31 - 1))
):
    """(ctx, quadric, linear) as _restriction_maps takes them: F_{i,j}|_C of
    degree e(d-2) for some pairs i < j <= e and G_k|_C of degree e(d-1) for
    some e < k <= n, over one of the fields (by default Q or GF(2), GF(3),
    GF(7), GF(32003), GF(2^31 - 1)).  Each form is strictly zero, all zero,
    a monomial, a binomial or dense; coefficients near p (or of both signs
    over Q) make the column sums wrap past p and delta's differences
    cancel."""
    K = draw(st.sampled_from(fields))
    d = draw(st.integers(2, 5))
    e = draw(st.integers(2, 6).filter(lambda e: K.p is None or e % K.p))
    ctx = CurveContext(d, e, draw(st.integers(max(e, 3), e + 2)), K)
    if K.p is None:
        nonzero = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.sampled_from([1, 2, 3, 10**20 + 39]))
    else:
        nonzero = st.sampled_from(sorted({x % K.p for x in (1, 2, K.p - 1, K.p // 2 + 1, K.p - 2)} - {0}))

    def form(degree):
        kind = draw(st.sampled_from(["zero", "all zero", "monomial", "binomial", "dense"]))
        if kind == "zero":
            return BinaryForm.zero(K)
        coeffs = [K.zero] * (degree + 1)
        if kind == "dense":
            coeffs = draw(st.lists(st.one_of(st.just(K.zero), nonzero), min_size=degree + 1, max_size=degree + 1))
        elif kind != "all zero":
            for u in draw(st.sets(st.integers(0, degree), min_size=1, max_size=1 if kind == "monomial" else 2)):
                coeffs[u] = draw(nonzero)
        return BinaryForm(K, degree, tuple(coeffs))

    pairs = [(i, j) for i in range(1, e + 1) for j in range(i + 1, e + 1)]
    quadric = {key: form(e * (d - 2)) for key in pairs if draw(st.booleans())}
    linear = {k: form(e * (d - 1)) for k in range(e + 1, ctx.n + 1) if draw(st.booleans())}
    return ctx, quadric, linear


@settings(deadline=None, max_examples=120)
@given(curve_restrictions())
def test_restriction_maps_match_dense_oracle(case):
    # the builder keeps each C_l as its nonzero (t-power, int) pairs and
    # reduces only those; the oracle sums dense integer lists and reduces
    # every coefficient.  Same entries, same canonical coefficients
    ctx, quadric, linear = case
    got, want = sheafmap._restriction_maps(ctx, quadric, linear), restriction_maps_dense(ctx, quadric, linear)
    for M, W in zip(got, want):
        assert maps_equal(M, W)
        assert M.entries.keys() == W.entries.keys()
        assert all(M.entries[k].coeffs == W.entries[k].coeffs for k in W.entries)
        if ctx.field.p:
            assert all(type(x) is int and 0 <= x < ctx.field.p for f in M.entries.values() for x in f.coeffs)


def test_compose_identity_and_mismatch():
    d = build_delta(cubic_surface())
    one = BinaryForm.constant(RATIONALS, RATIONALS.one)
    ident = GradedSheafMap(RATIONALS, d.source, d.source, {(i, i): one for i in range(d.ncols)})
    assert maps_equal(compose(d, ident), d)
    with pytest.raises(MapError):
        compose(d, GradedSheafMap(RATIONALS, (1, 2), (1, 2), {(0, 0): one, (1, 1): one}))


@st.composite
def composable_maps(draw, K, fill=st.just(3)):
    """(outer, inner) over K, with empty maps, zero rows and columns,
    rationals with large denominators, and optionally an inner column that
    row 0 of outer annihilates: (g·h, -f·h) against the row's (f, g).  An
    entry that degrees allow is drawn with probability fill/(fill+1) (every
    one at fill None)."""
    fill = draw(fill)
    if K.p is None:
        big = st.integers(-(10**30), 10**30)
        coeff = st.one_of(
            st.sampled_from([0, 1, -1]),
            st.builds(Fraction, big, st.integers(1, 10**30)),
            st.builds(Fraction, st.integers(-3, 3), st.sampled_from([7, 10**20 + 39])),
        ).map(Fraction)
    else:
        coeff = st.one_of(st.sampled_from([0, 1, K.p - 1]), st.integers(0, K.p - 1))

    def form(degree):
        return BinaryForm(K, degree, tuple(draw(st.lists(coeff, min_size=degree + 1, max_size=degree + 1))))

    def twists(lo):
        return tuple(draw(st.lists(st.integers(lo, lo + 4), max_size=4)))

    def graded(target, source):
        entries = {
            (i, j): form(c - b)
            for i, c in enumerate(target)
            for j, b in enumerate(source)
            if c >= b and (fill is None or draw(st.integers(0, fill)))
        }
        return GradedSheafMap(K, source, target, entries)

    target, middle, source = twists(2), twists(0), twists(-2)
    outer, inner = graded(target, middle), graded(middle, source)
    f, g = outer.entries.get((0, 0)), outer.entries.get((0, 1))
    if f is not None and g is not None and draw(st.booleans()):
        h = form(draw(st.integers(0, 2)))
        entries = dict(inner.entries)
        entries[(0, inner.ncols)] = bf_mul(g, h)
        entries[(1, inner.ncols)] = bf_mul(f, h).neg()
        inner = GradedSheafMap(K, source + (middle[0] - g.degree - h.degree,), middle, entries)
    return outer, inner


@pytest.mark.parametrize(
    "K", [RATIONALS, FieldSpec(2), FieldSpec(3), FieldSpec(32003), FieldSpec(2**31 - 1)], ids=str
)
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_integer_compose_matches_form_oracle(K, data):
    outer, inner = data.draw(composable_maps(K))
    got, want = compose(outer, inner), compose_forms(outer, inner)
    assert (got.source, got.target) == (want.source, want.target)
    assert got.entries.keys() == want.entries.keys()
    for key, f in got.entries.items():
        assert (f.degree, f.coeffs) == (want.entries[key].degree, want.entries[key].coeffs)
        if K.p is None:
            assert all(canonical_q(c) for c in f.coeffs)
        else:
            assert all(type(c) is int and 0 <= c < K.p for c in f.coeffs)


def _same_map(got, want):
    assert (got.source, got.target) == (want.source, want.target)
    assert got.entries.keys() == want.entries.keys()
    for key, f in got.entries.items():
        assert (f.degree, f.coeffs) == (want.entries[key].degree, want.entries[key].coeffs)


@pytest.mark.parametrize(
    "K", [RATIONALS, FieldSpec(2), FieldSpec(32003), FieldSpec(2**31 - 1)], ids=str
)
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_sparse_compose_matches_row_column_oracle(K, data):
    # only pairs of nonzero entries are multiplied; the row x column product
    # is the oracle, on sparse (one entry in four) and dense (every entry) maps
    outer, inner = data.draw(composable_maps(K, st.sampled_from([0, 1, 3, None])))
    _same_map(compose(outer, inner), compose_lines(outer, inner))


@pytest.mark.parametrize("K", [RATIONALS, FieldSpec(2), GF, FieldSpec(2**31 - 1)], ids=str)
def test_sparse_compose_edge_cases(K):
    def form(text, degree):
        return parse_binary_form(text, K, degree)

    f, g, h = form("s^2 + 3*t^2", 2), form("s*t + t^2", 2), form("s - t", 1)
    row = GradedSheafMap(K, (1, 1, 0), (3,), {(0, 0): f, (0, 1): g})
    # a column the row annihilates, a zero column, and a column of twist 0
    # meeting only the row's zero entry
    col = GradedSheafMap(
        K, (-2, 1, -1), (1, 1, 0),
        {(0, 0): bf_mul(g, h), (1, 0): bf_mul(f, h).neg(), (2, 2): form("s", 1)},
    )
    for outer, inner in [(row, col), (GradedSheafMap(K, (1, 1, 0), (3, 2), {}), col)]:
        got = compose(outer, inner)
        assert got.is_zero_map()
        _same_map(got, compose_lines(outer, inner))
    with pytest.raises(MapError, match="twist mismatch"):
        compose(col, row)
    with pytest.raises(MapError, match="twist mismatch"):
        compose_lines(col, row)


def test_delta_annihilates_df_random():
    rnd = random.Random(53)
    for _ in range(10):
        e = rnd.randrange(1, 6)
        n = rnd.randrange(max(e, 3), 7)
        ctx = CurveContext(rnd.randrange(2, 4), e, n, GF)
        F = random_combination(rnd, ctx)
        assert compose(build_delta(F), build_df(ctx)).is_zero_map()


# -- sections and splitting ------------------------------------------------------------


def test_section_kernel_dim_examples():
    M = from_rows([["s", "t"]], source=(0, 0), target=(1,))
    assert section_kernel_dim(M, 1) == 1
    d_quintic = build_delta(quintic_surface())
    assert section_kernel_dim(d_quintic, -2) == 1
    assert section_kernel_dim(d_quintic, -6) == 0  # below -max(b_j)-1


def test_splitting_goldens():
    assert splitting_of_kernel(build_delta(quintic_surface())).parts == (-5, 2)
    assert splitting_of_kernel(build_delta(cubic_surface())).parts == (1, 2)
    F = quadric_chain(4, 6)
    assert splitting_of_kernel(build_delta(F)).parts == (4, 4, 4, 4, 4)


def test_splitting_of_zero_and_injective_maps():
    Z = GradedSheafMap(RATIONALS, (2, 5), (7,), {})
    assert splitting_of_kernel(Z).parts == (2, 5)
    inj = from_rows([["s"]], source=(0,), target=(1,))
    assert splitting_of_kernel(inj).parts == ()


def test_early_stop_scan_matches_full_window_oracle():
    rnd = random.Random(1975)
    for _ in range(30):
        M = random_surjective_map(rnd, max_rank=5, spread=6)
        assert splitting_of_kernel(M).parts == full_window_splitting(M)
    for d, e, n in ((2, 4, 6), (3, 3, 5), (4, 5, 6), (5, 3, 4)):
        F = random_combination(rnd, CurveContext(d, e, n, GF))
        for M in (build_delta(F), build_psi(F)):
            assert splitting_of_kernel(M).parts == full_window_splitting(M), (d, e, n)
    rational = [
        build_delta(quintic_surface()),
        build_psi(quintic_surface()),
        build_delta(cubic_surface()),
        from_rows([["s", "t"]], source=(0, 0), target=(1,)),
        from_rows([["s"]], source=(0,), target=(1,)),
        GradedSheafMap(RATIONALS, (2, 5), (7,), {}),
    ]
    F = random_combination(rnd, CurveContext(3, 3, 4, RATIONALS))
    rational += [build_delta(F), build_psi(F)]
    for M in rational:
        assert splitting_of_kernel(M).parts == full_window_splitting(M)


def test_scan_of_one_row_map_vanishing_on_tiny_field():
    # s^p*t - s*t^p is nonzero but vanishes at every point of P^1(F_p); the
    # scan reads the kernel rank off the shape, with no point evaluation
    for p, text in ((3, "s^3*t - s*t^3"), (2, "s^2*t + s*t^2")):
        M = from_rows([[text]], source=(0,), target=(p + 1,), field=FieldSpec(p))
        assert splitting_of_kernel(M).parts == ()
        assert kernel_matrix(M).ncols == 0


def test_scan_rejects_maps_with_several_rows():
    M = from_rows([["s", "t"], ["t", "s"]], source=(0, 0), target=(1, 1))
    with pytest.raises(MapError):
        splitting_of_kernel(M)
    with pytest.raises(MapError):
        kernel_matrix(M)


# -- kernel matrices -----------------------------------------------------------------


def column_equivalent(M, K1, K2):
    """Spec notion: same source splitting, both annihilated by M, both of full
    rank everywhere."""
    if tuple(sorted(K1.source)) != tuple(sorted(K2.source)):
        return False
    return (
        compose(M, K1).is_zero_map()
        and compose(M, K2).is_zero_map()
        and full_rank_everywhere(K1)
        and full_rank_everywhere(K2)
    )


def test_kernel_matrix_worked_cubic():
    d = build_delta(cubic_surface())
    K = kernel_matrix(d)
    printed = from_rows(
        [["t^3", "s^2"], ["0", "s*t"], ["s^3", "t^2"]],
        source=(1, 2),
        target=(4, 4, 4),
    )
    assert column_equivalent(d, K, printed)


def test_kernel_matrix_of_s_t():
    M = from_rows([["s", "t"]], source=(0, 0), target=(1,))
    K = kernel_matrix(M)
    assert K.source == (-1,)
    # the column is (t, -s) up to one scalar
    lam = K.entry(0, 0).coeffs[1]
    assert not RATIONALS.is_zero(lam)
    assert K.entry(0, 0).equals(bf_scale(bform("t"), lam))
    assert K.entry(1, 0).equals(bf_scale(bform("-s"), lam))


def test_kernel_matrix_random_oracle():
    rnd = random.Random(61)
    for _ in range(40):
        M = random_surjective_map(rnd, max_rank=4, spread=6)
        K = kernel_matrix(M)
        assert tuple(sorted(K.source)) == splitting_of_kernel(M).parts
        assert tuple(sorted(K.source)) == full_window_splitting(M)
        assert compose(M, K).is_zero_map()
        assert full_rank_everywhere(K)


def test_dense_rational_hypersurface_matches_full_window_oracle():
    # every Q_{i,j} and G_k coefficient of F nonzero: the section matrices are
    # dense over Q; (4, 5, 6) keeps the full-window oracle near 2 s
    F = dense_combination(random.Random(1), CurveContext(4, 5, 6, RATIONALS))
    assert check_smooth_along_curve(F)
    delta, psi = build_delta(F), build_psi(F)
    T, N = full_window_splitting(delta), full_window_splitting(psi)
    assert splitting_of_kernel(delta).parts == T
    assert splitting_of_kernel(psi).parts == N
    assert tuple(sorted(kernel_matrix(delta).source)) == T


def test_kernel_matrix_builds_each_twist_once(monkeypatch):
    # kernel_matrix reads its generators from the scan's own eliminations, so
    # no section matrix is built twice for the same twist
    built = []
    section_rows = sheafmap._section_rows

    def recording(M, m):
        built.append(m)
        return section_rows(M, m)

    monkeypatch.setattr(sheafmap, "_section_rows", recording)
    maps = [
        build_delta(cubic_surface()),
        random_surjective_map(random.Random(5), max_rank=4, spread=6),
        build_delta(quintic_surface()),
    ]
    for M in maps:
        built.clear()
        K = kernel_matrix(M)
        assert K.ncols > 0
        assert len(built) == len(set(built)), built
    # (7, 14, 14): the scan starts one twist below the slope of O(8)^5 + O(9)^8
    # and h^0 = χ at the next twist proves the type; that one level-ordered
    # matrix holds both counts.  kernel_matrix builds only the twist where the
    # last generators appear, whose elimination holds the counts and both
    # twists' generators (the full increment scan built 8 twists for either
    # call)
    delta = build_delta(chain_hypersurface(7, 14, 14))
    built.clear()
    assert splitting_of_kernel(delta).parts == (8,) * 5 + (9,) * 8
    assert built == [-9]
    built.clear()
    assert sorted(kernel_matrix(delta).source) == [8] * 5 + [9] * 8
    assert built == [-8]


def _times(M, h):
    """The one-row map M times the nonzero form h."""
    entries = {k: bf_mul(f, h) for k, f in M.entries.items()}
    return GradedSheafMap(M.field, M.source, (M.target[0] + h.degree,), entries)


def _monic(rnd, field, degree):
    coeffs = (field.one,) + tuple(field.from_int(rnd.randrange(0, 5)) for _ in range(degree))
    return BinaryForm(field, degree, coeffs)


@pytest.mark.parametrize("field", [GF, FieldSpec(2), FieldSpec(3), RATIONALS], ids=str)
def test_chi_stop_matches_full_window_oracle(field):
    # the h^0 = χ stop against the full increment scan: onto maps (χ decides),
    # maps with a common factor (the increment rule decides), and unbalanced
    # kernels
    rnd = random.Random(2027)
    # the full-window oracle is slow over Q, so the Q draws are smaller
    size = dict(max_rank=5, spread=6) if field.p else dict(max_rank=4, spread=4)
    maps = [random_surjective_map(rnd, field, **size) for _ in range(12)]
    row = dict(max_rank=4, spread=5)
    for deg in (1, 2, 3):  # entries with a common factor: deg ker M = D + deg
        maps += [_times(random_surjective_map(rnd, field, **row), _monic(rnd, field, deg)) for _ in range(2)]
    coprime = [(e, n) for e, n in ((3, 3), (3, 5), (5, 5), (5, 9)) if field.p is None or e % field.p]
    for e, n in coprime:  # quadric chains: unbalanced T, and N
        F = chain_hypersurface(2, e, n, field)
        maps += [build_delta(F), build_psi(F)]
    if field.p is None:
        maps += [build_delta(cubic_surface()), build_psi(cubic_surface()), build_delta(quintic_surface())]
    for M in maps:
        want = full_window_splitting(M)
        assert splitting_of_kernel(M).parts == want, M
        assert tuple(sorted(kernel_matrix(M).source)) == want, M


def _random_row(rnd, field, max_cols=5):
    """A random one-row map with some zero entries; often not onto at some point."""
    source = tuple(rnd.randrange(-2, 6) for _ in range(rnd.randrange(1, max_cols + 1)))
    c = max(source) + rnd.randrange(0, 4)
    entries = {}
    for j, b in enumerate(source):
        if rnd.random() < 0.7:
            coeffs = tuple(field.from_int(rnd.randrange(-9, 10)) for _ in range(c - b + 1))
            entries[(0, j)] = BinaryForm(field, c - b, coeffs)
    return GradedSheafMap(field, source, (c,), entries)


@pytest.mark.parametrize("field", [RATIONALS, FieldSpec(2), FieldSpec(3), FieldSpec(7), GF], ids=str)
def test_level_ordered_counts_match_per_twist_oracle(field):
    # one forward elimination of the level-ordered section matrix at twist m
    # gives N(m - k) for every k >= 0: compare each with its own matrix
    rnd = random.Random(1017)
    maps = [GradedSheafMap(field, (3, 1, 1, -1), (5,), {})]  # the zero row
    maps += [_random_row(rnd, field) for _ in range(10)]
    for deg in (1, 2, 3):  # onto nowhere along a common factor
        maps.append(_times(random_surjective_map(rnd, field, max_rank=4, spread=5), _monic(rnd, field, deg)))
    maps += [random_surjective_map(rnd, field, max_rank=5, spread=6) for _ in range(4)]
    maps += [build_delta(chain_hypersurface(2, 5, 9, field)), build_psi(chain_hypersurface(2, 5, 9, field))]
    kinds = set()
    for M in maps:
        kinds.add("zero" if M.is_zero_map() else "onto" if onto_everywhere(M) else "not onto")
        kinds.add("balanced" if splitting_of_kernel(M).is_balanced() else "unbalanced")
        m_bottom, m_top = sheafmap._scan_window(M)
        want = {m: section_kernel_dim(M, m) for m in range(m_bottom - 1, m_top + 2)}
        for m in range(m_bottom, m_top + 2):
            _, pivots, _ = sheafmap._twist_echelon(M, m)
            for k in range(m - m_bottom + 2):
                assert sheafmap._count(M, pivots, m - k) == want[m - k], (M, m, k)
    assert kinds == {"zero", "onto", "not onto", "balanced", "unbalanced"}


def _sparse_form(rnd, K, degree):
    """A degree-`degree` form over K: dense, a monomial, a binomial, or dense
    with zero leading and trailing coefficients."""

    def nonzero():
        if K.p:
            return rnd.randrange(1, K.p)
        return Fraction(rnd.choice((-1, 1)) * rnd.randrange(1, 10), rnd.randrange(1, 5))

    kind = rnd.choice(("dense", "monomial", "binomial", "zero ends"))
    if kind == "dense":
        coeffs = [nonzero() for _ in range(degree + 1)]
    else:
        coeffs = [K.zero] * (degree + 1)
        if kind == "zero ends":
            coeffs[1:-1] = [nonzero() for _ in range(degree - 1)]
        else:
            for u in rnd.sample(range(degree + 1), min(degree + 1, 1 if kind == "monomial" else 2)):
                coeffs[u] = nonzero()
    return BinaryForm(K, degree, tuple(coeffs))


def test_section_matrix_matches_per_coefficient_oracle():
    # the level-ordered integer rows are the block-order section matrix with
    # its columns permuted (and over Q each block of rows scaled by its row's
    # common denominator); the block-order oracle against the numpy loop, and
    # the scatter build against the column-by-column one.  Entries are dense
    # or sparse (monomials, binomials, zero leading and trailing
    # coefficients: the cells the scatter build skips), and target rows may
    # lie below some source twists, so that low twists leave some target
    # blocks empty while others still have rows
    rnd = random.Random(404)
    seen = set()
    for K in (FieldSpec(2), FieldSpec(3), FieldSpec(7), GF, FieldSpec(2**31 - 1), RATIONALS):
        for _ in range(25):
            source = tuple(rnd.randrange(-2, 6) for _ in range(rnd.randrange(1, 5)))
            target = tuple(rnd.randrange(min(source) - 2, max(source) + 4) for _ in range(rnd.randrange(0, 3)))
            entries = {}
            for i, c in enumerate(target):
                for j, b in enumerate(source):
                    if c >= b and rnd.random() < 0.7:
                        entries[(i, j)] = _sparse_form(rnd, K, c - b)
            M = GradedSheafMap(K, source, target, entries)
            # over Q each target row is scaled by the lcm of its denominators
            scale = [
                math.lcm(*(x.denominator for (i, _), f in M.entries.items() if i == row for x in f.coeffs))
                for row in range(len(target))
            ]
            for m in range(-max(source) - 3, 4):
                A, C = section_matrix(M, m)
                if K.p:
                    B, width = section_matrix_loop(M, m)
                    assert C == width and (len(A), C) == B.shape and A == B.tolist(), (M, m)
                rows, keys = sheafmap._section_rows(M, m)
                assert (rows, keys) == section_rows_by_column(M, m), (M, m)
                assert sorted(keys) == [(j, q) for j, b in enumerate(source) for q in range(b + m + 1)]
                assert keys == sorted(keys, key=lambda k: (k[1] - source[k[0]], k[0])), (M, m)
                offsets = [sum(max(0, b + m + 1) for b in source[:j]) for j in range(len(source))]
                heights = [L for L, c in zip(scale, target) for _ in range(max(0, c + m + 1))]
                want = [[L * row[offsets[j] + q] for j, q in keys] for L, row in zip(heights, A)]
                assert rows == want and all(type(x) is int for row in rows for x in row), (M, m)
                if keys and rows and any(c + m + 1 <= 0 for c in target):
                    seen.add("empty target block")
                if any(f.coeffs[0] == 0 or f.coeffs[-1] == 0 for f in M.entries.values()):
                    seen.add("zero end")
    assert seen == {"empty target block", "zero end"}


@st.composite
def twisted_maps(draw):
    """(M, T): a map with one to three rows over Q or GF(2), GF(3),
    GF(32003), GF(2^31 - 1), with entries whose coefficients are zero half
    the time, and a twist T low enough to empty some target blocks."""
    K = draw(st.sampled_from([RATIONALS, FieldSpec(2), FieldSpec(3), GF, FieldSpec(2**31 - 1)]))
    if K.p is None:
        nonzero = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 4))
    else:
        nonzero = st.integers(1, K.p - 1)
    coeff = st.one_of(st.just(K.zero), nonzero)
    source = draw(st.lists(st.integers(-2, 5), min_size=1, max_size=4))
    target = draw(st.lists(st.integers(-2, 8), min_size=1, max_size=3))
    entries = {}
    for i, c in enumerate(target):
        for j, b in enumerate(source):
            if c >= b and draw(st.booleans()):
                coeffs = draw(st.lists(coeff, min_size=c - b + 1, max_size=c - b + 1))
                entries[(i, j)] = BinaryForm(K, c - b, tuple(coeffs))
    M = GradedSheafMap(K, tuple(source), tuple(target), entries)
    return M, draw(st.integers(-max(source + target) - 3, 3))


@settings(deadline=None, max_examples=200)
@given(twisted_maps())
def test_section_rows_match_column_oracle(case):
    # the scatter build writes only nonzero coefficients into preallocated
    # zero rows: the same rows and keys as building every column in full
    M, T = case
    rows, keys = sheafmap._section_rows(M, T)
    assert (rows, keys) == section_rows_by_column(M, T)
    assert all(type(x) is int for row in rows for x in row)


@st.composite
def one_row_maps(draw, fields=(RATIONALS, FieldSpec(2), FieldSpec(3), FieldSpec(7), GF)):
    """A one-row map with some zero entries, over Q (coefficients with small
    denominators) or a small or large prime field; often not onto."""
    field = draw(st.sampled_from(fields))
    source = draw(st.lists(st.integers(-2, 5), min_size=1, max_size=5))
    c = max(source) + draw(st.integers(0, 3))
    if field.p is None:
        coeff = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
    else:
        coeff = st.integers(0, field.p - 1)
    entries = {}
    for j, b in enumerate(source):
        if draw(st.integers(0, 9)) < 7:
            coeffs = draw(st.lists(coeff, min_size=c - b + 1, max_size=c - b + 1))
            entries[(0, j)] = BinaryForm(field, c - b, tuple(coeffs))
    return GradedSheafMap(field, tuple(source), (c,), entries)


def _block_order_basis(M, rows, pivots, keys, m):
    """The rref nullspace of the block-order section matrix at twist m."""
    A, C = section_matrix(M, m)
    return nullspace(A, M.field, C)


# a dense one-row map over GF(32003): its scan yields at twists 1 and 10, so
# the kernel-basis test reads the twist-9 basis from the twist-12 rows
_DENSE = GradedSheafMap(
    GF,
    (0, 0, 0, 0),
    (12,),
    {(0, j): BinaryForm(GF, 12, tuple((7 + 13 * j + 31 * u) ** 3 % GF.p for u in range(13))) for j in range(4)},
)


# the cubic and quartic seeds e = 7, 8 over GF(32003), and e = 7 over GF(2)
_SEED_DELTAS = [
    build_delta(constructor.seed_example(d, e, K))
    for K in (GF, FieldSpec(2))
    for d in (3, 4)
    for e in (7, 8)
    if e % K.p
]


@settings(deadline=None, max_examples=60)
@given(one_row_maps())
@example(GradedSheafMap(RATIONALS, (3, 1, 1, -1), (5,), {}))  # the zero row
@example(GradedSheafMap(FieldSpec(2), (3, 1, 1, -1), (5,), {}))
@example(from_rows([["s^4*t", "t^5", "s^3*t^2"]], (0, 0, 0), (5,)))  # O(-1) + O(-3), onto nowhere along t
@example(from_rows([["s^4", "2/3*t^4 + s^2*t^2", "5/7*s^3*t"]], (0, 0, 0), (4,)))  # O(-1) + O(-3)
@example(from_rows([["s", "3*t", "0"]], (2, 2, -1), (3,), FieldSpec(7)))  # O(1) + O(-1)
@example(_DENSE)
@example(_SEED_DELTAS[0])
@example(_SEED_DELTAS[1])
@example(_SEED_DELTAS[2])
@example(_SEED_DELTAS[3])
@example(_SEED_DELTAS[4])
@example(_SEED_DELTAS[5])
def test_kernel_bases_match_block_order_nullspace(M):
    # the kernel basis at twist m read from the level-ordered elimination at
    # any twist T >= m spans the rref nullspace of the block-order matrix at
    # m (it has the same rref), with last nonzero positions that strictly
    # increase; the per-column back-substitution gives the rref nullspace
    # itself, and kernel_matrix gives the same K as on those nullspaces.
    # The twists checked are the window's ends and those around the scan's
    # yields: the rest of the window costs seconds on wide windows and the
    # scan never reads it
    m_bottom, m_top = sheafmap._scan_window(M)
    yields = [m for m, _, _ in sheafmap._nullity_scan(M, generators=True)]
    around = range(min(yields) - 1, max(yields) + 2) if yields else ()
    for m in sorted({m_bottom, *around, m_top + 1} & set(range(m_bottom, m_top + 2))):
        want = _block_order_basis(M, None, None, None, m)
        w = sheafmap._width(M, m)
        for T in (m, m + 1, m + 3):
            echelon = sheafmap._twist_echelon(M, T)
            basis = sheafmap._kernel_basis(M, *echelon, m)
            assert rref(basis, M.field, w) == rref(want, M.field, w), (M, m, T)
            last = [max(i for i, x in enumerate(v) if x) for v in basis]
            assert last == sorted(set(last)), (M, m, T)
            assert kernel_basis_by_columns(M, *echelon, m) == want, (M, m, T)
    K = format_map(kernel_matrix(M))
    with mock.patch.object(sheafmap, "_kernel_basis", _block_order_basis):
        assert format_map(kernel_matrix(M)) == K


def _triangular_recombination(rnd):
    """sheafmap._kernel_basis followed by a random triangular change of
    basis: v'_k = c*v_k + sum over i < k of a_i*v_i, with c != 0."""
    kernel_basis = sheafmap._kernel_basis

    def recombined(M, rows, pivots, keys, m):
        basis, p = kernel_basis(M, rows, pivots, keys, m), M.field.p
        out = []
        for k, v in enumerate(basis):
            if p is None:
                c = Fraction(rnd.choice((-3, -2, -1, 1, 2, 3)), rnd.randrange(1, 5))
                a = [Fraction(rnd.randrange(-4, 5), rnd.randrange(1, 5)) for _ in range(k)]
            else:
                c, a = rnd.randrange(1, p), [rnd.randrange(p) for _ in range(k)]
            vec = [c * x for x in v]
            for coeff, u in zip(a, basis):
                vec = [x + coeff * y for x, y in zip(vec, u)]
            out.append(vec if p is None else [x % p for x in vec])
        return out

    return recombined


def _recombination_maps():
    rnd = random.Random(53)
    for K in (RATIONALS, FieldSpec(2), FieldSpec(3), GF):
        for d in (3, 4):
            for e in range(d, 9):  # the quartic seeds start at e = 4
                if K.p is None or e % K.p:
                    yield f"seed {d} {e} {K}", build_delta(constructor.seed_example(d, e, K))
        for k in range(4):
            yield f"random {k} {K}", random_surjective_map(rnd, K)


def test_kernel_matrix_depends_only_on_the_nested_spans_of_the_basis():
    # kernel_matrix inserts the basis vectors in order into a RowSpace, whose
    # residuals depend only on the span so far and on each vector modulo it
    # (up to scale): any basis whose first k vectors span what the first k
    # of _kernel_basis span gives the same K
    rnd = random.Random(59)
    for name, M in _recombination_maps():
        want = format_map(kernel_matrix(M))
        with mock.patch.object(sheafmap, "_kernel_basis", _triangular_recombination(rnd)):
            assert format_map(kernel_matrix(M)) == want, name


# -- the kernel certificate ------------------------------------------------------------


def test_cokernel_worked_cubic_extension():
    # the printed delta_out row is certified as the cokernel of the worked
    # step's N: rows of N1 then the coker row (t, 0, -s)
    N = from_rows(
        [
            ["0", "s^2", "t^2"],
            ["0", "s*t", "0"],
            ["s^2", "t^2", "0"],
            ["t", "0", "-s"],
        ],
        source=(2, 2, 2),
        target=(4, 4, 4, 3),
    )
    delta = from_rows([["s^4*t", "-s^5+t^5", "-s*t^4", "s^3*t^3"]], source=N.target, target=(9,))
    certify_kernel(delta, N, 3, sum(N.target) - 9)
    wrong_g = from_rows([["s^4*t", "-s^5+t^5", "-s*t^4", "2*s^3*t^3"]], source=N.target, target=(9,))
    with pytest.raises(CertificationError):
        certify_kernel(wrong_g, N, 3, sum(N.target) - 9)


def test_cokernel_of_column():
    N = from_rows([["s"], ["t"]], source=(0,), target=(1, 1))
    row = from_rows([["t", "-s"]], source=(1, 1), target=(2,))
    certify_kernel(row, N, 1, sum(N.target) - 2)
    assert full_rank_everywhere(row)


def test_cokernel_requires_injectivity():
    # (t, -1) annihilates (s, s*t) and is onto everywhere, so its kernel has
    # degree 1; the column has degree 0 and drops rank at s = 0
    bad = from_rows([["s"], ["s*t"]], source=(0,), target=(1, 2))
    row = from_rows([["t", "-1"]], source=(1, 2), target=(2,))
    with pytest.raises(CertificationError):
        certify_kernel(row, bad, 1, sum(bad.target) - 2)
    assert not full_rank_everywhere(bad)


def _times_column(K, j, s_power, t_power):
    """K with column j multiplied by s^s_power * t^t_power."""
    entries = {(i, c): f.shift(s_power, t_power) if c == j else f for (i, c), f in K.entries.items()}
    source = tuple(b - s_power - t_power if c == j else b for c, b in enumerate(K.source))
    return GradedSheafMap(K.field, source, K.target, entries)


def _certifies(M, K, degree):
    try:
        certify_kernel(M, K, K.ncols, degree)
    except CertificationError:
        return False
    return True


def test_kernel_certificate_matches_minor_oracle():
    # minimal kernels are injective at every point; multiplying a column by s
    # (or t) makes them drop rank where s = 0 (or t = 0)
    rnd = random.Random(1998)
    for _ in range(120):
        M = random_surjective_map(rnd, max_rank=5, spread=6)
        K = kernel_matrix(M)
        degree = sum(M.source) - sum(M.target)  # M is onto at every point
        j = rnd.randrange(K.ncols)
        for N, injective in ((K, True), (_times_column(K, j, 1, 0), False), (_times_column(K, j, 0, 1), False)):
            assert _certifies(M, N, degree) == injective
            assert full_rank_everywhere(N) == injective


@pytest.mark.parametrize("field", [RATIONALS, FieldSpec(2)], ids=str)
def test_kernel_certificate_checks_rank_at_one_point(field):
    # ker (s, t, 0, 0) = O(-1) + O^2; a repeated column keeps the rank, the
    # degree and compose(M, K) = 0, and only the rank at (1 : 0) sees it
    M = from_rows([["s", "t", "0", "0"]], source=(0, 0, 0, 0), target=(1,), field=field)
    K = kernel_matrix(M)
    certify_kernel(M, K, 3, -1)
    bad = from_rows(
        [["t", "0", "0"], ["-s", "0", "0"], ["0", "1", "1"], ["0", "0", "0"]],
        source=(-1, 0, 0),
        target=(0, 0, 0, 0),
        field=field,
    )
    assert compose(M, bad).is_zero_map()
    with pytest.raises(CertificationError):
        certify_kernel(M, bad, 3, -1)


# -- full-rank certificate ---------------------------------------------------------------


def test_full_rank_goldens():
    printed = from_rows(
        [["t^3", "s^2"], ["0", "s*t"], ["s^3", "t^2"]],
        source=(1, 2),
        target=(4, 4, 4),
    )
    assert full_rank_everywhere(printed)
    bad = from_rows([["s"], ["s*t"]], source=(0,), target=(1, 2))
    assert not full_rank_everywhere(bad)


@pytest.mark.parametrize("e", [2, 4, 6, 8])
def test_quadric_kernel_full_rank(e):
    for n in (e, min(e + 2, 10), 10):
        if n < max(e, 3):
            continue
        F = quadric_chain(e, n)
        K = kernel_matrix(build_delta(F))
        assert full_rank_everywhere(K)


# -- smoothness and the Euler crosscheck ----------------------------------------------------


def test_smoothness_worked_cubic():
    assert check_smooth_along_curve(cubic_surface())


def test_smoothness_square_fails():
    ctx = CurveContext(4, 3, 3, RATIONALS)
    F = IdealCombination(ctx, {(1, 2): build_quadric(ctx, 1, 2)}, {})
    assert not check_smooth_along_curve(F)


def _equal_up_to_scalar(f, g):
    if f.degree != g.degree:
        return False
    K = f.field
    k = next(i for i, c in enumerate(f.coeffs) if not K.is_zero(c))
    return bf_scale(f, K.div(g.coeffs[k], f.coeffs[k])).equals(g)


@pytest.mark.parametrize(
    "field", [RATIONALS, GF, FieldSpec(7), FieldSpec(5), FieldSpec(3), FieldSpec(2)], ids=str
)
def test_smoothness_matches_gradient_oracle(field):
    # delta and the restricted gradient have the same image in O(de), so the
    # gcds of their entries agree up to a scalar, and the scanned ker delta
    # (check_smooth_along_curve, compute's test) has degree Σsource - de
    # exactly when the gcd of delta's entries is constant; sparse draws with
    # few linear coefficients make many of them singular along the curve
    rnd = random.Random(67)
    singular = 0
    for trial in range(60):
        e = trial % 6 + 1
        if field.p is not None and e % field.p == 0:
            e -= 1
        ctx = CurveContext(rnd.randrange(2, 5), e, rnd.randrange(max(e, 3), 7), field)
        F = random_combination(rnd, ctx, linear_prob=rnd.choice([0.0, 0.2, 0.6]))
        smooth = check_smooth_along_curve(F)
        assert smooth == gradient_smooth(F), (trial, F)
        delta = build_delta(F)
        assert smooth == onto_everywhere(delta), (trial, F)
        singular += not smooth
        by_delta = list(delta.entries.values())
        by_gradient = list(gradient_map(F).entries.values())
        assert bool(by_delta) == bool(by_gradient), (trial, F)
        if by_delta:
            assert _equal_up_to_scalar(bf_gcd(by_delta), bf_gcd(by_gradient)), (trial, F)
    assert 5 <= singular <= 55, singular  # both outcomes occur


def test_euler_crosscheck_rejects_low_twist():
    with pytest.raises(ValueError):
        h0_euler_crosscheck(quintic_surface(), -2)


def test_euler_crosscheck_worked_cubic():
    F = cubic_surface()
    assert section_kernel_dim(build_delta(F), -1) == 3
    assert section_kernel_dim(gradient_map(F), -1) == 3
    for m in (-1, 0, 1, 2):
        assert h0_euler_crosscheck(F, m)


# -- structural helpers ---------------------------------------------------------------


def _passes_validation(M):
    # the validating constructor keeps the very same entries: none of M's is
    # zero, outside the matrix or of the wrong degree
    assert type(M.source) is tuple and type(M.target) is tuple
    assert GradedSheafMap(M.field, M.source, M.target, M.entries).entries == M.entries


@pytest.mark.parametrize("K", [RATIONALS, FieldSpec(2), FieldSpec(7), GF], ids=str)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_unchecked_builders_pass_the_validating_constructor(K, data):
    # compose, permute_columns, _restriction_maps and kernel_matrix skip
    # __init__'s checks; their outputs would pass them.  The drawn maps
    # have products and column sums that cancel mod p
    outer, inner = data.draw(composable_maps(K, st.sampled_from([0, 1, 3, None])))
    product = compose(outer, inner)
    _passes_validation(product)
    _passes_validation(outer.permute_columns(data.draw(st.permutations(range(outer.ncols)))))
    for M in sheafmap._restriction_maps(*data.draw(curve_restrictions(fields=(K,)))):
        _passes_validation(M)
    _passes_validation(kernel_matrix(data.draw(one_row_maps(fields=(K,)))))


@pytest.mark.parametrize("K", [RATIONALS, FieldSpec(2), FieldSpec(3), GF], ids=str)
def test_chain_step_maps_pass_the_validating_constructor(K):
    # each extension step builds J, N, its one-column col_j, delta_out
    # and psi_out unchecked; over every step of the cubic and quartic chains
    # to n = 9 they would pass __init__, which drops the zero column a J0
    # step's g = 0 would append to delta and psi
    columns = []

    def recording(outer, inner):
        columns.append(inner)
        return compose(outer, inner)

    strategies = set()
    with mock.patch.object(constructor, "compose", recording):
        for d, e0 in ((3, 3), (4, 4)):
            for e in range(e0, 9):
                if K.p and e % K.p == 0:
                    continue
                columns.clear()
                steps = constructor.build_chain(d, e, 9, K)[1]
                assert len(columns) == len(steps)  # one compose(delta_in, col_j) per step
                for step, col_j in zip(steps, columns):
                    strategies.add(step.strategy)
                    for M in (step.J, step.N, col_j, step.delta_out, step.output_F.maps[0]):
                        _passes_validation(M)
    assert strategies == {"J0", "J1", "J2"}


def test_unchecked_builders_drop_forms_that_cancel():
    # over GF(7): (1, 1)·(1, 6) = 7 = 0; Q14 + 6*Q23 puts 1 + 6 = 7 = 0 at
    # the same place of psi's column 2; and a G_5|_C whose sums cancel, as
    # restrict_to_curve gives it, is an all-zero form of degree e
    K = FieldSpec(7)
    one, six = (BinaryForm.constant(K, c) for c in (1, 6))
    row = GradedSheafMap(K, (0, 0), (0,), {(0, 0): one, (0, 1): one})
    assert compose(row, GradedSheafMap(K, (0,), (0, 0), {(0, 0): one, (1, 0): six})).is_zero_map()
    ctx = CurveContext(2, 4, 5, K)
    psi, delta = sheafmap._restriction_maps(ctx, {(1, 4): one, (2, 3): six}, {5: BinaryForm(K, 4, (0,) * 5)})
    assert sorted(psi.entries) == [(0, 0), (0, 2)] and (0, 4) not in delta.entries
    _passes_validation(psi)
    _passes_validation(delta)


def test_tangent_twists():
    ctx = CurveContext(3, 3, 5, RATIONALS)
    assert tangent_twists(ctx) == (4, 4, 4, 3, 3)


# -- serialization ---------------------------------------------------------------------


def test_map_text_round_trip():
    d = build_delta(quintic_surface())
    text = format_map(d)
    again = parse_map(text, RATIONALS)
    assert maps_equal(again, d)
    assert "map 1 x 3" in text


@st.composite
def graded_maps(draw):
    """A map of up to 3 rows and 4 columns over Q, GF(2) or GF(7), with some
    zero entries; an entry of negative degree is always zero."""
    field = draw(st.sampled_from([RATIONALS, FieldSpec(2), FieldSpec(7)]))
    source = draw(st.lists(st.integers(-3, 4), min_size=1, max_size=4))
    target = draw(st.lists(st.integers(-3, 8), min_size=1, max_size=3))
    if field.p is None:
        coeff = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6))
    else:
        coeff = st.integers(0, field.p - 1)
    entries = {}
    for i, c in enumerate(target):
        for j, b in enumerate(source):
            if c >= b and draw(st.booleans()):
                coeffs = draw(st.lists(coeff, min_size=c - b + 1, max_size=c - b + 1))
                entries[(i, j)] = BinaryForm(field, c - b, tuple(coeffs))
    return GradedSheafMap(field, tuple(source), tuple(target), entries)


@settings(deadline=None, max_examples=100)
@given(graded_maps())
def test_map_text_round_trip_random_maps(M):
    again = parse_map(format_map(M), M.field)
    assert maps_equal(again, M)


def test_map_json_round_trip():
    K = kernel_matrix(build_delta(cubic_surface()))
    obj = map_to_json(K)
    again = map_from_json(obj, RATIONALS)
    assert maps_equal(again, K)


# Rationals as a caller may pass them: ints, reduced Fractions, and integral
# Fractions such as Fraction(1)
Q_VALUES = st.one_of(
    st.integers(-30, 30),
    st.fractions(min_value=-30, max_value=30, max_denominator=8),
    st.integers(-5, 5).map(Fraction),
)
NONZERO_Q = Q_VALUES.filter(bool)


def _hsf_sum(coeffs, monomials) -> str:
    """The .hsf text of a sum of coefficient-times-monomial terms."""
    text = "".join(f" {'-' if c < 0 else '+'} {abs(c)}*{m}" for c, m in zip(coeffs, monomials))
    return text[3:] if text.startswith(" + ") else text[1:]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_rational_constructor_returns_canonical_values(data):
    # every Q value the program makes is an int when it is integral and a
    # Fraction only otherwise: the field's constants and operations, the
    # scalar and .hsf parsers, restriction (x0*x1*x2 and x1^3 restrict to
    # the same monomial, so their coefficients are summed), psi and delta,
    # compose, RowSpace.insert and kernel_matrix
    K = RATIONALS
    a, b = data.draw(Q_VALUES), data.draw(NONZERO_Q)
    n, d = data.draw(st.integers(-50, 50)), data.draw(st.integers(1, 12))
    values = [K.zero, K.one, K.from_int(n), K.parse_scalar(str(n)), K.parse_scalar(f"{n}/{d}")]
    values += [K.add(a, b), K.sub(a, b), K.mul(a, b), K.neg(a), K.inv(b), K.div(a, b)]
    c = [data.draw(NONZERO_Q) for _ in range(7)]
    F = parse_hypersurface(
        "d = 5\ne = 3\nn = 4\n"
        f"Q 1 2 : {_hsf_sum(c[:2], ['x0^3', 'x1*x2^2'])}\n"
        f"Q 2 3 : {_hsf_sum(c[2:5], ['x3^3', 'x0*x1*x2', 'x1^3'])}\n"
        f"X 4 : {_hsf_sum(c[5:], ['x0^4', 'x3^4'])}\n"
    )
    for poly in (*F.quadric_coeffs.values(), *F.linear_coeffs.values()):
        values += [*poly.terms.values(), *restrict_to_curve(poly).coeffs]
    psi, delta = build_psi(F), build_delta(F)
    for M in (psi, delta, compose(psi, build_beta(F.context)), kernel_matrix(delta)):
        values += [x for f in M.entries.values() for x in f.coeffs]
    span = linalg.RowSpace(K, 4)
    for row in data.draw(st.lists(st.lists(Q_VALUES, min_size=4, max_size=4), max_size=5)):
        values += span.insert(row) or []
    assert all(canonical_q(x) for x in values)

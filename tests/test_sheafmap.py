import random

import pytest

from rncsplit import sheafmap
from rncsplit.binform import BinaryForm, parse_binary_form
from rncsplit.fields import FieldSpec, RATIONALS
from rncsplit.multipoly import CurveContext, IdealCombination, parse_poly
from rncsplit.sheafmap import (
    CertificationError,
    GradedSheafMap,
    MapError,
    build_beta,
    build_delta,
    build_df,
    build_psi,
    check_smooth_along_curve,
    certify_kernel,
    compose,
    format_map,
    generic_rank,
    gradient_map,
    h0_euler_crosscheck,
    kernel_matrix,
    map_from_json,
    map_to_json,
    parse_map,
    section_kernel_dim,
    splitting_of_kernel,
    stack_rows,
    tangent_twists,
)
from tests.helpers import (
    GF,
    dense_combination,
    from_rows,
    full_rank_everywhere,
    full_window_splitting,
    random_combination,
    random_surjective_map,
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
    from rncsplit.constructor import build_chain

    return build_chain(2, e, n, field)[0]


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
    assert beta.equals(want)


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
    want = bform("s^3*t").mul(BinaryForm.monomial(RATIONALS, 2, l - 1))
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
        assert compose(build_psi(F), build_beta(ctx)).equals(build_delta(F))


def test_compose_identity_and_mismatch():
    d = build_delta(cubic_surface())
    one = BinaryForm.constant(RATIONALS, RATIONALS.one)
    ident = GradedSheafMap(RATIONALS, d.source, d.source, {(i, i): one for i in range(d.ncols)})
    assert compose(d, ident).equals(d)
    with pytest.raises(MapError):
        compose(d, GradedSheafMap(RATIONALS, (1, 2), (1, 2), {(0, 0): one, (1, 1): one}))


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
    inj = from_rows([["s"], ["t"]], source=(0,), target=(1, 1))
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
        from_rows([["s"], ["t"]], source=(0,), target=(1, 1)),
        GradedSheafMap(RATIONALS, (2, 5), (7,), {}),
    ]
    F = random_combination(rnd, CurveContext(3, 3, 4, RATIONALS))
    rational += [build_delta(F), build_psi(F)]
    for M in rational:
        assert splitting_of_kernel(M).parts == full_window_splitting(M)


def test_scan_of_one_row_map_vanishing_on_tiny_field():
    # s^p*t - s*t^p is nonzero but vanishes at every point of P^1(F_p); point
    # evaluation would see rank 0, so one-row maps are ranked without it
    for p, text in ((3, "s^3*t - s*t^3"), (2, "s^2*t + s*t^2")):
        M = from_rows([[text]], source=(0,), target=(p + 1,), field=FieldSpec(p))
        assert generic_rank(M) == 1
        assert splitting_of_kernel(M).parts == ()


@pytest.mark.parametrize("p, text", [(2, "s^2*t + s*t^2"), (3, "s^3*t - s*t^3")])
def test_generic_rank_of_map_vanishing_on_tiny_field(p, text):
    # the 2x2 minor vanishes at every point of P^1(F_p), so the rank is read
    # off the nullity counts at the top of the scan window
    K = FieldSpec(p)
    M = from_rows([[text, "0"], ["0", "1"]], source=(0, 3), target=(p + 1, 3), field=K)
    assert generic_rank(M) == 2
    assert splitting_of_kernel(M).parts == ()
    assert kernel_matrix(M).ncols == 0
    # a map that really drops rank keeps its rank and its kernel O(-1)
    low = from_rows([["s", "t"], ["s", "t"]], source=(0, 0), target=(1, 1), field=K)
    assert generic_rank(low) == 1
    assert splitting_of_kernel(low).parts == (-1,)


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
    assert K.entry(0, 0).equals(bform("t").scale(lam))
    assert K.entry(1, 0).equals(bform("-s").scale(lam))


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
    # kernel_matrix reads its generators from the scan's own nullspaces, so no
    # section matrix is built twice for the same twist
    built = []
    section_matrix = sheafmap._section_matrix

    def recording(M, m):
        built.append(m)
        return section_matrix(M, m)

    monkeypatch.setattr(sheafmap, "_section_matrix", recording)
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
    from rncsplit.multipoly import build_quadric

    F = IdealCombination(ctx, {(1, 2): build_quadric(ctx, 1, 2)}, {})
    assert not check_smooth_along_curve(F)


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


def test_stack_rows():
    top = from_rows([["s", "t"]], source=(0, 0), target=(1,))
    bottom = from_rows([["t", "0"]], source=(0, 0), target=(1,))
    stacked = stack_rows(top, bottom)
    assert stacked.target == (1, 1)
    assert stacked.entry(1, 0).equals(bform("t"))


def test_tangent_twists():
    ctx = CurveContext(3, 3, 5, RATIONALS)
    assert tangent_twists(ctx) == (4, 4, 4, 3, 3)


# -- serialization ---------------------------------------------------------------------


def test_map_text_round_trip():
    d = build_delta(quintic_surface())
    text = format_map(d)
    again = parse_map(text, RATIONALS)
    assert again.equals(d)
    assert "map 1 x 3" in text


def test_map_json_round_trip():
    K = kernel_matrix(build_delta(cubic_surface()))
    obj = map_to_json(K)
    again = map_from_json(obj, RATIONALS)
    assert again.equals(K)

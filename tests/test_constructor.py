import random

import pytest
from hypothesis import example, given, settings, strategies as st

from rncsplit import constructor, sheafmap
from rncsplit.binform import BinaryForm
from rncsplit.constructor import (
    PsiLiftError,
    UnsupportedCaseError,
    build_chain,
    extend_dimension,
    general_psi_targets,
    lift_psi_targets,
    seed_example,
)
from rncsplit.fields import FieldSpec, RATIONALS
from rncsplit.multipoly import CurveContext, IdealCombination, MultiPoly, parse_hypersurface, parse_poly
from rncsplit.sheafmap import (
    CertificationError,
    GradedSheafMap,
    build_delta,
    build_psi,
    check_smooth_along_curve,
    compose,
    kernel_matrix,
    splitting_of_kernel,
)
from rncsplit.splitting import SplittingType, predicted_splitting
from tests.helpers import (
    extension_schedule,
    full_rank_everywhere,
    maps_equal,
    parse_binary_form,
    select_strategy_counter,
    strategy_n1_by_forms,
)

GF = FieldSpec(32003)


def bform(text, field=RATIONALS, degree=None):
    return parse_binary_form(text, field, degree)


def row_blocks(N):
    """(N1, the cokernel row): N's first n rows and its last row, n + 1 = N.nrows."""
    n = N.nrows - 1
    top = {key: f for key, f in N.entries.items() if key[0] < n}
    row = {(0, j): f for (i, j), f in N.entries.items() if i == n}
    return GradedSheafMap(N.field, N.source, N.target[:n], top), GradedSheafMap(N.field, N.source, N.target[n:], row)


# -- seeds ------------------------------------------------------------------------


def test_cubic_seed_golden():
    F = seed_example(3, 3)
    ctx = F.context
    assert F.quadric_coeffs == {
        (1, 2): parse_poly("x0", ctx, 1),
        (2, 3): parse_poly("x3", ctx, 1),
    }
    assert not F.linear_coeffs


def test_cubic_seed_e4_matches_displayed_delta():
    # the displayed fourfold map (s^6 t, -s^7+s^3 t^4, -s^4 t^3+t^7, -s t^6)
    F = seed_example(3, 4)
    d = build_delta(F)
    want = ["s^6*t", "-s^7+s^3*t^4", "-s^4*t^3+t^7", "-s*t^6"]
    for j, text in enumerate(want):
        assert d.entry(0, j).equals(bform(text))


def test_quartic_seed_golden():
    F = seed_example(4, 4)
    ctx = F.context
    assert F.quadric_coeffs == {
        (1, 2): parse_poly("x0^2", ctx, 2),
        (2, 3): parse_poly("x2^2", ctx, 2),
        (3, 4): parse_poly("x4^2", ctx, 2),
    }


def test_quartic_sixfold_seed_golden():
    F = seed_example(4, 6)
    ctx = F.context
    assert F.quadric_coeffs == {
        (1, 2): parse_poly("x0^2", ctx, 2),
        (2, 3): parse_poly("x0*x3", ctx, 2),
        (3, 4): parse_poly("x3^2", ctx, 2),
        (4, 5): parse_poly("x3*x6", ctx, 2),
        (5, 6): parse_poly("x6^2", ctx, 2),
        (3, 6): parse_poly("x3^2", ctx, 2),
    }


def test_quadric_chain_all_ones():
    F = build_chain(2, 4, 7, GF)[0]
    ctx = F.context
    one = parse_poly("1", ctx, 0)
    assert F.quadric_coeffs == {(1, 2): one, (2, 3): one, (3, 4): one}
    assert not F.linear_coeffs


def test_extended_cubic_golden():
    # one step of the induction: quadric part unchanged, linear part x0*x3
    F = build_chain(3, 3, 4)[0]
    ctx = F.context
    assert F.quadric_coeffs == {
        (1, 2): parse_poly("x0", ctx, 1),
        (2, 3): parse_poly("x3", ctx, 1),
    }
    assert F.linear_coeffs == {4: parse_poly("x0*x3", ctx, 2)}


def test_seed_smoothness():
    for d, e in ((2, 5), (3, 6), (4, 7), (5, 8)):
        F = seed_example(d, e, GF)
        assert check_smooth_along_curve(F), (d, e)


def test_generate_out_of_range():
    with pytest.raises(UnsupportedCaseError):
        build_chain(3, 2, 5)
    with pytest.raises(UnsupportedCaseError):
        build_chain(5, 7, 8)  # d >= 5 needs e = n
    with pytest.raises(UnsupportedCaseError):
        build_chain(5, 7, 7)  # below 2d-2
    with pytest.raises(UnsupportedCaseError):
        build_chain(2, 1, 4)


@pytest.mark.parametrize("d, e", [(2, 1), (2, 0), (3, 2), (4, 3), (4, 1), (5, 4), (5, 7), (6, 9), (1, 3)])
def test_seed_out_of_range_is_refused_as_build_chain_refuses_it(d, e):
    # seed_example checks build_chain's precondition at its own base level
    n = max(e, 3) if d == 2 else e
    with pytest.raises(UnsupportedCaseError) as seed_refusal:
        seed_example(d, e)
    with pytest.raises(UnsupportedCaseError) as chain_refusal:
        build_chain(d, e, n)
    assert str(seed_refusal.value) == str(chain_refusal.value)


# -- psi lifting --------------------------------------------------------------------


def test_lift_quintic_targets_diagonal():
    ctx = CurveContext(5, 3, 3, RATIONALS)
    F = lift_psi_targets([bform("s^10"), bform("t^10")], ctx)
    assert F.quadric_coeffs == {
        (1, 2): parse_poly("x0^3", ctx, 3),
        (2, 3): parse_poly("x3^3", ctx, 3),
    }


def test_general_ladder_shape():
    targets = general_psi_targets(5, 8, RATIONALS)
    texps = [next(i for i, c in enumerate(f.coeffs) if c) for f in targets]
    assert texps[0] == 0 and texps[-1] == 5 * 8 - 8 - 2
    steps = [b - a for a, b in zip(texps, texps[1:])]
    assert all(x in (4, 5) for x in steps)


def test_lift_round_trip_random_divisible():
    rnd = random.Random(79)
    for _ in range(50):
        d = rnd.randrange(3, 6)
        e = rnd.randrange(2, 6)
        ctx = CurveContext(d, e, e if e >= 3 else 3, GF)
        targets = []
        for l in range(1, e):
            core_deg = e * (d - 2)
            coeffs = [GF.from_int(rnd.randrange(0, GF.p)) for _ in range(core_deg + 1)]
            core = BinaryForm(GF, core_deg, tuple(coeffs))
            targets.append(core.shift(e - l - 1, l - 1))
        F = lift_psi_targets(targets, ctx)
        psi = build_psi(F)
        for l, want in enumerate(targets):
            assert psi.entry(0, l).equals(want)


@pytest.mark.parametrize("field", [RATIONALS, GF], ids=str)
def test_lift_refuses_a_column_the_monomial_does_not_divide(field):
    # column l is lifted by F_(l,l+1) alone, so s^(e-l-1) t^(l-1) must divide
    # it; a column it does not divide is refused by number, not lifted
    # another way
    ctx = CurveContext(3, 3, 3, field)
    with pytest.raises(PsiLiftError, match=r"column 1 is not divisible by s\^1 t\^0"):
        lift_psi_targets([bform("s^4+t^4", field), bform("t^4", field)], ctx)
    with pytest.raises(PsiLiftError, match=r"column 2 is not divisible by s\^0 t\^1"):
        lift_psi_targets([bform("s^4", field), bform("s^4+2*t^4", field)], ctx)
    F = lift_psi_targets([bform("s^4+s^3*t", field), bform("s*t^3+t^4", field)], ctx)
    assert build_psi(F).entry(0, 1).equals(bform("s*t^3+t^4", field))


def test_lift_quadric_outside_image_reports():
    # for d = 2 column 1 must be a multiple of s: (s + t, t) and (s + t, s)
    # are refused, not silently altered
    ctx = CurveContext(2, 3, 3, RATIONALS)
    for second in ("t", "s"):
        with pytest.raises(PsiLiftError, match="column 1"):
            lift_psi_targets([bform("s+t"), bform(second)], ctx)
    lift_psi_targets([bform("s"), bform("t")], ctx)  # reachable: no error


# -- schedules ----------------------------------------------------------------------


def test_schedule_cubic_golden():
    sched = extension_schedule(3, 3, 5)
    assert [list(s.parts) for s in sched] == [[1, 2], [2, 2, 2], [2, 2, 2, 3]]


def test_schedule_quartic_golden():
    sched = extension_schedule(4, 4, 7)
    assert [list(s.parts) for s in sched] == [
        [1, 1, 2],
        [2, 2, 2, 2],
        [2, 2, 2, 3, 3],
        [2, 2, 3, 3, 3, 3],
    ]
    # past n = 2e+1 the minimal summand is exhausted and O(e) gets appended
    tail = extension_schedule(4, 4, 10)[-2:]
    assert [list(s.parts) for s in tail] == [
        [3, 3, 3, 3, 3, 3, 3, 3],
        [3, 3, 3, 3, 3, 3, 3, 3, 4],
    ]


def test_schedule_quadrics_every_step_appends():
    sched = extension_schedule(2, 3, 6)
    for a, b in zip(sched, sched[1:]):
        assert sorted(list(a.parts) + [3]) == list(b.parts)


def test_schedule_rejects_inexact_targets():
    with pytest.raises(UnsupportedCaseError):
        extension_schedule(5, 8, 9)


# -- extension steps -------------------------------------------------------------------


def test_extend_worked_cubic_step():
    F = seed_example(3, 3)
    step = extend_dimension(F, SplittingType((2, 2, 2)))
    assert step.strategy == "J1"
    # J = [[s, 0], [0, 1], [t, 0]] on the ascending column order
    assert step.J.entry(0, 0).equals(bform("s"))
    assert step.J.entry(1, 1).equals(bform("1"))
    assert step.J.entry(2, 0).equals(bform("t"))
    # N's rows 0..2 are N1 exactly as printed, row 3 the printed cokernel row (t, 0, -s)
    printed = [["0", "s^2", "t^2"], ["0", "s*t", "0"], ["s^2", "t^2", "0"], ["t", "0", "-s"]]
    for i, row in enumerate(printed):
        for j, text in enumerate(row):
            if text == "0":
                assert step.N.entry(i, j).is_zero()
            else:
                assert step.N.entry(i, j).equals(bform(text))
    assert step.g.equals(bform("s^3*t^3"))
    ctx_out = step.output_F.context
    assert step.output_F.linear_coeffs == {4: parse_poly("x0*x3", ctx_out, 2)}
    # delta_out exactly as printed
    want = ["s^4*t", "-s^5+t^5", "-s*t^4", "s^3*t^3"]
    for j, text in enumerate(want):
        assert step.delta_out.entry(0, j).equals(bform(text))


def test_extend_j0_step_appends_zero():
    F = build_chain(3, 3, 4)[0]
    step = extend_dimension(F, SplittingType((2, 2, 2, 3)))
    assert step.strategy == "J0"
    assert step.g.is_zero()
    delta_in = build_delta(F)
    for j in range(4):
        assert step.delta_out.entry(0, j).equals(delta_in.entry(0, j))
    assert step.delta_out.entry(0, 4).is_zero()
    # F unchanged apart from the ambient dimension
    assert not step.output_F.linear_coeffs.get(5)


def test_extend_quartic_first_step_is_j2():
    F = seed_example(4, 4, GF)
    step = extend_dimension(F, predicted_splitting(4, 4, 5).splitting)
    assert step.strategy == "J2"
    # the J2 lemma identities: the cokernel row of N kills J
    assert compose(row_blocks(step.N)[1], step.J).is_zero_map()
    assert full_rank_everywhere(step.N)


def test_extend_rejects_unreachable_target():
    F = seed_example(3, 3)
    with pytest.raises(UnsupportedCaseError):
        extend_dimension(F, SplittingType((0, 2, 4)))
    with pytest.raises(UnsupportedCaseError):
        extend_dimension(F, SplittingType((2, 2)))


def test_extend_rejects_hypersurface_singular_along_curve():
    F = parse_hypersurface("d = 4\ne = 3\nn = 3\nQ 1 2 : x1^2\n")
    assert not check_smooth_along_curve(F)
    with pytest.raises(UnsupportedCaseError, match="singular along the curve"):
        extend_dimension(F, predicted_splitting(4, 3, 4).splitting)


def test_extension_certificates_along_chain():
    _, steps = build_chain(4, 5, 8, GF)
    assert [s.strategy for s in steps] == ["J2", "J1", "J1"]
    for step in steps:
        assert compose(step.delta_out, step.N).is_zero_map()
        assert full_rank_everywhere(step.N)
        assert tuple(sorted(step.N.source)) == step.target_splitting.parts
        assert compose(row_blocks(step.N)[1], step.J).is_zero_map()


def test_chain_matches_catalog_each_level():
    for d, e, n_top in ((3, 4, 7), (4, 4, 6)):
        F_seed = seed_example(d, e, GF)
        assert splitting_of_kernel(build_delta(F_seed)).parts == predicted_splitting(d, e, e).splitting.parts
        _, steps = build_chain(d, e, n_top, GF)
        for step in steps:
            lvl = step.output_F.context.n
            assert step.target_splitting.parts == predicted_splitting(d, e, lvl).splitting.parts


def test_step_splitting_is_the_scanned_kernel_of_delta_out():
    # verify reports each step's target_splitting, which extend_dimension
    # certified as the splitting of ker delta_out: scanning delta_out agrees
    for d, e0 in ((3, 3), (4, 4)):
        for e in range(e0, 10):
            _, steps = build_chain(d, e, 9, GF)
            assert len(steps) == 9 - e
            for step in steps:
                assert splitting_of_kernel(step.delta_out) == step.target_splitting, (d, e)


@pytest.mark.parametrize("field, e_max", [(GF, 23), (RATIONALS, 11)], ids=["gf32003", "rationals"])
def test_quartic_family_seeds_match_catalog(field, e_max):
    for e in range(7, e_max + 1):
        F = seed_example(4, e, field)
        assert splitting_of_kernel(build_delta(F)).parts == predicted_splitting(4, e, e).splitting.parts, e


def test_extend_step_builds_no_section_matrix(monkeypatch):
    # with the previous step's kernel handed on and its delta kept on F, a
    # step runs no nullity scan: g comes from one exact division and N is
    # certified by certify_kernel
    built = []
    section_rows = sheafmap._section_rows

    def recording(M, m):
        built.append(m)
        return section_rows(M, m)

    monkeypatch.setattr(sheafmap, "_section_rows", recording)
    for d, e, field in ((3, 3, RATIONALS), (4, 5, GF)):
        F = seed_example(d, e, field)
        kernel = kernel_matrix(build_delta(F))
        for target in extension_schedule(d, e, e + 3)[1:]:
            built.clear()
            step = extend_dimension(F, target, _kernel=kernel)
            assert built == [], (d, e, target)
            F, kernel = step.output_F, step.N


def test_kernel_served_by_chain_is_kernel_matrix():
    # each step's N doubles as the kernel matrix at the next level
    F = seed_example(3, 3, GF)
    step = extend_dimension(F, SplittingType((2, 2, 2)))
    K_direct = kernel_matrix(step.delta_out)
    assert tuple(sorted(K_direct.source)) == tuple(sorted(step.N.source))
    assert compose(step.delta_out, step.N).is_zero_map()


def test_step_keeps_one_delta():
    # delta_out is the delta that output_F keeps (carried, not rebuilt),
    # and the chain hands that object on
    for d, e, n, field in ((3, 3, 6, RATIONALS), (4, 5, 8, GF)):
        _, steps = build_chain(d, e, n, field)
        for step in steps:
            assert step.delta_out is build_delta(step.output_F), (d, e, step.output_F.context.n)


def _chain_steps(field, top=None):
    """(where, step, the kernel matrix the step was handed) for every step of
    the cubic chains e = 3..8 and the quartic chains e = 4..8: up to n = top,
    or else up to n = 9 over GF(32003) and two steps elsewhere, skipping
    curves whose degree the characteristic divides."""
    for d, e0 in ((3, 3), (4, 4)):
        for e in range(e0, 9):
            if field.p and e % field.p == 0:
                continue
            _, steps = build_chain(d, e, top or (9 if field is GF else min(9, e + 2)), field)
            kernel = kernel_matrix(build_delta(steps[0].input_F))
            for step in steps:
                yield (d, e, step.output_F.context.n), step, kernel
                kernel = step.N


@pytest.mark.parametrize("field", [GF, FieldSpec(2), FieldSpec(3), RATIONALS], ids=str)
def test_strategy_identities_hold_at_every_step(field):
    # N's row blocks: N1·J reproduces the handed kernel, its columns sorted
    # by twist as extend_dimension sorts them for J1 and J2, and the
    # cokernel row N2 has N2·J = 0.  The step checks neither: its answer
    # rests on certify_kernel alone
    for where, step, kernel in _chain_steps(field):
        if step.strategy != "J0":
            kernel = kernel.permute_columns(sorted(range(kernel.ncols), key=lambda j: (kernel.source[j], j)))
        N1, N2 = row_blocks(step.N)
        assert maps_equal(compose(N1, step.J), kernel), where
        assert compose(N2, step.J).is_zero_map(), where


@pytest.mark.parametrize("field", [GF, FieldSpec(2), FieldSpec(3), RATIONALS], ids=str)
def test_cokernel_row_leads_with_a_power_of_t(field):
    # extend_dimension finds g by one shift by t^-k in the first column j
    # where row n of N is nonzero: that entry is exactly t^k, with k = 0
    # (in the last column), 1 and 2 (in column 0) for J0, J1 and J2
    strategies = set()
    for where, step, _ in _chain_steps(field):
        N, n = step.N, step.input_F.context.n
        j = min(c for i, c in N.entries if i == n)
        k = ("J0", "J1", "J2").index(step.strategy)
        assert j == (N.ncols - 1 if k == 0 else 0), where
        assert N.entry(n, j).coeffs == BinaryForm.monomial(field, k, k).coeffs, where
        strategies.add(step.strategy)
    assert strategies == {"J0", "J1", "J2"}


@pytest.mark.parametrize("wrong", ["2*t^k", "s^k"])
@pytest.mark.parametrize("field", [GF, RATIONALS], ids=str)
def test_a_cokernel_row_off_the_t_power_shape_is_refused(monkeypatch, field, wrong):
    # a builder that puts 2·t^k or s^k where t^k belongs: the shift by t^-k
    # gives a g with (delta_in, g)·N nonzero in that column, and
    # certify_kernel refuses the step.  J0's lead entry 1 is t^0 = s^0
    strategies = set()
    for d, e, n in ((3, 3, 5), (4, 4, 5)):
        for step in build_chain(d, e, n, field)[1]:
            if step.strategy == "J0":
                continue
            name = f"_build_{step.strategy}"

            def mutated(*args, build=getattr(constructor, name)):
                J, N = build(*args)
                row, k = N.nrows - 1, N.entry(N.nrows - 1, 0).degree
                two = field.from_int(2)
                lead = BinaryForm.monomial(field, k, k, two) if wrong == "2*t^k" else BinaryForm.monomial(field, k, 0)
                return J, GradedSheafMap(field, N.source, N.target, {**N.entries, (row, 0): lead})

            with monkeypatch.context() as m:
                m.setattr(constructor, name, mutated)
                with pytest.raises(CertificationError):
                    extend_dimension(step.input_F, step.target_splitting)
            strategies.add(step.strategy)
    assert strategies == {"J1", "J2"}


@pytest.mark.parametrize("field", [GF, FieldSpec(2), FieldSpec(3), RATIONALS], ids=str)
def test_strategy_columns_split_by_slicing_match_form_arithmetic(field):
    # _build_J1 and _build_J2 read p, c1 and q, c2 off each kernel entry's
    # coefficients; the oracle subtracts c·t^deg or c·s^deg and shifts.  N1
    # agrees entry for entry at every J1 and J2 step of the chains to n = 9,
    # which split with c = 0 and c != 0, off t (column 0) and off s (J2's
    # column 1)
    branches = set()
    for where, step, kernel in _chain_steps(field, 9):
        if step.strategy == "J0":
            continue
        K_perm = kernel.permute_columns(sorted(range(kernel.ncols), key=lambda j: (kernel.source[j], j)))
        entries = strategy_n1_by_forms(K_perm, min(kernel.source), step.strategy)
        N1 = row_blocks(step.N)[0]
        want = GradedSheafMap(field, N1.source, N1.target, entries)
        assert N1.entries.keys() == want.entries.keys(), where
        assert all(f.coeffs == want.entries[key].coeffs for key, f in N1.entries.items()), where
        for (_, j), f in K_perm.entries.items():
            if j == 0:
                branches.add(("t", field.is_zero(f.coeffs[-1])))
            elif j == 1 and step.strategy == "J2":
                branches.add(("s", field.is_zero(f.coeffs[0])))
    assert branches == {("t", True), ("t", False), ("s", True), ("s", False)}


@pytest.mark.parametrize("corruption", ["entry", "column"])
@pytest.mark.parametrize("field", [GF, RATIONALS], ids=str)
def test_step_with_a_corrupted_kernel_is_refused(monkeypatch, field, corruption):
    # dropping an entry N_ik with delta_out's entry i nonzero leaves
    # delta_out·N nonzero in column k; dropping all of column k leaves N
    # singular at every point.  certify_kernel refuses both, in J0, J1 and
    # J2 steps, with the corruption made to the N each builder returns
    strategies = set()
    for d, e, n in ((3, 3, 5), (4, 4, 5)):
        for step in build_chain(d, e, n, field)[1]:
            # the step again, without the chain's kernel handed on
            step = extend_dimension(step.input_F, step.target_splitting)
            strategies.add(step.strategy)
            i, k = next(key for key in step.N.entries if not step.delta_out.entry(0, key[0]).is_zero())
            dropped = (lambda key: key == (i, k)) if corruption == "entry" else (lambda key: key[1] == k)

            def corrupted(build):
                def built(*args):
                    J, N = build(*args)
                    kept = {x: f for x, f in N.entries.items() if not dropped(x)}
                    return J, GradedSheafMap(N.field, N.source, N.target, kept)

                return built

            with monkeypatch.context() as m:
                for name in ("_build_J0", "_build_J1", "_build_J2"):
                    m.setattr(constructor, name, corrupted(getattr(constructor, name)))
                with pytest.raises(CertificationError):
                    extend_dimension(step.input_F, step.target_splitting)
    assert strategies == {"J0", "J1", "J2"}


@pytest.mark.parametrize("field", [RATIONALS, FieldSpec(2), GF], ids=str)
def test_carried_maps_equal_a_rebuild(field):
    # each step appends G_(n+1)|_C to its input's psi and delta instead of
    # restricting every coefficient again: a hypersurface rebuilt from the
    # output's coefficients builds the same maps, coefficient for coefficient
    for where, step, _ in _chain_steps(field):
        F = step.output_F
        rebuilt = IdealCombination(F.context, F.quadric_coeffs, F.linear_coeffs)
        assert rebuilt.maps is None
        for got, want in zip(F.maps, (build_psi(rebuilt), build_delta(rebuilt))):
            assert (got.source, got.target) == (want.source, want.target), where
            assert got.entries.keys() == want.entries.keys(), where
            assert all(f.coeffs == want.entries[key].coeffs for key, f in got.entries.items()), where
        assert F.maps[1] is step.delta_out


def test_step_refuses_a_lift_that_does_not_restrict_to_g(monkeypatch):
    # a G_(n+1) whose restriction is not g would leave the carried maps
    # unlike the hypersurface's own: adding x0^(d-1) moves the s^(e(d-1))
    # coefficient of the restriction by one, in J0 (g = 0), J1 and J2 steps
    real = constructor.lift_binary_form

    def perturbed(h, context, k):
        return real(h, context, k).add(MultiPoly.monomial(context, [k] + [0] * context.n))

    for d, e, n, field in ((3, 3, 3, RATIONALS), (3, 5, 6, FieldSpec(2)), (4, 4, 4, GF), (4, 5, 6, GF)):
        F = build_chain(d, e, n, field)[0]
        target = predicted_splitting(d, e, n + 1).splitting
        with monkeypatch.context() as m:
            m.setattr(constructor, "lift_binary_form", perturbed)
            with pytest.raises(CertificationError, match="does not restrict to g"):
                extend_dimension(F, target)


def test_extend_kernel_handoff_is_private():
    # a kernel reaches extend_dimension only through extend_chain's private
    # keyword, which is not certified again; delta is F's own (F.maps)
    F = seed_example(3, 3)
    K = kernel_matrix(build_delta(F))
    with pytest.raises(TypeError):
        extend_dimension(F, SplittingType((2, 2, 2)), kernel=K)
    with pytest.raises(TypeError):
        extend_dimension(F, SplittingType((2, 2, 2)), K)


@st.composite
def strategy_cases(draw):
    """(S, T, e): S of rank <= 8 with parts in 0..6, and T either the image
    of S under one strategy's shape or drawn at random."""
    parts = draw(st.lists(st.integers(0, 6), max_size=8))
    e = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["J0", "J1", "J2", "random"]))
    rest = sorted(parts)
    if kind == "J0":
        image = parts + [e]
    elif kind == "J1" and rest:
        image = rest[1:] + [rest[0] + 1] * 2
    elif kind == "J2" and len(rest) >= 2:
        image = rest[2:] + [rest[0] + 1] * 3
    else:
        image = draw(st.lists(st.integers(0, 7), max_size=9))
    return SplittingType(tuple(parts)), SplittingType(tuple(image)), e


@given(case=strategy_cases())
@example(case=(SplittingType((2, 2, 3)), SplittingType((2, 2, 3, 3)), 3))  # J0
@example(case=(SplittingType((2, 2, 3)), SplittingType((2, 3, 3, 3)), 3))  # J1
@example(case=(SplittingType((2, 2, 3)), SplittingType((3, 3, 3, 3)), 4))  # J2
@example(case=(SplittingType((1, 3)), SplittingType((2, 2, 3)), 9))  # parts too far apart
@example(case=(SplittingType(()), SplittingType((1,)), 2))  # empty S, not J0
@settings(max_examples=400, deadline=None)
def test_select_strategy_matches_counter_oracle(case):
    S, T, e = case
    try:
        want = select_strategy_counter(S, T, e)
    except ValueError:  # UnsupportedCaseError, or min() of an empty S
        with pytest.raises(UnsupportedCaseError):
            constructor._select_strategy(S, T, e)
    else:
        assert constructor._select_strategy(S, T, e) == want

import random

import pytest

from rncsplit import sheafmap
from rncsplit.binform import BinaryForm, parse_binary_form
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
from rncsplit.multipoly import CurveContext, parse_poly
from rncsplit.sheafmap import (
    build_delta,
    build_psi,
    check_smooth_along_curve,
    compose,
    kernel_matrix,
    splitting_of_kernel,
)
from rncsplit.splitting import SplittingType, predicted_splitting
from tests.helpers import extension_schedule, full_rank_everywhere

GF = FieldSpec(32003)


def bform(text, field=RATIONALS, degree=None):
    return parse_binary_form(text, field, degree)


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
    texps = [f.t_valuation() for f in targets]
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


def test_lift_general_path_non_divisible():
    # a column with no s-power factor forces the linear-system route
    ctx = CurveContext(3, 3, 3, RATIONALS)
    targets = [bform("s^4+t^4"), bform("t^4")]
    F = lift_psi_targets(targets, ctx)
    psi = build_psi(F)
    assert psi.entry(0, 0).equals(targets[0])
    assert psi.entry(0, 1).equals(targets[1])


def test_lift_quadric_outside_image_reports():
    # for d = 2 the reachable columns of psi are constrained: the t-part of the
    # first column and the s-part of the second share one constant, so
    # (s + t, t) is unreachable and must be reported, not silently altered
    ctx = CurveContext(2, 3, 3, RATIONALS)
    with pytest.raises(PsiLiftError):
        lift_psi_targets([bform("s+t"), bform("t")], ctx)
    lift_psi_targets([bform("s+t"), bform("s")], ctx)  # reachable: no error


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
    # N1 exactly as printed
    n1 = [["0", "s^2", "t^2"], ["0", "s*t", "0"], ["s^2", "t^2", "0"]]
    for i, row in enumerate(n1):
        for j, text in enumerate(row):
            if text == "0":
                assert step.N1.entry(i, j).is_zero()
            else:
                assert step.N1.entry(i, j).equals(bform(text))
    # N2 is the printed cokernel row (t, 0, -s)
    assert step.N2.entry(0, 0).equals(bform("t"))
    assert step.N2.entry(0, 1).is_zero()
    assert step.N2.entry(0, 2).equals(bform("-s"))
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
    # the J2 lemma identities
    assert compose(step.N2, step.J).is_zero_map()
    assert full_rank_everywhere(step.N)


def test_extend_rejects_unreachable_target():
    F = seed_example(3, 3)
    with pytest.raises(UnsupportedCaseError):
        extend_dimension(F, SplittingType((0, 2, 4)))
    with pytest.raises(UnsupportedCaseError):
        extend_dimension(F, SplittingType((2, 2)))


def test_extension_certificates_along_chain():
    _, steps = build_chain(4, 5, 8, GF)
    assert [s.strategy for s in steps] == ["J2", "J1", "J1"]
    for step in steps:
        assert compose(step.delta_out, step.N).is_zero_map()
        assert full_rank_everywhere(step.N)
        assert tuple(sorted(step.N.source)) == step.target_splitting.parts
        assert compose(step.N2, step.J).is_zero_map()


def test_chain_matches_catalog_each_level():
    for d, e, n_top in ((3, 4, 7), (4, 4, 6)):
        F_seed = seed_example(d, e, GF)
        assert splitting_of_kernel(build_delta(F_seed)).parts == predicted_splitting(d, e, e).splitting.parts
        _, steps = build_chain(d, e, n_top, GF)
        for step in steps:
            lvl = step.output_F.context.n
            assert step.target_splitting.parts == predicted_splitting(d, e, lvl).splitting.parts


@pytest.mark.parametrize("field, e_max", [(GF, 23), (RATIONALS, 11)], ids=["gf32003", "rationals"])
def test_quartic_family_seeds_match_catalog(field, e_max):
    for e in range(7, e_max + 1):
        F = seed_example(4, e, field)
        assert splitting_of_kernel(build_delta(F)).parts == predicted_splitting(4, e, e).splitting.parts, e


def test_extend_step_builds_no_section_matrix(monkeypatch):
    # with the kernel passed in, a step runs no nullity scan: g comes from one
    # exact division and N is certified by certify_kernel
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
            step = extend_dimension(F, target, kernel=kernel)
            assert built == [], (d, e, target)
            F, kernel = step.output_F, step.N


def test_kernel_served_by_chain_is_kernel_matrix():
    # each step's N doubles as the kernel matrix at the next level
    F = seed_example(3, 3, GF)
    step = extend_dimension(F, SplittingType((2, 2, 2)))
    K_direct = kernel_matrix(step.delta_out)
    assert tuple(sorted(K_direct.source)) == tuple(sorted(step.N.source))
    assert compose(step.delta_out, step.N).is_zero_map()

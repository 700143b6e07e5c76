"""End-to-end acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and prints a
single PASS line (visible with `pytest -s`); any assertion failure marks the
criterion failed.  Sweeps run over GF(32003) with exact arithmetic; the worked
examples run over the rationals.
"""

import itertools
import random
import time

from rncsplit.constructor import build_chain, extend_dimension, seed_example
from rncsplit.fields import FieldSpec, RATIONALS
from rncsplit.multipoly import CurveContext, IdealCombination, parse_poly
from rncsplit.sheafmap import (
    build_delta,
    build_psi,
    check_smooth_along_curve,
    compose,
    kernel_matrix,
    splitting_of_kernel,
)
from rncsplit.splitting import (
    SplittingType,
    balanced_of,
    expected_max,
    interpolation_count,
    predicted_splitting,
    specializes_to,
)
from tests.helpers import (
    full_rank_everywhere,
    h0_euler_crosscheck,
    parse_binary_form,
    random_combination,
    random_surjective_map,
)

GF = FieldSpec(32003)


def _report(criterion, detail, t0):
    print(f"ACCEPTANCE {criterion}: PASS ({detail}, {time.perf_counter() - t0:.1f}s)")


def bform(text):
    return parse_binary_form(text, RATIONALS)


def test_criterion_1_worked_examples_exact_over_rationals():
    t0 = time.perf_counter()

    # quintic surface (5,3,3)
    start = time.perf_counter()
    ctx = CurveContext(5, 3, 3, RATIONALS)
    F = IdealCombination(
        ctx,
        {(1, 2): parse_poly("x0^3", ctx, 3), (2, 3): parse_poly("x3^3", ctx, 3)},
        {},
    )
    psi = build_psi(F)
    assert psi.entry(0, 0).equals(bform("s^10"))
    assert psi.entry(0, 1).equals(bform("t^10"))
    delta = build_delta(F)
    for j, text in enumerate(["s^10*t", "-s^11+t^11", "-s*t^10"]):
        assert delta.entry(0, j).equals(bform(text))
    assert splitting_of_kernel(delta).parts == (-5, 2)
    assert splitting_of_kernel(psi).parts == (-5,)
    assert time.perf_counter() - start < 1.0

    # cubic surface (3,3,3)
    start = time.perf_counter()
    F333 = seed_example(3, 3)
    d333 = build_delta(F333)
    for j, text in enumerate(["s^4*t", "-s^5+t^5", "-s*t^4"]):
        assert d333.entry(0, j).equals(bform(text))
    assert splitting_of_kernel(d333).parts == (1, 2)
    assert time.perf_counter() - start < 1.0

    # extension step (3,3,3) -> (3,3,4): N's rows 0..2 (N1) and delta exactly as printed
    start = time.perf_counter()
    step = extend_dimension(F333, SplittingType((2, 2, 2)))
    printed_n1 = [["0", "s^2", "t^2"], ["0", "s*t", "0"], ["s^2", "t^2", "0"]]
    for i, row in enumerate(printed_n1):
        for j, text in enumerate(row):
            got = step.N.entry(i, j)
            assert got.is_zero() if text == "0" else got.equals(bform(text))
    for j, text in enumerate(["s^4*t", "-s^5+t^5", "-s*t^4", "s^3*t^3"]):
        assert step.delta_out.entry(0, j).equals(bform(text))
    assert tuple(sorted(step.N.source)) == (2, 2, 2)
    assert time.perf_counter() - start < 1.0

    # quartic fourfold (4,4,4)
    start = time.perf_counter()
    F444 = seed_example(4, 4)
    assert splitting_of_kernel(build_delta(F444)).parts == (1, 1, 2)
    assert time.perf_counter() - start < 1.0

    # quartic sixfold (4,6,6) with the printed polynomial
    start = time.perf_counter()
    F466 = seed_example(4, 6)
    assert splitting_of_kernel(build_delta(F466)).parts == (3, 3, 4, 4, 4)
    assert time.perf_counter() - start < 1.0

    _report("C1", "worked examples exact over the rationals", t0)


def test_criterion_2_quadrics_sweep():
    t0 = time.perf_counter()
    checked = 0
    for e in range(2, 11):
        for n in range(max(e, 3), 11):
            F, _ = build_chain(2, e, n, GF)
            T = splitting_of_kernel(build_delta(F))
            if e % 2 == 0:
                assert T.parts == (e,) * (n - 1), (e, n)
            else:
                assert T.parts == tuple(sorted([e - 1] + [e] * (n - 3) + [e + 1])), (e, n)
            N = splitting_of_kernel(build_psi(F))
            assert N.is_balanced(), (e, n)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"quadrics sweep took {elapsed:.1f}s"
    _report("C2", f"{checked} quadric cases, T exact and N balanced", t0)


def test_criterion_3_cubics_and_quartics_sweeps():
    t0 = time.perf_counter()
    checked = 0
    for d, e_lo in ((3, 3), (4, 4)):
        for e in range(e_lo, 10):
            F_seed = seed_example(d, e, GF)
            T = splitting_of_kernel(build_delta(F_seed))
            assert T.parts == predicted_splitting(d, e, e).splitting.parts, (d, e, e)
            checked += 1
            _, steps = build_chain(d, e, 9, GF)
            for step in steps:
                n = step.output_F.context.n
                assert tuple(sorted(step.N.source)) == predicted_splitting(d, e, n).splitting.parts
                if d == 3:
                    want = "J1" if n == e + 1 else "J0"
                else:
                    want = "J2" if n == e + 1 else ("J1" if n <= 2 * e + 1 else "J0")
                assert step.strategy == want, (d, e, n, step.strategy)
                checked += 1
    # the quartic J0 band needs n > 2e+1, first reachable at e=4, n=10
    _, steps = build_chain(4, 4, 10, GF)
    assert steps[-1].strategy == "J0"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"cubic/quartic sweeps took {elapsed:.1f}s"
    _report("C3", f"{checked} cases with induction schedules", t0)


def test_criterion_4_general_degree_ladders():
    t0 = time.perf_counter()
    for d in (5, 6):
        t_d = time.perf_counter()
        for n in range(2 * d - 2, 12):
            F = seed_example(d, n, GF)
            T = splitting_of_kernel(build_delta(F))
            want = (n + 1 - d,) * (d - 2) + (n + 2 - d,) * (n - d + 1)
            assert T.parts == tuple(sorted(want)), (d, n)
        assert time.perf_counter() - t_d < 300.0
    _report("C4", "d in {5,6}, e = n in {2d-2..11} exact", t0)


def test_criterion_5_kernel_oracle_equivalence():
    t0 = time.perf_counter()
    rnd = random.Random(0xACCE55)
    for trial in range(200):
        M = random_surjective_map(rnd, max_rank=6, spread=8)
        scan = splitting_of_kernel(M)
        K = kernel_matrix(M)
        assert tuple(sorted(K.source)) == scan.parts, trial
        assert compose(M, K).is_zero_map(), trial
        assert full_rank_everywhere(K), trial
    _report("C5", "200 random surjective maps, two kernel routes agree", t0)


def test_criterion_6_euler_route_crosscheck():
    t0 = time.perf_counter()
    rnd = random.Random(0xE17E5)
    done = 0
    while done < 30:
        d = rnd.randrange(2, 5)
        e = rnd.randrange(1, 7)
        n = rnd.randrange(max(e, 3), 7)
        ctx = CurveContext(d, e, n, GF)
        F = random_combination(rnd, ctx)
        if not check_smooth_along_curve(F):
            continue
        for m in (-1, 0, 1, 2):
            assert h0_euler_crosscheck(F, m), (d, e, n, m)
        done += 1
    _report("C6", "30 random hypersurfaces, both section routes agree", t0)


def test_criterion_7_splitting_algebra_properties():
    t0 = time.perf_counter()

    def all_types(rank, degree, lo, hi):
        return [
            SplittingType(c)
            for c in itertools.combinations_with_replacement(range(lo, hi + 1), rank)
            if sum(c) == degree
        ]

    rnd = random.Random(1717)
    # partial order with balanced as the unique maximum
    for rank in range(1, 6):
        for degree in range(-12, 13):
            types = all_types(rank, degree, -12, 12)
            top = balanced_of(rank, degree)
            for x in types:
                assert specializes_to(x, x)
                assert specializes_to(top, x)
                if x.parts != top.parts:
                    assert not specializes_to(x, top)
            small = all_types(rank, degree, -3, 3)
            if len(small) <= 14:
                triples = itertools.product(small, repeat=3)
            else:
                triples = ((rnd.choice(small), rnd.choice(small), rnd.choice(small)) for _ in range(400))
            for x, y, z in triples:
                if specializes_to(x, y) and specializes_to(y, z):
                    assert specializes_to(x, z)
            for x, y in itertools.combinations(small, 2):
                assert not (specializes_to(x, y) and specializes_to(y, x))

    # gluing balanced with perfectly balanced stays balanced
    from rncsplit.splitting import glue_bound

    for _ in range(200):
        rank = rnd.randrange(1, 7)
        A = balanced_of(rank, rnd.randrange(-12, 13))
        B = SplittingType((rnd.randrange(-6, 7),) * rank)
        assert glue_bound(A, B).is_balanced()

    # interpolation meets the expected maximum exactly on balanced catalog rows
    for d in range(2, 8):
        for n in range(3, 10):
            for e in range(1, n + 1):
                pred = predicted_splitting(d, e, n)
                if pred.splitting is None:
                    continue
                assert interpolation_count(pred.splitting) <= expected_max(d, e, n)
                if pred.splitting.is_balanced():
                    assert interpolation_count(pred.splitting) == expected_max(d, e, n)
    _report("C7", "dominance order, gluing, interpolation bound", t0)


def test_criterion_8_quadric_interpolation_dichotomy():
    t0 = time.perf_counter()
    for e in range(2, 10):
        n = max(e, 3)
        F, _ = build_chain(2, e, n, GF)
        T = splitting_of_kernel(build_delta(F))
        count = interpolation_count(T)
        exp = expected_max(2, e, n)
        if e % 2 == 0:
            assert count == e + 1 == exp, e
        else:
            assert count == e < exp == e + 1, e
    _report("C8", "odd/even interpolation dichotomy on explicit quadric curves", t0)

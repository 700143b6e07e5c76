import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from rncsplit.splitting import (
    BALANCED,
    EXACT,
    NOT_BALANCED,
    SplittingError,
    SplittingType,
    balanced_of,
    expected_max,
    format_splitting,
    glue_bound,
    interpolation_count,
    parse_splitting,
    predicted_splitting,
    specializes_to,
    splitting_to_json,
)


def S(*parts):
    return SplittingType(tuple(parts))


def all_types(rank, degree, lo, hi):
    """Every non-decreasing rank-tuple with parts in [lo, hi] of given degree."""
    out = []
    for combo in itertools.combinations_with_replacement(range(lo, hi + 1), rank):
        if sum(combo) == degree:
            out.append(SplittingType(combo))
    return out


# -- basic algebra -----------------------------------------------------------------


def test_balanced_of_goldens():
    assert balanced_of(3, 6).parts == (2, 2, 2)
    assert balanced_of(3, 7).parts == (2, 2, 3)
    assert balanced_of(4, -6).parts == (-2, -2, -1, -1)
    with pytest.raises(SplittingError):
        balanced_of(0, 1)


def test_balanced_normal_bundle_shape():
    # rank n-2, degree e(n+1-d)-2, as used by the slope-splitting rule
    d, e, n = 5, 4, 6
    b = balanced_of(n - 2, e * (n + 1 - d) - 2)
    assert b.rank == n - 2 and b.degree == e * (n + 1 - d) - 2


def test_predicates_and_slope():
    x = S(2, 2, 3)
    assert x.is_balanced() and x.parts[0] != x.parts[-1]
    assert not S(3, 4, 4, 4, 5).is_balanced()  # quadric odd shape e=4... e-1,e,e,e,e+1
    assert not S(-5, 2).is_balanced()


def test_parts_sorted_on_construction():
    assert S(3, 1, 2).parts == (1, 2, 3)


def test_specializes_goldens():
    assert specializes_to(S(2, 2, 2), S(1, 2, 3))
    assert not specializes_to(S(1, 2, 3), S(2, 2, 2))
    assert not specializes_to(S(1, 2), S(1, 1, 1))  # rank mismatch
    assert not specializes_to(S(1, 2), S(0, 2))  # degree mismatch


def test_balanced_dominates_class():
    for rank in range(1, 6):
        for degree in range(-12, 13):
            top = balanced_of(rank, degree)
            for other in all_types(rank, degree, -12, 12):
                assert specializes_to(top, other)
                if other.parts != top.parts:
                    assert not specializes_to(other, top)


def test_specialization_is_partial_order():
    # reflexivity and antisymmetry on full windows, transitivity exhaustively
    # on small classes and by sampling on larger ones
    rnd = random.Random(71)
    for rank in range(1, 6):
        for degree in range(-6, 7):
            types = all_types(rank, degree, -4, 4)
            for x in types:
                assert specializes_to(x, x)
            for x, y in itertools.combinations(types, 2):
                assert not (specializes_to(x, y) and specializes_to(y, x))
            if len(types) <= 12:
                triples = itertools.product(types, repeat=3)
            else:
                triples = (
                    (rnd.choice(types), rnd.choice(types), rnd.choice(types))
                    for _ in range(300)
                )
            for x, y, z in triples:
                if specializes_to(x, y) and specializes_to(y, z):
                    assert specializes_to(x, z)


def test_glue_goldens():
    assert glue_bound(S(1, 2), S(2, 2)).parts == (3, 4)
    assert glue_bound(S(0, 1, 1, 2), S(1, 1, 1, 1)).parts == (1, 2, 2, 3)
    with pytest.raises(SplittingError):
        glue_bound(S(1), S(1, 1))


@given(st.integers(1, 6), st.integers(-10, 10), st.integers(-5, 5), st.data())
@settings(max_examples=200, deadline=None)
def test_glue_balanced_with_perfectly_balanced(rank, degree, level, data):
    A = balanced_of(rank, degree)
    B = SplittingType((level,) * rank)
    glued = glue_bound(A, B)
    assert glued.is_balanced()
    assert glued.degree == A.degree + B.degree


def test_glue_degree_additive_random():
    rnd = random.Random(73)
    for _ in range(50):
        rank = rnd.randrange(1, 6)
        A = SplittingType(tuple(rnd.randrange(-6, 7) for _ in range(rank)))
        B = SplittingType(tuple(rnd.randrange(-6, 7) for _ in range(rank)))
        assert glue_bound(A, B).degree == A.degree + B.degree


# -- interpolation ------------------------------------------------------------------


def test_interpolation_goldens():
    # even-degree curves on quadrics meet the expected count, odd ones fall short
    for e in range(2, 10):
        n = e + 1
        pred = predicted_splitting(2, e, n).splitting
        count = interpolation_count(pred)
        exp = expected_max(2, e, n)
        if e % 2 == 0:
            assert count == e + 1 == exp
        else:
            assert count == e < exp == e + 1
    # the rational normal curve in P^n: T is O(n+1)^n, n+2 points
    n = 5
    assert interpolation_count(SplittingType((n + 1,) * n)) == n + 2


def test_expected_max_floor_toward_minus_infinity():
    # non-Fano slope is negative; floor must round down
    assert expected_max(7, 2, 5) == (2 * (5 + 1 - 7)) // 4 + 1 == -1 + 1


# -- text forms ------------------------------------------------------------------------


def test_format_and_parse():
    x = S(4, 5, 5, 5)
    assert format_splitting(x) == "O(4) + O(5)^3"
    assert parse_splitting("O(4) + O(5)^3").parts == x.parts
    assert parse_splitting("[4,5,5,5]").parts == x.parts
    assert splitting_to_json(x) == [4, 5, 5, 5]
    with pytest.raises(SplittingError):
        parse_splitting("O(4) + Q(5)")


# -- the catalog -------------------------------------------------------------------------


def test_predicted_goldens():
    assert predicted_splitting(2, 4, 6).splitting.parts == (4, 4, 4, 4, 4)
    assert predicted_splitting(3, 3, 3).splitting.parts == (1, 2)
    assert predicted_splitting(4, 5, 5).splitting.parts == (2, 2, 3, 3)
    p = predicted_splitting(5, 2, 7)
    assert p.verdict == NOT_BALANCED
    assert p.provenance == "cor:slope-split:unbalanced"
    assert predicted_splitting(4, 6, 9).provenance == "thm:quartics:case-mid"
    assert predicted_splitting(4, 6, 9).splitting.parts == (4, 4, 4, 4, 5, 5, 5, 5)
    assert predicted_splitting(6, 10, 10).splitting.parts == (5, 5, 5, 5, 6, 6, 6, 6, 6)


def test_predicted_range_errors():
    with pytest.raises(SplittingError):
        predicted_splitting(1, 1, 3)
    with pytest.raises(SplittingError):
        predicted_splitting(3, 4, 3)
    with pytest.raises(SplittingError):
        predicted_splitting(3, 0, 3)


def catalog_cases(max_n=9, max_d=7):
    for d in range(2, max_d + 1):
        for n in range(3, max_n + 1):
            for e in range(1, n + 1):
                yield d, e, n


def test_catalog_exact_rank_and_degree():
    for d, e, n in catalog_cases():
        pred = predicted_splitting(d, e, n)
        if pred.verdict == EXACT:
            assert pred.splitting.rank == n - 1, (d, e, n)
            assert pred.splitting.degree == e * (n + 1 - d), (d, e, n)


def test_catalog_exact_agrees_with_coarse_verdicts():
    # where the exact list speaks, its balancedness matches the coarse rules
    for d, e, n in catalog_cases():
        pred = predicted_splitting(d, e, n)
        if pred.verdict != EXACT:
            continue
        bal = pred.splitting.is_balanced()
        mu_T_num = e * (n + 1 - d)
        if mu_T_num <= n - 1:
            assert not bal, (d, e, n)
        if d >= 3 and e == 2:
            assert bal == (n >= 2 * d - 2), (d, e, n)
        if d >= 3 and e == 1:
            assert not bal, (d, e, n)


def test_catalog_interpolation_bound_and_balanced_equality():
    # equality can also happen for an unbalanced type when degree mod rank >= 2
    # (e.g. O(0)^2 + O(2) ties floor(2/3) + 1), so only the balanced direction
    # is asserted; strict shortfall is asserted where degree mod rank <= 1
    for d, e, n in catalog_cases():
        pred = predicted_splitting(d, e, n)
        if pred.verdict != EXACT:
            continue
        count = interpolation_count(pred.splitting)
        exp = expected_max(d, e, n)
        assert count <= exp, (d, e, n)
        if pred.splitting.is_balanced():
            assert count == exp, (d, e, n)
        elif pred.splitting.degree % pred.splitting.rank <= 1:
            assert count < exp, (d, e, n)


def test_catalog_never_unknown_in_range():
    # every cell with d <= 40, n <= 80 gets a verdict, with a splitting
    # exactly when the verdict is exact
    for d, e, n in catalog_cases(max_n=80, max_d=40):
        pred = predicted_splitting(d, e, n)
        assert pred.verdict in (EXACT, BALANCED, NOT_BALANCED), (d, e, n)
        assert (pred.splitting is not None) == (pred.verdict == EXACT), (d, e, n)

import random
import re
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from rncsplit import multipoly
from rncsplit.binform import BinaryForm
from rncsplit.fields import FieldError, FieldSpec, RATIONALS, rational
from tests import helpers
from tests.helpers import (
    _monomials,
    assemble,
    bf_add,
    bf_mul,
    bf_scale,
    build_quadric,
    canonical_q,
    dense_combination,
    gradient_on_curve,
    parse_binary_form,
    parse_poly_oracle,
    poly_sub,
    random_combination,
    random_poly,
    restrict_dense,
)
from rncsplit.multipoly import (
    CurveContext,
    CurveContextError,
    HsfError,
    IdealCombination,
    MultiPoly,
    PolyError,
    format_hypersurface,
    format_poly,
    lift_binary_form,
    parse_hypersurface,
    parse_poly,
    restrict_to_curve,
)

GF = FieldSpec(32003)


def ctx(d=3, e=3, n=3, field=RATIONALS):
    return CurveContext(d, e, n, field)


def bform(text, field=RATIONALS):
    return parse_binary_form(text, field)


# -- context ----------------------------------------------------------------------


def test_context_validation():
    with pytest.raises(CurveContextError):
        CurveContext(1, 3, 3)
    with pytest.raises(CurveContextError):
        CurveContext(3, 4, 3)  # e > n
    with pytest.raises(CurveContextError):
        CurveContext(3, 3, 2)
    with pytest.raises(CurveContextError):
        CurveContext(3, 3, 3, FieldSpec(3))  # char divides e


# -- parsing ----------------------------------------------------------------------


def test_parse_quadric_golden():
    c = ctx(2, 3, 3)
    assert parse_poly("x1^2 - x0*x2", c, 2) == build_quadric(c, 1, 2)


def test_parse_worked_linear_coefficient():
    c = ctx(3, 3, 4)
    p = parse_poly("x0*x3", c, 2)
    assert restrict_to_curve(p).equals(bform("s^3*t^3"))


def test_parse_rejects_non_homogeneous():
    with pytest.raises(PolyError):
        parse_poly("x0 + x1^2", ctx(), 2)


def test_parse_rejects_big_variable_index():
    with pytest.raises(PolyError):
        parse_poly("x7", ctx(3, 3, 3), 1)


def test_parse_syntax_error_carries_position():
    with pytest.raises(PolyError) as err:
        parse_poly("x0 * + x1", ctx(), 1)
    assert "position" in str(err.value)


def test_parse_parentheses_and_powers():
    c = ctx(4, 3, 3)
    p = parse_poly("(x0 + x1)^2", c, 2)
    q = parse_poly("x0^2 + 2*x0*x1 + x1^2", c, 2)
    assert p == q


def test_parse_nested_parentheses():
    c = ctx(5, 3, 3)
    assert parse_poly("(" * 200 + "x0^3" + ")" * 200, c, 3) == parse_poly("x0^3", c, 3)
    with pytest.raises(HsfError, match="parentheses nested too deeply"):
        parse_poly("(" * 3000 + "x0^3" + ")" * 3000, c, 3)


def test_parse_powers_of_constants_and_zero_in_one_step():
    c = ctx()
    x0 = parse_poly("x0", c, 1)
    assert parse_poly("2^10*x0", c, 1) == parse_poly("1024*x0", c, 1)
    assert parse_poly("(1/2)^3*x0", c, 1) == parse_poly("1/8*x0", c, 1)
    assert parse_poly("0^0*x0", c, 1) == x0
    assert parse_poly("(x1 - x1)^999999 + x0", c, 1) == x0
    g = ctx(field=FieldSpec(7))
    assert parse_poly("3^999999*x0", g, 1) == parse_poly(f"{pow(3, 999999, 7)}*x0", g, 1)


def test_parse_refuses_powers_above_the_expected_degree():
    # refused before any multiplication, even where over-degree terms cancel
    for text in ("x0^999999", "(x0 + x1)^999999", "x0^2 - x0^2 + x1"):
        with pytest.raises(PolyError, match="above the expected degree 1"):
            parse_poly(text, ctx(), 1)


def test_repository_hsf_files_parse_as_without_the_power_bound(monkeypatch):
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8").split("Hypersurface files (`.hsf`)", 1)[1]
    texts = [re.search(r"```\n(.*?)```", readme, re.S).group(1)]
    texts += [path.read_text(encoding="utf-8") for path in sorted(root.rglob("*.hsf"))]
    bounded = [parse_hypersurface(text) for text in texts]

    class Unbounded(helpers._PolyParser):
        def __init__(self, text, context, degree):
            super().__init__(text, context, float("inf"))

    # the oracle, its recursive parser reading every line with no power bound
    monkeypatch.setattr(helpers, "_read_sum", lambda text, context, degree: None)
    monkeypatch.setattr(helpers, "_PolyParser", Unbounded)
    monkeypatch.setattr(multipoly, "parse_poly", parse_poly_oracle)
    assert [parse_hypersurface(text) for text in texts] == bounded


@pytest.mark.parametrize("text", ["x1^2 - x0*x2", "x0*x3", "2*x0^2 - 3*x1*x2 + x3^2"])
def test_poly_round_trip(text):
    c = ctx(4, 3, 3)
    p = parse_poly(text, c, 2)
    assert parse_poly(format_poly(p), c, 2) == p


# -- quadrics ----------------------------------------------------------------------


def test_build_quadric_goldens():
    c = ctx(3, 3, 3)
    assert build_quadric(c, 1, 2) == parse_poly("x1^2 - x0*x2", c, 2)
    assert build_quadric(c, 2, 3) == parse_poly("x2^2 - x1*x3", c, 2)
    with pytest.raises(PolyError):
        build_quadric(c, 3, 3)


# -- restriction --------------------------------------------------------------------


def test_restrict_goldens():
    c = ctx(3, 3, 3)
    assert restrict_to_curve(parse_poly("x0^3", c, 3)).equals(bform("s^9"))
    assert restrict_to_curve(build_quadric(c, 1, 2)).is_zero()
    c4 = ctx(3, 3, 4)
    assert restrict_to_curve(parse_poly("x0*x3", c4, 2)).equals(bform("s^3*t^3"))


def test_restrict_kills_high_variables():
    c = ctx(2, 2, 4)
    assert restrict_to_curve(parse_poly("x3*x4", c, 2)).is_zero()


def test_restrict_is_ring_homomorphism():
    rnd = random.Random(29)
    c = CurveContext(4, 3, 5, GF)
    for _ in range(30):
        p = random_poly(rnd, c, 2)
        q = random_poly(rnd, c, 2)
        lhs = restrict_to_curve(p.mul(q))
        rhs = bf_mul(restrict_to_curve(p), restrict_to_curve(q))
        assert lhs.equals(rhs)


@st.composite
def curve_polys(draw):
    """A form over Q, GF(2), GF(7), GF(32003) or GF(2^31 - 1), of degree 0..4
    on a curve of degree e <= 5 in P^n, n <= e + 2: a monomial; a dense form
    in every variable; terms in any x_m, m > e included; or pairs of
    monomials with the same restriction whose coefficients cancel (over
    GF(p) they sum to p), alone or with other terms."""
    K = draw(st.sampled_from([RATIONALS, FieldSpec(2), FieldSpec(7), FieldSpec(32003), FieldSpec(2**31 - 1)]))
    kind = draw(st.sampled_from(["monomial", "dense", "terms", "cancel"]))
    e = draw(st.integers(2 if kind == "cancel" else 1, 5).filter(lambda e: K.p is None or e % K.p))
    n = draw(st.integers(max(e, 3), e + 2))
    c = CurveContext(2, e, n, K)
    k = draw(st.integers(2 if kind == "cancel" else 0, 4))
    if K.p is None:
        den = st.sampled_from([1, 2, 3, 7, 10**20 + 39])
        coeff = st.builds(rational, st.integers(-(10**20), 10**20), den)
    else:
        coeff = st.one_of(st.sampled_from([1, K.p - 1]), st.integers(1, K.p - 1))
    coeff = coeff.filter(bool)

    def monomial(top, degree):
        exp = [0] * c.nvars
        for m in draw(st.lists(st.integers(0, top), min_size=degree, max_size=degree)):
            exp[m] += 1
        return tuple(exp)

    terms = {}
    if kind == "dense":
        terms = {exp: draw(coeff) for exp in _monomials(c.nvars, k)}
    elif kind == "cancel":
        for _ in range(draw(st.integers(1, 3))):
            # x_a x_b and x_(a-1) x_(b+1) (b != a - 1) restrict to the same
            # s^(ek-w) t^w
            a = draw(st.integers(1, e))
            b = draw(st.integers(0, e - 1).filter(lambda b: b != a - 1))
            exp = list(monomial(e, k - 2))
            twin = list(exp)
            exp[a] += 1
            exp[b] += 1
            twin[a - 1] += 1
            twin[b + 1] += 1
            x = draw(coeff)
            terms[tuple(exp)], terms[tuple(twin)] = x, K.neg(x)
        if draw(st.booleans()):
            terms.update({monomial(n, k): draw(coeff) for _ in range(draw(st.integers(1, 3)))})
    else:
        count = 1 if kind == "monomial" else draw(st.integers(1, 8))
        terms = {monomial(n, k): draw(coeff) for _ in range(count)}
    return MultiPoly(c, k, terms)


@settings(deadline=None, max_examples=150)
@given(curve_polys())
def test_restrict_matches_dense_oracle(poly):
    # reducing only the positions some term hits gives the dense oracle's
    # form exactly: the same degree slot and the same canonical coefficients
    got, want = restrict_to_curve(poly), restrict_dense(poly)
    assert got.equals(want)
    assert (got.degree, got.coeffs) == (want.degree, want.coeffs)
    if poly.context.field.p is None:
        assert all(canonical_q(x) for x in got.coeffs)
    else:
        assert all(type(x) is int and 0 <= x < poly.context.field.p for x in got.coeffs)


def test_restrict_sums_of_multiples_of_p():
    # every sum a nonzero multiple of p: an all-zero form of degree e*k, not
    # the strictly zero form (which only a form with no term on the curve,
    # or over Q sums that cancel exactly, restricts to)
    for K in (FieldSpec(7), FieldSpec(2**31 - 1)):
        c = ctx(4, 3, 4, K)
        for text in ("x0*x2 - x1^2", "x0*x2 - x1^2 + x1*x3 - x2^2 + 2*x4^2"):
            f = restrict_to_curve(parse_poly(text, c, 2))
            assert (f.degree, f.coeffs) == (6, (0,) * 7) and f.is_zero(), (K, text)
            assert (f.degree, f.coeffs) == (restrict_dense(parse_poly(text, c, 2)).degree, (0,) * 7)
        assert restrict_to_curve(parse_poly("x4^2", c, 2)).degree == -1
    c = ctx(4, 3, 4)
    assert restrict_to_curve(parse_poly("x0*x2 - x1^2", c, 2)).degree == -1
    assert restrict_to_curve(parse_poly("x0*x2 - x1^2 + x4^2", c, 2)).degree == -1


# -- gradients ----------------------------------------------------------------------


def test_gradient_simple():
    c = CurveContext(2, 2, 3, RATIONALS)
    g = gradient_on_curve(parse_poly("x0^2", c, 2))
    assert g[0].equals(bform("2*s^2"))
    assert all(x.is_zero() for x in g[1:])


def test_gradient_of_quadric_conic():
    c = CurveContext(2, 2, 3, RATIONALS)
    g = gradient_on_curve(build_quadric(c, 1, 2))
    assert g[0].equals(bform("-t^2"))
    assert g[1].equals(bform("2*s*t"))
    assert g[2].equals(bform("-s^2"))


def test_euler_identity_on_curve():
    # sum_m x_m (dF/dx_m) = d F, restricted to the curve
    rnd = random.Random(31)
    c = CurveContext(3, 4, 5, GF)
    K = c.field
    for _ in range(30):
        F = random_poly(rnd, c, c.d)
        grads = gradient_on_curve(F)
        acc = BinaryForm.zero(K)
        for m in range(c.e + 1):
            coord = BinaryForm.monomial(K, c.e, m)
            term = bf_mul(grads[m], coord) if not grads[m].is_zero() else None
            if term is not None:
                acc = bf_add(acc, term)
        want = bf_scale(restrict_to_curve(F), K.from_int(c.d))
        assert acc.equals(want)


def test_euler_pairing_vanishes_for_combinations():
    # for F in the curve ideal the coordinate pairing of the restricted
    # gradient collapses to d * F|_C = 0
    rnd = random.Random(33)
    for _ in range(10):
        c = CurveContext(rnd.randrange(2, 5), rnd.randrange(1, 5), rnd.randrange(4, 7), GF)
        F = assemble(random_combination(rnd, c))
        grads = gradient_on_curve(F)
        acc = BinaryForm.zero(c.field)
        for m in range(c.e + 1):
            if not grads[m].is_zero():
                acc = bf_add(acc, bf_mul(grads[m], BinaryForm.monomial(c.field, c.e, m)))
        assert acc.is_zero()


# -- lifting -----------------------------------------------------------------------


def test_lift_golden_worked_example():
    c = ctx(3, 3, 4)
    lifted = lift_binary_form(bform("s^3*t^3"), c, 2)
    assert lifted == parse_poly("x0*x3", c, 2)


def test_lift_pure_s_power():
    c = ctx(3, 3, 3)
    assert lift_binary_form(bform("s^9"), c, 3) == parse_poly("x0^3", c, 3)


def test_lift_round_trip_random():
    rnd = random.Random(37)
    for _ in range(100):
        e = rnd.randrange(1, 7)
        k = rnd.randrange(1, 6)
        n = max(3, e)
        c = CurveContext(max(k + 1, 2), e, n, GF)
        coeffs = [GF.from_int(rnd.randrange(-9, 10)) for _ in range(e * k + 1)]
        h = BinaryForm(GF, e * k, tuple(coeffs))
        assert restrict_to_curve(lift_binary_form(h, c, k)).equals(h)


def test_lift_wrong_degree_rejected():
    with pytest.raises(PolyError):
        lift_binary_form(bform("s^4"), ctx(3, 3, 3), 1)


# -- ideal combinations ---------------------------------------------------------------


def test_combination_degree_validation():
    c = ctx(3, 3, 4)
    with pytest.raises(PolyError):
        IdealCombination(c, {(1, 2): parse_poly("x0^2", c, 2)}, {})
    with pytest.raises(PolyError):
        IdealCombination(c, {}, {2: parse_poly("x0^2", c, 2)})  # index below e+1


def test_assemble_restricts_to_zero():
    rnd = random.Random(41)
    for _ in range(20):
        e = rnd.randrange(1, 5)
        n = rnd.randrange(max(e, 3), 7)
        c = CurveContext(rnd.randrange(2, 5), e, n, GF)
        F = random_combination(rnd, c)
        assert restrict_to_curve(assemble(F)).is_zero()


# -- hypersurface files -----------------------------------------------------------------


def test_hypersurface_file_round_trip():
    c = ctx(3, 3, 4)
    F = IdealCombination(
        c,
        {(1, 2): parse_poly("x0", c, 1), (2, 3): parse_poly("x3", c, 1)},
        {4: parse_poly("x0*x3", c, 2)},
    )
    text = format_hypersurface(F)
    again = parse_hypersurface(text)
    assert again == F


def test_hypersurface_file_parsing_details():
    text = """
# worked cubic surface
d = 3
e = 3
n = 3
field = prime:32003
Q 1 2 : x0   # comment after entry
Q 2 3 : x3
"""
    F = parse_hypersurface(text)
    assert F.context.field.p == 32003
    assert set(F.quadric_coeffs) == {(1, 2), (2, 3)}


def test_hypersurface_file_errors():
    with pytest.raises(PolyError):
        parse_hypersurface("d = 3\ne = 3\n")  # missing n
    with pytest.raises(PolyError):
        parse_hypersurface("d = 3\ne = 3\nn = 3\nQ 1 2 : x0^2\n")  # degree != d-2


@pytest.mark.parametrize(
    "text, why",
    [
        ("d = 3\ne = 3\n", "missing header line 'n = <int>'"),
        ("d = 3\ne = 3\nn = 3\nQ 1 2 : x0*x1\n", "expected degree 1, parsed degree 2"),
        ("d = 3\ne = 3\nn = 3\nQ 1 2 : x0 + x1*x2\n", "degree mismatch: 1 vs 2"),
        ("d = 3\ne = 3\nn = 3\nQ 0 1 : x0\n", "quadric index (0,1) outside 1 <= i < j <= 3"),
        ("d = 3\ne = 3\nn = 4\nX 3 : x0^2\n", "linear index 3 outside 4..4"),
        ("d = " + "3" * 5000 + "\ne = 3\nn = 3\n", "line 1: number has too many digits"),
        ("d = 3\ne = 3\nn = 3\nX " + "4" * 5000 + " : x0^2\n", "line 4: number has too many digits"),
        ("d = 3\ne = 3\nn = 3\nthree\n", "line 4: cannot parse 'three'"),
    ],
)
def test_hypersurface_file_error_messages(text, why):
    # anything wrong in the file is an HsfError (a PolyError), which the CLI
    # tells from a PolyError raised by a bug
    with pytest.raises(HsfError) as err:
        parse_hypersurface(text)
    assert str(err.value) == why


def _fold(texts, signs, context):
    # the sum as MultiPoly.add and poly_sub build it from the oracle's terms, one at a time
    out = helpers._PolyParser(texts[0], context, 9).parse()
    for sign, text in zip(signs, texts[1:]):
        term = helpers._PolyParser(text, context, 9).parse()
        out = out.add(term) if sign == "+" else poly_sub(out, term)
    return out


def _outcome(build):
    try:
        p = build()
    except PolyError as exc:
        return str(exc)
    return p.total_degree, p.terms


# (coefficient, variables): half of the terms have degree 2, so sums are often homogeneous
_TERM = st.tuples(
    st.integers(0, 3),
    st.lists(st.integers(0, 3), min_size=2, max_size=2) | st.lists(st.integers(0, 3), max_size=3),
)


@given(
    st.lists(_TERM, min_size=1, max_size=10),
    st.lists(st.sampled_from("+-"), min_size=9, max_size=9),
    st.sampled_from([RATIONALS, FieldSpec(5)]),
)
@settings(max_examples=200, deadline=None)
def test_parsed_sum_matches_add_fold(terms, signs, field):
    # one dict for the whole sum gives the fold's terms, degree (a zero sum
    # takes the next term's) and degree-mismatch message
    c = ctx(field=field)
    texts = ["*".join([str(coeff)] + [f"x{v}" for v in variables]) for coeff, variables in terms]
    text = texts[0] + "".join(f" {sign} {t}" for sign, t in zip(signs, texts[1:]))
    assert _outcome(lambda: multipoly._Parser(text, c, 9).parse()) == _outcome(lambda: _fold(texts, signs, c))


@pytest.mark.parametrize(
    "text, degree, terms",
    [
        ("x0 - x0 + x1^2", 2, {(0, 2, 0, 0): 1}),
        ("x0 - x0 + 0", 0, {}),
        ("x0 + 0*x1^2", 1, {(1, 0, 0, 0): 1}),
        ("2*x0 - x0 - x0", 1, {}),
        ("-x0 + (x0 + x1)", 1, {(0, 1, 0, 0): 1}),
    ],
)
def test_parsed_sum_edge_cases(text, degree, terms):
    # the parser and the oracle's recursive parser, both with the power bound 9
    for parser in (multipoly._Parser, helpers._PolyParser):
        p = parser(text, ctx(), 9).parse()
        assert (p.total_degree, list(p.terms.items())) == (degree, list(terms.items()))


# -- the parser against the oracle (tests.helpers.parse_poly_oracle) ----------------

HSF_ERRORS = (HsfError, FieldError, CurveContextError)


def _result(parse, *args):
    # what a parse gives: the terms in insertion order, or the error and message
    try:
        out = parse(*args)
    except HSF_ERRORS as exc:
        return type(exc), str(exc)
    if isinstance(out, MultiPoly):
        return out.total_degree, list(out.terms.items())
    return [(key, _result(lambda: poly)) for key, poly in (*out.quadric_coeffs.items(), *out.linear_coeffs.items())]


def _both(parse, *args):
    # the parser's result (parse_poly, or parse_hypersurface through it) and the oracle's
    with mock.patch.object(multipoly, "parse_poly", parse_poly_oracle):
        oracle = _result(parse_poly_oracle if parse is parse_poly else parse, *args)
    return _result(parse, *args), oracle


def _wrapped(text):
    # the .hsf text with every body line's polynomial in parentheses
    return "".join(re.sub(r": (.*)", r": (\1)", line) + "\n" for line in text.splitlines())


_SHAPES = [(2, 3, 4), (3, 3, 4), (4, 4, 5), (5, 3, 5)]


@pytest.mark.parametrize("field", [RATIONALS, GF, FieldSpec(7)], ids=str)
@pytest.mark.parametrize(
    "shape, wrap",
    [pytest.param(shape, False, id=f"shape{k}") for k, shape in enumerate(_SHAPES)]
    + [pytest.param(shape, True, id=f"shape{k}-wrapped") for k, shape in enumerate(_SHAPES)],
)
def test_reader_matches_parser_on_dense_files(field, shape, wrap):
    c = ctx(*shape, field=field)
    text = format_hypersurface(dense_combination(random.Random(sum(shape)), c))
    text = _wrapped(text) if wrap else text
    new, oracle = _both(parse_hypersurface, text)
    assert new == oracle
    # in the oracle every line of a printed hypersurface takes the one-pass
    # reader, and every wrapped line the recursive parser
    for line in text.splitlines()[4:]:
        kind, body = line.split(":")
        degree = c.d - 2 if kind.startswith("Q") else c.d - 1
        assert (helpers._read_sum(body.strip(), c, degree) is None) == wrap, line


def test_parenthesized_sums_of_monomials_take_no_multiplication_per_term():
    # a sum of monomials in parentheses is read like a bare one: at most one
    # MultiPoly.mul per parenthesized factor, none for the factors of its terms
    c = ctx(5, 3, 5)
    text = format_hypersurface(dense_combination(random.Random(13), c))
    texts = [
        _wrapped(text),
        "Q 1 2 : 2*(x0 - x1)*x2*(x3 + 1/2*x4) - (x0)*x1*x2",
        "X 4 : (x0*x1 - x2^2)*(x3^2) - 3*x5^4",
    ]
    mul, calls = MultiPoly.mul, []
    with mock.patch.object(MultiPoly, "mul", lambda self, other: calls.append(other) or mul(self, other)):
        wrapped = parse_hypersurface(texts[0])
        assert len(calls) <= texts[0].count("(") == len(text.splitlines()) - 4
        for line in texts[1:]:
            calls.clear()
            F = parse_hypersurface("d = 5\ne = 3\nn = 5\n" + line)
            assert len(calls) <= line.count("(")
            assert _result(lambda: F) == _both(parse_hypersurface, "d = 5\ne = 3\nn = 5\n" + line)[1]
    assert wrapped == parse_hypersurface(text)


@pytest.mark.parametrize(
    "text, degree, field",
    [
        ("0*x0", 1, RATIONALS),
        ("x0 - x0", 1, RATIONALS),
        ("x0*x0", 2, RATIONALS),
        ("x0^0", 1, RATIONALS),
        ("x0^0*x1", 1, RATIONALS),
        ("x0 + 0*x1^2", 1, RATIONALS),
        ("x0^1^1", 1, RATIONALS),
        ("2x0", 1, RATIONALS),
        ("x0 +", 1, RATIONALS),
        ("- -x0", 1, RATIONALS),
        ("-2/4*x0 + 1/2*x0 - x1", 1, RATIONALS),
        ("x0 ^ 2 -3 * x1*x0+x2 *x2", 2, RATIONALS),
        ("1/0*x0", 1, RATIONALS),
        ("1/7*x0", 1, FieldSpec(7)),
        ("7*x0 + x1 + x0", 1, FieldSpec(7)),
        ("0*x0 + x1 + x0", 1, RATIONALS),
        ("x0 - x0 + x1 + x0", 1, RATIONALS),
        ("x9", 1, RATIONALS),
        ("7" * 5000 + "*x0", 1, RATIONALS),
        ("x" + "1" * 5000, 1, RATIONALS),
        ("x0^5", 1, RATIONALS),
        ("x0^2*x1^2", 2, RATIONALS),
        ("(x0 + x1)*x2", 2, RATIONALS),
        ("x0*-x1", 2, RATIONALS),
        ("2^2*x0", 1, RATIONALS),
        ("x00/0", 1, RATIONALS),
    ],
)
def test_reader_edge_inputs_match_parser(text, degree, field):
    new, oracle = _both(parse_poly, text, ctx(field=field), degree)
    assert new == oracle


_NUMBER = st.integers(1, 12).map(str) | st.tuples(st.integers(1, 12), st.integers(1, 12)).map("{0[0]}/{0[1]}".format)


@st.composite
def _monomial_sums(draw):
    # homogeneous sums in the reader's grammar: signed terms, each a shuffled
    # product of numbers and powers of variables, with spaces here and there
    degree = draw(st.integers(0, 3))
    text = ""
    for k in range(draw(st.integers(1, 6))):
        factors = draw(st.lists(_NUMBER, max_size=2))
        for v, count in Counter(draw(st.lists(st.integers(0, 3), min_size=degree, max_size=degree))).items():
            factors += [f"x{v}^{count}"] if draw(st.booleans()) else [f"x{v}"] * count
        factors = draw(st.permutations(factors or ["1"]))
        space = draw(st.sampled_from(["", " ", "  "]))
        sign = draw(st.sampled_from(["", "-"] if k == 0 else ["+", "-"]))
        text += f"{' ' if k else ''}{sign}{space if sign else ''}" + f"{space}*{space}".join(factors)
    return text, degree


@given(_monomial_sums(), st.sampled_from([RATIONALS, FieldSpec(7), GF]))
@settings(max_examples=100, deadline=None)
def test_reader_matches_parser_on_sums_of_monomials(sum_and_degree, field):
    text, degree = sum_and_degree
    new, oracle = _both(parse_poly, text, ctx(field=field), degree)
    assert new == oracle


@given(
    st.text(alphabet="x0123456789+-*/^() ", max_size=30),
    st.sampled_from(["d = 3\ne = 3\nn = 3", "d = 4\ne = 3\nn = 4", "d = 1\ne = 3\nn = 3", "d = 3\ne = 3\nn = 2"]),
    st.sampled_from(["rational", "prime:7", "prime:3"]),
)
@settings(max_examples=200, deadline=None)
def test_hsf_fuzz_parses_or_raises_its_errors(body, header, field):
    new, oracle = _both(parse_hypersurface, f"{header}\nfield = {field}\nQ 1 2 : {body}\n")
    assert new == oracle
    assert isinstance(new, list) or new[0] in HSF_ERRORS


def test_repeated_header_line_refused():
    with pytest.raises(HsfError, match="^line 4: duplicate header 'd'$"):
        parse_hypersurface("d = 3\ne = 3\nn = 3\nd = 5\nQ 1 2 : x0\n")
    with pytest.raises(HsfError, match="^line 3: duplicate header 'field'$"):
        parse_hypersurface("d = 3\nfield = rational\nfield = prime:7\ne = 3\nn = 3\n")

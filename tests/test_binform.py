import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rncsplit.binform import BinaryForm, DegreeError, format_binary_form
from rncsplit.fields import FieldError, FieldSpec, RATIONALS
from tests.helpers import (
    bf_add,
    bf_gcd,
    bf_mul,
    bf_scale,
    bf_sub,
    det,
    evaluate,
    format_binary_form_oracle,
    parse_binary_form,
)

GF101 = FieldSpec(101)


def bf(text, field=RATIONALS):
    return parse_binary_form(text, field)


def random_form(rnd, field, degree):
    coeffs = [field.from_int(rnd.randrange(-20, 21)) for _ in range(degree + 1)]
    return BinaryForm(field, degree, tuple(coeffs))


def proportional(f, g):
    """f = c·g for a scalar c, f and g nonzero forms."""
    i = next(i for i, c in enumerate(g.coeffs) if c)
    return f.degree == g.degree and f.coeffs == bf_scale(g, f.field.div(f.coeffs[i], g.coeffs[i])).coeffs


# -- arithmetic -------------------------------------------------------------------


def test_monomial_product():
    assert bf_mul(bf("s^10"), bf("t")).equals(bf("s^10*t"))


def test_quintic_delta_middle_entry():
    assert bf_sub(bf("t^11"), bf("s^11")).equals(bf("-s^11+t^11"))


def test_additive_identity_gf101():
    rnd = random.Random(7)
    zero = BinaryForm.zero(GF101)
    for _ in range(50):
        f = random_form(rnd, GF101, rnd.randrange(0, 9))
        assert bf_add(f, zero).equals(f)
        assert bf_add(zero, f).equals(f)


def test_degree_mismatch_rejected():
    with pytest.raises(DegreeError):
        bf_add(bf("s^2"), bf("s^3"))
    # all-zero form of pinned degree still demands matching degrees
    with pytest.raises(DegreeError):
        bf_add(BinaryForm.zero_of_degree(RATIONALS, 4), bf("s^2"))


@given(st.integers(0, 6), st.integers(0, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(da, db, data):
    field = GF101
    coeffs_a = data.draw(st.lists(st.integers(-9, 9), min_size=da + 1, max_size=da + 1))
    coeffs_b = data.draw(st.lists(st.integers(-9, 9), min_size=db + 1, max_size=db + 1))
    coeffs_c = data.draw(st.lists(st.integers(-9, 9), min_size=da + 1, max_size=da + 1))
    a = BinaryForm(field, da, tuple(field.from_int(x) for x in coeffs_a))
    b = BinaryForm(field, db, tuple(field.from_int(x) for x in coeffs_b))
    c = BinaryForm(field, da, tuple(field.from_int(x) for x in coeffs_c))
    assert bf_mul(a, b).equals(bf_mul(b, a))
    assert bf_mul(bf_mul(a, b), c).equals(bf_mul(a, bf_mul(b, c)))
    assert bf_mul(bf_add(a, c), b).equals(bf_add(bf_mul(a, b), bf_mul(c, b)))


def test_ring_axioms_rationals():
    rnd = random.Random(11)
    for _ in range(30):
        a = random_form(rnd, RATIONALS, rnd.randrange(0, 5))
        b = random_form(rnd, RATIONALS, rnd.randrange(0, 5))
        assert bf_mul(a, b).equals(bf_mul(b, a))


# -- gcd --------------------------------------------------------------------------


def test_gcd_monomials():
    g = bf_gcd([bf("s^2*t"), bf("s^3")])
    assert g.equals(bf("s^2"))


def test_gcd_idempotent():
    rnd = random.Random(3)
    for _ in range(50):
        f = random_form(rnd, GF101, rnd.randrange(0, 8))
        if f.is_zero():
            continue
        g = bf_gcd([f, f])
        # monic normalization: f is a constant multiple of g
        assert proportional(f, g)


def test_gcd_of_quintic_delta_is_constant():
    forms = [bf("s^10*t"), bf("-s^11+t^11"), bf("-s*t^10")]
    g = bf_gcd(forms)
    assert g.degree == 0
    # independent oracle: the first two entries are already coprime, certified
    # by a nonzero Sylvester resultant
    f1, f2 = forms[0], forms[1]
    n1, n2 = f1.degree, f2.degree
    rows = []
    for i in range(n2):
        row = [RATIONALS.zero] * (n1 + n2)
        for k in range(n1 + 1):
            row[i + k] = f1.coeffs[k]
        rows.append(row)
    for i in range(n1):
        row = [RATIONALS.zero] * (n1 + n2)
        for k in range(n2 + 1):
            row[i + k] = f2.coeffs[k]
        rows.append(row)
    assert not RATIONALS.is_zero(det(rows, RATIONALS))


def test_gcd_all_zero_rejected():
    with pytest.raises(ValueError):
        bf_gcd([BinaryForm.zero(RATIONALS), BinaryForm.zero_of_degree(RATIONALS, 3)])


def test_gcd_common_factor_property():
    rnd = random.Random(5)
    for _ in range(40):
        f = random_form(rnd, GF101, rnd.randrange(0, 4))
        g = random_form(rnd, GF101, rnd.randrange(0, 4))
        h = random_form(rnd, GF101, rnd.randrange(1, 4))
        if f.is_zero() or g.is_zero() or h.is_zero():
            continue
        lhs = bf_gcd([bf_mul(f, h), bf_mul(g, h)])
        rhs = bf_mul(h, bf_gcd([f, g]))
        # equal up to a nonzero scalar
        assert proportional(lhs, rhs)


# -- evaluation -------------------------------------------------------------------


def test_eval_examples():
    assert RATIONALS.is_zero(evaluate(bf("s^2-t^2"), (Fraction(1), Fraction(1))))
    one, zero = Fraction(1), Fraction(0)
    assert evaluate(bf("s^10*t"), (zero, one)) == 0
    assert evaluate(bf("-s*t^10"), (zero, one)) == 0
    assert evaluate(bf("-s^11+t^11"), (zero, one)) == 1


def test_eval_at_origin_rejected():
    with pytest.raises(ValueError):
        evaluate(bf("s"), (Fraction(0), Fraction(0)))


def test_eval_is_multiplicative():
    rnd = random.Random(13)
    K = GF101
    for _ in range(100):
        f = random_form(rnd, K, rnd.randrange(0, 6))
        g = random_form(rnd, K, rnd.randrange(0, 6))
        P = (K.from_int(rnd.randrange(0, 101)), K.from_int(rnd.randrange(1, 101)))
        assert evaluate(bf_mul(f, g), P) == K.mul(evaluate(f, P), evaluate(g, P))


# -- shifting ------------------------------------------------------------------------


def test_shift_and_divexact():
    # a negative power divides exactly by a monomial, or refuses
    f = bf("s^2*t - s*t^2")
    assert f.shift(-1, -1).equals(bf("s-t"))
    with pytest.raises(DegreeError):
        bf("s^2+t^2").shift(0, -1)


def _shift_oracle(f, s_power, t_power):
    """f * s^s_power * t^t_power one coefficient at a time: the term
    s^(deg-i) t^i moves to slot i + t_power, and a negative exponent on a
    nonzero term is a division that is not exact."""
    K = f.field
    if f.degree == -1:
        return f
    d = f.degree + s_power + t_power
    if f.is_zero():
        return BinaryForm.zero_of_degree(K, d) if d >= 0 else BinaryForm.zero(K)
    out = [K.zero] * max(d + 1, 0)
    for i, c in enumerate(f.coeffs):
        if K.is_zero(c):
            continue
        if i + t_power < 0 or f.degree - i + s_power < 0:
            raise DegreeError("not exact")
        out[i + t_power] = c
    return BinaryForm(K, d, tuple(out))


def _equals_oracle(f, g):
    """Equality of values by one field subtraction per coefficient pair."""
    K = f.field
    if f.is_zero() or g.is_zero():
        return f.is_zero() and g.is_zero()
    return f.degree == g.degree and all(K.is_zero(K.sub(a, b)) for a, b in zip(f.coeffs, g.coeffs))


@st.composite
def sparse_forms(draw, field):
    """A form of degree -1..7 whose coefficients are mostly zero, so that
    exact and inexact monomial divisions both occur."""
    degree = draw(st.integers(-1, 7))
    nonzero = st.integers(1, 40).map(field.from_int)
    coeffs = draw(st.lists(st.one_of(st.just(field.zero), st.just(field.zero), nonzero),
                           min_size=degree + 1, max_size=degree + 1))
    return BinaryForm(field, degree, tuple(coeffs))


FIELDS = [RATIONALS, FieldSpec(2), GF101, FieldSpec(32003)]


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(FIELDS).flatmap(lambda K: st.tuples(sparse_forms(K), sparse_forms(K))),
       st.integers(-9, 6), st.integers(-9, 6))
def test_shift_and_equals_match_per_coefficient_oracle(forms, s_power, t_power):
    # shift checks exactness on tuple slices and equals compares tuples: the
    # same answers as one field operation per coefficient
    f, g = forms
    try:
        want = _shift_oracle(f, s_power, t_power)
    except DegreeError:
        with pytest.raises(DegreeError):
            f.shift(s_power, t_power)
    else:
        got = f.shift(s_power, t_power)
        assert (got.degree, got.coeffs) == (want.degree, want.coeffs)
    for a, b in ((f, g), (f, f), (f, f.shift(1, 0)), (f, BinaryForm(f.field, f.degree, f.coeffs))):
        assert a.equals(b) == b.equals(a) == _equals_oracle(a, b)


def test_shift_and_equals_edge_cases():
    for K in (RATIONALS, GF101):
        f = bf("s^2", K)
        # a negative power larger than the degree, beside a positive one
        with pytest.raises(DegreeError):
            f.shift(-4, 5)
        with pytest.raises(DegreeError):
            f.shift(0, -1)
        assert f.shift(-2, 1).equals(bf("t", K))
        zero3 = BinaryForm.zero_of_degree(K, 3)
        assert zero3.shift(-5, 1).degree == -1 and zero3.shift(-1, 1).degree == 3
        assert zero3.equals(BinaryForm.zero(K)) and not zero3.equals(f)
        # equal coefficients, different degrees: not equal
        assert not bf("s", K).equals(bf("s^2", K))
        assert not bf("s^2", K).equals(bf("s*t", K))


# -- text grammar --------------------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    ["-s^11+t^11", "s^10*t", "3*s*t^2", "0", "s", "t^4", "-2*s^3+s^2*t-t^3"],
)
def test_parse_format_round_trip(text):
    f = parse_binary_form(text, RATIONALS)
    assert parse_binary_form(format_binary_form(f), RATIONALS).equals(f)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_binary_form("s^2 + x", RATIONALS)
    with pytest.raises(ValueError):
        parse_binary_form("s^2 + t", RATIONALS)  # non-homogeneous


@pytest.mark.parametrize(
    "text, where",
    [
        ("s+", "ends in an operator at position 1"),
        ("s*", "ends in an operator at position 1"),
        ("-", "ends in an operator at position 0"),
        ("2 3 s", "unexpected '3' at position 2"),
        ("2s", "unexpected 's' at position 1"),
        ("s t", "unexpected 't' at position 2"),
        ("s t^2", "unexpected 't^2' at position 2"),
        ("s - - t", "unexpected '-' at position 4"),
        ("- - s", "unexpected '-' at position 2"),
        ("s*-t", "unexpected '-' at position 2"),
        ("s+*t", "unexpected '*' at position 2"),
        ("*s", "unexpected '*' at position 0"),
    ],
)
def test_parse_refuses_text_outside_the_grammar(text, where):
    # a trailing or repeated operator, or factors side by side without "*"
    with pytest.raises(ValueError, match=re.escape(where)):
        parse_binary_form(text, RATIONALS)


@pytest.mark.parametrize("text, want", [("-2*3*s", "-6*s"), ("-s*2", "-2*s"), ("+s - 2*t", "s-2*t")])
def test_parse_signs_a_term_once(text, want):
    # the sign belongs to the term, not to each of its numbers
    assert format_binary_form(parse_binary_form(text, RATIONALS)) == want


@pytest.mark.parametrize("field", [RATIONALS, FieldSpec(7)], ids=str)
def test_one_term_of_degree_a_million(field):
    # a one-term form holds a million coefficients: the text names only the
    # nonzero one, and parsing it back fills the others with the field's one
    # shared zero, so equals compares the two zero runs by identity
    D = 10**6
    for text, f in [
        (f"s^{D}", BinaryForm.monomial(field, D, 0)),
        (f"-3*t^{D}", BinaryForm.monomial(field, D, D, field.from_int(-3))),
        (f"2*s^{D // 2}*t^{D // 2}", BinaryForm.monomial(field, D, D // 2, field.from_int(2))),
    ]:
        assert format_binary_form(f) == text
        again = parse_binary_form(text, field)
        assert again.degree == D and again.equals(f) and again.coeffs == f.coeffs
        assert sum(c is not field.zero for c in again.coeffs) == 1


@given(st.lists(st.integers(-99, 99), min_size=1, max_size=9))
@settings(max_examples=80, deadline=None)
def test_round_trip_random_forms(coeffs):
    f = BinaryForm(RATIONALS, len(coeffs) - 1, tuple(Fraction(c) for c in coeffs))
    assert parse_binary_form(format_binary_form(f), RATIONALS, degree=f.degree if not f.is_zero() else None).equals(f)


def _oracle_forms(field, rnd):
    """Forms of degree 0 to 12 whose nonzero coefficients are mostly ±1, or
    small integers and (over Q) fractions of either sign; the strictly zero
    form and all-zero forms of each degree."""
    yield BinaryForm.zero(field)
    dens = [field.from_int(k) for k in range(1, 8) if field.from_int(k)]
    for degree in range(13):
        yield BinaryForm.zero_of_degree(field, degree)
        for _ in range(25):
            coeffs = []
            for _ in range(degree + 1):
                kind = rnd.random()
                if kind < 0.3:
                    c = field.zero
                elif kind < 0.6:
                    c = field.from_int(rnd.choice((1, -1)))
                else:
                    c = field.div(field.from_int(rnd.randint(-60, 60)), rnd.choice(dens))
                coeffs.append(c)
            yield BinaryForm(field, degree, tuple(coeffs))


@pytest.mark.parametrize("p", [None, 2, 3, 32003, 2**31 - 1], ids=str)
def test_format_matches_the_two_pass_oracle(p):
    # one pass over the nonzero coefficients prints what the (sign, body)
    # pairs joined in a second pass printed
    field, rnd = FieldSpec(p), random.Random(p)
    for f in _oracle_forms(field, rnd):
        assert format_binary_form(f) == format_binary_form_oracle(f), f.coeffs
    top = field.from_int(-1)
    for f in (BinaryForm.constant(field, top), BinaryForm.monomial(field, 1, 1, top), BinaryForm.monomial(field, 3, 2)):
        assert format_binary_form(f) == format_binary_form_oracle(f)


def test_format_of_a_5000_digit_coefficient_raises_field_error():
    # Python prints at most sys.get_int_max_str_digits() digits; the form
    # formatter and its oracle both refuse with FieldError, not ValueError
    for c in (Fraction(10**4999 + 1), Fraction(-(10**4999) - 1, 3), Fraction(1, 10**4999)):
        f = BinaryForm(RATIONALS, 2, (Fraction(1), c, Fraction(-1)))
        for fmt in (format_binary_form, format_binary_form_oracle):
            with pytest.raises(FieldError, match="too many digits"):
                fmt(f)


@given(
    # exponents are cut to two digits: the coefficient list has degree + 1
    # entries, so "s^6254570" alone takes seconds
    st.text(alphabet="st0123456789/+-*^ x", max_size=30).map(lambda text: re.sub(r"\^(\d\d)\d+", r"^\1", text)),
    st.sampled_from([RATIONALS, FieldSpec(2), FieldSpec(7)]),
    st.none() | st.integers(-2, 6),
)
@settings(max_examples=300, deadline=None)
def test_fuzz_parses_or_raises_value_error(text, field, degree):
    # every text parses or raises ValueError (DegreeError for a wrong degree),
    # and a parsed form prints as text that parses back to it
    try:
        f = parse_binary_form(text, field, degree)
    except ValueError:
        return
    assert degree is None or degree < 0 or f.degree == degree
    again = parse_binary_form(format_binary_form(f), field, f.degree)
    assert again.equals(f) and again.degree == f.degree

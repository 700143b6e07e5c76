import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rncsplit.fields import DEFAULT_PRIME, FieldError, FieldSpec, RATIONALS, parse_field
from tests.helpers import canonical_q, format_scalar_oracle

GF101 = FieldSpec(101)


def test_prime_validation():
    FieldSpec(2)
    FieldSpec(32003)
    with pytest.raises(FieldError):
        FieldSpec(91)  # 7 * 13
    with pytest.raises(FieldError):
        FieldSpec(1)
    # p >= 2^31 is refused before the primality test, which would take
    # minutes by trial division
    FieldSpec(2**31 - 1)
    for p in (4294967291, 2**61 - 1, 2**31):
        with pytest.raises(FieldError, match="too large"):
            FieldSpec(p)


def test_parse_field():
    assert parse_field("rational").p is None
    assert parse_field("prime:101").p == 101
    with pytest.raises(FieldError):
        parse_field("galois:4")


def test_rational_ops_are_fractions():
    K = RATIONALS
    x = K.div(K.from_int(1), K.from_int(3))
    assert x == Fraction(1, 3)
    assert K.mul(x, K.from_int(3)) == 1


def test_rational_zero_and_one_are_shared():
    # integral rationals are ints, so Q hands out the shared small ints 0
    # and 1: tuples of coefficients full of zeros then compare by identity
    assert RATIONALS.zero is RATIONALS.zero and RATIONALS.one is RATIONALS.one
    assert RATIONALS.zero == 0 and RATIONALS.one == 1
    assert canonical_q(RATIONALS.zero) and canonical_q(RATIONALS.one)
    assert FieldSpec().zero is RATIONALS.zero


def test_default_prime_is_prime():
    FieldSpec(DEFAULT_PRIME)


@given(st.integers(-500, 500), st.integers(-500, 500), st.integers(-500, 500))
def test_field_axioms_gf101(a, b, c):
    K = GF101
    a, b, c = K.from_int(a), K.from_int(b), K.from_int(c)
    assert K.add(a, K.add(b, c)) == K.add(K.add(a, b), c)
    assert K.mul(a, K.mul(b, c)) == K.mul(K.mul(a, b), c)
    assert K.mul(a, K.add(b, c)) == K.add(K.mul(a, b), K.mul(a, c))
    assert K.add(a, b) == K.add(b, a)
    assert K.mul(a, b) == K.mul(b, a)
    if not K.is_zero(a):
        assert K.mul(a, K.inv(a)) == K.one


@given(st.fractions(max_denominator=50), st.fractions(max_denominator=50))
def test_field_axioms_rationals(a, b):
    K = RATIONALS
    assert K.sub(K.add(a, b), b) == a
    if not K.is_zero(b):
        assert K.mul(K.div(a, b), b) == a


@pytest.mark.parametrize("field", [RATIONALS, GF101])
def test_scalar_text_round_trip(field):
    for n in (-7, 0, 1, 42):
        s = field.format_scalar(field.from_int(n))
        assert field.parse_scalar(s) == field.from_int(n)
    if field.p is None:
        assert field.parse_scalar("3/4") == Fraction(3, 4)
    with pytest.raises(FieldError):
        field.parse_scalar("1/0")


def test_balanced_representative_printing():
    K = FieldSpec(32003)
    assert K.format_scalar(K.from_int(-1)) == "-1"
    assert K.format_scalar(K.from_int(5)) == "5"


@given(st.fractions(), st.integers(-(10**40), 10**40))
def test_format_scalar_matches_oracle(a, n):
    # over Q, str(Fraction) is the numerator, then "/" and the denominator
    # when it is not 1; over GF(p), the balanced representative
    assert RATIONALS.format_scalar(a) == format_scalar_oracle(RATIONALS, a)
    for p in (2, 3, 32003, 2**31 - 1):
        K = FieldSpec(p)
        assert K.format_scalar(K.from_int(n)) == format_scalar_oracle(K, K.from_int(n))


def test_format_scalar_refuses_5000_digits():
    for a in (Fraction(10**4999), Fraction(-(10**4999) + 1, 7), Fraction(3, 10**4999 + 1)):
        for fmt in (RATIONALS.format_scalar, lambda a: format_scalar_oracle(RATIONALS, a)):
            with pytest.raises(FieldError, match="too many digits"):
                fmt(a)


@pytest.mark.parametrize("p", [2, 3, 32003, 2**31 - 1])
def test_inverse_agrees_with_fermat(p):
    # pow(a, -1, p) is the inverse that Fermat's a^(p-2) gives
    K, rnd = FieldSpec(p), random.Random(p)
    for a in {1, p - 1, *(rnd.randrange(1, p) for _ in range(200))}:
        assert K.inv(a) == pow(a, p - 2, p), a
        assert K.mul(a, K.inv(a)) == 1, a
    with pytest.raises(FieldError):
        K.inv(0)

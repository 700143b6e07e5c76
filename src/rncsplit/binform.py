"""Dense homogeneous polynomials in two variables s, t over an exact field.

Coefficients are stored in descending powers of s: ``coeffs[i]`` multiplies
``s^(degree-i) * t^i``.  The strictly zero form has ``degree == -1`` and no
coefficients; an all-zero coefficient vector of degree D is also representable
and both answer ``is_zero()``.
"""

from __future__ import annotations

import re
from itertools import compress

from .fields import FieldSpec


class DegreeError(ValueError):
    """Operands with incompatible degrees."""


class BinaryForm:
    """Compare forms with `equals`: `==` is identity."""

    __slots__ = ("field", "degree", "coeffs")

    def __init__(self, field: FieldSpec, degree: int, coeffs: tuple):
        if degree < -1:
            raise DegreeError(f"degree {degree} < -1")
        if degree == -1 and coeffs:
            raise DegreeError("strictly zero form carries no coefficients")
        if degree >= 0 and len(coeffs) != degree + 1:
            raise DegreeError(f"degree {degree} needs {degree + 1} coefficients, got {len(coeffs)}")
        self.field = field
        self.degree = degree
        self.coeffs = coeffs

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(field: FieldSpec) -> "BinaryForm":
        return BinaryForm(field, -1, ())

    @staticmethod
    def zero_of_degree(field: FieldSpec, degree: int) -> "BinaryForm":
        return BinaryForm(field, degree, (field.zero,) * (degree + 1))

    @staticmethod
    def constant(field: FieldSpec, value) -> "BinaryForm":
        return BinaryForm(field, 0, (value,))

    @staticmethod
    def monomial(field: FieldSpec, degree: int, t_power: int, coeff=None) -> "BinaryForm":
        """The form c * s^(degree - t_power) * t^t_power."""
        if not 0 <= t_power <= degree:
            raise DegreeError(f"t-power {t_power} outside 0..{degree}")
        c = field.one if coeff is None else coeff
        coeffs = [field.zero] * (degree + 1)
        coeffs[t_power] = c
        return BinaryForm(field, degree, tuple(coeffs))

    # -- predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def coeff(self, t_power: int):
        """Coefficient of s^(degree - t_power) t^t_power; zero outside range."""
        if self.degree == -1 or not 0 <= t_power <= self.degree:
            return self.field.zero
        return self.coeffs[t_power]

    # -- arithmetic -----------------------------------------------------------

    def add(self, other: "BinaryForm") -> "BinaryForm":
        return self._addsub(other, sub=False)

    def sub(self, other: "BinaryForm") -> "BinaryForm":
        return self._addsub(other, sub=True)

    def _addsub(self, other: "BinaryForm", sub: bool) -> "BinaryForm":
        K = self.field
        if self.degree == -1 and other.degree == -1:
            return self
        if self.degree == -1:
            return other.neg() if sub else other
        if other.degree == -1:
            return self
        if self.degree != other.degree:
            raise DegreeError(f"degree mismatch: {self.degree} vs {other.degree}")
        op = K.sub if sub else K.add
        return BinaryForm(K, self.degree, tuple(op(a, b) for a, b in zip(self.coeffs, other.coeffs)))

    def neg(self) -> "BinaryForm":
        if self.degree == -1:
            return self
        return BinaryForm(self.field, self.degree, tuple(self.field.neg(c) for c in self.coeffs))

    def scale(self, scalar) -> "BinaryForm":
        if self.degree == -1:
            return self
        K = self.field
        return BinaryForm(K, self.degree, tuple(K.mul(scalar, c) for c in self.coeffs))

    def equals(self, other: "BinaryForm") -> bool:
        """Equality of values: all zero forms are equal regardless of degree slot."""
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        # coefficients are canonical (reduced Fractions, ints in 0..p-1)
        return self.coeffs == other.coeffs

    # -- valuations and division ----------------------------------------------

    def t_valuation(self) -> int:
        """Largest k with t^k dividing the form (for nonzero forms)."""
        if self.is_zero():
            raise ValueError("zero form has no valuation")
        return next(i for i, c in enumerate(self.coeffs) if not self.field.is_zero(c))

    def shift(self, s_power: int, t_power: int) -> "BinaryForm":
        """Multiply by the monomial s^s_power * t^t_power (powers may be negative
        when the corresponding valuation allows exact division)."""
        if self.degree == -1:
            return self
        if self.is_zero():
            d = self.degree + s_power + t_power
            return BinaryForm.zero_of_degree(self.field, d) if d >= 0 else BinaryForm.zero(self.field)
        # coefficient i is that of s^(degree-i) t^i: t^k pads k zeros in front,
        # s^k k behind, and a negative power drops the zeros it divides out
        if t_power < 0 and any(self.coeffs[:-t_power]):
            raise DegreeError("monomial division not exact in t")
        if s_power < 0 and any(self.coeffs[max(0, self.degree + 1 + s_power) :]):
            raise DegreeError("monomial division not exact in s")
        zero = (self.field.zero,)
        cs = self.coeffs[-t_power:] if t_power < 0 else zero * t_power + self.coeffs
        cs = cs[: len(cs) + s_power] if s_power < 0 else cs + zero * s_power
        return BinaryForm(self.field, self.degree + s_power + t_power, cs)

    def divexact(self, divisor: "BinaryForm") -> "BinaryForm":
        """Exact quotient self / divisor; raises DegreeError on nonzero remainder."""
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero form")
        if self.is_zero():
            d = self.degree - divisor.degree
            return BinaryForm.zero(self.field) if self.degree == -1 or d < 0 else BinaryForm.zero_of_degree(self.field, d)
        K = self.field
        if self.degree < divisor.degree:
            raise DegreeError("quotient degree would be negative")
        # Long division on coefficient vectors, leading coefficient = lowest t-power.
        rem = list(self.coeffs)
        qdeg = self.degree - divisor.degree
        quot = [K.zero] * (qdeg + 1)
        dv = divisor.t_valuation()
        inv = K.inv(divisor.coeffs[dv])  # of the leading coefficient, once
        for i in range(qdeg + 1):
            c = K.mul(rem[i + dv], inv)
            quot[i] = c
            if not K.is_zero(c):
                for j in range(divisor.degree + 1):
                    rem[i + j] = K.sub(rem[i + j], K.mul(c, divisor.coeff(j)))
        if any(not K.is_zero(c) for c in rem):
            raise DegreeError("division not exact")
        return BinaryForm(K, qdeg, tuple(quot))

    def __repr__(self) -> str:
        return f"BinaryForm({format_binary_form(self)!r})"


# -- text grammar --------------------------------------------------------------
#
# Terms `c*s^a*t^b` joined by + / -, with one optional leading sign; factors are
# joined by `*`, and the exponent is omitted when 1,
# e.g. `-s^11+t^11`, `s^10*t`, `3*s*t^2`.

_TOKEN = re.compile(r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<var>[st])(?:\^(?P<exp>\d+))?|(?P<op>[+*-]))")


def parse_binary_form(text: str, field: FieldSpec, degree: int | None = None) -> BinaryForm:
    """Parse the textual form grammar; `degree` pins the slot for zero input."""
    terms = []  # (coeff, s_exp, t_exp)
    pos = 0
    sign = 1
    cur = None  # (coeff, s, t) of term under construction
    text = text.strip()
    if text in ("0", ""):
        if degree is None or degree < 0:
            return BinaryForm.zero(field)
        return BinaryForm.zero_of_degree(field, degree)

    after_factor = False  # whether the last token was a number or a variable
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"syntax error in binary form at position {pos}: {text[pos:]!r}")
        pos = m.end()
        token = m.group().lstrip()
        at = pos - len(token)
        op = m.group("op")
        # operators and factors alternate; a sign may also open the text
        if after_factor != bool(op) and not (at == 0 and op in ("+", "-")):
            raise ValueError(f"unexpected {token!r} at position {at} in binary form")
        after_factor = not op
        if op == "*":
            continue
        if op:
            if cur is not None:
                terms.append(cur)
            cur = None
            sign = -1 if op == "-" else 1
            continue
        if cur is None:
            cur = (field.one if sign > 0 else field.neg(field.one), 0, 0)
        c, a, b = cur
        if m.group("num"):
            cur = (field.mul(c, field.parse_scalar(m.group("num"))), a, b)
        else:
            exp = int(m.group("exp") or 1)
            cur = (c, a + exp, b) if m.group("var") == "s" else (c, a, b + exp)
    if not after_factor:
        raise ValueError(f"binary form ends in an operator at position {at}")
    terms.append(cur)
    deg = terms[0][1] + terms[0][2]
    for _, a, b in terms:
        if a + b != deg:
            raise ValueError(f"non-homogeneous binary form: degree {a + b} term among degree {deg}")
    if degree is not None and degree != deg:
        raise DegreeError(f"expected degree {degree}, parsed degree {deg}")
    coeffs = [field.zero] * (deg + 1)
    for c, _, b in terms:
        coeffs[b] = field.add(coeffs[b], c)
    return BinaryForm(field, deg, tuple(coeffs))


def format_binary_form(f: BinaryForm) -> str:
    if f.is_zero():
        return "0"
    K, cs = f.field, f.coeffs
    parts = []
    for i in compress(range(len(cs)), cs):
        c, sexp, texp = cs[i], f.degree - i, i
        factors = []
        if sexp > 0:
            factors.append("s" if sexp == 1 else f"s^{sexp}")
        if texp > 0:
            factors.append("t" if texp == 1 else f"t^{texp}")
        txt = K.format_scalar(c)
        neg = txt.startswith("-")
        if neg:
            txt = txt[1:]
        if factors and txt == "1":
            body = "*".join(factors)
        else:
            body = "*".join([txt] + factors)
        parts.append(("-" if neg else "+", body))
    out = ""
    for sign, body in parts:
        if not out:
            out = body if sign == "+" else "-" + body
        else:
            out += sign + body
    return out

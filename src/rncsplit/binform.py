"""Dense homogeneous polynomials in two variables s, t over an exact field.

Coefficients are stored in descending powers of s: ``coeffs[i]`` multiplies
``s^(degree-i) * t^i``.  The strictly zero form has ``degree == -1`` and no
coefficients; an all-zero coefficient vector of degree D is also representable
and both answer ``is_zero()``.
"""

from __future__ import annotations

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

    # -- arithmetic -----------------------------------------------------------

    def neg(self) -> "BinaryForm":
        if self.degree == -1:
            return self
        return BinaryForm(self.field, self.degree, tuple(self.field.neg(c) for c in self.coeffs))

    def equals(self, other: "BinaryForm") -> bool:
        """Equality of values: all zero forms are equal regardless of degree slot."""
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        # coefficients are canonical (over Q an int or a reduced non-integral
        # Fraction, over GF(p) an int in 0..p-1)
        return self.coeffs == other.coeffs

    # -- monomial shifts -----------------------------------------------------

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

    def __repr__(self) -> str:
        return f"BinaryForm({format_binary_form(self)!r})"


def format_binary_form(f: BinaryForm) -> str:
    K, cs, deg = f.field, f.coeffs, f.degree
    out = []
    for i in compress(range(len(cs)), cs):
        c = K.format_scalar(cs[i])
        if out and c[0] != "-":
            out.append("+")
        s = "" if i == deg else "s" if i == deg - 1 else f"s^{deg - i}"
        t = "" if i == 0 else "t" if i == 1 else f"t^{i}"
        mono = s + "*" + t if s and t else s or t
        # a coefficient of ±1 before a monomial prints as its sign alone
        out.append(c if not mono else c[:-1] + mono if c in ("1", "-1") else c + "*" + mono)
    return "".join(out) or "0"

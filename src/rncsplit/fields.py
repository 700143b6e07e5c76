"""Exact coefficient fields: arbitrary-precision rationals and prime fields.

A :class:`FieldSpec` is a small immutable value describing the field all other
objects compute over.  Rational elements are ``fractions.Fraction`` (always
reduced); prime-field elements are plain ``int`` in canonical range ``0..p-1``.
Primes are bounded by 2^31 so that `is_prime`'s trial division stays fast.
"""

from __future__ import annotations

from fractions import Fraction


class FieldError(ValueError):
    """Invalid field construction or arithmetic (e.g. division by zero)."""


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


# One shared zero and one over Q: Fractions are immutable, and tuples of
# coefficients compare runs of the same object by identity, not by
# Fraction.__eq__.
_Q_ZERO, _Q_ONE = Fraction(0), Fraction(1)


class FieldSpec:
    """The rationals (``p is None``) or the prime field GF(p)."""

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None:
            if p >= 2**31:
                raise FieldError(f"prime {p} too large: p < 2^31 keeps the primality test by trial division fast")
            if not is_prime(p):
                raise FieldError(f"{p} is not prime")
        self.p = p

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldSpec) and self.p == other.p

    def __hash__(self) -> int:
        return hash(self.p)

    def __repr__(self) -> str:
        return f"FieldSpec(p={self.p})"

    def __str__(self) -> str:
        return "rational" if self.p is None else f"prime:{self.p}"

    # -- element constructors ------------------------------------------------

    def from_int(self, n: int):
        return Fraction(n) if self.p is None else n % self.p

    @property
    def zero(self):
        return _Q_ZERO if self.p is None else 0

    @property
    def one(self):
        return _Q_ONE if self.p is None else 1

    # -- arithmetic ----------------------------------------------------------

    def add(self, a, b):
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.p is None else (a * b) % self.p

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def inv(self, a):
        if self.is_zero(a):
            raise FieldError("division by zero")
        return 1 / a if self.p is None else pow(a, -1, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a == 0

    # -- text ----------------------------------------------------------------

    def format_scalar(self, a) -> str:
        if self.p is None:
            try:
                return str(a)  # a reduced Fraction prints as n or n/d
            except ValueError:  # Python prints ints of at most sys.get_int_max_str_digits() digits
                raise FieldError("a coefficient has too many digits to print") from None
        r = a % self.p
        # balanced representative: small negatives print as negatives
        return str(r - self.p) if r > self.p // 2 else str(r)

    def parse_scalar(self, text: str):
        text = text.strip()
        if "/" in text:
            num, den = text.split("/", 1)
            return self.div(self.from_int(int(num)), self.from_int(int(den)))
        return self.from_int(int(text))


RATIONALS = FieldSpec()


def parse_field(text: str) -> FieldSpec:
    """Parse ``rational`` or ``prime:<p>``."""
    text = text.strip().lower()
    if text in ("rational", "rationals", "qq", "q"):
        return RATIONALS
    if text.startswith("prime:"):
        try:
            p = int(text.split(":", 1)[1])
        except ValueError:
            raise FieldError(f"bad prime in field {text!r}") from None
        return FieldSpec(p=p)
    raise FieldError(f"unknown field {text!r} (expected 'rational' or 'prime:<p>')")


#: Classical computer-algebra default for fast modular runs.
DEFAULT_PRIME = 32003

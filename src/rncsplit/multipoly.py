"""Multivariate homogeneous forms in x0..xn and their interaction with the
rational normal curve: restriction, monomial lifting, and hypersurfaces given
by their coefficients on the curve's ideal generators.

The degree-e rational normal curve in P^n is parametrized by
x_m = s^(e-m) t^m for m <= e and x_m = 0 for m > e.  Its ideal is generated by
the quadrics Q_{i,j} = x_i x_{j-1} - x_{i-1} x_j (1 <= i < j <= e) together
with the linear forms x_{e+1}, ..., x_n.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import lcm
from operator import mul

from .binform import BinaryForm
from .fields import RATIONALS, FieldSpec


class CurveContextError(ValueError):
    pass


class PolyError(ValueError):
    pass


class CurveContext:
    """Ambient data (d, e, n) plus the coefficient field.

    d: hypersurface degree >= 2; e: curve degree >= 1; n: ambient projective
    dimension >= 3 with e <= n.  The field characteristic must not divide e.
    """

    __slots__ = ("d", "e", "n", "field")

    def __init__(self, d: int, e: int, n: int, field: FieldSpec = RATIONALS):
        if d < 2:
            raise CurveContextError(f"hypersurface degree d = {d} < 2")
        if e < 1:
            raise CurveContextError(f"curve degree e = {e} < 1")
        if n < 3:
            raise CurveContextError(f"ambient dimension n = {n} < 3")
        if e > n:
            raise CurveContextError(f"curve degree e = {e} exceeds n = {n}")
        if field.p is not None and e % field.p == 0:
            raise CurveContextError(f"characteristic {field.p} divides the curve degree {e}")
        self.d, self.e, self.n, self.field = d, e, n, field

    def _key(self) -> tuple:
        return (self.d, self.e, self.n, self.field)

    def __eq__(self, other) -> bool:
        return isinstance(other, CurveContext) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def nvars(self) -> int:
        return self.n + 1


class MultiPoly:
    """Homogeneous polynomial; terms map exponent tuples (length n+1) to
    nonzero field elements."""

    __slots__ = ("context", "total_degree", "terms")

    def __init__(self, context: CurveContext, total_degree: int, terms: dict):
        K = context.field
        clean = {}
        for exp, c in terms.items():
            if K.is_zero(c):
                continue
            if len(exp) != context.nvars:
                raise PolyError(f"exponent vector {exp} has wrong length")
            if sum(exp) != total_degree:
                raise PolyError(
                    f"term {exp} has degree {sum(exp)}, expected {total_degree}"
                )
            clean[tuple(exp)] = c
        self.context = context
        self.total_degree = total_degree
        self.terms = clean

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def zero(context: CurveContext, degree: int) -> "MultiPoly":
        return MultiPoly(context, degree, {})

    @staticmethod
    def variable(context: CurveContext, index: int) -> "MultiPoly":
        if not 0 <= index <= context.n:
            raise PolyError(f"variable x{index} outside x0..x{context.n}")
        exp = [0] * context.nvars
        exp[index] = 1
        return MultiPoly(context, 1, {tuple(exp): context.field.one})

    @staticmethod
    def monomial(context: CurveContext, exponents, coeff=None) -> "MultiPoly":
        c = context.field.one if coeff is None else coeff
        return MultiPoly(context, sum(exponents), {tuple(exponents): c})

    @staticmethod
    def constant(context: CurveContext, value) -> "MultiPoly":
        return MultiPoly(context, 0, {(0,) * context.nvars: value})

    # -- predicates and access ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if self.is_zero() and other.is_zero():
            return True
        return self.total_degree == other.total_degree and self.terms == other.terms

    def __hash__(self):
        return hash((self.total_degree, frozenset(self.terms.items())))

    # -- arithmetic ----------------------------------------------------------------

    def add(self, other: "MultiPoly") -> "MultiPoly":
        return self._addsub(other, sub=False)

    def sub(self, other: "MultiPoly") -> "MultiPoly":
        return self._addsub(other, sub=True)

    def _addsub(self, other: "MultiPoly", sub: bool) -> "MultiPoly":
        K = self.context.field
        if self.is_zero():
            deg = other.total_degree
        elif other.is_zero():
            deg = self.total_degree
        elif self.total_degree != other.total_degree:
            raise PolyError(
                f"degree mismatch: {self.total_degree} vs {other.total_degree}"
            )
        else:
            deg = self.total_degree
        out = dict(self.terms)
        for exp, c in other.terms.items():
            cc = K.neg(c) if sub else c
            out[exp] = K.add(out.get(exp, K.zero), cc)
        return MultiPoly(self.context, deg, out)

    def mul(self, other: "MultiPoly") -> "MultiPoly":
        K = self.context.field
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                out[exp] = K.add(out.get(exp, K.zero), K.mul(c1, c2))
        return MultiPoly(self.context, self.total_degree + other.total_degree, out)

    def scale(self, scalar) -> "MultiPoly":
        K = self.context.field
        return MultiPoly(
            self.context, self.total_degree, {e: K.mul(scalar, c) for e, c in self.terms.items()}
        )

    def neg(self) -> "MultiPoly":
        return self.scale(self.context.field.neg(self.context.field.one))

    def __repr__(self) -> str:
        return f"MultiPoly({format_poly(self)!r})"


# -- curve interaction ------------------------------------------------------------


def restrict_to_curve(p: MultiPoly) -> BinaryForm:
    """Substitute x_m -> s^(e-m) t^m for m <= e and x_m -> 0 for m > e.

    A degree-k form restricts to a binary form of degree e*k (or strictly zero).
    The coefficients are summed as integers: over Q, numerators over the lcm
    of the denominators; each is reduced once.
    """
    K, e = p.context.field, p.context.e
    terms = [(exp, c) for exp, c in p.terms.items() if not any(exp[e + 1 :])]
    den = lcm(*(c.denominator for _, c in terms)) if K.p is None else 1
    acc = [0] * (e * p.total_degree + 1)
    for exp, c in terms:
        # monomial prod x_m^{a_m} -> s^(sum a_m (e-m)) t^(sum a_m m)
        acc[sum(map(mul, range(e + 1), exp))] += c if K.p else c.numerator * (den // c.denominator)
    if not any(acc):
        return BinaryForm.zero(K)
    coeffs = tuple(x % K.p for x in acc) if K.p else tuple(Fraction(x, den) for x in acc)
    return BinaryForm(K, len(acc) - 1, coeffs)


def lift_binary_form(h: BinaryForm, context: CurveContext, k: int) -> MultiPoly:
    """Canonical degree-k preimage of h under restriction to the curve.

    The monomial s^(ek-i) t^i lifts to x_e^q * x_r * x_0^(k-q-1) where
    i = q*e + r with 0 <= r < e, and s^0 t^(ek) lifts to x_e^k.
    """
    e = context.e
    if h.is_zero():
        return MultiPoly.zero(context, k)
    if h.degree != e * k:
        raise PolyError(
            f"cannot lift degree {h.degree} to a degree-{k} form on a degree-{e} curve: "
            f"expected binary degree {e * k}"
        )
    K = context.field
    terms = {}
    for i, c in enumerate(h.coeffs):
        if K.is_zero(c):
            continue
        exp = [0] * context.nvars
        if i == e * k:
            exp[e] = k
        else:
            q, r = divmod(i, e)
            exp[e] += q
            exp[r] += 1
            exp[0] += k - q - 1
        terms[tuple(exp)] = c  # restricts to s^(ek-i) t^i: no two i collide
    return MultiPoly(context, k, terms)


# -- ideal combinations ------------------------------------------------------------


class IdealCombination:
    """A hypersurface F presented as sum F_{i,j} Q_{i,j} + sum G_k x_k.

    Quadric coefficients F_{i,j} are homogeneous of degree d-2 (indices
    1 <= i < j <= e), linear coefficients G_k of degree d-1 (e+1 <= k <= n).
    F is homogeneous of degree d and vanishes on the curve by construction;
    the maps psi and delta read it off the restrictions of its coefficients.
    """

    __slots__ = ("context", "quadric_coeffs", "linear_coeffs")

    def __init__(self, context: CurveContext, quadric_coeffs: dict, linear_coeffs: dict):
        self.context = context
        clean_q = {}
        for (i, j), poly in quadric_coeffs.items():
            if not (1 <= i < j <= context.e):
                raise PolyError(f"quadric index ({i},{j}) outside 1 <= i < j <= {context.e}")
            if poly.is_zero():
                continue
            if poly.total_degree != context.d - 2:
                raise PolyError(
                    f"F_{{{i},{j}}} has degree {poly.total_degree}, expected d-2 = {context.d - 2}"
                )
            clean_q[(i, j)] = poly
        clean_l = {}
        for k, poly in linear_coeffs.items():
            if not (context.e + 1 <= k <= context.n):
                raise PolyError(f"linear index {k} outside {context.e + 1}..{context.n}")
            if poly.is_zero():
                continue
            if poly.total_degree != context.d - 1:
                raise PolyError(
                    f"G_{k} has degree {poly.total_degree}, expected d-1 = {context.d - 1}"
                )
            clean_l[k] = poly
        self.quadric_coeffs = clean_q
        self.linear_coeffs = clean_l

    def __eq__(self, other) -> bool:
        if not isinstance(other, IdealCombination):
            return NotImplemented
        return (
            self.context == other.context
            and self.quadric_coeffs == other.quadric_coeffs
            and self.linear_coeffs == other.linear_coeffs
        )

    def __repr__(self) -> str:
        qs = ", ".join(f"({i},{j})->{format_poly(p)}" for (i, j), p in sorted(self.quadric_coeffs.items()))
        ls = ", ".join(f"{k}->{format_poly(p)}" for k, p in sorted(self.linear_coeffs.items()))
        return f"IdealCombination[{qs}; {ls}]"


def _grlex_key(exp: tuple) -> tuple:
    # graded lexicographic with x0 > x1 > ... > xn: higher total degree first,
    # then larger exponent vector (componentwise left to right).
    return (sum(exp), exp)


# -- text grammar --------------------------------------------------------------
#
# Integer (or a/b) coefficients, variables x0..x<n>, operators + - * ^ and
# parentheses, e.g. "x1^2 - x0*x2".

_POLY_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|x(?P<var>\d+)|(?P<op>[-+*^()]))"
)


class _PolyParser:
    def __init__(self, text: str, context: CurveContext, degree: int):
        self.tokens: list = []
        self.context = context
        self.degree = degree  # the expected degree, which no power may exceed
        # the most digits Python reads or prints in one int (0: no limit)
        self.limit = getattr(sys, "get_int_max_str_digits", int)()
        pos = 0
        while pos < len(text):
            if text[pos].isspace():
                pos += 1
                continue
            m = _POLY_TOKEN.match(text, pos)
            if not m:
                raise PolyError(f"syntax error at position {pos}: {text[pos:]!r}")
            if self.limit and any(len(run) > self.limit for run in re.findall(r"\d+", m.group())):
                raise PolyError(f"number at position {pos} has more than {self.limit} digits")
            if m.group("num"):
                self.tokens.append(("num", m.group("num"), pos))
            elif m.group("var") is not None:
                self.tokens.append(("var", int(m.group("var")), pos))
            else:
                self.tokens.append(("op", m.group("op"), pos))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise PolyError("unexpected end of input")
        self.i += 1
        return tok

    def parse(self) -> MultiPoly:
        p = self.expr()
        tok = self.peek()
        if tok is not None:
            raise PolyError(f"unexpected token at position {tok[2]}")
        return p

    def expr(self) -> MultiPoly:
        left = self.term()
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] in "+-":
                self.next()
                right = self.term()
                left = left.add(right) if tok[1] == "+" else left.sub(right)
            else:
                return left

    def term(self) -> MultiPoly:
        left = self.factor()
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] == "*":
                self.next()
                left = left.mul(self.factor())
            else:
                return left

    def factor(self) -> MultiPoly:
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "-":
            self.next()
            return self.factor().neg()
        base = self.atom()
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "^":
            self.next()
            exp_tok = self.next()
            if exp_tok[0] != "num" or "/" in exp_tok[1]:
                raise PolyError(f"expected integer exponent at position {exp_tok[2]}")
            power = int(exp_tok[1])
            K = self.context.field
            if base.is_zero() or base.total_degree == 0:  # 0^k and c^k in one step
                c = next(iter(base.terms.values()), K.zero)
                # |c|^power has at least power * bits + 1 bits, and 10^limit 3.33 * limit
                bits = 0 if K.p else max(abs(c.numerator).bit_length(), c.denominator.bit_length()) - 1
                if self.limit and power * bits > 4 * self.limit:
                    raise PolyError(f"power at position {exp_tok[2]} has more than {self.limit} digits")
                return MultiPoly.constant(self.context, c**power if K.p is None else pow(c, power, K.p))
            if base.total_degree * power > self.degree:
                raise PolyError(f"power at position {exp_tok[2]} above the expected degree {self.degree}")
            out = MultiPoly.constant(self.context, K.one)
            for _ in range(power):
                out = out.mul(base)
            return out
        return base

    def atom(self) -> MultiPoly:
        tok = self.next()
        if tok[0] == "num":
            return MultiPoly.constant(self.context, self.context.field.parse_scalar(tok[1]))
        if tok[0] == "var":
            if tok[1] > self.context.n:
                raise PolyError(f"variable x{tok[1]} exceeds ambient dimension n = {self.context.n}")
            return MultiPoly.variable(self.context, tok[1])
        if tok[1] == "(":
            inner = self.expr()
            close = self.next()
            if close[0] != "op" or close[1] != ")":
                raise PolyError(f"expected ')' at position {close[2]}")
            return inner
        raise PolyError(f"unexpected token {tok[1]!r} at position {tok[2]}")


def parse_poly(text: str, context: CurveContext, expected_degree: int) -> MultiPoly:
    """Parse text into a homogeneous MultiPoly of the expected degree."""
    text = text.strip()
    if text == "0":
        return MultiPoly.zero(context, expected_degree)
    raw = _PolyParser(text, context, expected_degree).parse()
    if raw.is_zero():
        return MultiPoly.zero(context, expected_degree)
    degrees = {sum(exp) for exp in raw.terms}
    if len(degrees) > 1:
        raise PolyError(f"non-homogeneous polynomial: term degrees {sorted(degrees)}")
    if raw.total_degree != expected_degree:
        raise PolyError(
            f"expected degree {expected_degree}, parsed degree {raw.total_degree}"
        )
    return raw


def format_poly(p: MultiPoly) -> str:
    if p.is_zero():
        return "0"
    K = p.context.field
    parts = []
    for exp in sorted(p.terms, key=_grlex_key, reverse=True):
        c = p.terms[exp]
        factors = []
        for v, a in enumerate(exp):
            if a == 1:
                factors.append(f"x{v}")
            elif a > 1:
                factors.append(f"x{v}^{a}")
        txt = K.format_scalar(c)
        neg = txt.startswith("-")
        if neg:
            txt = txt[1:]
        if factors and txt == "1":
            body = "*".join(factors)
        else:
            body = "*".join([txt] + factors)
        parts.append((neg, body))
    out = ""
    for neg, body in parts:
        if not out:
            out = ("-" if neg else "") + body
        else:
            out += (" - " if neg else " + ") + body
    return out


# -- hypersurface files -----------------------------------------------------------
#
# UTF-8 text: header lines `d = <int>`, `e = <int>`, `n = <int>`, optional
# `field = rational | prime:<p>`; body lines `Q <i> <j> : <poly>` and
# `X <k> : <poly>`; `#` starts a comment.


def parse_hypersurface(text: str, field: FieldSpec | None = None) -> IdealCombination:
    from .fields import parse_field

    header: dict = {}
    body: list[tuple] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = re.match(r"^(d|e|n)\s*=\s*(-?\d+)$", line)
        if m:
            header[m.group(1)] = int(m.group(2))
            continue
        m = re.match(r"^field\s*=\s*(\S+)$", line)
        if m:
            header["field"] = parse_field(m.group(1))
            continue
        m = re.match(r"^Q\s+(\d+)\s+(\d+)\s*:\s*(.+)$", line)
        if m:
            body.append(("Q", int(m.group(1)), int(m.group(2)), m.group(3), lineno))
            continue
        m = re.match(r"^X\s+(\d+)\s*:\s*(.+)$", line)
        if m:
            body.append(("X", int(m.group(1)), None, m.group(2), lineno))
            continue
        raise PolyError(f"line {lineno}: cannot parse {raw!r}")
    for key in ("d", "e", "n"):
        if key not in header:
            raise PolyError(f"missing header line '{key} = <int>'")
    use_field = field if field is not None else header.get("field", FieldSpec())
    ctx = CurveContext(header["d"], header["e"], header["n"], use_field)
    quadric: dict = {}
    linear: dict = {}
    for kind, a, b, text_part, lineno in body:
        if kind == "Q":
            poly = parse_poly(text_part, ctx, ctx.d - 2)
            key = (a, b)
            quadric[key] = quadric[key].add(poly) if key in quadric else poly
        else:
            poly = parse_poly(text_part, ctx, ctx.d - 1)
            linear[a] = linear[a].add(poly) if a in linear else poly
    return IdealCombination(ctx, quadric, linear)


def format_hypersurface(F: IdealCombination) -> str:
    ctx = F.context
    lines = [f"d = {ctx.d}", f"e = {ctx.e}", f"n = {ctx.n}", f"field = {ctx.field}"]
    for (i, j), poly in sorted(F.quadric_coeffs.items()):
        lines.append(f"Q {i} {j} : {format_poly(poly)}")
    for k, poly in sorted(F.linear_coeffs.items()):
        lines.append(f"X {k} : {format_poly(poly)}")
    return "\n".join(lines) + "\n"

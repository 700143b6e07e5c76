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
from itertools import compress
from math import lcm
from operator import add, mul

from .binform import BinaryForm
from .fields import RATIONALS, FieldError, FieldSpec, rational


class CurveContextError(ValueError):
    pass


class PolyError(ValueError):
    pass


class HsfError(PolyError):
    """Malformed polynomial or hypersurface (``.hsf``) text."""


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
            out[exp] = K.add(out.get(exp, K.zero), c)
        return MultiPoly(self.context, deg, out)

    def mul(self, other: "MultiPoly") -> "MultiPoly":
        K = self.context.field
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                out[exp] = K.add(out.get(exp, K.zero), K.mul(c1, c2))
        return MultiPoly(self.context, self.total_degree + other.total_degree, out)

    def __repr__(self) -> str:
        return f"MultiPoly({format_poly(self)!r})"


# -- curve interaction ------------------------------------------------------------


def restrict_to_curve(poly: MultiPoly) -> BinaryForm:
    """Substitute x_m -> s^(e-m) t^m for m <= e and x_m -> 0 for m > e.

    A degree-k form restricts to a binary form of degree e*k (or strictly zero).
    It pays per term: each term's coefficient joins the list of its position,
    and only the positions some term hits are summed and reduced, once (mod
    p, or over Q as integers over the lcm of the denominators, a lone term's
    coefficient kept as it is).  Every other coefficient is the field's zero.
    """
    K, e = poly.context.field, poly.context.e
    p, powers = K.p, range(e + 1)
    hits: dict = {}
    for exp, c in poly.terms.items():
        if not any(exp[e + 1 :]):
            # monomial prod x_m^{a_m} -> s^(sum a_m (e-m)) t^(sum a_m m)
            hits.setdefault(sum(map(mul, powers, exp)), []).append(c)
    coeffs = [K.zero] * (e * poly.total_degree + 1)
    for u, cs in hits.items():
        if p:
            coeffs[u] = sum(cs) % p
        elif len(cs) == 1:
            coeffs[u] = cs[0]
        else:
            den = lcm(*(c.denominator for c in cs))
            coeffs[u] = rational(sum([c.numerator * (den // c.denominator) for c in cs]), den)
    # over GF(p) a sum of canonical coefficients is zero only as a multiple of p
    if not hits or p is None and not any(coeffs):
        return BinaryForm.zero(K)
    return BinaryForm(K, len(coeffs) - 1, tuple(coeffs))


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
    terms = {}
    for i in compress(range(len(h.coeffs)), h.coeffs):
        exp = [0] * context.nvars
        if i == e * k:
            exp[e] = k
        else:
            q, r = divmod(i, e)
            exp[e] += q
            exp[r] += 1
            exp[0] += k - q - 1
        terms[tuple(exp)] = h.coeffs[i]  # restricts to s^(ek-i) t^i: no two i collide
    return MultiPoly(context, k, terms)


# -- ideal combinations ------------------------------------------------------------


class IdealCombination:
    """A hypersurface F presented as sum F_{i,j} Q_{i,j} + sum G_k x_k.

    Quadric coefficients F_{i,j} are homogeneous of degree d-2 (indices
    1 <= i < j <= e), linear coefficients G_k of degree d-1 (e+1 <= k <= n).
    F is homogeneous of degree d and vanishes on the curve by construction;
    the maps psi and delta read it off the restrictions of its coefficients.
    It is immutable: nothing changes its coefficients or its maps once it is
    built, so its psi and delta are built once, on first use, and kept in
    `maps` (sheafmap._psi_and_delta).
    """

    __slots__ = ("context", "quadric_coeffs", "linear_coeffs", "maps")

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
        self.maps = None

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
# parentheses, e.g. "x1^2 - x0*x2".  _LINE is a line of tokens, each digit run
# read whole ("x00/0" is x00 and a stray "/").  _TOKEN reads one token (group
# 1), a number's digits (2, 3) or a variable's index (4) with its integer
# exponent (5) folded in, and a "*" after a number or variable (6).

_LINE = re.compile(r"(?:\s*(?:\d+(?!\d)(?:/\d+(?!\d))?|x\d+(?!\d)|[-+*^()]))*")
_TOKEN = re.compile(r"\s*((?:(\d+)(?:/(\d+))?|x(\d+)(?:\s*\^\s*(\d+)(?!\d|/\d))?)(?:\s*(\*))?|[-+*^()])")


def _token_matches(text: str, limit: int) -> list:
    """The tokens of text as matches; raises the first syntax error or number
    of more than limit digits (0: no limit) in text order."""
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            pos = len(text) - len(text[pos:].lstrip())
            raise HsfError(f"syntax error at position {pos}: {text[pos:]!r}")
        for group in (2, 3, 4, 5):
            if limit and len(m.group(group) or "") > limit:
                raise HsfError(f"number at position {m.start(5 if group == 5 else 1)} has more than {limit} digits")
        out.append(m)
        pos = m.end()
    return out


class _Parser:
    """Recursive descent over the tokens of one stripped line, read once.  A
    term's sign, numbers and powers of variables collect in one numerator,
    denominator and exponent vector, one field element per term; only a
    parenthesized factor (or a power of a number) is a MultiPoly, multiplied
    in.  Token positions are worked out only for an error."""

    def __init__(self, text: str, context: CurveContext, degree):
        self.text, self.context = text, context
        self.degree = degree  # the expected degree, which no power may exceed
        # the most digits Python reads or prints in one int (0: no limit)
        self.limit = getattr(sys, "get_int_max_str_digits", int)()
        if not _LINE.fullmatch(text) or 0 < self.limit < len(text) and re.search(rf"(?<!\d)\d{{{self.limit + 1}}}", text):
            _token_matches(text, self.limit)
        self.tokens = [*_TOKEN.findall(text), ("",) * 6]  # and an end marker

    def fail(self, i: int, message: str, group: int = 1):
        """Raise message, its {} the position of token i (of its exponent:
        group 5), or the end of input."""
        if not self.tokens[i][0]:
            raise HsfError("unexpected end of input")
        raise HsfError(message.format(_token_matches(self.text, self.limit)[i].start(group)))

    def parse(self) -> MultiPoly:
        i, degree, terms = self.expr(0)
        if self.tokens[i][0]:
            self.fail(i, "unexpected token at position {}")
        return MultiPoly(self.context, degree, terms)

    def expr(self, i: int) -> tuple:
        """(next token, degree, terms) of the sum from token i, its terms added
        into one dict as MultiPoly.add would add them one at a time: a zero
        sum takes the degree of the next term."""
        ctx, tokens = self.context, self.tokens
        K, n, p = ctx.field, ctx.n, ctx.field.p
        out: dict = {}
        sign = 1
        while True:
            num, den, exps, polys = sign, 1, [0] * (n + 1), []
            while True:  # a factor: "-"* atom ["^" integer], then "*" or the term's end
                tok, a, b, k, m, star = tokens[i]
                i += 1
                if tok == "-":
                    num = -num
                    continue
                if a and (star or tokens[i][0] != "^"):
                    num *= int(a)
                    if b:
                        if not (int(b) % p if p else int(b)):
                            raise FieldError("division by zero")
                        den *= int(b)
                elif k:
                    if int(k) > n:
                        raise HsfError(f"variable x{int(k)} exceeds ambient dimension n = {n}")
                    power = 1
                    if m or not star and tokens[i][0] == "^":
                        i, power, star = self.power(i, None, m, star)
                    exps[int(k)] += power
                else:
                    if a:
                        base = MultiPoly.constant(ctx, K.parse_scalar(tok))
                    elif tok == "(":
                        i, *inner = self.expr(i)
                        if tokens[i][0] != ")":
                            self.fail(i, "expected ')' at position {}")
                        base = MultiPoly(ctx, *inner)
                        i += 1
                    else:
                        self.fail(i - 1, f"unexpected token {tok!r} at position {{}}")
                    if tokens[i][0] == "^":
                        i, base, star = self.power(i, base, "", star)
                    polys.append(base)
                if not star:
                    if tokens[i][0] != "*":
                        break
                    i += 1
            c = num * pow(den, -1, p) % p if p else rational(num, den)
            term_degree, terms = sum(exps), ((tuple(exps), c),) if c else ()
            if polys:
                product = polys[0]
                for P in polys[1:]:
                    product = product.mul(P)
                term_degree += product.total_degree
                terms = [(tuple(map(add, e, exps)), K.mul(c, v)) for e, v in product.terms.items()] if c else ()
            if not out:
                degree = term_degree
            elif terms and term_degree != degree:
                raise HsfError(f"degree mismatch: {degree} vs {term_degree}")
            for key, c in terms:
                prev = out.get(key)
                if prev is None:
                    out[key] = c
                elif K.is_zero(total := K.add(prev, c)):
                    del out[key]
                else:
                    out[key] = total
            if tokens[i][0] not in ("+", "-"):
                return i, degree, out
            sign = -1 if tokens[i][0] == "-" else 1
            i += 1

    def power(self, i: int, base, m: str, star: str) -> tuple:
        """(next token, power, star) of base (a MultiPoly, or None for a
        variable, whose exponent is the power) by the exponent m folded into
        token i - 1, or else by the integer after the "^" at token i.  A zero
        or constant base is raised in one step; any other is refused past
        the expected degree before any multiplication."""
        at, group = i - 1, 5
        if not m:
            _, m, b, _, _, star = self.tokens[i + 1]
            if not m or b:
                self.fail(i + 1, "expected integer exponent at position {}")
            i, at, group = i + 2, i + 1, 1
        m, K = int(m), self.context.field
        if base is not None and (base.is_zero() or base.total_degree == 0):
            c = next(iter(base.terms.values()), K.zero)
            # |c|^m has at least m * bits + 1 bits, and 10^limit 3.33 * limit
            bits = 0 if K.p else max(abs(c.numerator).bit_length(), c.denominator.bit_length()) - 1
            if self.limit and m * bits > 4 * self.limit:
                self.fail(at, f"power at position {{}} has more than {self.limit} digits", group)
            return i, MultiPoly.constant(self.context, c**m if K.p is None else pow(c, m, K.p)), star
        if (1 if base is None else base.total_degree) * m > self.degree:
            self.fail(at, f"power at position {{}} above the expected degree {self.degree}", group)
        if base is None:
            return i, m, star
        out = MultiPoly.constant(self.context, K.one)
        for _ in range(m):
            out = out.mul(base)
        return i, out, star


def parse_poly(text: str, context: CurveContext, expected_degree: int) -> MultiPoly:
    """Parse text into a homogeneous MultiPoly of the expected degree."""
    try:
        raw = _Parser(text.strip(), context, expected_degree).parse()
    except RecursionError:  # one frame per parenthesis
        raise HsfError("parentheses nested too deeply") from None
    if raw.is_zero():
        return MultiPoly.zero(context, expected_degree)
    if raw.total_degree != expected_degree:
        raise HsfError(f"expected degree {expected_degree}, parsed degree {raw.total_degree}")
    return raw


def format_poly(p: MultiPoly) -> str:
    if p.is_zero():
        return "0"
    K = p.context.field
    out = []
    for exp in sorted(p.terms, key=_grlex_key, reverse=True):
        factors = [f"x{v}" if a == 1 else f"x{v}^{a}" for v, a in enumerate(exp) if a]
        txt = K.format_scalar(p.terms[exp])
        neg = txt.startswith("-")
        if neg:
            txt = txt[1:]
        body = "*".join(factors if factors and txt == "1" else [txt, *factors])
        out.append((" - " if neg else " + ") + body if out else ("-" if neg else "") + body)
    return "".join(out)


# -- hypersurface files -----------------------------------------------------------
#
# UTF-8 text: header lines `d = <int>`, `e = <int>`, `n = <int>`, optional
# `field = rational | prime:<p>`; body lines `Q <i> <j> : <poly>` and
# `X <k> : <poly>`; `#` starts a comment.  Each header line appears at most once.

_HEADER = re.compile(r"(d|e|n)\s*=\s*(-?\d+)")
_FIELD = re.compile(r"(field)\s*=\s*(\S+)")
_QUADRIC = re.compile(r"Q\s+(\d+)\s+(\d+)\s*:\s*(.+)")
_LINEAR = re.compile(r"X\s+(\d+)\s*:\s*(.+)")


def parse_hypersurface(text: str, field: FieldSpec | None = None) -> IdealCombination:
    """Parse ``.hsf`` text; anything wrong with it raises HsfError (or a
    FieldError or CurveContextError for the field and header values)."""
    from .fields import parse_field

    def integer(digits: str, lineno: int) -> int:
        try:
            return int(digits)
        except ValueError:  # more digits than Python reads (sys.get_int_max_str_digits())
            raise HsfError(f"line {lineno}: number has too many digits") from None

    header: dict = {}
    body: list[tuple] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _QUADRIC.fullmatch(line)
        if m:
            body.append(("Q", integer(m.group(1), lineno), integer(m.group(2), lineno), m.group(3), lineno))
            continue
        m = _LINEAR.fullmatch(line)
        if m:
            body.append(("X", integer(m.group(1), lineno), None, m.group(2), lineno))
            continue
        m = _HEADER.fullmatch(line) or _FIELD.fullmatch(line)
        if not m:
            raise HsfError(f"line {lineno}: cannot parse {raw!r}")
        key, value = m.groups()
        value = parse_field(value) if key == "field" else integer(value, lineno)
        if key in header:
            raise HsfError(f"line {lineno}: duplicate header '{key}'")
        header[key] = value
    for key in ("d", "e", "n"):
        if key not in header:
            raise HsfError(f"missing header line '{key} = <int>'")
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
    try:
        return IdealCombination(ctx, quadric, linear)
    except PolyError as exc:  # an index outside the curve's ideal generators
        raise HsfError(str(exc)) from None


def format_hypersurface(F: IdealCombination) -> str:
    ctx = F.context
    lines = [f"d = {ctx.d}", f"e = {ctx.e}", f"n = {ctx.n}", f"field = {ctx.field}"]
    for (i, j), poly in sorted(F.quadric_coeffs.items()):
        lines.append(f"Q {i} {j} : {format_poly(poly)}")
    for k, poly in sorted(F.linear_coeffs.items()):
        lines.append(f"X {k} : {format_poly(poly)}")
    return "\n".join(lines) + "\n"

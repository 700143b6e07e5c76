"""Splitting types of vector bundles on the projective line and the catalog of
predicted restricted-tangent-bundle splittings for hypersurfaces through
rational normal curves.

A splitting type is the non-decreasing integer multiset {a_1 <= ... <= a_r} of
the unique decomposition E = ⊕ O(a_i).  Balanced means max - min <= 1.
"""

from __future__ import annotations

import json
import re


class SplittingError(ValueError):
    pass


class SplittingType:
    __slots__ = ("parts",)

    def __init__(self, parts: tuple):
        self.parts = tuple(sorted(map(int, parts)))

    def __eq__(self, other) -> bool:
        return isinstance(other, SplittingType) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"SplittingType(parts={self.parts})"

    @property
    def rank(self) -> int:
        return len(self.parts)

    @property
    def degree(self) -> int:
        return sum(self.parts)

    def is_balanced(self) -> bool:
        return not self.parts or self.parts[-1] - self.parts[0] <= 1

    def __str__(self) -> str:
        return format_splitting(self)

    def __iter__(self):
        return iter(self.parts)


def balanced_of(rank: int, degree: int) -> SplittingType:
    """The unique balanced splitting of the given rank and degree:
    (rank - rem) copies of q then rem copies of q+1, q = floor(degree/rank)."""
    if rank < 1:
        raise SplittingError(f"rank {rank} < 1")
    q, rem = divmod(degree, rank)  # Python floor division: floor toward -inf
    return SplittingType((q,) * (rank - rem) + (q + 1,) * rem)


def specializes_to(general: SplittingType, special: SplittingType) -> bool:
    """Dominance of ascending partial sums; requires equal rank and degree."""
    if general.rank != special.rank or general.degree != special.degree:
        return False
    acc_g = acc_s = 0
    for a, b in zip(general.parts, special.parts):
        acc_g += a
        acc_s += b
        if acc_g < acc_s:
            return False
    return True


def glue_bound(A: SplittingType, B: SplittingType) -> SplittingType:
    """Most-unbalanced smoothing bound of a two-component gluing: index-wise
    sums of the (sorted) parts."""
    if A.rank != B.rank:
        raise SplittingError(f"rank mismatch: {A.rank} vs {B.rank}")
    return SplittingType(tuple(a + b for a, b in zip(A.parts, B.parts)))


def interpolation_count(S: SplittingType) -> int:
    """Number of general points deformations can interpolate: a_1 + 1."""
    if not S.parts:
        raise SplittingError("interpolation count of the rank-0 splitting")
    return S.parts[0] + 1


# The largest rank built from a number in argv: n in a cell, and the total
# multiplicity of an O(a)^k text.  A splitting is stored part by part, so a
# short argv could otherwise ask for gigabytes; compute and verify finish far
# below it.
MAX_RANK = 10_000


def _check_cell(d: int, e: int, n: int) -> None:
    """Refuse a (d, e, n) outside the catalog: d >= 2, n >= 3, 1 <= e <= n,
    and n <= MAX_RANK."""
    if d < 2 or n < 3 or not 1 <= e <= n:
        raise SplittingError(f"parameters out of range: d={d}, e={e}, n={n}")
    if n > MAX_RANK:
        raise SplittingError(f"n={n} is above the largest supported n, {MAX_RANK}")


def expected_max(d: int, e: int, n: int) -> int:
    """floor(e(n+1-d)/(n-1)) + 1, floor toward -inf, for a cell of the catalog."""
    _check_cell(d, e, n)
    return e * (n + 1 - d) // (n - 1) + 1


# -- text and JSON forms ---------------------------------------------------------


def format_splitting(S: SplittingType) -> str:
    """Collected-exponent form, e.g. O(4) + O(5)^3."""
    if not S.parts:
        return "0"
    out = []
    i = 0
    while i < len(S.parts):
        j = i
        while j < len(S.parts) and S.parts[j] == S.parts[i]:
            j += 1
        k = j - i
        out.append(f"O({S.parts[i]})" + (f"^{k}" if k > 1 else ""))
        i = j
    return " + ".join(out)


def splitting_to_json(S: SplittingType) -> list[int]:
    return list(S.parts)


def parse_splitting(text: str) -> SplittingType:
    """Accept the JSON array form or the O(a)^k text form."""
    text = text.strip()
    if text.startswith("["):
        try:
            arr = json.loads(text)
        except ValueError as exc:  # also an int of more digits than Python converts
            raise SplittingError(f"bad splitting array: {text!r} ({exc})") from None
        if not isinstance(arr, list) or not all(type(x) is int for x in arr):  # a bool is an int
            raise SplittingError(f"bad splitting array: {text!r}")
        return SplittingType(tuple(arr))
    parts: list[int] = []
    for piece in text.split("+"):
        m = re.match(r"^\s*O\(\s*(-?\d+)\s*\)(?:\^(\d+))?\s*$", piece)
        if not m:
            raise SplittingError(f"bad splitting component {piece!r}")
        try:
            a, k = int(m.group(1)), int(m.group(2) or 1)
        except ValueError:  # more digits than Python converts to an int
            raise SplittingError(f"bad splitting component {piece!r}") from None
        if len(parts) + k > MAX_RANK:
            raise SplittingError(f"splitting of rank above {MAX_RANK} at {piece.strip()!r}")
        parts.extend([a] * k)
    return SplittingType(tuple(parts))


# -- the theorem catalog -----------------------------------------------------------

EXACT = "exact"
BALANCED = "balanced"
NOT_BALANCED = "not-balanced"


class Prediction:
    __slots__ = ("verdict", "splitting", "provenance")

    def __init__(self, verdict: str, splitting: SplittingType | None, provenance: str):
        self.verdict, self.splitting, self.provenance = verdict, splitting, provenance


def most_general(rank: int, degree: int) -> SplittingType:
    """M: balanced_of(rank, degree) if its top part, ceil(degree / rank), is
    >= 2, that is, if degree > rank; else balanced_of(rank - 1, degree - 2)
    + O(2) (a SplittingError at rank 1, where no type of degree < 2 has a
    part >= 2).

    Lemma: M is the most general type of rank r and degree D with a part
    >= 2, that is, specializes_to(M, S) for every such S.  Let P_k(T) be the
    sum of the k smallest parts of T.  (1) B = balanced_of(r, D), with parts
    q and q + 1, has P_k(B) >= P_k(S) for every S of rank r and degree D: if
    the k-th smallest part of S is <= q, then P_k(S) <= kq <= P_k(B); if not,
    the other r - k parts of S are >= q + 1, those of B sum to at most
    (r - k)(q + 1), and both types sum to D.  (2) If B's top part is >= 2,
    then M = B.  Otherwise D <= r.  Let a >= 2 be the top part of S and S'
    its other parts; r >= 2, since a rank-1 S has D = a > r.  The parts of
    balanced_of(r - 1, D - 2) are <= 1, so O(2) is M's top part.  A balanced
    type's P_k does not fall as its degree grows, so by (1), for k < r,
    P_k(M) = P_k(balanced_of(r - 1, D - 2)) >= P_k(balanced_of(r - 1, D - a))
    >= P_k(S') = P_k(S), and P_r(M) = D = P_r(S)."""
    if degree > rank:
        return balanced_of(rank, degree)
    return SplittingType(balanced_of(rank - 1, degree - 2).parts + (2,))


def predicted_splitting(d: int, e: int, n: int) -> Prediction:
    """Predicted splitting type or balancedness verdict for the restricted
    tangent bundle of the degree-e rational normal curve on a general degree-d
    hypersurface in P^n, with the tag of the published case it falls in.

    One rule gives every exact type: most_general(n - 1, D), D = e(n + 1 - d),
    except that quadrics with odd e have [e - 1, e, ..., e, e + 1].  So the
    general T_X|_C is predicted balanced exactly when D >= n, unless d = 2 and
    e is odd.  For d >= 5 off the diagonal e = n >= 2d - 2, the type is exact
    only while the normal slope (D - 2)/(n - 2) is at most 3; below 1 it is
    not balanced, and above 3 balanced.  The published case lists are the
    test oracle (tests/helpers.py)."""
    _check_cell(d, e, n)
    D = e * (n + 1 - d)
    if d == 2:
        if e % 2:
            return Prediction(EXACT, SplittingType((e - 1,) + (e,) * (n - 3) + (e + 1,)), "thm:quadrics:odd")
        tag = "thm:quadrics:even"
    elif d <= 4:
        theorem = "thm:cubics:" if d == 3 else "thm:quartics:"
        if e < d:  # a tag per n up to n = 3 (cubics) or n = e + 3 (quartics), then "-high"
            tag = f"{theorem}e{e}-" + (f"n{n}" if n <= (3 if d == 3 else e + 3) else "high")
        elif n == e:
            tag = theorem + "case-n-eq-e"
        else:
            tag = theorem + ("case-n-gt-e" if d == 3 else "case-mid" if n <= 2 * e + 1 else "case-high")
    elif e == n >= 2 * d - 2:
        tag = "thm:general:e-eq-n"
    elif D < n:
        return Prediction(NOT_BALANCED, None, "cor:slope-split:unbalanced")
    elif D - 2 > 3 * (n - 2):
        return Prediction(BALANCED, None, "thm:balanced-range")
    else:
        tag = "cor:slope-split"
    return Prediction(EXACT, most_general(n - 1, D), tag)

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


def _check_cell(d: int, e: int, n: int) -> None:
    """Refuse a (d, e, n) outside the catalog: d >= 2, n >= 3, 1 <= e <= n."""
    if d < 2 or n < 3 or not 1 <= e <= n:
        raise SplittingError(f"parameters out of range: d={d}, e={e}, n={n}")


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
        except json.JSONDecodeError as exc:
            raise SplittingError(f"bad splitting array: {text!r} ({exc})") from None
        if not isinstance(arr, list) or not all(type(x) is int for x in arr):  # a bool is an int
            raise SplittingError(f"bad splitting array: {text!r}")
        return SplittingType(tuple(arr))
    parts: list[int] = []
    for piece in text.split("+"):
        m = re.match(r"^\s*O\(\s*(-?\d+)\s*\)(?:\^(\d+))?\s*$", piece)
        if not m:
            raise SplittingError(f"bad splitting component {piece!r}")
        parts.extend([int(m.group(1))] * int(m.group(2) or 1))
    return SplittingType(tuple(parts))


# -- the theorem catalog -----------------------------------------------------------

EXACT = "exact"
BALANCED = "balanced"
NOT_BALANCED = "not-balanced"


class Prediction:
    __slots__ = ("verdict", "splitting", "provenance")

    def __init__(self, verdict: str, splitting: SplittingType | None, provenance: str):
        self.verdict, self.splitting, self.provenance = verdict, splitting, provenance


def _exact(parts, tag: str) -> Prediction:
    return Prediction(EXACT, SplittingType(tuple(parts)), tag)


def predicted_splitting(d: int, e: int, n: int) -> Prediction:
    """Predicted splitting type or balancedness verdict for the restricted
    tangent bundle of the degree-e rational normal curve on a general degree-d
    hypersurface in P^n.  Encodes the published case lists exactly, and every
    cell gets a verdict.

    For d >= 5 past the e = n and slope-split cases, e(n+1-d) - 2 > 3(n-2) > 0
    (n >= 3).  So e(n+1-d) > 3n - 4 >= n - 1, and n + 1 - d > 0 with e > 0,
    so n >= d: every such cell is in the balanced range."""
    _check_cell(d, e, n)

    if d == 2:
        if e % 2 == 0:
            return _exact([e] * (n - 1), "thm:quadrics:even")
        return _exact([e - 1] + [e] * (n - 3) + [e + 1], "thm:quadrics:odd")

    if d == 3:
        if e == 1:
            if n == 3:
                return _exact([-1, 2], "thm:cubics:e1-n3")
            return _exact([0, 0] + [1] * (n - 4) + [2], "thm:cubics:e1-high")
        if e == 2:
            if n == 3:
                return _exact([0, 2], "thm:cubics:e2-n3")
            return _exact([1, 1] + [2] * (n - 3), "thm:cubics:e2-high")
        if n == e:
            return _exact([e - 2] + [e - 1] * (e - 2), "thm:cubics:case-n-eq-e")
        return _exact([e - 1] * e + [e] * (n - e - 1), "thm:cubics:case-n-gt-e")

    if d == 4:
        if e == 1:
            if n == 3:
                return _exact([-2, 2], "thm:quartics:e1-n3")
            if n == 4:
                return _exact([-1, 0, 2], "thm:quartics:e1-n4")
            return _exact([0, 0, 0] + [1] * (n - 5) + [2], "thm:quartics:e1-high")
        if e == 2:
            if n == 3:
                return _exact([-2, 2], "thm:quartics:e2-n3")
            if n == 4:
                return _exact([0, 0, 2], "thm:quartics:e2-n4")
            if n == 5:
                return _exact([0, 1, 1, 2], "thm:quartics:e2-n5")
            return _exact([1] * 4 + [2] * (n - 5), "thm:quartics:e2-high")
        if e == 3:
            if n == 3:
                return _exact([-2, 2], "thm:quartics:e3-n3")
            if n == 4:
                return _exact([0, 1, 2], "thm:quartics:e3-n4")
            if n == 5:
                return _exact([1, 1, 2, 2], "thm:quartics:e3-n5")
            if n == 6:
                return _exact([1, 2, 2, 2, 2], "thm:quartics:e3-n6")
            return _exact([2] * 6 + [3] * (n - 7), "thm:quartics:e3-high")
        if n == e:
            return _exact([e - 3] * 2 + [e - 2] * (e - 3), "thm:quartics:case-n-eq-e")
        if n <= 2 * e + 1:
            return _exact(
                [e - 2] * (2 * e - n + 1) + [e - 1] * (2 * (n - e - 1)),
                "thm:quartics:case-mid",
            )
        return _exact([e - 1] * (2 * e) + [e] * (n - 2 * e - 1), "thm:quartics:case-high")

    # d >= 5
    if e == n and n >= 2 * d - 2:
        return _exact(
            [n + 1 - d] * (d - 2) + [n + 2 - d] * (n - d + 1), "thm:general:e-eq-n"
        )
    # slope of the balanced normal bundle: (e(n+1-d) - 2) / (n - 2)
    mu_num = e * (n + 1 - d) - 2
    mu_den = n - 2
    if mu_num <= 3 * mu_den:
        if mu_num < mu_den:
            return Prediction(NOT_BALANCED, None, "cor:slope-split:unbalanced")
        parts = list(balanced_of(n - 2, mu_num).parts) + [2]
        return _exact(parts, "cor:slope-split")
    return Prediction(BALANCED, None, "thm:balanced-range")

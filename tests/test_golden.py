"""Byte-exact outputs over Q that print kernel, N and J matrices: compute
prints only the kernel's splitting, so these pin the matrices themselves."""

import runpy
from pathlib import Path

import pytest

from rncsplit import cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"


def test_worked_examples_golden(capsys):
    runpy.run_path(str(ROOT / "scripts" / "worked_examples.py"), run_name="__main__")
    assert capsys.readouterr().out == (GOLDEN / "worked_examples.txt").read_text(encoding="utf-8")


def test_extend_json_golden(capsys):
    assert cli.main(["extend", "--d", "3", "--e", "3", "--to-n", "5", "--format", "json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "extend_d3_e3_n5.json").read_text(encoding="utf-8")


# a J2 step and then J1 steps over GF(32003), over Q and over GF(3), where
# sums cancel; J0 steps, whose g is zero, over Q
_LONG_EXTENDS = {
    "extend_d4_e5_n9_gf32003.json": ["--d", "4", "--e", "5", "--to-n", "9", "--field", "prime:32003"],
    "extend_d4_e5_n9_q.json": ["--d", "4", "--e", "5", "--to-n", "9", "--field", "rational"],
    "extend_d4_e5_n8_gf3.json": ["--d", "4", "--e", "5", "--to-n", "8", "--field", "prime:3"],
    "extend_d3_e5_n9_q.json": ["--d", "3", "--e", "5", "--to-n", "9", "--field", "rational"],
}


@pytest.mark.parametrize("name", sorted(_LONG_EXTENDS))
def test_long_extend_json_golden(capsys, name):
    assert cli.main(["extend", *_LONG_EXTENDS[name], "--format", "json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text(encoding="utf-8")


# hypersurfaces whose coefficients are not integers: every map printed
# from them holds fractions, and the extension steps are J1 steps
FRACTIONAL_QUINTIC = """d = 5
e = 3
n = 4
Q 1 2 : 1/2*x0^3 + 2/3*x1*x2^2
Q 2 3 : -3/4*x3^3 + 5/7*x0*x1*x2
X 4 : 1/3*x0^4 - 2/5*x3^4
"""
FRACTIONAL_CUBIC = """d = 3
e = 4
n = 4
Q 1 2 : 1/2*x0
Q 2 3 : -2/3*x2
Q 3 4 : 3/4*x4 + 1/5*x1
"""


def test_compute_fractional_json_golden(capsys, tmp_path):
    hsf = tmp_path / "quintic.hsf"
    hsf.write_text(FRACTIONAL_QUINTIC, encoding="utf-8")
    assert cli.main(["compute", "--poly", str(hsf), "--format", "json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "compute_frac_d5_e3_n4_q.json").read_text(encoding="utf-8")


def test_extend_fractional_json_golden(capsys, tmp_path):
    hsf = tmp_path / "cubic.hsf"
    hsf.write_text(FRACTIONAL_CUBIC, encoding="utf-8")
    assert cli.main(["extend", "--poly", str(hsf), "--to-n", "8", "--format", "json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "extend_frac_d3_e4_n8_q.json").read_text(encoding="utf-8")


def _kernel_cases():
    """(label, one-row map) pairs whose kernel matrices are pinned: the
    compute catalog seeds and the README quintic over Q, the cubic and
    quartic seeds over GF(32003) (every seed of the chains-gf workload), those
    of degree e prime to p over GF(2) and GF(3), two dense random surfaces
    over Q, and three unbalanced one-row maps."""
    import random

    from rncsplit.constructor import build_chain, seed_example
    from rncsplit.fields import FieldSpec, RATIONALS
    from rncsplit.multipoly import CurveContext, parse_hypersurface
    from rncsplit.sheafmap import build_delta
    from tests.helpers import dense_combination, from_rows

    GF = FieldSpec(32003)
    catalog = [(2, 4, 8), (2, 6, 10), (3, 3, 3), (3, 4, 4), (3, 5, 5), (3, 6, 6), (4, 4, 4), (4, 5, 5), (4, 6, 6)]
    for d, e, n in catalog:
        yield f"catalog d={d} e={e} n={n} over Q", build_delta(build_chain(d, e, n, RATIONALS)[0])
    quintic = (ROOT / "perfbench" / "inputs" / "quintic.hsf").read_text(encoding="utf-8")
    yield "README quintic over Q", build_delta(parse_hypersurface(quintic))
    for d, e in ((3, 3), (3, 4), (3, 5), (3, 6), (4, 4), (4, 5), (4, 6)):  # quartics start at e = 4
        yield f"seed d={d} e={e} over GF(32003)", build_delta(seed_example(d, e, GF))
    for d, e in ((3, 7), (3, 8), (4, 7), (4, 8)):
        yield f"seed d={d} e={e} over GF(32003)", build_delta(seed_example(d, e, GF))
    for p in (2, 3):
        for d in (3, 4):
            for e in range(d, 9):
                if e % p:
                    yield f"seed d={d} e={e} over GF({p})", build_delta(seed_example(d, e, FieldSpec(p)))
    for shape in ((3, 3, 5), (6, 8, 10)):
        F = dense_combination(random.Random(1), CurveContext(*shape, RATIONALS))
        yield f"dense {shape} seed 1 over Q", build_delta(F)
    # O(-1) + O(-3); the same row times t, onto nowhere along t = 0; and a
    # zero column, O(1) + O(-1), over GF(7)
    yield "unbalanced (s^4, 2/3 t^4 + s^2 t^2, 5/7 s^3 t) over Q", from_rows(
        [["s^4", "2/3*t^4 + s^2*t^2", "5/7*s^3*t"]], (0, 0, 0), (4,)
    )
    yield "unbalanced (s^4 t, t^5, s^3 t^2) over Q", from_rows([["s^4*t", "t^5", "s^3*t^2"]], (0, 0, 0), (5,))
    yield "unbalanced (s, 3t, 0) over GF(7)", from_rows([["s", "3*t", "0"]], (2, 2, -1), (3,), FieldSpec(7))


def kernel_golden_text() -> str:
    from rncsplit.sheafmap import format_map, kernel_matrix

    return "".join(f"# {label}\n{format_map(kernel_matrix(M))}" for label, M in _kernel_cases())


def test_kernel_matrix_golden():
    assert kernel_golden_text() == (GOLDEN / "kernel_matrices.txt").read_text(encoding="utf-8")


def seeds_golden_text() -> str:
    """Every constructive seed over Q with d <= 9 and e <= 24: quadric chains
    from e = 2, cubics from e = 3, quartics from e = 4, and the d >= 5
    ladders from e = 2d - 2."""
    from rncsplit.constructor import seed_example
    from rncsplit.fields import RATIONALS
    from rncsplit.multipoly import format_hypersurface

    return "".join(
        format_hypersurface(seed_example(d, e, RATIONALS))
        for d in range(2, 10)
        for e in range({2: 2, 3: 3, 4: 4}.get(d, 2 * d - 2), 25)
    )


def test_seeds_golden():
    assert seeds_golden_text() == (GOLDEN / "seeds.txt").read_text(encoding="utf-8")

import argparse
import contextlib
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from perfbench import workloads
from rncsplit import cli
from rncsplit.binform import DegreeError
from rncsplit.multipoly import PolyError
from rncsplit.sheafmap import MapError
from tests.helpers import full_parser, maps_equal, poly_variable

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_generated_cubic(capsys):
    code, out, _ = run(capsys, "compute", "--d", "3", "--e", "3", "--n", "3")
    assert code == 0
    assert "T_X|_C = O(1) + O(2)" in out
    assert "interpolation: 2 point(s), expected max 2" in out
    assert "smooth along curve: yes" in out


def test_compute_quintic_from_file(capsys, tmp_path):
    hsf = tmp_path / "quintic.hsf"
    hsf.write_text("d = 5\ne = 3\nn = 3\nQ 1 2 : x0^3\nQ 2 3 : x3^3\n")
    code, out, _ = run(capsys, "compute", "--poly", str(hsf))
    assert code == 0
    assert "T_X|_C = O(-5) + O(2)  (not balanced)" in out
    assert "N_C/X  = O(-5)" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_compute_singular_along_curve_exit_2(capsys, tmp_path, fmt):
    # F = Q_{1,2}^2 is singular along all of C: delta = 0, and ker delta is
    # T_{P^3}|_C, not T_X|_C, so no splitting may be printed
    hsf = tmp_path / "singular.hsf"
    hsf.write_text("d = 4\ne = 3\nn = 3\nQ 1 2 : x1^2 - x0*x2\n")
    code, out, err = run(capsys, "compute", "--poly", str(hsf), "--format", fmt)
    assert code == 2
    assert out == ""
    assert "singular along the curve" in err


QUINTIC_HSF = "d = 5\ne = 3\nn = 3\nQ 1 2 : x0^3\nQ 2 3 : x3^3\n"
SINGULAR_HSF = "d = 4\ne = 3\nn = 3\nQ 1 2 : x1^2 - x0*x2\n"


@pytest.mark.parametrize(
    "body, code, scans",
    [(QUINTIC_HSF, 0, 2), ("d = 3\ne = 3\nn = 3\nQ 1 2 : x0\nQ 2 3 : x3\n", 0, 2), (SINGULAR_HSF, 2, 1)],
    ids=["quintic", "cubic", "singular"],
)
def test_compute_scans_delta_and_psi_only(capsys, monkeypatch, tmp_path, body, code, scans):
    # compute reads smoothness off the degree of the scanned ker delta and
    # the certificates off its splitting: one scan of delta, one of psi (none
    # once delta shows X singular), no kernel matrix, no second smoothness
    # scan and no gcd (the gcd oracle lives in the tests only)
    from rncsplit import constructor, sheafmap
    from tests import helpers

    def refused(*args):
        raise AssertionError("compute must not call this")

    for module, name in [
        (sheafmap, "kernel_matrix"),
        (constructor, "kernel_matrix"),
        (sheafmap, "certify_kernel"),
        (sheafmap, "check_smooth_along_curve"),
        (helpers, "bf_gcd"),
        (helpers, "onto_everywhere"),
    ]:
        monkeypatch.setattr(module, name, refused)
    scanned = []
    real = sheafmap._nullity_scan

    def recording(M, *args, **kwargs):
        scanned.append(M)
        return real(M, *args, **kwargs)

    monkeypatch.setattr(sheafmap, "_nullity_scan", recording)
    hsf = tmp_path / "case.hsf"
    hsf.write_text(body)
    assert run(capsys, "compute", "--poly", str(hsf), "--format", "json")[0] == code
    assert len(scanned) == scans


def _kernel_matrix_oracle_cases():
    from rncsplit.constructor import build_chain
    from rncsplit.fields import FieldSpec, RATIONALS
    from rncsplit.multipoly import CurveContext, parse_hypersurface
    from tests.helpers import dense_combination

    # the benchmark's compute-q catalog seeds, then the README quintic
    for d, e, n in [(2, 4, 8), (2, 6, 10), (3, 3, 3), (3, 4, 4), (3, 5, 5), (3, 6, 6), (4, 4, 4), (4, 5, 5), (4, 6, 6)]:
        yield f"{d}-{e}-{n}", build_chain(d, e, n, RATIONALS)[0]
    yield "quintic", parse_hypersurface(QUINTIC_HSF)
    rnd = random.Random(16)
    for field in (RATIONALS, FieldSpec(32003)):
        for d, e, n in [(3, 3, 3), (3, 4, 4), (3, 3, 5), (4, 3, 4), (2, 5, 6)]:
            yield f"dense-{field}-{d}-{e}-{n}", dense_combination(rnd, CurveContext(d, e, n, field))


def test_compute_kernel_source_matches_kernel_matrix(capsys, tmp_path):
    # the old path as oracle: the source of the certified kernel matrix of
    # delta is the kernel_source compute reads off the scanned splitting
    from rncsplit.multipoly import format_hypersurface
    from rncsplit.sheafmap import build_delta, check_smooth_along_curve, kernel_matrix

    for label, F in _kernel_matrix_oracle_cases():
        hsf = tmp_path / f"{label}.hsf"
        hsf.write_text(format_hypersurface(F))
        code, out, _ = run(capsys, "compute", "--poly", str(hsf), "--format", "json")
        assert check_smooth_along_curve(F), label
        assert code == 0, label
        certificates = json.loads(out)["certificates"]
        assert certificates["kernel_source"] == list(kernel_matrix(build_delta(F)).source), label


def test_readme_hsf_example(capsys, tmp_path):
    text = README.read_text(encoding="utf-8").split("Hypersurface files (`.hsf`)", 1)[1]
    block = re.search(r"```\n(.*?)```", text, re.S).group(1)
    hsf = tmp_path / "readme.hsf"
    hsf.write_text(block)
    code, out, _ = run(capsys, "compute", "--poly", str(hsf))
    assert code == 0
    assert "case d=5 e=3 n=4 over rational" in out
    assert "smooth along curve: yes" in out


@pytest.mark.parametrize("d, e, n, p", [(3, 3, 3, 2), (2, 5, 7, 3), (4, 6, 6, 5), (4, 5, 5, 7)])
def test_compute_over_small_prime_matches_rationals(capsys, d, e, n, p):
    argv = ["compute", "--d", str(d), "--e", str(e), "--n", str(n), "--format", "json"]
    code, out, _ = run(capsys, *argv, "--field", f"prime:{p}")
    assert code == 0
    code, rational_out, _ = run(capsys, *argv)
    assert code == 0
    small, rational = json.loads(out), json.loads(rational_out)
    assert small["params"]["field"] == f"prime:{p}"
    for key in ("T_splitting", "N_splitting"):
        assert small[key] == rational[key]


def test_compute_json_matches_text(capsys, tmp_path):
    code, text_out, _ = run(capsys, "compute", "--d", "2", "--e", "5", "--n", "7")
    assert code == 0
    code, json_out, _ = run(capsys, "compute", "--d", "2", "--e", "5", "--n", "7", "--format", "json")
    assert code == 0
    rep = json.loads(json_out)
    assert rep["T_splitting"] == [4, 5, 5, 5, 5, 6]
    assert rep["interpolation"] == 5
    assert rep["expected"] == 6
    assert "O(4) + O(5)^4 + O(6)" in text_out
    assert "interpolation: 5 point(s), expected max 6" in text_out


def test_compute_bad_file_exit_2(capsys, tmp_path):
    hsf = tmp_path / "bad.hsf"
    hsf.write_text("d = 3\nnonsense\n")
    code, _, err = run(capsys, "compute", "--poly", str(hsf))
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("command", [["compute"], ["extend", "--to-n", "5"]])
def test_non_utf8_file_exit_2(capsys, tmp_path, command):
    hsf = tmp_path / "latin1.hsf"
    hsf.write_bytes(b"d = 3\ne = 3\nn = 3\nQ 1 2 : x0 \xff\n")
    code, out, err = run(capsys, *command, "--poly", str(hsf))
    assert (code, out) == (2, "")
    assert err == f"error: {hsf} is not UTF-8 text (invalid start byte: 0xff)\n"


@pytest.mark.parametrize("command", [["compute"], ["extend", "--to-n", "5"]])
def test_byte_order_mark_is_ignored(capsys, tmp_path, command):
    plain, marked = tmp_path / "plain.hsf", tmp_path / "marked.hsf"
    text = "d = 3\ne = 3\nn = 3\nQ 1 2 : x0\nQ 2 3 : x3\n"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    want = run(capsys, *command, "--poly", str(plain))
    assert want[0] == 0
    assert run(capsys, *command, "--poly", str(marked)) == want


@pytest.mark.parametrize("body", ["(x0+x1)^999999", "x0^999999"])
def test_compute_huge_power_exit_2_fast(capsys, tmp_path, body):
    # the parser refuses the power before multiplying it out
    hsf = tmp_path / "power.hsf"
    hsf.write_text(f"d = 3\ne = 3\nn = 3\nQ 1 2 : {body}\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "compute", "--poly", str(hsf))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert "above the expected degree 1" in err


def test_compute_deeply_nested_parentheses_exit_2(capsys, tmp_path):
    # nesting deeper than Python's recursion limit is an .hsf error, not a traceback
    hsf = tmp_path / "deep.hsf"
    hsf.write_text("d = 5\ne = 3\nn = 3\nQ 1 2 : " + "(" * 3000 + "x0^3" + ")" * 3000 + "\nQ 2 3 : x3^3\n")
    code, out, err = run(capsys, "compute", "--poly", str(hsf))
    assert (code, out) == (2, "")
    assert err == "error: parentheses nested too deeply\n"


@pytest.mark.parametrize(
    "body, why",
    [
        ("2^20000*x0", "power at position 2 has more than 4300 digits"),
        ("7" * 5000 + "*x0", "number at position 0 has more than 4300 digits"),
        ("10^4000*10^4000*x0", "a coefficient has too many digits to print"),
        ("x0^" + "9" * 5000, "number at position 3 has more than 4300 digits"),
    ],
    ids=["power", "literal", "product", "exponent"],
)
def test_compute_coefficient_over_digit_limit_exit_2(capsys, tmp_path, body, why):
    # Python reads and prints ints of at most 4300 digits (its default
    # int_max_str_digits): the parser refuses larger literals and powers, and
    # a larger coefficient made from smaller ones is refused when printed
    assert sys.get_int_max_str_digits() == 4300
    hsf = tmp_path / "big.hsf"
    hsf.write_text(f"d = 3\ne = 3\nn = 3\nQ 1 2 : {body}\nQ 2 3 : x3\n")
    code, out, err = run(capsys, "compute", "--poly", str(hsf))
    assert (code, out) == (2, "")
    assert why in err


def test_compute_report_coefficient_over_digit_limit_exit_2(capsys, tmp_path):
    # every input coefficient has about 400 digits, but psi sums 13 of them
    # over distinct denominators into one with about 5200
    N = 10**399
    monomials = itertools.product(range(9), repeat=4)
    weight12 = [e for e in monomials if sum(e) == 8 and e[1] + 2 * e[2] + 3 * e[3] == 12]
    body = " + ".join(
        f"1/{N + k}*" + "*".join(f"x{v}^{a}" for v, a in enumerate(e) if a) for k, e in enumerate(weight12, 1)
    )
    hsf = tmp_path / "sum.hsf"
    hsf.write_text(f"d = 10\ne = 3\nn = 3\nQ 1 2 : x0^8 + {body}\nQ 2 3 : x3^8\n")
    code, out, err = run(capsys, "compute", "--poly", str(hsf))
    assert (code, out) == (2, "")
    assert "too many digits to print" in err


@pytest.mark.parametrize(
    "body", ["Q 0 1 : x0", "Q 1 2 : x0 + x1*x2", "X " + "4" * 5000 + " : x0^2", "d = " + "3" * 5000]
)
def test_compute_malformed_file_exit_2(capsys, tmp_path, body):
    # a bad index, a degree mismatch in a sum and an unreadable number are
    # errors in the file (HsfError), not internal PolyErrors
    hsf = tmp_path / "bad.hsf"
    hsf.write_text(f"d = 3\ne = 3\nn = 3\n{body}\n")
    code, out, err = run(capsys, "compute", "--poly", str(hsf))
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize("line, key, lineno", [("d = 3", "d", 2), ("e = 3", "e", 3), ("field = prime:7", "field", 7)])
def test_compute_repeated_header_exit_2(capsys, tmp_path, line, key, lineno):
    # a repeated header line is refused, whichever value comes last
    hsf = tmp_path / "repeated.hsf"
    hsf.write_text(f"{line}\n{QUINTIC_HSF}field = rational\n")
    code, out, err = run(capsys, "compute", "--poly", str(hsf))
    assert (code, out) == (2, "")
    assert err == f"error: line {lineno}: duplicate header '{key}'\n"


def test_compute_json_builds_no_text_report(capsys, monkeypatch):
    def refuse(rep):
        raise AssertionError("text report built for --format json")

    monkeypatch.setattr(cli, "_report_text", refuse)
    code, out, _ = run(capsys, "compute", "--d", "3", "--e", "3", "--n", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["T_splitting"] == [1, 2]


def test_compute_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "compute", "--poly", "/nonexistent/q.hsf")
    assert code == 2


def test_compute_char_divides_e_exit_2(capsys):
    code, _, err = run(capsys, "compute", "--d", "2", "--e", "3", "--n", "3", "--field", "prime:3")
    assert code == 2


def test_compute_prime_too_large_exit_2(capsys):
    code, _, err = run(capsys, "compute", "--d", "3", "--e", "3", "--n", "3", "--field", "prime:4294967291")
    assert code == 2
    assert "too large" in err


def test_compute_zero_denominator_exit_2(capsys, tmp_path):
    hsf = tmp_path / "zero.hsf"
    hsf.write_text("d = 3\ne = 3\nn = 3\nQ 1 2 : 1/0*x0\nQ 2 3 : x3\n")
    code, _, err = run(capsys, "compute", "--poly", str(hsf))
    assert code == 2
    assert "division by zero" in err


def test_compute_out_of_range_exit_2(capsys):
    code, _, err = run(capsys, "compute", "--d", "5", "--e", "3", "--n", "4")
    assert code == 2
    assert "error" in err


def test_compute_bad_prime_text_exit_2(capsys):
    code, _, err = run(capsys, "compute", "--d", "3", "--e", "3", "--n", "3", "--field", "prime:abc")
    assert code == 2
    assert "bad prime" in err


@pytest.mark.parametrize("exc", [MapError, DegreeError, PolyError])
def test_internal_error_exits_3(capsys, monkeypatch, exc):
    # polynomials, graded maps and binary forms are built from validated
    # input, so a PolyError, MapError or DegreeError after parsing is a bug,
    # not a usage error
    def broken(M):
        raise exc("injected")

    monkeypatch.setattr(cli, "splitting_of_kernel", broken)
    code, _, err = run(capsys, "compute", "--d", "3", "--e", "3", "--n", "3")
    assert code == 3
    assert "internal error: injected" in err


@pytest.mark.parametrize("field", ["prime:32003", "rational"])
def test_compute_largest_census_cell(capsys, field):
    # d <= 8, n <= 14: the largest cell ends with the catalog splitting
    code, out, _ = run(capsys, "compute", "--d", "8", "--e", "14", "--n", "14", "--field", field, "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["predicted"] == rep["T_splitting"] == [7] * 6 + [8] * 7


def test_verify_small_sweep(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "quadrics", "--max-n", "5")
    assert code == 0
    assert "cases ok" in out
    assert "FAIL" not in out


def test_verify_workers_byte_identical(capsys):
    code1, out1, _ = run(capsys, "verify", "--theorem", "cubics", "--max-n", "5")
    code2, out2, _ = run(capsys, "verify", "--theorem", "cubics", "--max-n", "5", "--workers", "3")
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_verify_workers_below_one_exit_2(capsys, workers):
    code, out, err = run(capsys, "verify", "--theorem", "cubics", "--max-n", "5", "--workers", workers)
    assert (code, out) == (2, "")
    assert err == f"error: --workers {workers} must be at least 1\n"


@pytest.mark.parametrize(
    "theorem, max_n, first",
    [
        (["quadrics"], "2", "e = 2, n = 3"),
        (["quadrics"], "-5", "e = 2, n = 3"),
        (["cubics"], "2", "e = n = 3"),
        (["quartics"], "3", "e = n = 4"),
        (["general", "--d", "5"], "7", "e = n = 8"),
    ],
)
def test_verify_empty_sweep_exit_2(capsys, theorem, max_n, first):
    # a sweep with no case is refused, not reported as "0/0 cases ok"
    code, out, err = run(capsys, "verify", "--theorem", *theorem, "--max-n", max_n)
    assert (code, out) == (2, "")
    assert err == f"error: --max-n {max_n} below the first case {first}\n"


@pytest.mark.parametrize(
    "theorem, max_n, case",
    [
        (["quadrics"], 3, "d=2 e=2 n=3"),
        (["cubics"], 3, "d=3 e=3 n=3"),
        (["quartics"], 4, "d=4 e=4 n=4"),
        (["general", "--d", "5"], 8, "d=5 e=8 n=8"),
    ],
)
def test_verify_runs_from_the_first_case(capsys, theorem, max_n, case):
    code, out, _ = run(capsys, "verify", "--theorem", *theorem, "--max-n", str(max_n))
    assert code == 0
    assert out.startswith(f"ok   {case} ")


@pytest.mark.parametrize("max_n, workers, pools", [(5, "5000", [3]), (5, "2", [2]), (3, "4", [])])
def test_verify_pool_has_one_process_per_chain_at_most(capsys, monkeypatch, max_n, workers, pools):
    # a fork pool starts all max_workers processes at once: cubics to
    # --max-n 5 are three chains, so 5000 workers start three (and one chain
    # runs in this process); the recorder runs the chains here
    import concurrent.futures

    seen = []

    class Recorder:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    code, out, _ = run(capsys, "verify", "--theorem", "cubics", "--max-n", str(max_n), "--workers", workers)
    assert seen == pools
    assert (code, out) == run(capsys, "verify", "--theorem", "cubics", "--max-n", str(max_n))[:2]


def test_verify_json_structure(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "general", "--d", "5", "--max-n", "8", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["summary"]["failed"] == 0
    assert rep["cases"][0]["provenance"] == "thm:general:e-eq-n"


def test_verify_mismatch_exits_1(capsys, monkeypatch):
    from rncsplit.splitting import Prediction, SplittingType

    real = cli.predicted_splitting

    def wrong(d, e, n):
        pred = real(d, e, n)
        return Prediction("exact", SplittingType((99,) * (n - 1)), pred.provenance)

    monkeypatch.setattr(cli, "predicted_splitting", wrong)
    code, out, _ = run(capsys, "verify", "--theorem", "quadrics", "--max-n", "4")
    assert code == 1
    assert "FAIL" in out


def test_verify_rational_backstop_on_modular_failure(capsys, monkeypatch):
    real = cli.splitting_of_kernel

    def flaky(M):
        out = real(M)
        if M.field.p is not None:
            from rncsplit.splitting import SplittingType

            return SplittingType(tuple(x + 1 for x in out.parts))
        return out

    monkeypatch.setattr(cli, "splitting_of_kernel", flaky)
    code, out, _ = run(capsys, "verify", "--theorem", "quadrics", "--max-n", "4")
    assert code == 0
    assert "rational backstop" in out


def test_verify_chain_builds_each_delta_once(monkeypatch):
    # build_chain builds the seed's psi and delta in one _restriction_maps
    # call, kept on the seed, and scans delta once, inside kernel_matrix.  A
    # step builds no maps: it reads psi and delta off F.maps, and its output
    # hypersurface keeps them with one column appended.  No psi is built on
    # its own.  verify reads the seed's splitting off the first step and
    # each step's off its certified N, so it builds and scans nothing after
    # the chain.
    from rncsplit import sheafmap
    from rncsplit.fields import FieldSpec

    calls = []
    build_psi, restriction_maps, build_chain = sheafmap.build_psi, sheafmap._restriction_maps, cli.build_chain
    scan = sheafmap._nullity_scan

    def psi(F):
        calls.append("psi")
        return build_psi(F)

    def delta(*args):
        calls.append("delta")
        return restriction_maps(*args)

    def scanning(M, *args, **kwargs):
        calls.append("scan")
        return scan(M, *args, **kwargs)

    def chain(*args):
        out = build_chain(*args)
        calls.append("chain")
        return out

    monkeypatch.setattr(sheafmap, "build_psi", psi)
    monkeypatch.setattr(sheafmap, "_nullity_scan", scanning)
    monkeypatch.setattr(sheafmap, "_restriction_maps", delta)
    monkeypatch.setattr(cli, "build_chain", chain)
    for d, e in ((3, 3), (4, 4)):
        calls.clear()
        recs = cli._verify_chain_job((None, d, e, 8, FieldSpec(32003)))
        assert [r["status"] for r in recs] == ["ok"] * (9 - e)
        assert calls == ["delta", "scan", "chain"], (d, e)


def test_verify_scans_only_the_chain_seeds(capsys, monkeypatch):
    # the seed's splitting is the source of the kernel matrix extend_dimension
    # certified, and each extension step's is the one it certified for its
    # delta_out, so verify scans one kernel per cubic seed, e = 3..7: inside
    # kernel_matrix for e < 7, and directly for e = 7, which has no step
    from rncsplit import sheafmap
    from rncsplit.constructor import seed_example
    from rncsplit.fields import FieldSpec

    scanned = []
    real = sheafmap._nullity_scan

    def recording(M, *args, **kwargs):
        scanned.append(M)
        return real(M, *args, **kwargs)

    monkeypatch.setattr(sheafmap, "_nullity_scan", recording)
    code, out, _ = run(capsys, "verify", "--theorem", "cubics", "--max-n", "7", "--workers", "1")
    assert code == 0 and "15/15 cases ok" in out
    seeds = [sheafmap.build_delta(seed_example(3, e, FieldSpec(32003))) for e in range(3, 8)]
    assert len(scanned) == len(seeds) and all(maps_equal(M, seed) for M, seed in zip(scanned, seeds))


@pytest.mark.parametrize("p, n_max", [(32003, 14), (None, 8), (7, 8)])
def test_verify_quadric_levels_match_per_level_scans(monkeypatch, p, n_max):
    # the old per-level path as oracle: at every level n, the T and N verify
    # reads off its one scan per chain by the zero-column lemma are the
    # splittings of ker delta and ker psi of that level's own chain polynomial
    from rncsplit.fields import FieldSpec, RATIONALS
    from rncsplit.sheafmap import build_delta, build_psi, splitting_of_kernel

    field = FieldSpec(p) if p else RATIONALS
    seen = {}
    real = cli._verify_case

    def recording(T, field_now, d, e, n, strategy, N=None):
        seen[(e, n)] = (T, N)
        return real(T, field_now, d, e, n, strategy, N)

    monkeypatch.setattr(cli, "_verify_case", recording)
    for e in range(2, n_max + 1):
        if p and e % p == 0:
            continue  # no curve of degree e over GF(p)
        recs = cli._verify_chain_job(("quadrics", 2, e, n_max, field))
        assert [r["status"] for r in recs] == ["ok"] * (n_max + 1 - max(e, 3)), e
    assert len(seen) == sum(n_max + 1 - max(e, 3) for e in range(2, n_max + 1) if not (p and e % p == 0))
    for (e, n), (T, N) in seen.items():
        F, _ = cli.build_chain(2, e, n, field)
        assert T == splitting_of_kernel(build_delta(F)), (e, n)
        assert N == splitting_of_kernel(build_psi(F)), (e, n)


def test_verify_quadrics_scans_each_chain_once(capsys, monkeypatch):
    # one scan of delta and one of psi per chain e = 2..14: 26 scans for the
    # 90 cases, where a scan of both maps at every level takes 180
    from rncsplit import sheafmap

    calls = []
    real = sheafmap._nullity_scan

    def counting(M, *args, **kwargs):
        calls.append(M)
        return real(M, *args, **kwargs)

    monkeypatch.setattr(sheafmap, "_nullity_scan", counting)
    code, out, _ = run(capsys, "verify", "--theorem", "quadrics", "--max-n", "14", "--workers", "1")
    assert code == 0 and "90/90 cases ok" in out
    assert len(calls) == 26


def test_verify_quadric_chain_refuses_a_linear_part(capsys, monkeypatch):
    # the zero-column lemma needs the chain polynomial to have no linear
    # part: one G_k fills a zero column, and the chain is reported as an
    # error over GF(p) and again over the rational backstop.  A certification
    # failure is an internal error: verify exits 3, not 1 (a mismatch)
    from rncsplit.fields import FieldSpec, RATIONALS
    from rncsplit.multipoly import IdealCombination, MultiPoly

    build_chain = cli.build_chain

    def with_linear_part(d, e, n, field):
        F, steps = build_chain(d, e, n, field)
        ctx = F.context
        linear = {n: poly_variable(ctx, 0)} if n > e else {}  # G_k needs e < k <= n
        return IdealCombination(ctx, F.quadric_coeffs, linear), steps

    monkeypatch.setattr(cli, "build_chain", with_linear_part)
    for field in (FieldSpec(32003), RATIONALS):
        recs = cli._verify_chain_job(("quadrics", 2, 3, 6, field))
        assert [(r["status"], r["field"]) for r in recs] == [("error", "rational")]
        assert "linear part" in recs[0]["detail"] and recs[0]["error"] == "CertificationError"
    code, out, _ = run(capsys, "verify", "--theorem", "quadrics", "--max-n", "5", "--workers", "1")
    assert code == 3
    for e in (2, 3, 4):
        assert f"ERROR d=2 e={e}: the quadric chain polynomial has a linear part" in out
    assert "ok   d=2 e=5 n=5" in out


def test_verify_tests_the_prime_once_per_sweep(capsys, monkeypatch):
    # verify hands every chain job the sweep's one FieldSpec, so is_prime runs
    # once, not once per chain; the FieldSpec reaches a pool worker by pickle,
    # which does not run __init__ and so does not test the prime again
    import pickle

    from rncsplit import fields

    p = 2**31 - 1
    field = fields.FieldSpec(p)
    tested = []
    is_prime = fields.is_prime

    def counting(q):
        tested.append(q)
        return is_prime(q)

    monkeypatch.setattr(fields, "is_prime", counting)
    code, out, _ = run(capsys, "verify", "--theorem", "quadrics", "--max-n", "8", "--field", f"prime:{p}", "--workers", "1")
    assert code == 0 and "27/27 cases ok" in out
    assert tested == [p]
    copy = pickle.loads(pickle.dumps(field))
    assert copy == field and copy.p == p and tested == [p]


@pytest.mark.parametrize(
    "argv, calls",
    [
        # three seeds (e = n = 8, 9, 10), each lifted from its psi ladder,
        # whose check builds the maps that verify then reads
        (["verify", "--theorem", "general", "--d", "5", "--max-n", "10", "--workers", "1"], 3),
        (["compute", "--d", "5", "--e", "8", "--n", "8"], 1),
    ],
)
def test_each_hypersurface_builds_its_maps_once(capsys, monkeypatch, argv, calls):
    from rncsplit import sheafmap

    built = []
    restriction_maps = sheafmap._restriction_maps

    def counted(ctx, quadric, linear):
        built.append((ctx.d, ctx.e, ctx.n))
        return restriction_maps(ctx, quadric, linear)

    monkeypatch.setattr(sheafmap, "_restriction_maps", counted)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert len(built) == calls == len(set(built))


@pytest.mark.parametrize(
    "theorem, max_n, p, total, backstop",
    [("cubics", 8, 7, 21, ["d=3 e=7 n=7", "d=3 e=7 n=8"]), ("quadrics", 6, 2, 14, ["d=2 e=2 n=3", "d=2 e=6 n=6"])],
)
def test_verify_char_divides_e_uses_rational_backstop(capsys, theorem, max_n, p, total, backstop):
    # a chain whose curve degree the characteristic divides has no curve over
    # GF(p); it is checked over Q instead of ending the sweep, and the e = 3
    # chain (p does not divide 3) stays over GF(p)
    argv = ["verify", "--theorem", theorem, "--max-n", str(max_n), "--field", f"prime:{p}"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert f"{total}/{total} cases ok" in out
    lines = out.splitlines()
    for case in backstop:
        assert any(ln.startswith(f"ok   {case} ") and ln.endswith("(rational backstop)") for ln in lines), case
    assert not any("e=3 " in ln and "backstop" in ln for ln in lines)


def test_extend_report(capsys):
    code, out, _ = run(capsys, "extend", "--d", "3", "--e", "3", "--to-n", "5")
    assert code == 0
    assert "strategy J1" in out
    assert "strategy J0" in out
    assert "g = s^3*t^3" in out
    assert "X 4 : x0*x3" in out


def test_extend_json(capsys):
    code, out, _ = run(capsys, "extend", "--d", "3", "--e", "3", "--to-n", "4", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["steps"][0]["strategy"] == "J1"
    assert rep["steps"][0]["target"] == [2, 2, 2]


def test_extend_from_file(capsys, tmp_path):
    hsf = tmp_path / "cubic.hsf"
    hsf.write_text("d = 3\ne = 3\nn = 3\nQ 1 2 : x0\nQ 2 3 : x3\n")
    code, out, _ = run(capsys, "extend", "--poly", str(hsf), "--to-n", "4")
    assert code == 0
    assert "strategy J1" in out


@pytest.mark.parametrize("command", ["compute", "extend"])
@pytest.mark.parametrize("option, value", [("--d", "9"), ("--e", "8")])
def test_poly_file_refuses_disagreeing_options(capsys, tmp_path, command, option, value):
    hsf = tmp_path / "cubic.hsf"
    hsf.write_text("d = 3\ne = 3\nn = 3\nQ 1 2 : x0\nQ 2 3 : x3\n")
    argv = [command, "--poly", str(hsf), option, value] + (["--to-n", "4"] if command == "extend" else [])
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert f"error: {option} {value} disagrees with the input file (3)" in err
    # options that agree with the file are accepted
    argv[4] = "3"
    assert run(capsys, *argv)[0] == 0


def test_extend_singular_along_curve_exit_2(capsys, tmp_path):
    # singular along C at the zeros of x1|_C = s^2*t: ker delta is not T_X|_C,
    # so there is no splitting to extend
    hsf = tmp_path / "singular.hsf"
    hsf.write_text("d = 4\ne = 3\nn = 3\nQ 1 2 : x1^2\n")
    code, out, err = run(capsys, "extend", "--poly", str(hsf), "--to-n", "4")
    assert code == 2
    assert out == ""
    assert "singular along the curve" in err


@pytest.mark.parametrize("field", ["rational", "prime:2"])
@pytest.mark.parametrize(
    "d, e, to_n", [(4, 3, 3), (4, 3, 4), (4, 3, 5), (5, 4, 5), (5, 4, 6)], ids=lambda x: str(x)
)
def test_extend_refuses_a_seed_as_compute_does(capsys, d, e, to_n, field):
    # extend seeds at n = e: below the constructive range it exits 2 with
    # the message compute gives at that level (the quartic e = 3 seed once
    # built a quadric index -1 and exited 3; d >= 5 named no seed rule)
    code, out, err = run(capsys, "extend", "--d", str(d), "--e", str(e), "--to-n", str(to_n), "--field", field)
    assert code == 2 and out == ""
    assert run(capsys, "compute", "--d", str(d), "--e", str(e), "--n", str(e), "--field", field) == (2, "", err)


def test_glue_dominates_interp_predict(capsys):
    code, out, _ = run(capsys, "glue", "[0,1,1,2]", "[1,1,1,1]")
    assert code == 0 and out.strip() == "[1, 2, 2, 3]"

    code, out, _ = run(capsys, "dominates", "[2,2,2]", "[1,2,3]")
    assert code == 0 and out.strip() == "true"

    code, out, _ = run(capsys, "dominates", "[1,2,3]", "[2,2,2]")
    assert code == 0 and out.strip() == "false"

    code, out, _ = run(capsys, "interp", "O(4) + O(5)^4 + O(6)", "--d", "2", "--e", "5", "--n", "7")
    assert code == 0 and "up to 5 point(s); expected max 6" in out

    code, out, _ = run(capsys, "predict", "--d", "4", "--e", "6", "--n", "9")
    assert code == 0
    assert "O(4)^4 + O(5)^4" in out and "thm:quartics:case-mid" in out

    code, out, _ = run(capsys, "predict", "--d", "5", "--e", "2", "--n", "7")
    assert code == 0 and "not-balanced" in out


@pytest.mark.parametrize(
    "given", [subset for k in (1, 2) for subset in itertools.combinations("den", k)], ids="".join
)
def test_interp_refuses_partial_den(capsys, given):
    argv = ["interp", "[1,2]"] + [w for x in given for w in (f"--{x}", "3")]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    missing = ", ".join(f"--{x}" for x in "den" if x not in given)
    assert err == f"error: interp needs all of --d/--e/--n or none of them; missing {missing}\n"


@pytest.mark.parametrize("n", range(-1, 5))
def test_interp_refuses_the_cells_predict_refuses(capsys, n):
    # expected_max is defined on the catalog's cells only: outside them interp
    # exits 2 with predict's message (n = 1 divided by n - 1 = 0)
    for d, e in itertools.product(range(1, 5), range(-1, n + 2)):
        den = ["--d", str(d), "--e", str(e), "--n", str(n)]
        code, out, err = run(capsys, "predict", *den)
        got = run(capsys, "interp", "[1,2]", *den)
        if code == 2:
            assert got == (2, "", err) and err.startswith("error: parameters out of range"), (d, e, n)
        else:
            assert got[0] == 0 and "expected max" in got[1], (d, e, n)


@pytest.mark.parametrize(
    "argv",
    [
        ["glue", "[1]", "[2]"],
        ["dominates", "[1]", "[2]"],
        ["interp", "[1,2]"],
        ["interp", "[1,2]", "--d", "3", "--e", "3", "--n", "3"],
        ["predict", "--d", "2", "--e", "4", "--n", "6"],
    ],
    ids=" ".join,
)
@pytest.mark.parametrize("field", ["rational", "prime:7", "garbage"])
def test_splitting_commands_refuse_field(capsys, argv, field):
    # only compute, verify and extend build a hypersurface over a field
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--field", field])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.endswith(f"error: unrecognized arguments: --field {field}\n")


@pytest.mark.parametrize("theorem", ["quadrics", "cubics", "quartics"])
@pytest.mark.parametrize("d", ["2", "7"])
def test_verify_refuses_d_off_the_general_theorem(capsys, theorem, d):
    # --d picks the degree of the general theorem; the others fix their own
    code, out, err = run(capsys, "verify", "--theorem", theorem, "--d", d, "--max-n", "9")
    assert (code, out) == (2, "")
    assert err == f"error: --d applies to --theorem general only, not {theorem}\n"


def test_malformed_splitting_exit_2(capsys):
    # a JSON bool is a Python int, but not a splitting part
    # and an int of more digits than Python converts
    for bad in ("[1,2", "[true]", "[1,false]", "[" + "1" * 5000 + "]"):
        for argv in (["glue", bad, "[1,1]"], ["dominates", "[1,1]", bad], ["interp", bad]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith(f"error: bad splitting array: {bad!r}"), argv


@pytest.mark.parametrize(
    "d, e, err",
    [
        (6, 5, "degree 6 needs e = n >= 2d-2 = 10 (got e=5); no example is constructed for d >= 5 with e = n < 2d-2"),
        (5, 7, "degree 5 needs e = n >= 2d-2 = 8 (got e=7); no example is constructed for d >= 5 with e = n < 2d-2"),
    ],
)
def test_compute_below_the_general_diagonal_names_the_refused_range(capsys, d, e, err):
    # the refusal claims no existence: the catalog calls (6, 5, 5) not balanced
    assert run(capsys, "compute", "--d", str(d), "--e", str(e), "--n", str(e)) == (2, "", f"error: {err}\n")


def test_output_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "predict", "--d", "2", "--e", "4", "--n", "6", "--format", "json", "--output", str(target)
    )
    assert code == 0 and out == ""
    rep = json.loads(target.read_text())
    assert rep["splitting"] == [4, 4, 4, 4, 4]


def test_cli_runs_without_numpy(capsys, tmp_path):
    # numpy is not a dependency: neither the import nor a table sweep may load
    # it, and a dense prime-field file computes with numpy unimportable.  Nor
    # may they load dataclasses (which pulls in inspect and ast) or
    # concurrent.futures (for --workers > 1 only): each is milliseconds of
    # start-up
    from rncsplit.fields import FieldSpec
    from rncsplit.multipoly import CurveContext, format_hypersurface
    from tests.helpers import dense_combination

    hsf = tmp_path / "dense.hsf"
    F = dense_combination(random.Random(1), CurveContext(5, 5, 7, FieldSpec(32003)))
    hsf.write_text(format_hypersurface(F))
    code, want, _ = run(capsys, "compute", "--poly", str(hsf))
    assert code == 0
    script = (
        "import contextlib, io, sys\n"
        "heavy = ('numpy', 'dataclasses', 'concurrent.futures')\n"
        "from rncsplit import cli\n"
        "assert not [m for m in heavy if m in sys.modules], 'imported with rncsplit.cli'\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['verify', '--theorem', 'cubics', '--max-n', '6', '--workers', '1'])\n"
        "assert code == 0, code\n"
        "assert not [m for m in heavy if m in sys.modules], 'imported by verify'\n"
        "sys.modules['numpy'] = None  # import numpy now raises ImportError\n"
        "sys.exit(cli.main(['compute', '--poly', sys.argv[1]]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(hsf)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == want


PREDICT = ["predict", "--d", "2", "--e", "4", "--n", "6"]
PARSER_CASES = [
    [],
    ["-h"],
    ["--help"],
    ["-h", "compute"],
    *([name, "-h"] for name in cli._COMMANDS),
    ["compute", "--format", "-h"],
    ["compute", "--help"],
    PREDICT + ["-h"],
    ["bogus"],
    ["verify", "--max-n", "5"],
    ["glue", "[1,2]"],
    ["verify", "--theorem", "sextics", "--max-n", "5"],
    ["compute", "--format", "yaml", "--d", "3", "--e", "3", "--n", "3"],
    ["predict", "--d", "two", "--e", "4", "--n", "6"],
    ["compute", "--format"],
    PREDICT + ["--bogus"],
    PREDICT + ["extra"],
    ["predict", "--fo", "json", "--d", "2", "--e", "4", "--n", "6"],
    ["--fo", "json"],
    PREDICT,
    ["--", *PREDICT],
    ["-1", "predict"],
    ["-", "predict"],
    ["compute", "compute"],
    ["compute", "--d", "-3", "--e", "3", "--n", "3"],
    ["compute", "--poly=x.hsf", "--fo", "json"],
    ["predict", "--d", "3", "--d", "2", "--e", "4", "--n", "6"],
    ["interp", "-1"],
    ["glue", "--", "[1]", "[2]"],
    PREDICT + ["--", "x"],
]


def _outcome(capsys, argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = ("exit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("columns", ["80", "37"])
@pytest.mark.parametrize("argv", PARSER_CASES, ids=" ".join)
def test_parser_output_matches_full_parser(capsys, monkeypatch, argv, columns):
    # a well-formed command is read with no parser built, and every other
    # argv goes to the parser with every subcommand: the help, usage, errors
    # and the command's run are what that parser alone gives
    monkeypatch.setenv("COLUMNS", columns)
    got = _outcome(capsys, argv)
    monkeypatch.setattr(cli, "_parse_args", lambda argv: full_parser().parse_args(argv))
    assert got == _outcome(capsys, argv)


def _parse_outcome(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return parse(list(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


_ARGV_TOKENS = [
    *cli._COMMANDS, "-h", "--help", "--", "-", "-1", "-3", "3", "x", "[1]", "[2]", "extra",
    "--format", "--fo", "json", "yaml", "--format=json", "--d", "--e", "--n", "--poly",
    "--poly=x.hsf", "--theorem", "cubics", "--max-n", "--workers", "--to-n", "--field", "--bogus",
    # values the one-pass reader judges: types, choices, names and odd text
    "quadrics", "14", " 4", "+5", "1_0", "", "text", "rational", "prime:7", "--output", "o.txt",
    "[1,2]", "--max_n", "--d=3",
]
# every command the benchmark runs, the random inputs at their seed-1 paths
_BENCH_ARGV = [
    *(argv for name in workloads.NAMES for argv in workloads.fixed_commands(name)),
    *(
        ["compute", "--poly", f"perfbench/out/compute-q-seed1-trace0/inputs/random-{d}-{e}-{n}.hsf", "--format", "json"]
        for d, e, n in workloads.RANDOM_SHAPES
    ),
]


def _parse_examples(test):
    for argv in _BENCH_ARGV + [
        ["glue", "[1]", "[2]"],
        ["interp", "-1", "--d", "3", "--fo", "json"],
        PREDICT + ["--format", "json", "--format", "text"],
        ["verify", "--theorem", "cubics", "--max-n", "5", "--max-n", "6"],
        ["verify", "--theorem", "cubics"],
        ["extend", "--d", "3", "--e", "3"],
        ["compute", "--d", "-3", "--e", "3", "--n", "3"],
    ]:
        test = example(argv)(test)
    return test


@given(st.lists(st.sampled_from(_ARGV_TOKENS), max_size=8))
@_parse_examples
@settings(max_examples=100, deadline=None)
def test_parse_matches_full_parser(argv):
    # the same Namespace, or the same exit code, stdout and stderr
    assert _parse_outcome(cli._parse_args, argv) == _parse_outcome(lambda a: full_parser().parse_args(a), argv)


def _count_parsers(monkeypatch) -> list:
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return built


@pytest.mark.parametrize(
    "argv",
    [
        PREDICT,
        ["compute", "--d", "3", "--e", "3", "--n", "3", "--format", "json"],
        ["verify", "--theorem", "general", "--d", "5", "--max-n", "14", "--workers", "1"],
        ["extend", "--d", "3", "--e", "3", "--to-n", "5", "--field", "prime:7"],
        ["glue", "[1]", "[2]"],
    ],
    ids=" ".join,
)
def test_well_formed_command_builds_no_parser(monkeypatch, argv):
    built = _count_parsers(monkeypatch)
    args = cli._parse_args(argv)
    assert built == []
    assert args == full_parser().parse_args(argv)


def test_abbreviated_option_builds_the_full_parser(monkeypatch):
    # the full parser: its own ArgumentParser and one per subcommand
    built = _count_parsers(monkeypatch)
    args = cli._parse_args(PREDICT + ["--fo", "json"])
    assert args.format == "json"
    assert built == ["rncsplit", *(f"rncsplit {name}" for name in cli._COMMANDS)]

import itertools
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from rncsplit import cli
from rncsplit.binform import DegreeError
from rncsplit.sheafmap import MapError

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


@pytest.mark.parametrize("exc", [MapError, DegreeError])
def test_internal_error_exits_3(capsys, monkeypatch, exc):
    # graded maps are built from validated input, so a MapError or
    # DegreeError after parsing is a bug, not a usage error
    def broken(M):
        raise exc("injected")

    monkeypatch.setattr(cli, "kernel_matrix", broken)
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
    # build_chain builds the seed's delta, then one delta per step: the check
    # of the step's output hypersurface.  verify scans each step's certified
    # delta_out and builds psi again only for the seed.
    from rncsplit import constructor, sheafmap

    calls = []
    build_psi, build_delta, build_chain = sheafmap.build_psi, constructor.build_delta, cli.build_chain

    def psi(F):
        calls.append("psi")
        return build_psi(F)

    def delta(F):
        calls.append("delta")
        return build_delta(F)

    def chain(*args):
        out = build_chain(*args)
        calls.append("chain")
        return out

    monkeypatch.setattr(sheafmap, "build_psi", psi)
    monkeypatch.setattr(constructor, "build_delta", delta)
    monkeypatch.setattr(cli, "build_chain", chain)
    for d, e in ((3, 3), (4, 4)):
        calls.clear()
        recs = cli._verify_chain_job((None, d, e, 8, 32003))
        assert [r["status"] for r in recs] == ["ok"] * (9 - e)
        cut = calls.index("chain")
        assert calls[:cut] == ["delta", "psi"] * (9 - e), (d, e)
        assert calls[cut + 1 :] == ["psi"], (d, e)


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


def test_malformed_splitting_exit_2(capsys):
    code, _, err = run(capsys, "glue", "[1,2", "[1,1]")
    assert code == 2


def test_output_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "predict", "--d", "2", "--e", "4", "--n", "6", "--format", "json", "--output", str(target)
    )
    assert code == 0 and out == ""
    rep = json.loads(target.read_text())
    assert rep["splitting"] == [4, 4, 4, 4, 4]


def test_cli_runs_without_numpy():
    # numpy is imported only for dense prime-field matrices, and a table
    # sweep has none: neither the import nor the sweep may load it.  Nor
    # dataclasses (which pulls in inspect and ast) or concurrent.futures (for
    # --workers > 1 only): each is milliseconds of start-up
    script = (
        "import sys\n"
        "heavy = ('numpy', 'dataclasses', 'concurrent.futures')\n"
        "from rncsplit import cli\n"
        "assert not [m for m in heavy if m in sys.modules], 'imported with rncsplit.cli'\n"
        "code = cli.main(['verify', '--theorem', 'cubics', '--max-n', '6', '--workers', '1'])\n"
        "assert code == 0, code\n"
        "assert not [m for m in heavy if m in sys.modules], 'imported by verify'\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr

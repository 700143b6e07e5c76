"""Byte-exact outputs over Q that print kernel, N and J matrices: compute
prints only the kernel's splitting, so these pin the matrices themselves."""

import runpy
from pathlib import Path

from rncsplit import cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"


def test_worked_examples_golden(capsys):
    runpy.run_path(str(ROOT / "scripts" / "worked_examples.py"), run_name="__main__")
    assert capsys.readouterr().out == (GOLDEN / "worked_examples.txt").read_text(encoding="utf-8")


def test_extend_json_golden(capsys):
    assert cli.main(["extend", "--d", "3", "--e", "3", "--to-n", "5", "--format", "json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "extend_d3_e3_n5.json").read_text(encoding="utf-8")

"""The exit-code contract of every subcommand: an answer (exit 0) or a clear
precondition error (exit 2, one ``error:`` line on stderr and nothing on
stdout), exit 1 only for a verify mismatch, and never exit 3 on any input
the grid below draws, over Q and over the smallest and the largest primes
FieldSpec accepts."""

import pytest

from rncsplit import cli

FIELDS = ("rational", "prime:2", "prime:3", f"prime:{2**31 - 1}")


def _extend():
    for d in range(2, 8):
        for e in range(0, 8):
            for to_n in sorted({max(e, 3), e + 1}):
                yield ["extend", "--d", str(d), "--e", str(e), "--to-n", str(to_n)]


def _compute():
    for d in range(2, 7):
        for n in range(3, 7):
            for e in range(0, n + 2):
                yield ["compute", "--d", str(d), "--e", str(e), "--n", str(n)]


def _verify():
    for theorem in ("quadrics", "cubics", "quartics"):
        for max_n in range(0, 7):
            yield ["verify", "--theorem", theorem, "--max-n", str(max_n)]
    for d in ([], ["--d", "4"], ["--d", "5"], ["--d", "6"]):
        for max_n in (0, 7, 9, 10):
            yield ["verify", "--theorem", "general", *d, "--max-n", str(max_n)]


def _algebra():
    for d in range(0, 6):
        for e in range(-1, 6):
            for n in range(0, 7):
                yield ["predict", "--d", str(d), "--e", str(e), "--n", str(n)]
    splittings = ("[1,2]", "[3,4]", "[2,2,2]", "[1,2,3]", "O(1)^2", "[]", "[1", "x", "[-1,5]")
    for a in splittings:
        yield ["interp", a]
        yield ["interp", a, "--d", "3", "--e", "3", "--n", "3"]
        yield ["interp", a, "--d", "3"]
        for b in splittings[:4]:
            yield ["glue", a, b]
            yield ["dominates", a, b]
    # expected_max refuses a cell outside the catalog as predict does
    for n in range(0, 4):
        for e in range(0, n + 2):
            yield ["interp", "[1,2]", "--d", "3", "--e", str(e), "--n", str(n)]


GRIDS = {"extend": _extend, "compute": _compute, "verify": _verify}


def _violations(capsys, argv) -> list:
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse refuses the command line
        code = exc.code
    out, err = capsys.readouterr()
    errors = sum("error:" in line for line in err.splitlines())
    if code == 0 and err == "":
        return []
    if code == 2 and errors == 1 and out == "":
        return []
    if code == 1 and argv[0] == "verify":
        return []
    return [(" ".join(argv), code, err)]


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("command", sorted(GRIDS))
def test_every_input_exits_0_or_2(capsys, command, field):
    bad = [v for argv in GRIDS[command]() for v in _violations(capsys, argv + ["--field", field])]
    assert not bad, bad


def test_every_splitting_command_exits_0_or_2(capsys):
    bad = [v for argv in _algebra() for v in _violations(capsys, argv)]
    assert not bad, bad

"""The benchmark's workloads: CLI argument lists and their output checks.

Commands with fixed inputs are checked against the stdout digests in
``reference.json``.  compute-q also runs random hypersurfaces over Q drawn
from the workload seed; those are checked by invariants (see worker.py).
"""

from __future__ import annotations

import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

# Published tables over the CLI's default prime; single-row maps, no extension.
SCAN_GF = [
    ["verify", "--theorem", "quadrics", "--max-n", "14", "--workers", "1"],
    ["verify", "--theorem", "general", "--d", "5", "--max-n", "14", "--workers", "1"],
    ["verify", "--theorem", "general", "--d", "6", "--max-n", "14", "--workers", "1"],
    ["verify", "--theorem", "general", "--d", "7", "--max-n", "14", "--workers", "1"],
]

# The extension chains: extend_dimension, cokernel_matrix, J0/J1/J2, quartic seeds.
CHAINS_GF = [
    ["verify", "--theorem", "cubics", "--max-n", "9", "--workers", "1"],
    ["verify", "--theorem", "quartics", "--max-n", "9", "--workers", "1"],
]

# Catalog seeds over Q, then the README quintic read through --poly.
CATALOG_Q = [(2, 4, 8), (2, 6, 10), (3, 3, 3), (3, 4, 4), (3, 5, 5), (3, 6, 6), (4, 4, 4), (4, 5, 5), (4, 6, 6)]
QUINTIC = "perfbench/inputs/quintic.hsf"

# Shapes (d, e, n) of the random hypersurfaces over Q.
RANDOM_SHAPES = [(3, 3, 3), (3, 4, 4), (3, 3, 5)]
COEFF_BOUND = 9

NAMES = ("scan-gf", "chains-gf", "compute-q")

# The speed probe (probe.py) that does the same kind of arithmetic as the workload.
PROBE = {"scan-gf": "loop", "chains-gf": "loop", "compute-q": "fraction"}


def _monomials(nvars: int, degree: int):
    if nvars == 1:
        yield (degree,)
        return
    for a in range(degree, -1, -1):
        for rest in _monomials(nvars - 1, degree - a):
            yield (a,) + rest


def _random_form(rng: random.Random, nvars: int, degree: int) -> str:
    """A dense form with nonzero integer coefficients, in the .hsf grammar."""
    text = ""
    for exp in _monomials(nvars, degree):
        c = rng.choice([-1, 1]) * rng.randint(1, COEFF_BOUND)
        factors = [f"x{v}" if a == 1 else f"x{v}^{a}" for v, a in enumerate(exp) if a]
        body = "*".join([str(abs(c))] + factors)
        if not text:
            text = ("-" if c < 0 else "") + body
        else:
            text += (" - " if c < 0 else " + ") + body
    return text


def random_hypersurface(rng: random.Random, d: int, e: int, n: int) -> str:
    """.hsf text of a random F = sum F_ij Q_ij + sum G_k x_k over Q."""
    lines = [f"d = {d}", f"e = {e}", f"n = {n}", "field = rational"]
    for i in range(1, e + 1):
        for j in range(i + 1, e + 1):
            lines.append(f"Q {i} {j} : {_random_form(rng, n + 1, d - 2)}")
    for k in range(e + 1, n + 1):
        lines.append(f"X {k} : {_random_form(rng, n + 1, d - 1)}")
    return "\n".join(lines) + "\n"


def smooth_random_inputs(seed: int, out_dir: Path, root: Path) -> list[tuple[tuple, str]]:
    """Write one random hypersurface per shape, redrawing any that is singular
    along the curve; returns ((d, e, n), path relative to root) pairs."""
    from rncsplit.multipoly import parse_hypersurface
    from rncsplit.sheafmap import check_smooth_along_curve

    rng = random.Random(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    made = []
    for d, e, n in RANDOM_SHAPES:
        for _ in range(100):
            text = random_hypersurface(rng, d, e, n)
            if check_smooth_along_curve(parse_hypersurface(text)):
                break
        else:
            raise RuntimeError(f"no smooth draw for shape {(d, e, n)} in 100 tries")
        path = out_dir / f"random-{d}-{e}-{n}.hsf"
        path.write_text(text, encoding="utf-8")
        made.append(((d, e, n), str(path.relative_to(root))))
    return made


def fixed_commands(name: str) -> list[list[str]]:
    if name == "scan-gf":
        return SCAN_GF
    if name == "chains-gf":
        return CHAINS_GF
    catalog = [
        ["compute", "--d", str(d), "--e", str(e), "--n", str(n), "--format", "json"]
        for d, e, n in CATALOG_Q
    ]
    return catalog + [["compute", "--poly", QUINTIC, "--format", "json"]]


def commands(name: str, seed: int, out_dir: Path, root: Path) -> list[dict]:
    """Every command of a workload with its output check, in run order."""
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    out = [
        {"argv": argv, "check": {"kind": "digest", "sha256": reference[" ".join(argv)]}}
        for argv in fixed_commands(name)
    ]
    if name == "compute-q":
        for (d, e, n), path in smooth_random_inputs(seed, out_dir, root):
            out.append(
                {
                    "argv": ["compute", "--poly", path, "--format", "json"],
                    "check": {"kind": "invariants", "d": d, "e": e, "n": n},
                }
            )
    return out

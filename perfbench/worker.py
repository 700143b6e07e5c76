"""One pass of a workload in a fresh interpreter.

Reads a JSON spec on stdin: ``{"commands": [...], "probe": kind, "trace":
bool}``, where each command is ``{"argv": [...], "check": {...}}``.  Runs
every command through ``rncsplit.cli.main`` in order, checks its stdout, and
prints one JSON object as the last line of stdout.  A command that fails its check, exits nonzero or
raises is counted and the pass continues.  An untraced pass times each
command in wall and in reference seconds (probe.py); a traced pass installs
the per-layer tracer (layers.py) and runs no probe.

    PYTHONPATH=src python3 perfbench/worker.py < spec.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import traceback
from time import perf_counter


def check_invariants(stdout: str, d: int, e: int, n: int) -> str | None:
    """Checks on a `compute --format json` report of a hypersurface smooth
    along the curve; returns the first violation, or None."""
    rep = json.loads(stdout)
    T, N = rep["T_splitting"], rep["N_splitting"]
    deg_T = e * (n + 1) - d * e
    if len(T) != n - 1 or sum(T) != deg_T:
        return f"T = {T}: want rank {n - 1}, degree {deg_T}"
    if len(N) != n - 2 or sum(N) != deg_T - 2:
        return f"N = {N}: want rank {n - 2}, degree {deg_T - 2}"
    if rep["certificates"]["kernel_source"] != sorted(T, reverse=True):
        return f"kernel_source {rep['certificates']['kernel_source']} is not T descending"
    return None


def run_command(main, cmd: dict, clock) -> dict:
    out, err = io.StringIO(), io.StringIO()
    wall0, ref0 = clock()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(cmd["argv"])
    except Exception:
        code = None
        err.write(traceback.format_exc())
    wall1, ref1 = clock()
    stdout = out.getvalue()
    digest = hashlib.sha256(stdout.encode()).hexdigest()
    check = cmd["check"]
    if code != 0:
        problem = f"exit {code}: {err.getvalue().strip()[-500:]}"
    elif check["kind"] == "digest":
        want = check["sha256"]
        problem = None if want is None or want == digest else "stdout differs from the reference digest"
    else:
        try:
            problem = check_invariants(stdout, check["d"], check["e"], check["n"])
        except (ValueError, KeyError, TypeError) as exc:
            problem = f"unreadable report: {exc!r}"
    return {"argv": cmd["argv"], "wall_s": wall1 - wall0, "ref_s": ref1 - ref0, "sha256": digest, "problem": problem}


def main() -> int:
    spec = json.load(sys.stdin)
    from rncsplit import cli

    # perfbench/layers.py and perfbench/probe.py sit next to this file.
    tracer = gauge = None
    if spec["trace"]:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()

        def clock():
            t = perf_counter()
            return t, t

    else:
        from probe import Gauge

        gauge = Gauge(spec["probe"])
        gauge.start()
        clock = gauge.read
    results = [run_command(cli.main, cmd, clock) for cmd in spec["commands"]]
    if gauge is not None:
        gauge.stop()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    payload = {
        "module": cli.__file__,
        "commands": results,
        "wall_s": sum(r["wall_s"] for r in results),
        "ref_s": sum(r["ref_s"] for r in results),
        "probes": gauge.probes if gauge is not None else 0,
        "peak_rss_mib": peak_kib / 1024,
    }
    if tracer is not None:
        payload["layers"] = tracer.report()
        payload["absent"] = tracer.absent
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())

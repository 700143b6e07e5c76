"""The rncsplit benchmark.

    python3 perfbench/run.py --workload scan-gf --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout.  Each pass of a workload runs its
commands through ``rncsplit.cli.main`` in one fresh interpreter
(perfbench/worker.py), single-threaded.  With ``--trace 0`` passes repeat
until the next one would overrun ``--seconds`` (at least one runs) and the
end-to-end metrics are reported as medians.  With ``--trace 1`` one untraced
and one traced pass run, and the per-layer metrics come from the traced one.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  A results file naming the machine and the run is written under
perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

import probe
import workloads
from layers import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One core for the program: one process, no BLAS or OpenMP threads.
PINNING = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 16
RUN_LIMIT_S = 170  # every run must end within 180 s

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB", "ok_frac": "ratio"}


def child_env() -> dict:
    env = dict(os.environ, **PINNING)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_sample(env: dict) -> tuple[float, float]:
    """Time from starting a fresh interpreter until rncsplit.cli is imported,
    in wall and in reference seconds (see probe.py)."""
    t0 = monotonic()
    out = subprocess.run(
        [sys.executable, str(HERE / "import_cli.py")],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
    )
    done, before, after = (float(x) for x in out.stdout.split()[-3:])
    wall = done - t0
    return wall, wall * probe.PROBES["loop"][1] / ((before + after) / 2)


def run_pass(commands: list[dict], probe_kind: str, trace: bool, env: dict, timeout: float) -> dict:
    """One fresh worker process over every command; a crash or timeout counts
    every command as failed."""
    spec = json.dumps({"commands": commands, "probe": probe_kind, "trace": trace})
    t0 = monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=spec, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
        lines = proc.stdout.strip().splitlines()
        res = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        why = f"worker exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    except subprocess.TimeoutExpired:
        res, why = None, f"worker timed out after {timeout:.0f} s"
    if res is not None and not Path(res["module"]).resolve().is_relative_to(SRC):
        res, why = None, f"imported rncsplit from {res['module']}, not from {SRC}"
    if res is None:
        res = {"commands": [{"argv": c["argv"], "problem": why} for c in commands], "wall_s": None}
    res["elapsed_s"] = monotonic() - t0
    return res


def machine() -> dict:
    import numpy

    cpu = next(
        (ln.split(":", 1)[1].strip() for ln in Path("/proc/cpuinfo").read_text().splitlines() if ln.startswith("model name")),
        platform.processor(),
    )
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def program() -> dict:
    """The commit, when the checkout is a git repository, and a digest of the sources."""
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    h = hashlib.sha256()
    for path in sorted((SRC / "rncsplit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "src_sha256": h.hexdigest()}


def main(argv=None) -> int:
    started = monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "rncsplit" / "cli.py").is_file():
        print(f"error: no program sources at {SRC / 'rncsplit'}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = child_env()

    # Untimed set-up: compile bytecode once, time fresh imports (half of the
    # samples before the passes and half after, to span the run), draw inputs.
    setup_sample(env)
    setup = [] if args.trace else [setup_sample(env) for _ in range(SETUP_SAMPLES // 2)]
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    commands = workloads.commands(args.workload, args.seed, run_dir / "inputs", ROOT)

    def remaining():
        return max(5.0, RUN_LIMIT_S - (monotonic() - started))

    kind = workloads.PROBE[args.workload]
    passes = []
    if args.trace:
        passes.append(run_pass(commands, kind, False, env, remaining()))
        passes.append(run_pass(commands, kind, True, env, remaining()))
    else:
        t0 = monotonic()
        while True:
            passes.append(run_pass(commands, kind, False, env, remaining()))
            spent = monotonic() - t0
            if spent + passes[-1]["elapsed_s"] > args.seconds or passes[-1]["wall_s"] is None:
                break
        setup += [setup_sample(env) for _ in range(SETUP_SAMPLES - len(setup))]

    problems = [
        {"pass": k, "argv": c["argv"], "problem": c["problem"]}
        for k, p in enumerate(passes)
        for c in p["commands"]
        if c["problem"]
    ]
    attempted = sum(len(p["commands"]) for p in passes)
    failed = len(problems)
    mismatch = []
    if args.trace and passes[1]["wall_s"] is not None and passes[0]["wall_s"] is not None:
        mismatch = [
            a["argv"] for a, b in zip(passes[0]["commands"], passes[1]["commands"]) if a["sha256"] != b["sha256"]
        ]
    correct = failed == 0 and not mismatch

    timed = [p for p in passes if p["wall_s"] is not None]
    if args.trace:
        traced = passes[1].get("layers") if len(timed) == 2 else None
        if traced is None:
            print(f"error: the traced pass did not complete: {problems[-1]['problem']}", file=sys.stderr)
            return 1
        values = dict(traced)
        values["trace.overhead_s"] = passes[1]["wall_s"] - passes[0]["wall_s"]
        units = Tracer.units() | {"trace.overhead_s": "s"}
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    else:
        if not timed:
            print(f"error: no pass completed: {problems[-1]['problem']}", file=sys.stderr)
            return 1
        values = {
            "wall_s": statistics.median(p["ref_s"] for p in timed),
            "setup_s": statistics.median(ref for _, ref in setup),
            "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in timed),
            "ok_frac": (attempted - failed) / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "program": program(),
        "thread_pinning": dict(PINNING, workers=1, processes=1),
        "setup_samples": [{"wall_s": w, "ref_s": r} for w, r in setup],
        "probe": {"kind": kind, "ref_s": probe.PROBES[kind][1], "setup": "loop", "setup_ref_s": probe.PROBES["loop"][1]},
        "passes": [
            {k: p.get(k) for k in ("wall_s", "ref_s", "probes", "elapsed_s", "peak_rss_mib")}
            | {"commands": [{k: c.get(k) for k in ("argv", "wall_s", "ref_s", "problem")} for c in p["commands"]]}
            for p in passes
        ],
        "absent": passes[-1].get("absent", []),
        "problems": problems,
        "trace_digest_mismatch": mismatch,
        "metrics": metrics,
    }
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "results.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for prob in problems[:5]:
        print(f"FAILED {' '.join(prob['argv'])}: {prob['problem']}")
    for argv in mismatch:
        print(f"FAILED traced output differs: {' '.join(argv)}")
    if record["absent"]:
        print(f"absent from the program, reported as 0: {', '.join(record['absent'])}")
    if not args.trace:
        raw_wall = statistics.median(p["wall_s"] for p in timed)
        raw_setup = statistics.median(w for w, _ in setup)
        print(
            f"{args.workload}: wall_s {values['wall_s']:.3f} s (raw {raw_wall:.3f} s), "
            f"setup_s {values['setup_s']:.3f} s (raw {raw_setup:.3f} s), "
            f"peak_rss_mib {values['peak_rss_mib']:.1f} MiB, fail_frac {failed / attempted:.3f} "
            f"({failed}/{attempted} commands over {len(passes)} passes)"
        )
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

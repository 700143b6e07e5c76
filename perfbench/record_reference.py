"""Record the stdout digests of every fixed-input benchmark command.

    python3 perfbench/record_reference.py

Writes perfbench/reference.json.  Run it only at a commit whose reports are
known good: the benchmark counts any later difference as a failed command.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    argvs = [argv for name in workloads.NAMES for argv in workloads.fixed_commands(name)]
    commands = [{"argv": argv, "check": {"kind": "digest", "sha256": None}} for argv in argvs]
    res = run.run_pass(commands, "loop", False, run.child_env(), timeout=600)
    bad = [c for c in res["commands"] if c["problem"]]
    for c in bad:
        print(f"FAILED {' '.join(c['argv'])}: {c['problem']}", file=sys.stderr)
    if bad:
        return 1
    digests = {" ".join(c["argv"]): c["sha256"] for c in res["commands"]}
    workloads.REFERENCE.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {workloads.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run every splitting-table sweep at desk scale and summarize.

Covers quadrics up to n = 10, cubics and quartics up to n = 9, and the
degree-5/6 diagonal ladders up to n = 11, all over GF(32003) with the
rational backstop.  Exits nonzero on the first failing sweep.
"""

import sys
import time

from rncsplit.cli import main as cli_main

SWEEPS = [
    ["verify", "--theorem", "quadrics", "--max-n", "10"],
    ["verify", "--theorem", "cubics", "--max-n", "9"],
    ["verify", "--theorem", "quartics", "--max-n", "9"],
    ["verify", "--theorem", "general", "--d", "5", "--max-n", "11"],
    ["verify", "--theorem", "general", "--d", "6", "--max-n", "11"],
]


def main() -> int:
    workers = sys.argv[1] if len(sys.argv) > 1 else "1"
    for argv in SWEEPS:
        label = " ".join(argv[1:])
        t0 = time.perf_counter()
        code = cli_main(argv + ["--workers", workers])
        print(f"== {label}: {'ok' if code == 0 else f'exit {code}'} ({time.perf_counter() - t0:.1f}s)\n")
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One set-up sample: a fresh interpreter imports rncsplit.cli.

Prints, on one line, the monotonic clock right after the import less the time
spent probing before it, and the mean loop-probe times (see probe.py) taken just
before and just after the import.
"""

import time

from probe import loop_probe

t = time.monotonic()
before = sum(loop_probe() for _ in range(5)) / 5
probing = time.monotonic() - t
import rncsplit.cli  # noqa: E402,F401

done = time.monotonic() - probing
after = sum(loop_probe() for _ in range(5)) / 5
print(done, before, after)

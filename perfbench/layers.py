"""Per-layer tracing from outside the program.

Wraps the public functions of each ``rncsplit`` module, in every module that
binds them, and records per wrapped name the number of calls and the self
time (span duration minus the spans of wrapped callees).  Work counts are
computed at the wrapper from arguments and return values, so the program
itself is not modified.

``fields`` is not wrapped: it is called once per field element, and a span
there would distort every other timing.  ``splitting`` only does catalog
lookups in microseconds.
"""

from __future__ import annotations

import functools
import gc
import importlib
import sys
from time import perf_counter

# module -> public functions that get a span.
TARGETS = {
    "cli": ("main",),
    "constructor": ("seed_example", "extend_dimension"),
    "sheafmap": (
        "build_delta",
        "build_psi",
        "splitting_of_kernel",
        "section_kernel_dim",
        "generic_rank",
        "kernel_matrix",
        "cokernel_matrix",
        "full_rank_everywhere",
        "minor_form",
        "compose",
        "check_smooth_along_curve",
    ),
    "linalg": ("rank", "nullspace", "solve", "det"),
    "multipoly": ("parse_hypersurface", "decompose_into_ideal", "restrict_to_curve"),
    "binform": ("bf_gcd",),
}

# linalg functions whose spans are split by field: name -> (field arg, width arg).
_FIELD_SPLIT = {
    "linalg.rank": (1, 2),
    "linalg.nullspace": (1, 2),
    "linalg.solve": (2, 3),
    "linalg.det": (1, None),
}
_FIELDS = ("q", "gf")

_SCAN = "sheafmap.splitting_of_kernel"


def span_names() -> list[str]:
    """Every span name the tracer reports, in a fixed order."""
    out = []
    for mod, names in TARGETS.items():
        for name in names:
            key = f"{mod}.{name}"
            if key in _FIELD_SPLIT:
                out += [f"{key}.{f}" for f in _FIELDS]
            else:
                out.append(key)
    return out


def count_names() -> list[str]:
    """Every work count the tracer reports, in a fixed order."""
    cells = [f"linalg.{n}.{f}.cells" for n in ("rank", "nullspace", "solve", "det") for f in _FIELDS]
    return cells + [
        "sheafmap.section_kernel_dim.cells",
        "sheafmap.minor_form.dets",
        "sheafmap.scan.twists",
        "sheafmap.scan.useful_twists",
    ]


def _arg(args, kwargs, index, name):
    """The argument `name`, passed at position `index` or by keyword, or None."""
    if name in kwargs:
        return kwargs[name]
    return args[index] if index is not None and index < len(args) else None


class Tracer:
    """Span stack and counters for one traced process."""

    def __init__(self):
        self.calls = dict.fromkeys(span_names(), 0)
        self.self_s = dict.fromkeys(span_names(), 0.0)
        self.counts = dict.fromkeys(count_names(), 0)
        self.gc_collections = 0
        self.gc_pause_s = 0.0
        self.absent: list[str] = []
        self._stack: list[list] = []  # [start, time covered by child spans]
        self._scan_depth = 0
        self._gc_start = None

    # -- spans -----------------------------------------------------------------

    def _enter(self):
        self._stack.append([perf_counter(), 0.0])

    def _exit(self, name):
        start, child = self._stack.pop()
        dur = perf_counter() - start
        self.calls[name] += 1
        self.self_s[name] += dur - child
        if self._stack:
            self._stack[-1][1] += dur

    # -- work counts, from arguments and return values ----------------------------

    def _count(self, key, name, args, kwargs, result):
        c = self.counts
        if key in _FIELD_SPLIT:
            rows = _arg(args, kwargs, 0, "rows")
            width = len(rows) if key == "linalg.det" else _arg(args, kwargs, _FIELD_SPLIT[key][1], "width")
            if width is None:
                width = len(rows[0]) if len(rows) else 0
            c[name + ".cells"] += len(rows) * width
        elif key == "sheafmap.section_kernel_dim":
            M, m = _arg(args, kwargs, 0, "M"), _arg(args, kwargs, 1, "m")
            R = sum(max(0, t + m + 1) for t in M.target)
            C = sum(max(0, b + m + 1) for b in M.source)
            c["sheafmap.section_kernel_dim.cells"] += R * C
            if self._scan_depth:
                c["sheafmap.scan.twists"] += 1
        elif key == _SCAN:
            M = _arg(args, kwargs, 0, "M")
            if result.parts:
                c["sheafmap.scan.useful_twists"] += max(M.source) + 1 - min(result.parts)
        elif key == "sheafmap.minor_form":
            M = _arg(args, kwargs, 0, "M")
            rows, cols = _arg(args, kwargs, 1, "rows"), _arg(args, kwargs, 2, "cols")
            D = sum(M.target[i] for i in rows) - sum(M.source[j] for j in cols)
            c["sheafmap.minor_form.dets"] += max(0, D + 1)

    def _wrap(self, key, fn):
        split = _FIELD_SPLIT.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if split is None:
                name = key
            else:
                field = _arg(args, kwargs, split[0], "field")
                name = f"{key}.{'q' if field.p is None else 'gf'}"
            if key == _SCAN:
                self._scan_depth += 1
            self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name)
                if key == _SCAN:
                    self._scan_depth -= 1
            self._count(key, name, args, kwargs, result)
            return result

        return wrapper

    # -- installation ----------------------------------------------------------------

    def install(self) -> None:
        """Replace every binding of each target function in every loaded
        ``rncsplit`` module, then check that no module still holds an
        original.  A target that no longer exists is listed in ``absent``."""
        for mod in TARGETS:
            try:
                importlib.import_module(f"rncsplit.{mod}")
            except ModuleNotFoundError:
                pass
        modules = [m for n, m in sys.modules.items() if n == "rncsplit" or n.startswith("rncsplit.")]
        originals = {}
        for mod, names in TARGETS.items():
            home = sys.modules.get(f"rncsplit.{mod}")
            for fn_name in names:
                key = f"{mod}.{fn_name}"
                fn = getattr(home, fn_name, None)
                if not callable(fn):
                    self.absent.append(key)
                    continue
                originals[key] = fn
                wrapper = self._wrap(key, fn)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            setattr(m, attr, wrapper)
        for key, fn in originals.items():
            for m in modules:
                held = [attr for attr, val in vars(m).items() if val is fn]
                if held:
                    raise RuntimeError(f"{m.__name__} still binds unwrapped {key} as {held}")
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = perf_counter()
        elif self._gc_start is not None:
            self.gc_pause_s += perf_counter() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    @staticmethod
    def units() -> dict:
        """Unit of every figure ``report`` returns, in the same order."""
        units = {}
        for name in span_names():
            units[f"{name}.calls"] = "count"
            units[f"{name}.self_s"] = "s"
        units.update(dict.fromkeys(count_names(), "count"))
        units["sheafmap.scan.useful_ratio"] = "ratio"
        units["runtime.gc.collections"] = "count"
        units["runtime.gc.pause_s"] = "s"
        return units

    def report(self) -> dict:
        """Per-layer figures; absent targets report zero and are listed."""
        out = {}
        for name in span_names():
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out.update(self.counts)
        twists = self.counts["sheafmap.scan.twists"]
        useful = self.counts["sheafmap.scan.useful_twists"]
        out["sheafmap.scan.useful_ratio"] = useful / twists if twists else 0.0
        out["runtime.gc.collections"] = self.gc_collections
        out["runtime.gc.pause_s"] = self.gc_pause_s
        return out

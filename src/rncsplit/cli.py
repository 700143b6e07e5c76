"""Command-line surface: compute splittings, verify the published tables over
parameter sweeps, run dimension extensions, and expose the splitting algebra.

Exit codes: 0 success, 1 verification mismatch, 2 user/precondition error
(malformed input files included), 3 internal error: a certification failure
(in `verify`, a chain whose reported error is one), or a MapError,
DegreeError or PolyError raised once the input is parsed.

``verify --workers k`` runs the (d, e) chains in at most min(k, chains)
processes; k must be at least 1.

A well-formed command line (a subcommand, its positionals, then each option
in full with its value) is read in one pass with no parser built; argparse
reads every other one and prints all help, usage and errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii as _quote

from .binform import DegreeError, format_binary_form
from .constructor import (
    SINGULAR_ALONG_CURVE,
    UnsupportedCaseError,
    build_chain,
    extend_chain,
    seed_example,
)
from .fields import DEFAULT_PRIME, FieldSpec, FieldError, RATIONALS, parse_field
from .multipoly import (
    CurveContextError,
    HsfError,
    PolyError,
    format_hypersurface,
    parse_hypersurface,
)
from .sheafmap import (
    CertificationError,
    GradedSheafMap,
    MapError,
    _psi_and_delta,
    build_delta,
    format_map,
    map_to_json,
    splitting_of_kernel,
)
from .splitting import (
    EXACT,
    SplittingError,
    SplittingType,
    expected_max,
    format_splitting,
    glue_bound,
    interpolation_count,
    parse_splitting,
    predicted_splitting,
    specializes_to,
    splitting_to_json,
)


class UsageError(ValueError):
    """Command-line arguments that break a precondition of the command."""


USER_ERRORS = (
    UnsupportedCaseError,
    FieldError,
    CurveContextError,
    HsfError,
    SplittingError,
    UsageError,
    OSError,
)
# raised only by a bug once the input is parsed: polynomials, graded maps and
# binary forms are built from validated input
INTERNAL_ERRORS = (CertificationError, MapError, DegreeError, PolyError)


def _json(obj, nl: str = "\n") -> str:
    """``json.dumps(obj, indent=2)``, byte for byte.  With ``indent`` set the
    stdlib leaves its C encoder for Python generators, one per container
    level.  Here every str goes through the C ``encode_basestring_ascii``
    (what ``ensure_ascii`` runs), an exact str or int item is written
    without a call of its own, and each container is joined once.  A dict
    key that is not a str raises TypeError in ``_quote``."""
    inner = nl + "  "
    if isinstance(obj, dict):
        items = [
            _quote(k) + ": " + (_quote(v) if type(v) is str else repr(v) if type(v) is int else _json(v, inner))
            for k, v in obj.items()
        ]
        return "{" + inner + ("," + inner).join(items) + nl + "}" if items else "{}"
    if isinstance(obj, (list, tuple)):
        items = [_quote(v) if type(v) is str else repr(v) if type(v) is int else _json(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + nl + "]" if items else "[]"
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, int) and not isinstance(obj, bool):
        return int.__repr__(obj)
    return json.dumps(obj)  # bool, None, float: the same text with or without indent


def _emit(args, payload: dict, text) -> None:
    """Write the payload as JSON (``_json``: the bytes of ``json.dumps(payload,
    indent=2)``, which under ``indent`` runs the stdlib's pure-Python encoder
    instead of its C one), or ``text()`` (built only for text output)."""
    out = _json(payload) + "\n" if args.format == "json" else text()
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


# -- compute -----------------------------------------------------------------------


def _case_report(F) -> dict:
    d, e, n = F.context.d, F.context.e, F.context.n
    psi, delta = _psi_and_delta(F)
    T = splitting_of_kernel(delta)
    # deg ker delta = Σsource - de exactly when delta is onto everywhere (_nullity_scan)
    if T.degree != sum(delta.source) - d * e:
        raise UsageError(SINGULAR_ALONG_CURVE)
    N = splitting_of_kernel(psi)
    pred = predicted_splitting(d, e, n)
    return {
        "params": {"d": d, "e": e, "n": n, "field": str(F.context.field)},
        "F": format_hypersurface(F),
        "psi": map_to_json(psi),
        "delta": map_to_json(delta),
        "T_splitting": splitting_to_json(T),
        "N_splitting": splitting_to_json(N),
        "balanced": {"T": T.is_balanced(), "N": N.is_balanced()},
        "interpolation": interpolation_count(T),
        "expected": expected_max(d, e, n),
        "provenance": pred.provenance,
        "predicted": splitting_to_json(pred.splitting) if pred.verdict == EXACT else pred.verdict,
        # smooth_along_curve: the degree test above; the kernel_* keys: the scan's
        # certified ker delta ≅ ⊕O(a_i), which is a generating matrix with zero
        # composite, full rank everywhere and source (a_i)
        "certificates": {
            "smooth_along_curve": True,
            "kernel_compose_zero": True,
            "kernel_full_rank": True,
            "kernel_source": list(reversed(T.parts)),
        },
    }


def _report_text(rep: dict) -> str:
    p = rep["params"]
    lines = [
        f"case d={p['d']} e={p['e']} n={p['n']} over {p['field']}",
        "",
        "hypersurface:",
        *("  " + ln for ln in rep["F"].rstrip("\n").splitlines()),
        "",
        "psi = " + _row_text(rep["psi"]),
        "delta = " + _row_text(rep["delta"]),
        "",
        f"T_X|_C = {format_splitting(SplittingType(tuple(rep['T_splitting'])))}"
        f"  ({'balanced' if rep['balanced']['T'] else 'not balanced'})",
        f"N_C/X  = {format_splitting(SplittingType(tuple(rep['N_splitting'])))}"
        f"  ({'balanced' if rep['balanced']['N'] else 'not balanced'})",
        f"interpolation: {rep['interpolation']} point(s), expected max {rep['expected']}",
        f"smooth along curve: {'yes' if rep['certificates']['smooth_along_curve'] else 'no'}",
        f"catalog: {rep['predicted']} [{rep['provenance']}]",
        "",
    ]
    return "\n".join(lines)


def _row_text(mjson: dict) -> str:
    by_col = {j: text for _, j, text in mjson["entries"]}
    return "( " + ", ".join(by_col.get(j + 1, "0") for j in range(mjson["cols"])) + " )"


def _read_poly(args, field: FieldSpec, names: str):
    """The hypersurface in --poly; refuses a --d/--e/--n in names that disagrees with it."""
    # utf-8-sig drops a leading byte-order mark, which some editors write
    with open(args.poly, encoding="utf-8-sig") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise HsfError(f"{args.poly} is not UTF-8 text ({exc.reason}: {exc.object[exc.start]:#04x})") from None
    F = parse_hypersurface(text, field if args.field else None)
    for name in names:
        got, want = getattr(args, name), getattr(F.context, name)
        if got is not None and got != want:
            raise UsageError(f"--{name} {got} disagrees with the input file ({want})")
    return F


def cmd_compute(args) -> int:
    field = parse_field(args.field) if args.field else RATIONALS
    if args.poly:
        F = _read_poly(args, field, "den")
    elif None in (args.d, args.e, args.n):
        raise UsageError("compute needs --poly FILE or all of --d/--e/--n")
    else:
        F, _ = build_chain(args.d, args.e, args.n, field)
    rep = _case_report(F)
    _emit(args, rep, lambda: _report_text(rep))
    return 0


# -- verify ------------------------------------------------------------------------


def _verify_chain_job(job) -> list[dict]:
    """One (d, e) chain: every level up to n_max, compared to the catalog.

    A quadric chain's polynomial is Σ Q_{i,i+1} at every level (constructor.
    _seed_quadric_chain), so at level n, delta = [M | 0] and psi = [P | 0]
    with n - e zero columns of twist e, M and P the first e and e - 1
    columns.  Zero-column lemma: a one-row map [M | 0] has kernel
    ker M ⊕ ⊕O(b_j) over its zero columns.  So M and P, built once at n_max,
    are scanned once each: T_n = ker M ⊕ O(e)^(n-e), N_n = ker P ⊕ O(e)^(n-e).
    A linear part would fill the zero columns: it raises CertificationError.
    A d >= 3 chain reads its splittings off the certified extension steps."""
    theorem, d, e, n_max, field = job

    def run(field_now):
        if d == 2:
            F, _ = build_chain(2, e, n_max, field_now)
            if F.linear_coeffs:
                raise CertificationError("the quadric chain polynomial has a linear part")
            psi, delta = _psi_and_delta(F)
            T = splitting_of_kernel(GradedSheafMap(field_now, delta.source[:e], delta.target, delta.entries))
            N = splitting_of_kernel(GradedSheafMap(field_now, psi.source[: e - 1], psi.target, psi.entries))
            return [
                _verify_case(SplittingType(T.parts + (e,) * (n - e)), field_now, 2, e, n, None,
                             SplittingType(N.parts + (e,) * (n - e)))
                for n in range(max(e, 3), n_max + 1)
            ]
        F, steps = build_chain(d, e, n_max, field_now)
        # extend_dimension certified the seed's kernel matrix (J's source) and each
        # step's N as the kernel of its delta_out (the delta output_F keeps)
        T = SplittingType(steps[0].J.source) if steps else splitting_of_kernel(build_delta(F))
        return [_verify_case(T, field_now, d, e, e, None)] + [
            _verify_case(st.target_splitting, field_now, d, e, st.output_F.context.n, st.strategy) for st in steps
        ]

    def error(exc, field_now) -> list[dict]:
        return [{"d": d, "e": e, "n": None, "status": "error", "detail": str(exc), "field": str(field_now),
                 "error": type(exc).__name__}]

    try:
        results = run(field)
    except (CertificationError, UnsupportedCaseError, CurveContextError) as exc:
        results = error(exc, field)
    if field.p is not None and any(r["status"] != "ok" for r in results):
        # modular failures are re-checked over the rationals before reporting
        try:
            rational = run(RATIONALS)
            for r in rational:
                r["backstop"] = "rational"
            results = rational
        except (CertificationError, UnsupportedCaseError) as exc:
            results = error(exc, RATIONALS)
    return results


def _verify_case(T, field: FieldSpec, d: int, e: int, n: int, strategy, N=None) -> dict:
    """One level of a chain, with no scan of its own: the splitting T of
    ker delta (read off a scan, or certified by the extension step) against
    the catalog, and for quadrics (N given) the balance of the splitting N
    of ker psi."""
    pred = predicted_splitting(d, e, n)
    rec = {
        "d": d,
        "e": e,
        "n": n,
        "got": splitting_to_json(T),
        "want": splitting_to_json(pred.splitting),
        "provenance": pred.provenance,
        "field": str(field),
    }
    if strategy:
        rec["strategy"] = strategy
    ok = T.parts == pred.splitting.parts
    if N is not None:
        rec["N_balanced"] = N.is_balanced()
        ok = ok and N.is_balanced()
    rec["status"] = "ok" if ok else "mismatch"
    return rec


def _verify_jobs(args) -> list[tuple]:
    # one FieldSpec per sweep, so the prime is tested once: a FieldSpec
    # crosses the process pool by pickle, which does not call __init__
    field = parse_field(args.field) if args.field else FieldSpec(DEFAULT_PRIME)
    n_max = args.max_n
    if args.theorem == "general":
        if not args.d or args.d < 5:
            raise UsageError("verify --theorem general needs --d >= 5")
        lo = 2 * args.d - 2
        first = f"e = n = {lo}"
        jobs = [("general", args.d, n, n, field) for n in range(lo, n_max + 1)]
    else:
        if args.d is not None:
            raise UsageError(f"--d applies to --theorem general only, not {args.theorem}")
        d = {"quadrics": 2, "cubics": 3, "quartics": 4}[args.theorem]
        lo = max(d, 3)  # the quadric chains start at e = 2, their cases at n = 3
        first = "e = 2, n = 3" if d == 2 else f"e = n = {d}"
        jobs = [(args.theorem, d, e, n_max, field) for e in range(d, n_max + 1)]
    if n_max < lo:
        raise UsageError(f"--max-n {n_max} below the first case {first}")
    return jobs


def cmd_verify(args) -> int:
    if args.workers < 1:
        raise UsageError(f"--workers {args.workers} must be at least 1")
    jobs = _verify_jobs(args)
    # one process per chain at most: a fork pool starts all its workers at once
    workers = min(args.workers, len(jobs))
    if workers > 1:
        import concurrent.futures  # with logging, 3 ms of import a one-worker run skips

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_verify_chain_job, jobs))
    else:
        chunks = [_verify_chain_job(job) for job in jobs]
    cases = [rec for chunk in chunks for rec in chunk]
    cases.sort(key=lambda r: (r["d"], r["e"], r["n"] if r["n"] is not None else -1))
    by_tag: dict = {}
    failed = [r for r in cases if r["status"] != "ok"]
    for r in cases:
        tag = r.get("provenance", "error")
        ok, tot = by_tag.get(tag, (0, 0))
        by_tag[tag] = (ok + (1 if r["status"] == "ok" else 0), tot + 1)
    payload = {
        "theorem": args.theorem,
        "cases": cases,
        "summary": {
            "total": len(cases),
            "ok": len(cases) - len(failed),
            "failed": len(failed),
            "by_provenance": {tag: {"ok": ok, "total": tot} for tag, (ok, tot) in sorted(by_tag.items())},
        },
    }

    def text() -> str:
        lines = []
        for r in cases:
            if r["status"] == "ok":
                extra = f" via {r['strategy']}" if "strategy" in r else ""
                bs = " (rational backstop)" if r.get("backstop") else ""
                lines.append(
                    f"ok   d={r['d']} e={r['e']} n={r['n']} {r['got']} [{r['provenance']}]{extra}{bs}"
                )
            elif r["status"] == "mismatch":
                lines.append(
                    f"FAIL d={r['d']} e={r['e']} n={r['n']} got {r['got']} want {r['want']} [{r['provenance']}]"
                )
            else:
                lines.append(f"ERROR d={r['d']} e={r['e']}: {r['detail']}")
        lines.append("")
        lines.append(f"{payload['summary']['ok']}/{payload['summary']['total']} cases ok")
        for tag, (ok, tot) in sorted(by_tag.items()):
            lines.append(f"  {tag}: {ok}/{tot}")
        return "\n".join(lines) + "\n"

    _emit(args, payload, text)
    # a reported error comes from the last field tried: over GF(p), the rational backstop
    if any(r.get("error") == "CertificationError" for r in failed):
        return 3
    return 1 if failed else 0


# -- extend ------------------------------------------------------------------------


def cmd_extend(args) -> int:
    field = parse_field(args.field) if args.field else RATIONALS
    if args.poly:
        F = _read_poly(args, field, "de")
    else:
        if None in (args.d, args.e):
            raise UsageError("extend needs --poly FILE or --d/--e (seed at n = e)")
        F = seed_example(args.d, args.e, field)
    ctx = F.context
    if args.to_n <= ctx.n:
        raise UsageError(f"--to-n {args.to_n} must exceed the current dimension {ctx.n}")
    steps = extend_chain(F, args.to_n)
    payload = {
        "input": format_hypersurface(F),
        "steps": [
            {
                "n": st.output_F.context.n,
                "strategy": st.strategy,
                "target": splitting_to_json(st.target_splitting),
                "J": map_to_json(st.J),
                "N": map_to_json(st.N),
                "delta": map_to_json(st.delta_out),
                "g": format_binary_form(st.g),
                "output": format_hypersurface(st.output_F),
                "certificates": {
                    "N_full_rank": True,
                    "delta_compose_N_zero": True,
                    "splitting": splitting_to_json(st.target_splitting),
                },
            }
            for st in steps
        ],
        "output": format_hypersurface(steps[-1].output_F),
    }

    def text() -> str:
        blocks = ["input hypersurface:", payload["input"]]
        for st in steps:
            blocks += [
                f"-- step to n = {st.output_F.context.n} (strategy {st.strategy}, "
                f"target {format_splitting(st.target_splitting)})",
                "J:",
                format_map(st.J),
                "N:",
                format_map(st.N),
                "delta:",
                format_map(st.delta_out),
                f"g = {format_binary_form(st.g)}",
                "output hypersurface:",
                format_hypersurface(st.output_F),
            ]
        return "\n".join(blocks)

    _emit(args, payload, text)
    return 0


# -- small splitting-algebra commands -------------------------------------------------


def cmd_glue(args) -> int:
    A, B = parse_splitting(args.A), parse_splitting(args.B)
    out = glue_bound(A, B)
    _emit(args, {"glued": splitting_to_json(out)}, lambda: json.dumps(splitting_to_json(out)) + "\n")
    return 0


def cmd_dominates(args) -> int:
    A, B = parse_splitting(args.A), parse_splitting(args.B)
    res = specializes_to(A, B)
    _emit(args, {"dominates": res}, lambda: ("true" if res else "false") + "\n")
    return 0


def cmd_interp(args) -> int:
    S = parse_splitting(args.splitting)
    count = interpolation_count(S)
    payload = {"interpolation": count}
    text = f"interpolates up to {count} point(s)\n"
    missing = [f"--{x}" for x in "den" if getattr(args, x) is None]
    if 0 < len(missing) < 3:
        raise UsageError(f"interp needs all of --d/--e/--n or none of them; missing {', '.join(missing)}")
    if not missing:
        exp = expected_max(args.d, args.e, args.n)
        payload["expected"] = exp
        text = f"interpolates up to {count} point(s); expected max {exp}\n"
    _emit(args, payload, lambda: text)
    return 0


def cmd_predict(args) -> int:
    pred = predicted_splitting(args.d, args.e, args.n)
    payload = {
        "verdict": pred.verdict,
        "splitting": splitting_to_json(pred.splitting) if pred.splitting else None,
        "provenance": pred.provenance,
    }
    if pred.verdict == EXACT:
        payload["balanced"] = pred.splitting.is_balanced()
        text = (
            f"{format_splitting(pred.splitting)} "
            f"({'balanced' if pred.splitting.is_balanced() else 'not balanced'}) "
            f"[{pred.provenance}]\n"
        )
    else:
        text = f"{pred.verdict} [{pred.provenance}]\n"
    _emit(args, payload, lambda: text)
    return 0


# -- entry point -----------------------------------------------------------------------


def _arg(*flags, **options) -> tuple:
    return flags, options


_COMMON = (
    _arg("--format", choices=("text", "json"), default="text"),
    _arg("--output", help="write the report to a file instead of stdout"),
)
# only the commands that build a hypersurface take a field
_COMMON_AND_FIELD = (*_COMMON, _arg("--field", help="rational or prime:<p>"))
_DEN = tuple(_arg(f"--{x}", type=int) for x in "den")

# name -> (help line, handler, its arguments)
_COMMANDS = {
    "compute": (
        "splitting data of a given or generated hypersurface",
        cmd_compute,
        (*_DEN, _arg("--poly", help="hypersurface file"), *_COMMON_AND_FIELD),
    ),
    "verify": (
        "sweep a published table and compare every case",
        cmd_verify,
        (
            _arg("--theorem", required=True, choices=("quadrics", "cubics", "quartics", "general")),
            _arg("--d", type=int, help="hypersurface degree (general theorem only)"),
            _arg("--max-n", type=int, required=True, dest="max_n"),
            _arg("--workers", type=int, default=1),
            *_COMMON_AND_FIELD,
        ),
    ),
    "extend": (
        "run the dimension-extension engine",
        cmd_extend,
        (
            _arg("--poly", help="hypersurface file to extend"),
            *_DEN[:2],
            _arg("--to-n", type=int, required=True, dest="to_n"),
            *_COMMON_AND_FIELD,
        ),
    ),
    "glue": ("index-wise gluing bound of two splittings", cmd_glue, (_arg("A"), _arg("B"), *_COMMON)),
    "dominates": ("specialization dominance of two splittings", cmd_dominates, (_arg("A"), _arg("B"), *_COMMON)),
    "interp": ("interpolation count of a splitting", cmd_interp, (_arg("splitting"), *_DEN, *_COMMON)),
    "predict": (
        "catalog prediction for (d, e, n)",
        cmd_predict,
        (*(_arg(f"--{x}", type=int, required=True) for x in "den"), *_COMMON),
    ),
}


def _full_parser() -> argparse.ArgumentParser:
    """Every subcommand with all of its arguments: the parser that prints all
    help, usage and errors, for every argv that _read_command leaves over."""
    ap = argparse.ArgumentParser(
        prog="rncsplit",
        description="Splitting types of restricted tangent and normal bundles of "
        "rational normal curves on hypersurfaces (exact arithmetic).",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_line, func, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.set_defaults(func=func, command=name)
    return ap


def _read_command(argv: list) -> argparse.Namespace | None:
    """The Namespace the full parser makes of a well-formed command, read in
    one pass with no parser built; None for any other argv.  Well formed: a
    subcommand, exactly its positionals, then ``--option value`` pairs, each
    option named in full at most once; no word after the subcommand starts
    with ``-`` save the option names; every value passes its type and
    choices, and every required option is given."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, func, arguments = _COMMANDS[argv[0]]
    positionals = [flags[0] for flags, _ in arguments if not flags[0].startswith("-")]
    words, pairs = argv[1 : len(positionals) + 1], argv[len(positionals) + 1 :]
    given = dict(zip(positionals, words))
    given.update(zip(pairs[::2], pairs[1::2]))
    # a short or odd argv, a repeated option, or one named like a positional
    if len(words) < len(positionals) or 2 * len(given) != 2 * len(positionals) + len(pairs):
        return None
    if any(w.startswith("-") for w in words + pairs[1::2]):
        return None
    args = argparse.Namespace(func=func, command=argv[0])
    for (flag,), options in arguments:
        if flag in given:
            try:
                value = options.get("type", str)(given.pop(flag))
            except ValueError:
                return None
            if value not in options.get("choices", (value,)):
                return None
        elif options.get("required"):
            return None
        else:
            value = options.get("default")
        # argparse's dest: a positional's name, an option's name less "--"
        # with "-" read as "_" (no positional name holds a "-")
        setattr(args, options.get("dest", flag.lstrip("-").replace("-", "_")), value)
    return None if given else args  # what is left is an unknown option


def _parse_args(argv: list) -> argparse.Namespace:
    return _read_command(argv) or _full_parser().parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_args(argv)
    try:
        return args.func(args)
    except USER_ERRORS as exc:  # first: an HsfError is also a PolyError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except INTERNAL_ERRORS as exc:
        what = "certification failure" if isinstance(exc, CertificationError) else "internal error"
        print(f"{what}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: compute splittings, verify the published tables over
parameter sweeps, run dimension extensions, and expose the splitting algebra.

Exit codes: 0 success, 1 verification mismatch, 2 user/precondition error,
3 internal certification failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .binform import DegreeError, format_binary_form
from .constructor import (
    PsiLiftError,
    UnsupportedCaseError,
    build_chain,
    extend_chain,
    seed_example,
)
from .fields import DEFAULT_PRIME, FieldSpec, FieldError, RATIONALS, parse_field
from .multipoly import (
    CurveContextError,
    PolyError,
    format_hypersurface,
    parse_hypersurface,
)
from .sheafmap import (
    CertificationError,
    MapError,
    _delta_from_psi,
    _onto_everywhere,
    build_delta,
    build_psi,
    format_map,
    kernel_matrix,
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
    PsiLiftError,
    FieldError,
    CurveContextError,
    PolyError,
    SplittingError,
    UsageError,
    OSError,
)
# raised only by a bug once the input is parsed: graded maps and binary forms
# are built from validated input
INTERNAL_ERRORS = (CertificationError, MapError, DegreeError)


def _emit(args, payload: dict, text: str) -> None:
    out = json.dumps(payload, indent=2) + "\n" if args.format == "json" else text
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


# -- compute -----------------------------------------------------------------------


def _case_report(F, d: int, e: int, n: int) -> dict:
    psi = build_psi(F)
    delta = _delta_from_psi(F.context, psi)
    if not _onto_everywhere(delta):
        raise UsageError(
            "the hypersurface is singular along the curve (delta is not onto O(de) "
            "at every point), so ker delta is not T_X|_C"
        )
    K = kernel_matrix(delta)
    T = SplittingType(tuple(sorted(K.source)))
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
        "certificates": {
            "smooth_along_curve": True,
            "kernel_compose_zero": True,
            "kernel_full_rank": True,
            "kernel_source": list(K.source),
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


def cmd_compute(args) -> int:
    field = parse_field(args.field) if args.field else RATIONALS
    if args.poly:
        with open(args.poly, encoding="utf-8") as fh:
            F = parse_hypersurface(fh.read(), field if args.field else None)
        ctx = F.context
        for name, got in (("d", args.d), ("e", args.e), ("n", args.n)):
            if got is not None and got != getattr(ctx, name):
                raise UsageError(f"--{name} {got} disagrees with the input file ({getattr(ctx, name)})")
        d, e, n = ctx.d, ctx.e, ctx.n
    else:
        if None in (args.d, args.e, args.n):
            raise UsageError("compute needs --poly FILE or all of --d/--e/--n")
        d, e, n = args.d, args.e, args.n
        F, _ = build_chain(d, e, n, field)
    rep = _case_report(F, d, e, n)
    _emit(args, rep, _report_text(rep))
    return 0


# -- verify ------------------------------------------------------------------------


def _verify_chain_job(job) -> list[dict]:
    """One (d, e) chain: every level up to n_max, compared to the catalog."""
    theorem, d, e, n_max, p = job
    field = FieldSpec(p) if p else RATIONALS
    results = []

    def run(field_now):
        out = []
        if d == 2:
            for n in range(max(e, 3), n_max + 1):
                F, _ = build_chain(2, e, n, field_now)
                psi = build_psi(F)
                out.append(_verify_case(_delta_from_psi(F.context, psi), 2, e, n, None, psi))
            return out
        F, steps = build_chain(d, e, n_max, field_now)
        out.append(_verify_case(build_delta(steps[0].input_F if steps else F), d, e, e, None))
        # each step's delta_out is certified equal to build_delta(output_F)
        for st in steps:
            out.append(_verify_case(st.delta_out, d, e, st.output_F.context.n, st.strategy))
        return out

    try:
        results = run(field)
    except (CertificationError, UnsupportedCaseError, CurveContextError) as exc:
        results = [
            {
                "d": d,
                "e": e,
                "n": None,
                "status": "error",
                "detail": str(exc),
                "field": str(field),
            }
        ]
    if field.p is not None and any(r["status"] != "ok" for r in results):
        # modular failures are re-checked over the rationals before reporting
        try:
            rational = run(RATIONALS)
            for r in rational:
                r["backstop"] = "rational"
            results = rational
        except (CertificationError, UnsupportedCaseError) as exc:
            results = [
                {
                    "d": d,
                    "e": e,
                    "n": None,
                    "status": "error",
                    "detail": str(exc),
                    "field": "rational",
                }
            ]
    return results


def _verify_case(delta, d: int, e: int, n: int, strategy, psi=None) -> dict:
    """One level of a chain: the scanned splitting of ker delta against the
    catalog, and for quadrics (psi given) the balance of ker psi."""
    pred = predicted_splitting(d, e, n)
    T = splitting_of_kernel(delta)
    rec = {
        "d": d,
        "e": e,
        "n": n,
        "got": splitting_to_json(T),
        "want": splitting_to_json(pred.splitting),
        "provenance": pred.provenance,
        "field": str(delta.field),
    }
    if strategy:
        rec["strategy"] = strategy
    ok = T.parts == pred.splitting.parts
    if psi is not None:
        N = splitting_of_kernel(psi)
        rec["N_balanced"] = N.is_balanced()
        ok = ok and N.is_balanced()
    rec["status"] = "ok" if ok else "mismatch"
    return rec


def _verify_jobs(args) -> list[tuple]:
    p = None if args.field and parse_field(args.field).p is None else (
        parse_field(args.field).p if args.field else DEFAULT_PRIME
    )
    n_max = args.max_n
    if args.theorem == "quadrics":
        return [("quadrics", 2, e, n_max, p) for e in range(2, n_max + 1)]
    if args.theorem == "cubics":
        return [("cubics", 3, e, n_max, p) for e in range(3, n_max + 1)]
    if args.theorem == "quartics":
        return [("quartics", 4, e, n_max, p) for e in range(4, n_max + 1)]
    if args.theorem == "general":
        if not args.d or args.d < 5:
            raise UsageError("verify --theorem general needs --d >= 5")
        lo = 2 * args.d - 2
        if lo > n_max:
            raise UsageError(f"--max-n {n_max} below the first case e = n = {lo}")
        return [("general", args.d, n, n, p) for n in range(lo, n_max + 1)]
    raise UsageError(f"unknown theorem {args.theorem!r}")


def cmd_verify(args) -> int:
    jobs = _verify_jobs(args)
    if args.workers > 1:
        import concurrent.futures  # with logging, 3 ms of import a one-worker run skips

        with concurrent.futures.ProcessPoolExecutor(max_workers=args.workers) as pool:
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
    _emit(args, payload, "\n".join(lines) + "\n")
    return 1 if failed else 0


# -- extend ------------------------------------------------------------------------


def cmd_extend(args) -> int:
    field = parse_field(args.field) if args.field else RATIONALS
    if args.poly:
        with open(args.poly, encoding="utf-8") as fh:
            F = parse_hypersurface(fh.read(), field if args.field else None)
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
    _emit(args, payload, "\n".join(blocks))
    return 0


# -- small splitting-algebra commands -------------------------------------------------


def cmd_glue(args) -> int:
    A, B = parse_splitting(args.A), parse_splitting(args.B)
    out = glue_bound(A, B)
    _emit(args, {"glued": splitting_to_json(out)}, json.dumps(splitting_to_json(out)) + "\n")
    return 0


def cmd_dominates(args) -> int:
    A, B = parse_splitting(args.A), parse_splitting(args.B)
    res = specializes_to(A, B)
    _emit(args, {"dominates": res}, ("true" if res else "false") + "\n")
    return 0


def cmd_interp(args) -> int:
    S = parse_splitting(args.splitting)
    count = interpolation_count(S)
    payload = {"interpolation": count}
    text = f"interpolates up to {count} point(s)\n"
    if args.d is not None and args.e is not None and args.n is not None:
        exp = expected_max(args.d, args.e, args.n)
        payload["expected"] = exp
        text = f"interpolates up to {count} point(s); expected max {exp}\n"
    _emit(args, payload, text)
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
    _emit(args, payload, text)
    return 0


# -- entry point -----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rncsplit",
        description="Splitting types of restricted tangent and normal bundles of "
        "rational normal curves on hypersurfaces (exact arithmetic).",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--output", help="write the report to a file instead of stdout")
        p.add_argument("--field", help="rational or prime:<p>")

    p = sub.add_parser("compute", help="splitting data of a given or generated hypersurface")
    p.add_argument("--d", type=int)
    p.add_argument("--e", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--poly", help="hypersurface file")
    common(p)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("verify", help="sweep a published table and compare every case")
    p.add_argument("--theorem", required=True, choices=("quadrics", "cubics", "quartics", "general"))
    p.add_argument("--d", type=int, help="hypersurface degree (general theorem only)")
    p.add_argument("--max-n", type=int, required=True, dest="max_n")
    p.add_argument("--workers", type=int, default=1)
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("extend", help="run the dimension-extension engine")
    p.add_argument("--poly", help="hypersurface file to extend")
    p.add_argument("--d", type=int)
    p.add_argument("--e", type=int)
    p.add_argument("--to-n", type=int, required=True, dest="to_n")
    common(p)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("glue", help="index-wise gluing bound of two splittings")
    p.add_argument("A")
    p.add_argument("B")
    common(p)
    p.set_defaults(func=cmd_glue)

    p = sub.add_parser("dominates", help="specialization dominance of two splittings")
    p.add_argument("A")
    p.add_argument("B")
    common(p)
    p.set_defaults(func=cmd_dominates)

    p = sub.add_parser("interp", help="interpolation count of a splitting")
    p.add_argument("splitting")
    p.add_argument("--d", type=int)
    p.add_argument("--e", type=int)
    p.add_argument("--n", type=int)
    common(p)
    p.set_defaults(func=cmd_interp)

    p = sub.add_parser("predict", help="catalog prediction for (d, e, n)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_predict)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except INTERNAL_ERRORS as exc:
        what = "certification failure" if isinstance(exc, CertificationError) else "internal error"
        print(f"{what}: {exc}", file=sys.stderr)
        return 3
    except USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

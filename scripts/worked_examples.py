#!/usr/bin/env python3
"""Walk through the two benchmark surfaces and one induction chain, printing
every intermediate object: psi, delta, the kernel matrix, both splittings,
and the extension data (J, N, the extended delta whose kernel N generates, and
the lifted coefficient).
"""

from rncsplit import (
    CurveContext,
    IdealCombination,
    RATIONALS,
    SplittingType,
    build_chain,
    build_delta,
    build_psi,
    format_hypersurface,
    format_splitting,
    kernel_matrix,
    parse_poly,
    splitting_of_kernel,
)
from rncsplit.sheafmap import format_map


def show(title: str, body: str) -> None:
    print(f"--- {title}")
    print(body.rstrip("\n"))
    print()


def quintic_surface() -> None:
    ctx = CurveContext(5, 3, 3, RATIONALS)
    F = IdealCombination(
        ctx,
        {(1, 2): parse_poly("x0^3", ctx, 3), (2, 3): parse_poly("x3^3", ctx, 3)},
        {},
    )
    show("quintic surface through the twisted cubic", format_hypersurface(F))
    psi, delta = build_psi(F), build_delta(F)
    show("psi", format_map(psi))
    show("delta = psi o beta", format_map(delta))
    K = kernel_matrix(delta)
    show("kernel matrix of delta", format_map(K))
    T, N = SplittingType(tuple(sorted(K.source))), splitting_of_kernel(psi)
    print(f"T_X|_C = {format_splitting(T)}   (not balanced)")
    print(f"N_C/X  = {format_splitting(N)}   (balanced)")
    print()


def cubic_chain() -> None:
    F, steps = build_chain(3, 3, 5, RATIONALS)
    show("cubic seed extended from n = 3 to n = 5", format_hypersurface(F))
    for st in steps:
        n = st.output_F.context.n
        print(f"step to n = {n}: strategy {st.strategy}, target {format_splitting(st.target_splitting)}")
        show("  J", format_map(st.J))
        show("  N", format_map(st.N))
        show("  delta", format_map(st.delta_out))


if __name__ == "__main__":
    quintic_surface()
    cubic_chain()

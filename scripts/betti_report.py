#!/usr/bin/env python3
"""Betti table report for powers of minors.

Prints the numeric Betti table of the b-th powers of the a x a minors of a
generic m x n matrix, then the equivariant strand decomposition: for every
homological index the irreducible summands with their weights, internal
degrees, multiplicities, and dimensions. A domain error, such as a minor
size larger than n, is one "error: ..." line on stderr and exit status 1.
"""

from __future__ import annotations

import argparse
import sys
from itertools import groupby

from glinv import MatrixContext, betti_polynomial, betti_table, dim_term
from glinv.cli import quiet_on_broken_pipe


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("m", type=int)
    ap.add_argument("n", type=int)
    ap.add_argument("a", type=int, help="minor size")
    ap.add_argument("b", type=int, help="power")
    args = ap.parse_args(argv)

    try:
        ctx = MatrixContext(args.m, args.n)
        bp = betti_polynomial(ctx, args.a, args.b)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    tab = betti_table(ctx, args.a, args.b)

    print(f"powers b={args.b} of the {args.a}x{args.a} minors, "
          f"{ctx.m}x{ctx.n} matrix")
    print()
    print(tab.render())
    print()
    totals = tab.totals()
    for i, group in groupby(bp.items(), key=lambda it: it[0]):
        print(f"index {i} (beta = {totals[i]}):")
        for _, term in group:
            wm = ",".join(map(str, term.wm))
            wn = ",".join(map(str, term.wn))
            dim = dim_term(term, ctx.m, ctx.n)
            mult = f" x{term.multiplicity}" if term.multiplicity != 1 else ""
            print(f"  deg {term.degree:>3}  S({wm}) * S({wn}){mult}  dim {dim}")
    return 0


if __name__ == "__main__":
    raise SystemExit(quiet_on_broken_pipe(main))

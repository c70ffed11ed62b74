#!/usr/bin/env python3
"""Tabulate regularity of the power families against the closed forms.

For a square matrix the Castelnuovo-Mumford regularity of the ordinary,
symbolic, and saturated powers of the ideal of p x p minors follows
piecewise closed forms once the exponent clears n - 1. The scan prints the
exact engine value next to each prediction; a star marks any disagreement,
so a clean run prints no stars.
"""

from __future__ import annotations

import argparse

from glinv import (
    MatrixContext,
    power_of_minors,
    regularity,
    saturated_power,
    symbolic_power,
)
from glinv.cli import quiet_on_broken_pipe


def predicted_power(n: int, p: int, d: int) -> int | None:
    if p == 1:
        return d
    if p == n:
        return n * d
    if p == 2 and d <= n - 1:
        return d + n - 1
    if d >= n - 1:
        return p * d + ((p - 1) // 2) * (p // 2)
    return None


def predicted_symbolic(n: int, p: int, d: int) -> int | None:
    if p in (1, n) or d >= n - 1:
        return p * d
    return None


def _cell(value: int, predicted: int | None) -> str:
    if predicted is None:
        return f"{value:>4} {'?':>4} "
    mark = " " if value == predicted else "*"
    return f"{value:>4} {predicted:>4}{mark}"


def scan(max_n: int, max_d: int) -> int:
    mismatches = 0
    print(f"{'n':>2} {'p':>2} {'d':>2}   {'power pred':>10}  "
          f"{'symb pred':>10}  {'sat pred':>10}")
    for n in range(2, max_n + 1):
        ctx = MatrixContext(n, n)
        for p in range(1, n + 1):
            for d in range(1, max_d + 1):
                rp = regularity(power_of_minors(ctx, p, d))
                rsym = regularity(symbolic_power(ctx, p, d))
                cells = [
                    _cell(rp, predicted_power(n, p, d)),
                    _cell(rsym, predicted_symbolic(n, p, d)),
                ]
                if p >= 2:
                    rsat = regularity(saturated_power(ctx, p, d))
                    # the saturation agrees with the usual power once the
                    # exponent clears n - 1, and always for maximal minors
                    pred = (predicted_power(n, p, d)
                            if d >= n - 1 or p == n else None)
                    cells.append(_cell(rsat, pred))
                else:
                    # saturating the 1 x 1 minors gives the unit ideal
                    cells.append(f"{'-':>4} {'-':>4} ")
                row = f"{n:>2} {p:>2} {d:>2}   " + "  ".join(cells)
                mismatches += row.count("*")
                print(row)
    if mismatches:
        print(f"\n{mismatches} mismatches against the closed forms")
        return 1
    print("\nall values match the closed forms (? = no prediction)")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-n", type=int, default=4,
                    help="largest square side to scan (default 4)")
    ap.add_argument("--max-d", type=int, default=5,
                    help="largest exponent to scan (default 5)")
    args = ap.parse_args(argv)
    return scan(args.max_n, args.max_d)


if __name__ == "__main__":
    raise SystemExit(quiet_on_broken_pipe(main))

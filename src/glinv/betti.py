"""Equivariant Betti numbers of powers of determinantal ideals.

The minimal free resolution of the ideal generated by the b-th powers of the
a x a minors is assembled from rectangle blocks h_{r x s}: one irreducible
summand for every pair of partitions (alpha, beta) fitting beside and below
the rectangle. betti_polynomial combines the blocks for the rectangles
(a+t) x (b+t) with Gauss polynomial multiplicities in q^2, and betti_table
flattens the result to numeric Betti numbers beta_{i, degree}.
"""

from __future__ import annotations

from math import comb

from ._record import _Record
from .ideals import MatrixContext
from .partitions import _integer, conjugate, enumerate_in_box, part, qbinomial, size
from .schur import EquivariantCharacter


def h_rect(ctx: MatrixContext, r: int, s: int) -> EquivariantCharacter:
    """Rectangle block h_{r x s}, as a character keyed by the exponent k.

    One term per pair (alpha, beta) with alpha inside the min(r,s) x (n-r)
    box and beta inside the (m-r) x min(r,s) box. The pair sits at exponent
    |alpha| + |beta|, in internal degree r*s plus that exponent, with row
    weight attach(r, s, alpha, beta) and column weight
    attach(r, s, beta', alpha').
    """
    m, n = ctx.m, ctx.n
    r, s = _integer(r, "rectangle height r", 1, n), _integer(s, "rectangle width s", 1)
    ch = EquivariantCharacter()
    edge = min(r, s)
    # attach(r, s, x, y) is (s + x_1, ..., s + x_r) + y, canonical as built:
    # alpha and beta' have at most edge <= r rows, beta_1, alpha'_1 <= edge <= s
    betas = [(beta, tuple(s + part(conjugate(beta), i) for i in range(1, r + 1)), size(beta))
             for beta in enumerate_in_box(m - r, edge)]
    for alpha in enumerate_in_box(edge, n - r):
        row = tuple(s + part(alpha, i) for i in range(1, r + 1))
        alpha_c, a = conjugate(alpha), size(alpha)
        for beta, col, b in betas:
            k = a + b
            ch.add(k, row + beta, col + alpha_c, r * s + k)
    return ch


def betti_polynomial(ctx: MatrixContext, a: int, b: int) -> EquivariantCharacter:
    """Equivariant Betti polynomial of the b-th powers of the a x a minors,
    as a character keyed by homological index.

    Sum over t = 0..n-a of the block for the (a+t) x (b+t) rectangle, with
    every block exponent k landing at homological index k + t^2 + 2t + 2u
    for each exponent 2u of qbinomial(t + min(a,b) - 1, t) taken in q^2,
    weighted by the corresponding Gauss coefficient.
    """
    m, n = ctx.m, ctx.n
    a, b = _integer(a, "minor size a", 1, n), _integer(b, "power b", 1)
    out = EquivariantCharacter()
    for t in range(n - a + 1):
        block = h_rect(ctx, a + t, b + t)._terms.items()
        base = t * t + 2 * t
        for u, gmult in enumerate(qbinomial(t + min(a, b) - 1, t)):
            for (k, degree, wm, wn), mult in block:
                out.add(k + base + 2 * u, wm, wn, degree, mult * gmult)
    return out


def _betti_terms(ctx: MatrixContext, a: int, b: int) -> int:
    """Terms betti_polynomial(ctx, a, b) adds, counted without making them.

    With c = min(a, b), the block of the (a+t) x (b+t) rectangle has one
    term per pair of partitions in the e x (n-a-t) and (m-a-t) x e boxes,
    e = c + t, that is C(n - a + c, e) C(m - a + c, e) terms, and adds each
    once per coefficient of qbinomial(t + c - 1, t), of which there are
    t(c - 1) + 1.
    """
    m, n = ctx.m, ctx.n
    a, b = _integer(a, "minor size a", 1, n), _integer(b, "power b", 1)
    c = min(a, b)
    return sum(comb(n - a + c, c + t) * comb(m - a + c, c + t) * (t * (c - 1) + 1)
               for t in range(n - a + 1))


class BettiTable(_Record):
    """Numeric Betti numbers entries[(i, degree)] of a resolution."""

    __slots__ = ("entries",)
    entries: dict[tuple[int, int], int]

    def totals(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for (i, _), v in self.entries.items():
            out[i] = out.get(i, 0) + v
        return dict(sorted(out.items()))

    def csv_rows(self) -> list[str]:
        rows = ["i,degree,beta"]
        for (i, d), v in sorted(self.entries.items()):
            rows.append(f"{i},{d},{v}")
        return rows

    def render(self) -> str:
        """Grid with one column per homological index and one row per slope
        degree - index, dots marking empty cells."""
        if not self.entries:
            return "(empty resolution)"
        imin = min(i for i, _ in self.entries)
        imax = max(i for i, _ in self.entries)
        slopes = sorted({d - i for i, d in self.entries})
        cols = list(range(imin, imax + 1))
        totals = self.totals()
        header = [""] + [str(i) for i in cols]
        lines = [header, ["total:"] + [str(totals.get(i, 0)) for i in cols]]
        for sl in range(slopes[0], slopes[-1] + 1):
            row = [f"{sl}:"]
            for i in cols:
                v = self.entries.get((i, i + sl))
                row.append(str(v) if v else ".")
            lines.append(row)
        widths = [max(len(line[c]) for line in lines) for c in range(len(cols) + 1)]
        return "\n".join(
            " ".join(cell.rjust(w) for cell, w in zip(line, widths)).rstrip()
            for line in lines
        )


def betti_table(bp: EquivariantCharacter, ctx: MatrixContext) -> BettiTable:
    """Flatten an equivariant Betti polynomial to numeric Betti numbers."""
    return BettiTable(bp.dimension_table(ctx.m, ctx.n))

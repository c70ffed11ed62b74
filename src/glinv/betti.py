"""Equivariant Betti numbers of powers of determinantal ideals.

The minimal free resolution of the ideal generated by the b-th powers of the
a x a minors is assembled from rectangle blocks h_{r x s}: one irreducible
summand for every pair of partitions (alpha, beta) fitting beside and below
the rectangle. betti_polynomial combines the blocks for the rectangles
(a+t) x (b+t) with Gauss polynomial multiplicities in q^2. betti_table gives
the numeric Betti numbers beta_{i, degree} of the same resolution from one
dimension sum per block and exponent, without building the polynomial.
"""

from __future__ import annotations

from math import comb, factorial, prod
from typing import Iterator

from ._record import _Record
from .ideals import MatrixContext
from .partitions import Parts, _integer, conjugate, enumerate_in_box, part, qbinomial, size
from .schur import EquivariantCharacter


def h_rect(ctx: MatrixContext, r: int, s: int) -> EquivariantCharacter:
    """Rectangle block h_{r x s}, as a character keyed by the exponent k.

    One term per pair (alpha, beta) with alpha inside the min(r,s) x (n-r)
    box and beta inside the (m-r) x min(r,s) box. The pair sits at exponent
    |alpha| + |beta|, in internal degree r*s plus that exponent, with row
    weight attach(r, s, alpha, beta) and column weight
    attach(r, s, beta', alpha'); the row weight gives back the pair, so
    each key is written once, with multiplicity 1.
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
            ch._terms[(k, r * s + k, row + beta, col + alpha_c)] = 1
    return ch


def betti_polynomial(ctx: MatrixContext, a: int, b: int) -> EquivariantCharacter:
    """Equivariant Betti polynomial of the b-th powers of the a x a minors,
    as a character keyed by homological index.

    Sum over t = 0..n-a of the block for the (a+t) x (b+t) rectangle, with
    every block exponent k landing at homological index k + t^2 + 2t + 2u
    for each exponent 2u of qbinomial(t + min(a,b) - 1, t) taken in q^2,
    weighted by the corresponding Gauss coefficient. No key is made twice,
    so each is written once, its multiplicity its Gauss coefficient: in
    block t, r = a + t and s = b + t, the row weight wm of h_rect has rows
    1..r at least s and row r + 1 = beta_1 <= min(r, s); a block t' > t has
    rows 1..a + t' >= r + 1 at least b + t' > s, so wm fixes t. Then wm
    fixes alpha and beta, so k; the index k + t^2 + 2t + 2u fixes u.
    """
    m, n = ctx.m, ctx.n
    a, b = _integer(a, "minor size a", 1, n), _integer(b, "power b", 1)
    out = EquivariantCharacter()
    for t in range(n - a + 1):
        block = h_rect(ctx, a + t, b + t)._terms  # every multiplicity is 1
        base = t * t + 2 * t
        for u, gmult in enumerate(qbinomial(t + min(a, b) - 1, t)):
            for k, degree, wm, wn in block:
                out._terms[(k + base + 2 * u, degree, wm, wn)] = gmult
    return out


def _block_terms(ctx: MatrixContext, a: int, b: int) -> Iterator[int]:
    """Terms of the block of the (a+t) x (b+t) rectangle for t = 0..n-a,
    counted without making them and yielded in that order, one product at a
    time: with c = min(a, b) and e = c + t, one per pair of partitions in the
    e x (n-a-t) and (m-a-t) x e boxes, that is C(n - a + c, e)
    C(m - a + c, e). _block_sums sums each once."""
    m, n = ctx.m, ctx.n
    a, b = _integer(a, "minor size a", 1, n), _integer(b, "power b", 1)
    c = min(a, b)
    return (comb(n - a + c, c + t) * comb(m - a + c, c + t) for t in range(n - a + 1))


def _betti_terms(ctx: MatrixContext, a: int, b: int) -> Iterator[int]:
    """Terms (all distinct keys) of betti_polynomial(ctx, a, b), counted
    without making them and yielded block by block: those of block t
    (_block_terms) once per coefficient of qbinomial(t + c - 1, t),
    c = min(a, b), of which there are t(c - 1) + 1.
    """
    blocks = _block_terms(ctx, a, b)
    c = min(a, b)
    return (terms * (t * (c - 1) + 1) for t, terms in enumerate(blocks))


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


def betti_table(ctx: MatrixContext, a: int, b: int) -> BettiTable:
    """Numeric Betti table of the b-th powers of the a x a minors.

    The table of betti_polynomial(ctx, a, b), flattened without building it:
    each rectangle block h_{r x s}, r = a+t, s = b+t, is summed to numbers
    once per exponent k by _block_sums, and each sum is spread by the Gauss
    coefficients to the cell (k + t^2 + 2t + 2u, rs + k), where
    betti_polynomial places the block's terms.
    """
    m, n = ctx.m, ctx.n
    a, b = _integer(a, "minor size a", 1, n), _integer(b, "power b", 1)
    scale = prod(map(factorial, range(m))) * prod(map(factorial, range(n)))
    out: dict[tuple[int, int], int] = {}
    for t in range(n - a + 1):
        r, s = a + t, b + t
        base = t * t + 2 * t
        sums = []
        for k, total in enumerate(_block_sums(m, n, r, s)):
            dim, rest = divmod(total, scale)
            if rest:
                raise ArithmeticError(f"block sum not integral at r={r}, s={s}, k={k}")
            sums.append((k, r * s + k, dim))
        for u, gmult in enumerate(qbinomial(t + min(a, b) - 1, t)):
            for k, degree, dim in sums:
                key = (k + base + 2 * u, degree)
                out[key] = out.get(key, 0) + gmult * dim
    return BettiTable(dict(sorted(out.items())))


def _block_sums(m: int, n: int, r: int, s: int) -> list[int]:
    """sf(m) sf(n) times the dimension of h_{r x s} at each exponent k.

    sf(N) = 0! 1! ... (N-1)! is the Weyl denominator prod_{i<j<=N} (j - i),
    so sf(N) dim_N(w) = prod_{i<j} (x_i - x_j), x_i = w_i - i: a Vandermonde
    product. For the term (alpha, beta) of h_rect, the row weight
    wm = (s + alpha_1, ..., s + alpha_r, beta_1, ..., beta_{m-r}) has
    x_i = s + alpha_i - i for i <= r and x_{r+j} = beta_j - r - j, and the
    product splits into three parts:
    - the pairs inside i <= r: V(h_alpha), h_alpha = (alpha_i + r - i)_i,
      a factor of alpha alone;
    - the pairs inside j: V(u_beta), u_beta = (beta_j - j)_j, a factor of
      beta alone;
    - the pairs across: x_i - x_{r+j} = h_alpha_i + s - u_beta_j, so they
      give prod_i P_beta(h_alpha_i) with P_beta(x) = prod_j (x + s - u_beta_j).
    The column weight wn = (s + beta'_1, ..., s + beta'_r, alpha'_1, ...,
    alpha'_{n-r}) splits the same way with the roles swapped: V(h_beta'),
    V(u_alpha') and prod_i Q_alpha(h_beta'_i). The entries of h_alpha are
    distinct in 0..n-1 (alpha_1 <= n - r) and those of h_beta' in 0..m-1,
    so P_beta is tabulated once per beta at n arguments and Q_alpha once
    per alpha at m; every factor is positive, as beta_j, alpha'_j <= s.
    A term then costs 2r table reads and products on top of the constant
    c_alpha c_beta = V(h_alpha) V(u_alpha') V(h_beta') V(u_beta), and the
    sum at exponent k = |alpha| + |beta| is divisible by sf(m) sf(n) term
    by term. Every k from 0 to the sum of the two box areas occurs.
    """
    edge = min(r, s)
    alphas = [_block_side(x, conjugate(x), r, s, n - r, m) for x in enumerate_in_box(edge, n - r)]
    betas = [_block_side(conjugate(y), y, r, s, m - r, n) for y in enumerate_in_box(m - r, edge)]
    sums = [0] * (edge * (m + n - 2 * r) + 1)
    for ka, ha, ca, qa in alphas:
        for kb, hb, cb, pb in betas:
            v = ca * cb
            for x in ha:
                v *= pb[x]
            for y in hb:
                v *= qa[y]
            sums[ka + kb] += v
    return sums


def _block_side(head: Parts, tail: Parts, r: int, s: int, width: int, args: int):
    """(size, h, c, table) of one side of a block term: head is alpha and
    tail alpha' (width n - r, table over the m arguments of Q_alpha), or head
    is beta' and tail beta (width m - r, table over the n arguments of
    P_beta). h is (head_i + r - i)_{i<=r}, u = (tail_j - j)_{j<=width},
    c = V(h) V(u) and table[x] = prod_j (x + s - u_j)."""
    h = [part(head, i) + r - i for i in range(1, r + 1)]
    u = [part(tail, j) - j for j in range(1, width + 1)]
    c = 1
    for xs in (h, u):
        for i, x in enumerate(xs):
            for y in xs[i + 1:]:
                c *= x - y
    return size(tail), h, c, [prod(x + s - v for v in u) for x in range(args)]

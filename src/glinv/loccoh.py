"""Local cohomology with support in the ideal of p x p minors.

Each nonzero cohomology group H^j is a finite extension of simple
GL-equivariant modules D_0, ..., D_{p-1}, and the multiplicity of D_s in
H^j is the coefficient of q^j in the Gauss polynomial with q replaced by
q^2 and the whole thing shifted by (n-p+1)^2 + (n-s)(m-n). The table
builder below records those multiplicities; ds_character expands the
character of a single factor over a degree window. _lc_table_updates
counts the work of a table, and _ds_weight_count the weights of the
expansion for s = 0, without doing either.
"""

from __future__ import annotations

from ._record import _Record
from .homology import DegreeWindow, _lambdas
from .ideals import MatrixContext
from .partitions import _integer, _qbinomial_updates, qbinomial
from .schur import EquivariantCharacter, _runs


class LCTable(_Record):
    """Multiplicities rows[j][s] of the factor D_s inside H^j, j and s ascending."""

    __slots__ = ("ctx", "p", "rows")
    ctx: MatrixContext
    p: int
    rows: dict[int, dict[int, int]]


def lc_table(ctx: MatrixContext, p: int) -> LCTable:
    """Composition factor multiplicities of the cohomology supported in the
    p x p minors.

    The factor D_s enters through qbinomial(n-s-1, p-1-s) in the variable
    q^2, shifted by (n-p+1)^2 + (n-s)(m-n). In particular all cohomological
    indices carrying D_s share the parity of that shift, and for square
    matrices the whole table lives in one parity class.
    """
    p = _integer(p, "minor size p", 1, ctx.n)
    m, n = ctx.m, ctx.n
    rows: dict[int, dict[int, int]] = {}
    for s in range(p):
        shift = (n - p + 1) ** 2 + (n - s) * (m - n)
        for u, mult in enumerate(qbinomial(n - s - 1, p - 1 - s)):
            rows.setdefault(shift + 2 * u, {})[s] = mult
    return LCTable(ctx, p, {j: rows[j] for j in sorted(rows)})


def _lc_table_updates(ctx: MatrixContext, p: int) -> int:
    """The coefficient updates lc_table(ctx, p) makes, counted without making
    them: those of qbinomial(n-s-1, p-1-s) summed over the factors D_s,
    s = 0..p-1, in closed form. p is checked as lc_table checks it.

    With b = p-1-s and D = n-p, factor D_s makes _qbinomial_updates(b + D, b):
    its b outer steps and, for c = bD + 1 and c = (b-1)D + 1, the sum of
    max(0, c - i) over i = 1..b. At D = 0 both sums are 0. At D >= 1 both
    c are at least b, so each sum is b*c - b(b+1)/2, and the factor costs
    (2D - 1)b^2 + (2 - D)b. The sums over b = 0..p-1 use sum b = p(p-1)/2
    and sum b^2 = (p-1)p(2p-1)/6.
    """
    p = _integer(p, "minor size p", 1, ctx.n)
    d = ctx.n - p
    steps, squares = p * (p - 1) // 2, (p - 1) * p * (2 * p - 1) // 6
    return steps if not d else (2 * d - 1) * squares + (2 - d) * steps


def lc_support(ctx: MatrixContext, p: int) -> tuple[int, int]:
    """Least and greatest cohomological index with nonzero cohomology."""
    rows = lc_table(ctx, p).rows
    return (min(rows), max(rows))


def ds_character(ctx: MatrixContext, s: int, window: DegreeWindow) -> EquivariantCharacter:
    """Windowed character of the simple factor D_s.

    D_s is spanned by the pairs with GL_n weight lam dominant of length n
    subject to lam_s >= s - n and lam_{s+1} <= s - m. Only s = 0 is
    enumerable: there every entry is at most -m, so each degree cuts out a
    finite set and the total degree never exceeds -m*n. For s >= 1 the
    constraints leave the leading entries unbounded above, every degree
    slice is infinite dimensional, and the query is rejected (_ds_terms).
    """
    return EquivariantCharacter._from_runs(_ds_terms(ctx, s, window), ctx.m)


def _ds_terms(ctx: MatrixContext, s: int,
              window: DegreeWindow) -> dict[int, list[tuple[int, ...]]]:
    """ds_character(ctx, s, window) as the sorted runs of flat terms that
    glinv.schur._runs returns, all at index 0; a ValueError for s >= 1."""
    if _integer(s, "s", 0, ctx.n - 1) >= 1:
        raise ValueError(
            f"D_{s} has infinite dimensional degree slices; "
            "only the s = 0 factor admits a windowed character"
        )
    n, m = ctx.n, ctx.m
    # the other n-1 entries are each at most -m, so an entry below
    # lo + (n-1)*m leaves the degree under lo; constant bounds are tight
    lower = [window.lo + (n - 1) * m] * n
    return _runs({0: _lambdas(ctx, 0, lower, [-m] * n, window)})


# _ds_weight_count gives up exactness only past this many steps of its count
_DS_COUNT_STEPS = 2_000_000


def _ds_weight_count(ctx: MatrixContext, window: DegreeWindow, cap: int) -> tuple[int, bool]:
    """(count, True) for the number of weights ds_character(ctx, 0, window)
    emits, counted without making them; or (bound, False), bound a lower
    bound past cap, when one degree of the window alone holds more than cap
    weights and the count would take more than _DS_COUNT_STEPS steps.

    The weights are the dominant lam with every entry at most -m; mu_i =
    -m - lam_{n+1-i} is a partition with at most n parts and
    |mu| = -mn - |lam|, so they are the partitions with at most n parts, or
    by conjugation with parts at most n, whose size lies in
    [a, b] = [-mn - hi, -mn - lo]. A coin-change count over the part sizes
    1..min(n, b) takes min(n, b) * b steps; n = 1 and n = 2 have the closed
    forms b - a + 1 and the sum of k // 2 + 1. The bound is the number of
    partitions of b into at most 3 parts, round((b + 3)^2 / 12)."""
    n = ctx.n
    a, b = max(0, -ctx.m * n - window.hi), -ctx.m * n - window.lo
    if a > b:
        return 0, True
    if n <= 2:
        # sum of k // 2 + 1 over 0 <= k <= x is x^2 // 4 + x + 1
        return (b - a + 1 if n == 1 else b * b // 4 + b - (a - 1) ** 2 // 4 - a + 1), True
    bound = ((b + 3) ** 2 + 6) // 12
    if bound > cap and min(n, b) * b > _DS_COUNT_STEPS:
        return bound, False
    ways = [1] + [0] * b
    for part in range(1, min(n, b) + 1):
        for k in range(part, b + 1):
            ways[k] += ways[k - part]
    return sum(ways[a:]), True

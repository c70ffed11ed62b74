"""Independent reference implementations used as test oracles.

Everything here is deliberately written against the definitions, with no
imports from the package, so that agreement with the engines is meaningful.
Values derived from these oracles are frozen into the test files.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement


def conjugate_boxes(x: tuple[int, ...]) -> tuple[int, ...]:
    """Transpose computed through the literal box set of the diagram."""
    boxes = {(r, c) for r, width in enumerate(x) for c in range(width)}
    cols: dict[int, int] = {}
    for r, c in boxes:
        cols[c] = cols.get(c, 0) + 1
    return tuple(cols[c] for c in sorted(cols))


@lru_cache(maxsize=None)
def qbinomial_pascal(a: int, b: int) -> tuple[tuple[int, int], ...]:
    """Gauss polynomial via the Pascal recursion, as (exponent, coeff) pairs.

    C(a, b)_q = C(a-1, b)_q + q^(a-b) * C(a-1, b-1)_q.
    """
    if b < 0 or b > a:
        return ()
    if b == 0 or b == a:
        return ((0, 1),)
    acc: dict[int, int] = {}
    for e, c in qbinomial_pascal(a - 1, b):
        acc[e] = acc.get(e, 0) + c
    for e, c in qbinomial_pascal(a - 1, b - 1):
        acc[e + a - b] = acc.get(e + a - b, 0) + c
    return tuple(sorted(acc.items()))


def ssyt_count(shape: tuple[int, ...], N: int) -> int:
    """Count semistandard tableaux of a shape with entries in 1..N.

    Rows weakly increase, columns strictly increase. Filled cell by cell by
    backtracking, so it shares nothing with the dimension formula.
    """
    rows = list(shape)
    if rows != sorted(rows, reverse=True) or any(type(v) is not int or v < 1 for v in rows):
        raise ValueError(f"not a partition with positive parts: {shape}")
    if len(shape) > N:
        raise ValueError(f"shape {shape} has more than {N} rows")
    cells = [(r, c) for r, width in enumerate(shape) for c in range(width)]
    grid = [[0] * width for width in shape]

    def fill(k: int) -> int:
        if k == len(cells):
            return 1
        r, c = cells[k]
        lo = grid[r][c - 1] if c else 1
        if r:
            lo = max(lo, grid[r - 1][c] + 1)
        total = 0
        for v in range(lo, N + 1):
            grid[r][c] = v
            total += fill(k + 1)
        grid[r][c] = 0
        return total

    return fill(0)


def box_partitions(rows: int, cols: int) -> list[tuple[int, ...]]:
    """All partitions inside a rows x cols box, own enumeration."""
    out: list[tuple[int, ...]] = []

    def grow(prefix: tuple[int, ...], cap: int, left: int) -> None:
        out.append(prefix)
        if left == 0 or cap == 0:
            return
        for v in range(1, cap + 1):
            grow(prefix + (v,), v, left - 1)

    grow((), cols, rows)
    return out


def in_symbolic_power(x: tuple[int, ...], p: int, d: int) -> bool:
    """Membership of det_x in the d-th symbolic power of the p x p minors,
    by the de Concini-Eisenbud-Procesi criterion: the sum over the columns
    of x of max(0, height - p + 1) is at least d."""
    heights = [sum(1 for v in x if v > c) for c in range(x[0] if x else 0)]
    return sum(max(0, h - p + 1) for h in heights) >= d


def symbolic_generators_dep(n: int, p: int, d: int) -> tuple[tuple[int, ...], ...]:
    """Minimal members of the d-th symbolic power of the p x p minors, sorted
    descending, from the membership criterion alone.

    A minimal member has no column of height below p (its last column would
    add nothing) and so at most d columns, hence lies in the n x d box.
    Membership is closed upward, so a member is minimal exactly when no
    partition one box smaller is a member.
    """
    def smaller(x):
        for i, v in enumerate(x):
            if i + 1 == len(x) or x[i + 1] < v:
                y = x[:i] + (v - 1,) + x[i + 1:]
                yield y if y[-1] else y[:-1]

    return tuple(sorted(
        (x for x in box_partitions(n, d)
         if in_symbolic_power(x, p, d)
         and not any(in_symbolic_power(y, p, d) for y in smaller(x))),
        reverse=True,
    ))


def succ_min_brute(n: int, z: tuple[int, ...], l: int) -> set[tuple[int, ...]]:
    """Minimal partitions x with at most n parts, x >= z rowwise, and
    x_i > z_i for some row i > l. Brute force over a sufficient box."""
    def row(y, i):
        return y[i - 1] if i <= len(y) else 0

    cap = (z[0] if z else 0) + 1
    members = [
        y for y in box_partitions(n, cap)
        if all(row(y, i) >= row(z, i) for i in range(1, n + 1))
        and any(row(y, i) > row(z, i) for i in range(l + 1, n + 1))
    ]
    mem = set(members)

    def dominates(y, x):
        return all(row(y, i) >= row(x, i) for i in range(1, n + 1))

    return {y for y in mem if not any(x != y and dominates(y, x) for x in mem)}


def ext_lambda_first(m: int, n: int, z: tuple[int, ...], l: int,
                     lo: int, hi: int) -> list[tuple]:
    """All Ext summands of the factor (z, l), enumerated weight first.

    Scans every dominant length-n weight lam in the window whose last entry
    carries the forced value, then attaches each admissible datum (s, t).
    Returns a sorted list (with repeats) of (j, lam_s, lam, degree).
    """
    def row(y, i):
        return y[i - 1] if 0 < i <= len(y) else 0

    last = l - row(z, l + 1) - m
    out: list[tuple] = []

    def lambdas(prefix: list[int], remaining: int) -> None:
        if remaining == 1:
            if not prefix or prefix[-1] >= last:
                lam = tuple(prefix) + (last,)
                if lo <= sum(lam) <= hi:
                    visit(lam)
            return
        top = hi - sum(prefix) - last * (remaining - 1)
        if prefix:
            top = min(top, prefix[-1])
        for v in range(last, top + 1):
            lambdas(prefix + [v], remaining - 1)

    def visit(lam: tuple[int, ...]) -> None:
        for s in range(l + 1):
            if s >= 1 and lam[s - 1] < s - n:
                continue
            if lam[s] > s - m:
                continue
            for t in combinations_with_replacement(range(s, l + 1), n - l):
                ok = all(
                    lam[t[i - 1] + i - 1] == t[i - 1] - row(z, n + 1 - i) - m
                    for i in range(1, n - l + 1)
                )
                if not ok:
                    continue
                j = m * n - l * l - s * (m - n) - 2 * sum(t)
                lam_s = lam[:s] + (s - n,) * (m - n) + tuple(v + m - n for v in lam[s:])
                out.append((j, lam_s, lam, sum(lam)))

    if n == 1:
        lambdas([], 1)
    else:
        lambdas([], n)
    return sorted(out)


def lc_rows_oracle(m: int, n: int, p: int) -> dict[int, dict[int, int]]:
    """Local cohomology multiplicity grid assembled with the Pascal oracle."""
    rows: dict[int, dict[int, int]] = {}
    for s in range(p):
        shift = (n - p + 1) ** 2 + (n - s) * (m - n)
        for e, c in qbinomial_pascal(n - s - 1, p - 1 - s):
            j = 2 * e + shift
            rows.setdefault(j, {})[s] = c
    return {j: dict(sorted(rows[j].items())) for j in sorted(rows)}


def d0_terms_brute(m: int, n: int, lo: int, hi: int) -> list[tuple]:
    """Windowed character of D_0 straight from its definition.

    Every weakly decreasing length-n lam with lam_1 <= -m and lo <= |lam| <= hi,
    paired with the GL_m weight (-n)^(m-n) followed by lam + (m-n). Entries
    are drawn from [lo + (n-1)*m, -m]: the other n-1 entries sum to at most
    -(n-1)*m, so a smaller entry leaves |lam| below lo. Returns the sorted
    list of (wm, wn, degree).
    """
    values = range(-m, lo + (n - 1) * m - 1, -1)
    out = []
    for lam in combinations_with_replacement(values, n):
        if lo <= sum(lam) <= hi:
            wm = (-n,) * (m - n) + tuple(v + m - n for v in lam)
            out.append((wm, lam, sum(lam)))
    return sorted(out)


def zset_power_closed(n: int, p: int, d: int) -> set[tuple[tuple[int, ...], int]]:
    """Factor indices (z, l) of S / (p x p minors)^d by direct description.

    Pairs with 0 <= l <= p-1 whose first l+1 rows share a value e <= d-1,
    with at most n rows, and whose size obeys
    |z| + (d-e)*l + 1 <= p*d <= |z| + (d-e)*(l+1).
    """
    pairs = set()
    for l in range(p):
        for e in range(d):
            for tail in box_partitions(n - l - 1, e):
                z = (e,) * (l + 1) + tail if e else ()
                w = sum(z)
                if w + (d - e) * l + 1 <= p * d <= w + (d - e) * (l + 1):
                    pairs.add((z, l))
    return pairs


def zset_box_table(n: int, gens) -> set[tuple[tuple[int, ...], int]]:
    """Factor indices (z, l) of S/I from one least-height table per column
    count c over the whole n x c box.

    gens may be raw: unsorted rows are rejected, zeros and repeats are
    allowed. least[z] is the least column height h (rows longer than c)
    over the generators x whose first c columns x(c) lie inside z. A cell
    is filled from its own truncations and from the cells one box smaller,
    which box_partitions lists before it. A cell with z_1 = c and
    0 < h <= n gives the pair (z, h-1).
    """
    xs = []
    for g in gens:
        x = tuple(v for v in g if v)
        if list(x) != sorted(x, reverse=True) or len(x) > n:
            raise ValueError(f"not a partition with at most {n} rows: {g}")
        xs.append(x)
    absent = n + 1
    pairs = set()
    for c in range(max((x[0] for x in xs if x), default=0)):
        least: dict[tuple[int, ...], int] = {}
        for x in xs:
            t = tuple(min(v, c) for v in x if v and c)
            h = sum(1 for v in x if v > c)
            least[t] = min(least.get(t, absent), h)
        for z in box_partitions(n, c):
            h = least.get(z, absent)
            for i in range(len(z)):
                if i + 1 == len(z) or z[i + 1] < z[i]:
                    y = z[:i] + (z[i] - 1,) + z[i + 1:]
                    h = min(h, least[y if y[-1] else y[:-1]])
            least[z] = h
            if 0 < h < absent and (z[0] if z else 0) == c:
                pairs.add((z, h - 1))
    return pairs


def cauchy_counts(n: int, gens, pairs, top: int) -> list[tuple[int, int]]:
    """Both sides of the Cauchy identity for the factors of S/I, degree by degree.

    I is the up-set of the generators under diagram containment. For each
    D = 0..top the pair is (#{x not in I : |x| = D}, sum over (z, l) of
    #{x : |x| = D, x_i = z_i for i > l, x_i >= z_i for i <= l}), every x
    ranging over the partitions with at most n rows. The filtration of S/I
    by the factors J_{z,l} makes the two equal.
    """
    def row(y, i):
        return y[i - 1] if i <= len(y) else 0

    def contains(x, y):
        return all(row(y, i) >= row(x, i) for i in range(1, n + 1))

    by_size: dict[int, list[tuple[int, ...]]] = {}
    for x in box_partitions(n, top):
        by_size.setdefault(sum(x), []).append(x)
    out = []
    for degree in range(top + 1):
        xs = by_size.get(degree, [])
        outside = sum(1 for x in xs if not any(contains(g, x) for g in gens))
        counted = sum(
            1
            for z, l in pairs
            for x in xs
            if all(row(x, i) == row(z, i) for i in range(l + 1, n + 1))
            and all(row(x, i) >= row(z, i) for i in range(1, l + 1))
        )
        out.append((outside, counted))
    return out

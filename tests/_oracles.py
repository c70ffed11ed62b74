"""Independent reference implementations used as test oracles.

Everything here is deliberately written against the definitions, with no
imports from the package, so that agreement with the engines is meaningful.
Values derived from these oracles are frozen into the test files.
"""

from __future__ import annotations

import json
from functools import lru_cache
from math import factorial, prod
from itertools import combinations_with_replacement, groupby


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


def sized_partitions(total: int, rows: int, cap: int):
    """Partitions of total with at most `rows` parts, each at most cap, in
    strictly descending lexicographic order, by recursion on the first row:
    it falls from min(cap, total) to an equal share of the boxes, and the
    rest follow under it."""
    if total == 0:
        yield ()
        return
    if rows <= 0 or cap <= 0:
        return
    for head in range(min(cap, total), -(-total // rows) - 1, -1):
        for tail in sized_partitions(total - head, rows - 1, head):
            yield (head,) + tail


def inside(x: tuple[int, ...], y: tuple[int, ...]) -> bool:
    """Diagram x lies inside diagram y: no more rows, and row by row no longer."""
    return len(x) <= len(y) and all(a <= b for a, b in zip(x, y))


def minimalize_scan(xs) -> tuple[tuple[int, ...], ...]:
    """Minimal elements of a family of canonical partitions, sorted
    descending: the distinct inputs in order of size, each kept unless a
    kept partition of smaller size lies inside it."""
    keep: list[tuple[int, ...]] = []
    for _, same_size in groupby(sorted(set(xs), key=sum), key=sum):
        keep += [x for x in same_size if not any(inside(y, x) for y in keep)]
    return tuple(sorted(keep, reverse=True))


def ideal_leq_scan(a_gens, b_gens) -> bool:
    """The ideal generated by a_gens contains the one generated by b_gens:
    every generator of b contains some generator of a as a diagram."""
    return all(any(inside(x, y) for x in a_gens) for y in b_gens)


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


def st_data_scan(m: int, n: int, z: tuple[int, ...], l: int) -> list[tuple]:
    """Every feasible Ext datum (s, t) of the factor (z, l), trying every
    weakly increasing t in [s, l]^(n-l) for each s in 0..l.

    Pin i sits at position t_i + i with value t_i - z_{n+1-i} - m, and
    position n carries l - z_{l+1} - m. The least candidate weight takes at
    each position the largest pin at or after it, and at least s - n on
    positions 1..s. The datum is feasible when that weight still meets every
    pin and its entry s+1 is at most s - m. Returns (s, j, lower, upper)
    with j = mn - l^2 - s(m - n) - 2 sum(t), lower the least weight, and
    upper the entrywise cap: the pins, s - m at position s+1, else inf.
    """
    def row(y, i):
        return y[i - 1] if 0 < i <= len(y) else 0

    inf = float("inf")
    out = []
    for s in range(l + 1):
        for t in combinations_with_replacement(range(s, l + 1), n - l):
            # pin n-l lands on position n only when t_{n-l} = l, with the same value
            pins = {n: l - row(z, l + 1) - m}
            for i, ti in enumerate(t, start=1):
                pins[ti + i] = ti - row(z, n + 1 - i) - m
            lower = [0] * n
            top = -inf
            for p in range(n, 0, -1):
                top = max(top, pins.get(p, -inf), s - n if p <= s else -inf)
                lower[p - 1] = top
            upper = [pins.get(p, inf) for p in range(1, n + 1)]
            upper[s] = min(upper[s], s - m)
            if all(lower[p - 1] == v for p, v in pins.items()) and lower[s] <= s - m:
                j = m * n - l * l - s * (m - n) - 2 * sum(t)
                out.append((s, j, tuple(lower), tuple(upper)))
    return out


def least_degrees_scan(m: int, n: int, z: tuple[int, ...], l: int) -> dict[int, int]:
    """Least internal degree of Ext^j(J_{z,l}, S) for each j where it is
    nonzero: the least sum of a feasible datum's least weight."""
    least: dict[int, int] = {}
    for _, j, lower, _ in st_data_scan(m, n, z, l):
        least[j] = min(sum(lower), least.get(j, sum(lower)))
    return least


def factor_regularity_scan(m: int, n: int, z: tuple[int, ...], l: int) -> int:
    """Largest -deg - j over the nonzero Ext^j(J_{z,l}, S)_deg, read from the
    least degrees of the full scan; regularity is 1 + its maximum over the
    factors of S/I."""
    return max(-deg - j for j, deg in least_degrees_scan(m, n, z, l).items())


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


def lambdas_box_brute(m: int, n: int, s: int, lower, upper, lo: int, hi: int) -> list[tuple]:
    """Every dominant length-n lam with lower_i <= lam_i <= upper_i and
    lo <= |lam| <= hi, with no pruning.

    lower and upper are 0-based (entry i - 1 bounds position i) and need
    not be tight; upper may hold inf. Every weakly decreasing tuple of
    values from [lower_n, cap] is tried: each entry lies between lam_n >= lower_n and
    lam_1, and lam_1 <= cap = min(upper_1, hi - lower_2 - ... - lower_n).
    Each lam is paired with the GL_m weight lam_1..lam_s, (s - n)^(m - n),
    then lam_{s+1} + m - n, ..., lam_n + m - n. Returns the sorted list of
    (wm, lam, degree).
    """
    cap = min(upper[0], hi - sum(lower[1:]))
    out = []
    for lam in combinations_with_replacement(range(cap, lower[-1] - 1, -1), n):
        if (all(x <= v <= u for x, v, u in zip(lower, lam, upper))
                and lo <= sum(lam) <= hi):
            wm = lam[:s] + (s - n,) * (m - n) + tuple(v + m - n for v in lam[s:])
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


def _terms_by_index(terms) -> dict[int, list[dict]]:
    groups: dict[int, list[dict]] = {}
    for (j, deg, wm, wn), mult in terms:
        groups.setdefault(j, []).append(
            {"wm": list(wm), "wn": list(wn), "deg": deg, "mult": mult})
    return groups


def dict_merged_terms(groups, m: int) -> list:
    """Flat terms (degree, 1, *wm, *wn), wm of length m, grouped by index j
    in groups, merged by a dict keyed (j, degree, wm, wn) that adds 1 per
    term, as characters once took their Ext and D_0 weights: the
    ((j, degree, wm, wn), multiplicity) pairs in key order."""
    terms: dict = {}
    for j, flat in groups.items():
        for term in flat:
            key = (j, term[0], term[2:2 + m], term[2 + m:])
            terms[key] = terms.get(key, 0) + 1
    return sorted(terms.items())


def character_json_dumps(terms, lo: int, hi: int) -> str:
    """JSON of a windowed character built as dicts and encoded by json.dumps
    with sorted keys; terms are ((j, deg, wm, wn), mult) pairs in key order."""
    return json.dumps([{"j": j, "terms": group, "window": [lo, hi]}
                       for j, group in _terms_by_index(terms).items()], sort_keys=True)


def betti_json_dumps(terms, m: int, n: int, a: int, b: int) -> str:
    """JSON of a Betti polynomial built as dicts, keyed by str(index), and
    encoded by json.dumps with sorted keys."""
    return json.dumps({"m": m, "n": n, "a": a, "b": b, "by_homological_index": {
        str(i): group for i, group in _terms_by_index(terms).items()}}, sort_keys=True)


def character_pretty(terms, lo: int, hi: int, label: str) -> list[str]:
    """Pretty lines of a windowed character, each weight written as
    ",".join(map(str, w)); terms as for character_json_dumps."""
    lines = [f"window: {lo}..{hi}"]
    if not terms:
        lines.append("no terms in the window")
    index = None
    for (j, deg, wm, wn), mult in terms:
        if j != index:
            index = j
            lines.append(f"{label}^{j}:")
        lines.append(f"  deg {deg}  mult {mult}  "
                     f"S({','.join(map(str, wm))}) * S({','.join(map(str, wn))})")
    return lines


def hook_content_dim(x: tuple[int, ...], N: int) -> int:
    """dim S_x C^N by the hook-content formula: the product over the boxes
    (r, c) of x, 0-based, of (N + c - r) / (hook length of the box)."""
    cols = conjugate_boxes(x)
    num = den = 1
    for r, width in enumerate(x):
        for c in range(width):
            num *= N + c - r
            den *= width - c + cols[c] - r - 1
    return num // den


def weyl_pair_product(w: tuple[int, ...], N: int) -> int:
    """dim S_w C^N by the plain Weyl product over every pair i < j < N of
    w zero-padded to length N, zero tail included: (w_i - w_j + j - i) /
    (j - i), with no closed form for the tail."""
    w = tuple(w) + (0,) * (N - len(w))
    num = den = 1
    for i in range(N):
        for j in range(i + 1, N):
            num *= w[i] - w[j] + j - i
            den *= j - i
    assert num % den == 0, (w, N)
    return num // den


def partitions_of(d: int, rows: int) -> list[tuple[int, ...]]:
    """Partitions of d with at most rows parts, own enumeration."""
    out: list[tuple[int, ...]] = []

    def grow(prefix: tuple[int, ...], cap: int, left: int) -> None:
        if left == 0:
            out.append(prefix)
        elif len(prefix) < rows:
            for v in range(min(cap, left), 0, -1):
                grow(prefix + (v,), v, left - v)

    if d >= 0:
        grow((), d, d)
    return out


def hilbert_excess(m: int, n: int, gens, degrees, start: int) -> dict[int, int]:
    """HF(S/I, d) - HP(S/I, d) for each d in degrees, I the ideal of the
    generators, S the polynomial ring on the m x n matrix entries.

    HF comes from the Cauchy decomposition: dim (S/I)_d is the sum of
    dim S_x C^m * dim S_x C^n over the partitions x of d with at most n
    parts that contain no generator as a diagram (0 for d < 0). HP is the
    polynomial of degree below N = mn that HF equals from start on: Newton's
    forward differences of HF at start, ..., start + N - 1 give it, and it
    must meet HF at the next 3 degrees (AssertionError otherwise)."""
    gens = [tuple(v for v in g if v) for g in gens]

    def hf(d: int) -> int:
        return sum(hook_content_dim(x, m) * hook_content_dim(x, n)
                   for x in partitions_of(d, n) if not any(inside(g, x) for g in gens))

    N = m * n
    row = [hf(start + k) for k in range(N)]
    diffs = []
    while row:
        diffs.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]

    def hp(d: int) -> int:  # sum_i binomial(d - start, i) * diffs[i]
        k = d - start
        return sum(prod(range(k - i + 1, k + 1)) // factorial(i) * c
                   for i, c in enumerate(diffs))

    for d in range(start + N, start + N + 3):
        assert hf(d) == hp(d), (m, n, gens, d)
    return {d: hf(d) - hp(d) for d in degrees}

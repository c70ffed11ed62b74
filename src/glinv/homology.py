"""Graded Ext modules of invariant quotients and Castelnuovo-Mumford regularity.

The quotient S/I of the matrix ring by an invariant ideal carries a finite
filtration whose composition factors J_{z,l} are indexed by pairs of a
partition z and an integer l; Ext(S/I, S) is the direct sum of Ext(J_{z,l}, S)
over the pairs attached to I. Each Ext(J_{z,l}, S) decomposes into explicit
irreducible summands indexed by an integer s and a weakly increasing tuple t,
which is what the engine below enumerates.

Degrees of Ext classes are bounded below and unbounded above, so character
queries take a closed degree window; minimal degrees (ext_min_degree) and
regularity are computed exactly without windows.
"""

from __future__ import annotations

from itertools import chain, groupby
from math import inf

from ._record import _Record
from .ideals import InvariantIdeal, MatrixContext, ideal_leq, make_ideal
from .partitions import Parts, _in_ideal, _index, _integer, part, partition
from .schur import EquivariantCharacter, _runs


class ZPair(_Record):
    """Index (z, l) of a composition factor J_{z,l}.

    The Ext formulas read row l+1 of z through the pinned entries and are
    valid only when the first l+1 rows of z agree; every pair produced by
    zset satisfies this, and the constructor makes it a hard error.
    """

    __slots__ = ("z", "l")
    z: Parts
    l: int

    def _check(self):
        if partition(self.z) != self.z:
            raise ValueError(f"z is not canonical: {self.z}")
        object.__setattr__(self, "l", _integer(self.l, "l", 0))
        head = part(self.z, 1)
        if any(part(self.z, i) != head for i in range(2, self.l + 2)):
            raise ValueError(f"rows 1..{self.l + 1} of z={self.z} must agree")


class DegreeWindow(_Record):
    """Closed range [lo, hi] of internal degrees, lo and hi integers."""

    __slots__ = ("lo", "hi")
    lo: int
    hi: int

    def _check(self):
        for name in self.__slots__:
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.lo > self.hi:
            raise ValueError(f"empty degree window: {self.lo}..{self.hi}")

    def __contains__(self, degree: int) -> bool:
        return self.lo <= degree <= self.hi


def zset_of_generators(ctx: MatrixContext, gens) -> frozenset[ZPair]:
    """Pairs (z, l) of the composition factors attached to a generating family.

    With c = z_1, a pair qualifies when some generator x satisfies both
    x(c) <= z and height of column c+1 at most l+1, and every generator
    satisfying the first condition has that column height exactly l+1.
    Equivalently: among the generators with x(c) <= z, the least column
    height h is l+1. Each (c, z) therefore yields at most one l.

    The pairs depend only on the ideal: a generator that contains another
    changes no least height. So the family is minimalized first, by
    make_ideal, and the pairs are zset of that ideal: the walk
    (_zset_walk) needs the antichain.
    """
    return zset(make_ideal(ctx, gens))


def _zset_walk(ctx: MatrixContext, xs):
    """The pairs of zset_of_generators over canonical generators xs with at
    most n parts, as plain tuples (z, l), l = h - 1. The z are canonical
    and meet the equal-rows condition by construction, so a caller may
    build ZPairs from them without the checks (ZPair._trusted). The
    generators must form an antichain, as a.gens does: the walk tests no
    seed for membership, and a generator inside another would let a seed
    in the ideal through as a pair.

    For each c the walk grows upward inside the n x c box, one box at a
    time, in order of size. A generator with h >= 1 rows longer than c has
    x(c) = (c^h, x_{h+1}, x_{h+2}, ...), a seed cell that starts with its
    least h. A cell's least height is the minimum of its own seed and the
    heights pushed from the cells one box smaller; a cell is read only
    after every smaller cell, so all pushes have arrived. A generator with
    h = 0 lies in the box itself (x(c) = x), and a cell containing one is in
    the ideal: its least height is 0 and it yields no pair. Such a cell is
    dropped and not grown, because every cell above it contains the same
    generator and is in the ideal too. Every cell the walk reaches contains
    a seed, so z_1 >= c, and lies in the box, so z_1 <= c: each surviving
    cell has z_1 = c and gives the pair (z, h-1). It meets the equal-rows
    condition of ZPair: a generator attaining h has x(c) <= z, so
    c <= z_i <= z_1 = c for i <= h.

    The columns c run from the top, x_1 - 1 for the largest x_1, down to 0,
    and one column's seeds exist at a time. A generator's truncation to c
    columns is the truncation of its truncation to c + 1, and its h, the
    rows of x longer than c, is the number of rows of x(c+1) equal to c+1.
    So the seeds of column c come from the distinct seeds of column c+1,
    together with the generators with x_1 = c+1, which are their own
    truncations: the seed from such a key t is (c^h, t_{h+1}, ...), h the
    entries of t equal to c+1 (the empty cell at c = 0). Each seed keeps
    the least h of the keys that give it.

    A seed is never in the ideal: a generator inside x(c) lies inside x, so
    it is x, as the generators form an antichain, and x does not fit in
    x(c) != x. So only the cells that growth alone reached are tested. A
    cell holds 2h when a seed gave it its least h and 2h + 1 when only
    growth did; the minimum still picks the least h, a seed on ties. Only
    odd cells are tested, and none below the size of the smallest indexed
    generator, which no smaller cell can contain. The work is the surviving
    cells and the cells one box above them, not the box.

    A tested cell that equals a generator is in the ideal, and a set lookup
    finds it; on the power, symbolic and saturated families every tested
    cell checked so far is one (all n <= 10, d <= 8, and the 10x10 power
    p=5 up to d=16). Only the first cell that the lookup misses builds the
    containment index of glinv.partitions, which answers the general
    membership test (_in_ideal). One index serves every c: a query follows
    a branch v of the root only when v <= z_1 = c, so it never reaches a
    generator with x_1 > c, which lies outside the box. No column reaches
    the generators with the largest x_1, and neither the lookup nor the
    index holds them.
    """
    by_first: dict[int, list[Parts]] = {}
    for x in xs:
        if x:
            by_first.setdefault(x[0], []).append(x)
    cmax = max(by_first, default=0)
    indexed = [x for x in xs if not x or x[0] < cmax]
    exact, trie = set(indexed), None
    least = min(map(sum, indexed), default=inf)
    n = ctx.n
    seeds: dict[Parts, int] = {}
    for c in range(cmax - 1, -1, -1):
        top = c + 1
        keys, seeds = seeds, {}
        for t in chain(keys, by_first.get(top, ())):
            h = t.count(top)
            z = (c,) * h + t[h:] if c else ()
            if h < seeds.get(z, h + 1):
                seeds[z] = h
        levels: dict[int, dict[Parts, int]] = {}
        for z, h in seeds.items():
            levels.setdefault(sum(z), {})[z] = 2 * h
        k = min(levels)
        while levels:
            cells = levels.pop(k, None)
            query = k >= least
            k += 1
            if not cells:
                continue
            above = levels.setdefault(k, {})
            for z, mark in cells.items():
                if mark & 1 and query:
                    if z in exact:
                        continue
                    if trie is None:
                        trie = _index(indexed)
                    if _in_ideal(trie, z):
                        continue
                yield z, (mark >> 1) - 1
                mark |= 1
                # z plus one box in row i, for each row i > 1 shorter than
                # the row before it, then in a new row
                row = list(z)
                for i in range(1, len(z)):
                    v = row[i]
                    if v < row[i - 1]:
                        row[i] = v + 1
                        y = tuple(row)
                        row[i] = v
                        if mark < above.get(y, mark + 1):
                            above[y] = mark
                if c and len(z) < n:
                    y = z + (1,)
                    if mark < above.get(y, mark + 1):
                        above[y] = mark


def zset(a: InvariantIdeal) -> frozenset[ZPair]:
    """Composition factor indices of S/a; a.gens is canonical already."""
    return frozenset(ZPair._trusted(z, l) for z, l in _zset_walk(a.ctx, a.gens))


def saturation_filter(pairs, p: int) -> frozenset[ZPair]:
    """Factor indices surviving saturation by the p x p minors: l >= p."""
    p = _integer(p, "minor size p", 0)
    return frozenset(zp for zp in pairs if zp.l >= p)


def _check_zpair(ctx: MatrixContext, zp: ZPair) -> None:
    if len(zp.z) > ctx.n:
        raise ValueError(f"z={zp.z} has more than {ctx.n} parts")
    _integer(zp.l, "l", 0, ctx.n - 1)


def _blocks(n: int, z: Parts, l: int) -> list[tuple[int, int]]:
    """Blocks (y, r) of equal entries among z_n, z_{n-1}, ..., z_{l+1},
    bottom first: r rows of value y, the values strictly increasing."""
    return [(y, len(list(rows))) for y, rows in groupby(reversed((z + (0,) * n)[l:n]))]


def _st_data(ctx: MatrixContext, zp: ZPair):
    """Yield (s, j, lower, upper) over the feasible data (s, t) of a factor,
    and try no other datum.

    A datum is an s in 0..l and a weakly increasing t in [s, l]^k, k = n - l.
    Its weights lam are dominant of length n, with lam_i >= s - n for i <= s,
    lam_{s+1} <= s - m, lam_n = l - z_{l+1} - m, and lam at position t_i + i
    (increasing in i) equal to pin i, v_i = t_i - z_{n+1-i} - m.
    The least candidate, lower, takes at each position the largest pin at or
    after it, raised to s - n on positions 1..s. The datum is feasible when
    lower meets every pin and its entry at position s+1 is at most s - m,
    that is exactly when
      - t_1 <= s + z_n, that is v_1 <= s - m: position s+1 of lower holds
        the largest pin;
      - t_i - t_{i-1} <= z_{n+1-i} - z_{n+2-i} for i >= 2: the pins weakly
        decrease;
      - t_k = l: pin k sits at or before position n, so it is at least the
        position-n pin, which forces t_k >= l; with t_k = l it is that pin.
    Its least degree is the sum of lower. Positions 1..s take s - n, because
    v_1 <= s - m <= s - n; the positions after pin i-1, up to pin i, take
    v_i; pin k is position n. So the least degree is
      s(s - n) + (t_1 + 1 - s) v_1 + sum_{i >= 2} (t_i - t_{i-1} + 1) v_i,
    and the index is j = mn - l^2 - s(m - n) - 2 sum(t).

    Equal rows of z allow no step between their pins, so the walk runs over
    the blocks of equal entries among z_n, z_{n-1}, ..., z_{l+1}. Block b
    has value y_b and r_b rows, and its pins share one t_b. With t_0 = s
    and y_0 = 0 a datum is feasible when 0 <= t_b - t_{b-1} <= y_b - y_{b-1}
    and the last block B has t_B = l; its least degree is
    s(s - n) + sum_b (t_b - t_{b-1} + r_b)(t_b - y_b - m), and
    sum(t) = sum_b r_b t_b.

    The walk starts at t_B = l and goes down the blocks, keeping every path:
    at block b a path holds t_b, the sum of r_c t_c over c >= b, and lower
    and upper after block b's pins. Only block 1's term reads s, so a path
    at block 1 gives a datum for each s with t_1 - y_1 <= s <= t_1. Every
    path reaches one (s = t_1), so the work follows the feasible data, not
    the tuples t.

    lower and upper bound the datum's weights entrywise. They are 0-based
    (entry i - 1 bounds position i) and tight, that is weakly decreasing,
    so _lambdas reads them as given. lower is s - n on positions 1..s, then
    block b fills t_b - t_{b-1} + r_b positions with its pin t_b - y_b - m;
    it weakly decreases, since s - n >= s - m >= pin 1 >= ... >= pin B.
    upper carries each cap (the pins, and s - m at position s+1) to the
    right, as a dominant weight does: inf on positions 1..s, s - m up to
    block 1's pins, and on each later free stretch the pin on its left, so
    t_b - t_{b-1} positions of block b-1's pin come before block b's r_b
    pins; it weakly decreases with the pins.
    """
    m, n = ctx.m, ctx.n
    l = zp.l
    blocks = _blocks(n, zp.z, l)
    y, r = blocks.pop()
    # (t_b, sum of r_c t_c over c >= b, lower and upper after block b's pins)
    paths = [(l, r * l, [], [])]
    while blocks:
        y_below, r_below = blocks.pop()
        paths = [(t, total + r_below * t, [u - y - m] * (u - t + r) + lo,
                  [t - y_below - m] * (u - t) + [u - y - m] * r + up)
                 for u, total, lo, up in paths for t in range(max(0, u - y + y_below), u + 1)]
        y, r = y_below, r_below
    for u, total, lo, up in paths:
        v = u - y - m
        for s in range(max(0, u - y), u + 1):
            lower = [s - n] * s + [v] * (u - s + r) + lo
            upper = [inf] * s + [s - m] * (u - s) + [v] * r + up
            yield s, m * n - l * l - s * (m - n) - 2 * total, lower, upper


def _lambdas(ctx: MatrixContext, s: int, lower, upper, window):
    """Flat terms (degree, 1, *wm, *lam) for the dominant length-n weights
    lam with lower <= lam <= upper entrywise and degree = sum(lam) in the
    window, each with multiplicity 1.

    wm is the GL_m weight paired with lam: lam with the block (s-n)^(m-n)
    inserted after position s and the tail raised by m-n. It is weakly
    decreasing whenever the bounds give lam_s >= s - n and
    lam_{s+1} <= s - m, as the bound lists of every Ext datum and of D_0 do.

    lower holds integers; upper holds integers or inf. Both are 0-based
    (entry i - 1 bounds position i) and tight: each weakly decreases, as
    the bounds of _st_data's data and the constant ones of _ds_terms do,
    so upper_i = min(upper_1..upper_i) and lower_i = max(lower_i..lower_n),
    and _lambdas reads them as given. The terms come in decreasing
    lexicographic order of lam.

    The box is empty when some lower_i exceeds upper_i. A position with
    lower_i = upper_i is forced: its entry is written into lam and wm once,
    and its sum F starts the partial sum. The walk visits only the free
    positions, lower_i < upper_i.

    Dominance needs no test across a forced position k of value c. For
    free i < k < j, lam_i >= lower_i >= lower_k = c, because the lower
    bounds decrease, and lam_j <= upper_j <= upper_k = c, because the
    upper bounds decrease; so lam_i >= c >= lam_j, and the forced
    entries themselves decrease for the same reason. The free positions
    therefore split into runs of consecutive positions, and dominance links
    only neighbours inside one run. A run that starts after a forced entry
    c lies below c, so every run but the first has finite upper bounds.

    Free entries are scanned left to right, each value from high to low.
    At free position i the upper bound is upper_i, tightened to the previous
    entry and by the window budget hi - partial - (sum of lower_j over the
    free j > i). The previous entry only matters inside a run: across a
    forced c it is at least c >= upper_i. The lower bound is lower_i,
    raised so that the sum can still reach lo: the free entries after i in
    its run, r of them, are at most lam_i each, and the later runs sum to at
    most L, the sum of their upper bounds. So
    partial + (r + 1) lam_i + L >= lo, that is
    lam_i >= ceil((lo - partial - L) / (r + 1)). At the last free position
    r = L = 0, so every leaf lies in the window and its partial sum is the
    degree. Every range is finite, so the enumeration terminates.

    With no free position the walk is one test of F against the window;
    otherwise it is one recursion over the free positions (_weight_walk).
    lam and wm are built in place, in one array of length n and one of
    length m whose block (and forced entries) are written once, so a term
    costs one tuple, built from both.
    """
    m, n = ctx.m, ctx.n
    lo, hi = window.lo, window.hi
    tail = m - n  # the shift of position i > s inside wm, and of its value
    lam = [0] * n
    wm = [s - n] * m
    # per free position, right to left: (lam index, wm index, shift, upper,
    # hi less the least sum of the later free entries, lower, lo - L, r + 1)
    steps = []
    forced = least = later = most = 0
    count, nxt = 1, n - 1  # nxt: the free position that extends the run
    for i in range(n - 1, -1, -1):
        a, b = lower[i], upper[i]
        shift = 0 if i < s else tail
        if a < b:
            if i != nxt:  # i ends its run: the later runs sum to at most most
                later, count = most, 1
            steps.append((i, i + shift, shift, b, hi - least, a, lo - later, count))
            least += a
            most += b
            count += 1
            nxt = i - 1
        elif a == b:
            lam[i] = a
            wm[i + shift] = a + shift
            forced += a
        else:
            return []
    if not steps:
        return [(forced, 1, *wm, *lam)] if lo <= forced <= hi else []
    out = []
    _weight_walk(steps, len(steps) - 1, inf, forced, lam, wm, out.append)
    return out


def _weight_walk(steps, k: int, prev, partial: int, lam, wm, append) -> None:
    """The walk of _lambdas from free position steps[k] on, after the entry
    prev and with partial the sum of lam so far: each value, high to low,
    goes into lam and wm; the walk recurses while k > 0, emits at k = 0."""
    i, j, shift, ub_i, budget, lb_i, reach, count = steps[k]
    top = min(prev, ub_i, budget - partial)
    bottom = max(lb_i, -((partial - reach) // count))
    if k:
        for v in range(top, bottom - 1, -1):
            lam[i] = v
            wm[j] = v + shift
            _weight_walk(steps, k - 1, v, partial + v, lam, wm, append)
    else:
        for v in range(top, bottom - 1, -1):
            lam[i] = v
            wm[j] = v + shift
            append((partial + v, 1, *wm, *lam))


def _ext_terms(ctx: MatrixContext, pairs, window) -> dict[int, list[tuple[int, ...]]]:
    """Windowed character of the sum of Ext(J_{z,l}, S) over pairs, as the
    sorted runs of flat terms (degree, multiplicity, *wm, *wn) per
    cohomological index that _runs returns. The weights of each datum join
    the list of the index j that _st_data yields with it; _runs sorts each
    list once and merges equal terms, from whichever factors and data they
    come."""
    groups: dict[int, list[tuple[int, ...]]] = {}
    for zp in pairs:
        for s, j, lower, upper in _st_data(ctx, zp):
            groups.setdefault(j, []).extend(_lambdas(ctx, s, lower, upper, window))
    return _runs(groups)


def ext_jzl(ctx: MatrixContext, zp: ZPair, window: DegreeWindow) -> EquivariantCharacter:
    """Windowed character of Ext(J_{z,l}, S), keyed by cohomological index."""
    _check_zpair(ctx, zp)
    return EquivariantCharacter._from_runs(_ext_terms(ctx, (zp,), window), ctx.m)


def ext_quotient(a: InvariantIdeal, window: DegreeWindow) -> EquivariantCharacter:
    """Windowed character of Ext(S/a, S): the sum over all factors of S/a."""
    return EquivariantCharacter._from_runs(_ext_terms(a.ctx, zset(a), window), a.ctx.m)


def ext_map_analysis(a: InvariantIdeal, b: InvariantIdeal, window: DegreeWindow):
    """Kernel, image, and cokernel characters of Ext(S/b, S) -> Ext(S/a, S).

    Requires a to contain b, so that S/b surjects onto S/a. The induced map
    on Ext is then determined factorwise: the pairs of a missing from b feed
    the kernel, the shared pairs the image, and the pairs of b missing from
    a the cokernel. All three characters are windowed like ext_quotient.
    """
    if not ideal_leq(a, b):
        raise ValueError("ext_map_analysis needs the first ideal to contain the second")
    za = zset(a)
    zb = zset(b)
    return tuple(EquivariantCharacter._from_runs(_ext_terms(a.ctx, pairs, window), a.ctx.m)
                 for pairs in (za - zb, za & zb, zb - za))


def _least_degrees(ctx: MatrixContext, zp: ZPair) -> dict[int, int]:
    """Least internal degree of Ext^j(J_{z,l}, S) for each j where it is
    nonzero: the least sum of lower over the data of index j that _st_data
    yields, a datum's least degree being the sum of its lower."""
    least: dict[int, int] = {}
    for _, j, lower, _ in _st_data(ctx, zp):
        d = sum(lower)
        if d < least.get(j, inf):
            least[j] = d
    return least


def attainable_indices(ctx: MatrixContext, zp: ZPair) -> list[int]:
    """Cohomological indices where Ext(J_{z,l}, S) is nonzero."""
    _check_zpair(ctx, zp)
    return sorted(_least_degrees(ctx, zp))


def ext_min_degree(ctx: MatrixContext, zp: ZPair, j: int) -> int | None:
    """Least internal degree of Ext^j(J_{z,l}, S), or None when it vanishes."""
    _check_zpair(ctx, zp)
    return _least_degrees(ctx, zp).get(_integer(j, "j"))


def regularity(a: InvariantIdeal) -> int:
    """Castelnuovo-Mumford regularity of a nonzero proper invariant ideal.

    By local duality reg(S/a) is the largest -deg - j over the nonzero
    Ext^j(S/a, S)_deg, so reg(a) = 1 + the largest over the factors J_{z,l}
    of S/a of their own largest -deg - j, read from the closed form below
    (_factor_regularity). Every nonzero proper ideal has a factor: at c = 0
    the Z-set walk seeds the empty cell from each generator x with
    h = len(x) >= 1, and the cell is not in the ideal, since () is no
    generator; so ((), h - 1) is a pair for the least such h, and the
    maximum always exists.

    The closed form starts from the block form of the least degree in
    _st_data's docstring. Put
    d_b = t_b - t_{b-1}, which lies in [0, g_b] with g_b = y_b - y_{b-1},
    and R_b = r_b + ... + r_B, the rows in blocks b..B; then
    sum_b d_b = l - s and sum_b g_b = z_1. The pins, which carry the m of
    the least degree, fill sum_b (d_b + r_b) = n - s positions, so -deg
    holds m(n - s) and j holds -m(n - s): m cancels from -deg - j. With
    t_b = s + d_1 + ... + d_b and sum_b r_b y_b = sum_{i > l} z_i,
      -deg - j = sum_{i > l} z_i + (l^2 - s^2)/2 + s(n - l)
                 + sum_b sum_{k = 1..d_b} (y_b + R_b - k + 1/2).
    For a fixed s this is separable and concave under the one constraint
    sum_b d_b = l - s, so the best data take the l - s largest of the z_1
    unit values y_b + R_b - k (a block's values decrease in k, so the
    largest ones are a prefix of every block's). Written by column, c = y_b - k + 1
    runs over y_{b-1} < c <= y_b, where the rows of z of length at least c
    number l + R_b; so the unit values are c + z'_c - l - 1 for
    c = 1..z_1, z' the conjugate of z. With q = l - s, which ranges over
    0..min(l, z_1), and w_1 >= w_2 >= ... the values c + z'_c - (n - l)
    in decreasing order, the sum collapses to
      sum_{i > l} z_i + l(n - l) + sum_{i <= q} (w_i - i).
    The terms w_i - i strictly decrease, so the best q keeps exactly the
    positive ones. A factor with l = 0 gives |z|. The cost is
    O(n + z_1 log z_1) per factor; the tests hold it against the largest
    -deg - j of a full scan of the data (tests/_oracles.py).
    """
    if a.is_zero:
        raise ValueError("the zero ideal has no regularity")
    if a.is_unit:
        raise ValueError("the unit ideal has no regularity")
    n = a.ctx.n
    return 1 + max(_factor_regularity(n, z, l) for z, l in _zset_walk(a.ctx, a.gens))


def _factor_regularity(n: int, z: Parts, l: int) -> int:
    """Largest -deg - j over the nonzero Ext^j(J_{z,l}, S)_deg, by the
    closed form derived in regularity's docstring; m does not enter."""
    if not l:  # no unit values to take
        return sum(z)
    k = n - l
    w = []  # c + z'_c - k for c = 1..z_1
    h = l + 1 - k  # z'_c - k on the columns z_{i+1} < c <= z_i, row i from l+1
    for y, below in zip(z[l:], z[l + 1:] + (0,)):
        w += range(below + 1 + h, y + 1 + h)
        h += 1
    w.sort(reverse=True)
    total = sum(z[l:]) + l * k
    for i, v in enumerate(w[:l], 1):
        if v <= i:
            break
        total += v - i
    return total

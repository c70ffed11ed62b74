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

from dataclasses import dataclass
from itertools import combinations_with_replacement

from .ideals import InvariantIdeal, MatrixContext, ideal_leq
from .partitions import (
    Parts,
    dominant_weight,
    enumerate_in_box,
    part,
    partition,
    truncate_columns,
)
from .schur import EquivariantCharacter


@dataclass(frozen=True)
class ZPair:
    """Index (z, l) of a composition factor J_{z,l}.

    The Ext formulas read row l+1 of z through the pinned entries and are
    valid only when the first l+1 rows of z agree; every pair produced by
    zset satisfies this, and the constructor makes it a hard error.
    """

    z: Parts
    l: int

    def __post_init__(self):
        if partition(self.z) != self.z:
            raise ValueError(f"z is not canonical: {self.z}")
        if self.l < 0:
            raise ValueError("l must be nonnegative")
        head = part(self.z, 1)
        if any(part(self.z, i) != head for i in range(2, self.l + 2)):
            raise ValueError(f"rows 1..{self.l + 1} of z={self.z} must agree")


@dataclass(frozen=True)
class DegreeWindow:
    """Closed range [lo, hi] of internal degrees."""

    lo: int
    hi: int

    def __post_init__(self):
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
    height is l+1. Each (c, z) therefore yields at most one l.

    For each c, least[z] is filled over the n x c box in size order: the
    least height among generators with x(c) = z, lowered to the entries one
    box smaller, so that it covers every x(c) <= z. The work is the size of
    the boxes, whatever the number of generators.
    """
    xs = []
    for g in gens:
        x = partition(g)
        if len(x) > ctx.n:
            raise ValueError(f"generator {x} has more than {ctx.n} parts")
        xs.append(x)
    cmax = max((x[0] for x in xs if x), default=0)
    absent = ctx.n + 1  # above every column height
    pairs = []
    for c in range(cmax):
        least: dict[Parts, int] = {}
        for x in xs:
            t = truncate_columns(x, c)
            h = sum(1 for v in x if v > c)
            if h < least.get(t, absent):
                least[t] = h
        for z in enumerate_in_box(ctx.n, c):
            h = least.get(z, absent)
            for i, v in enumerate(z):
                if i + 1 == len(z) or z[i + 1] < v:
                    smaller = z[:i] + (v - 1,) + z[i + 1:]
                    h = min(h, least[smaller if smaller[-1] else smaller[:-1]])
            least[z] = h
            if not 0 < h < absent or part(z, 1) != c:
                continue
            try:
                pairs.append(ZPair(z, h - 1))
            except ValueError as exc:
                raise RuntimeError(
                    "composition factor index violates the equal-rows "
                    f"hypothesis: z={z}, l={h - 1}, generators={tuple(xs)}"
                ) from exc
    return frozenset(pairs)


def zset(a: InvariantIdeal) -> frozenset[ZPair]:
    """Composition factor indices of S/a."""
    return zset_of_generators(a.ctx, a.gens)


def saturation_filter(pairs, p: int) -> frozenset[ZPair]:
    """Factor indices surviving saturation by the p x p minors: l >= p."""
    if p < 0:
        raise ValueError("p must be nonnegative")
    return frozenset(zp for zp in pairs if zp.l >= p)


def _check_zpair(ctx: MatrixContext, zp: ZPair) -> None:
    if len(zp.z) > ctx.n:
        raise ValueError(f"z={zp.z} has more than {ctx.n} parts")
    if zp.l > ctx.n - 1:
        raise ValueError(f"l={zp.l} out of range for n={ctx.n}")


def _pinned_entries(ctx: MatrixContext, zp: ZPair, t: tuple[int, ...]) -> dict[int, int] | None:
    """Forced entries of lam for the datum (z, l, t), keyed by 1-based position.

    Position n is always pinned to l - z_{l+1} - m; position t_i + i is
    pinned to t_i - z_{n+1-i} - m. The positions t_i + i strictly increase,
    and the only possible collision is at position n, where the two values
    provably agree; None is returned if they ever did not.
    """
    m, n = ctx.m, ctx.n
    z, l = zp.z, zp.l
    pins = {n: l - part(z, l + 1) - m}
    for i, ti in enumerate(t, start=1):
        pos = ti + i
        val = ti - part(z, n + 1 - i) - m
        if pos in pins and pins[pos] != val:
            return None
        pins[pos] = val
    return pins


def _lower_bounds(ctx: MatrixContext, s: int, pins: dict[int, int]) -> list[int] | None:
    """Least admissible value at each position, or None when (s, t) is infeasible.

    The bound at a position is the nearest pinned value at or below it
    (position n is always pinned), raised to s - n on positions 1..s. The
    datum is infeasible when the pinned values fail to decrease along
    increasing positions, when a pin sits below s - n on positions 1..s, or
    when even the least value at position s+1 exceeds s - m.
    """
    n = ctx.n
    lower = [0] * (n + 1)
    prev_pin = None
    for idx in range(n, 0, -1):
        if idx in pins:
            if prev_pin is not None and pins[idx] < prev_pin:
                return None
            prev_pin = pins[idx]
        lower[idx] = prev_pin
    for idx in range(1, s + 1):
        if idx in pins and pins[idx] < s - n:
            return None
        lower[idx] = max(lower[idx], s - n)
    if s + 1 <= n and lower[s + 1] > s - ctx.m:
        return None
    return lower


def _st_data(ctx: MatrixContext, zp: ZPair):
    """Yield (s, t, j, lower) over the feasible data of a factor.

    j = m*n - l^2 - s*(m - n) - 2*sum(t) and lower is the per-position least
    value table; the minimal internal degree for the datum is -sum(lower)
    negated, attained by taking every free entry at its bound.
    """
    m, n = ctx.m, ctx.n
    l = zp.l
    for s in range(l + 1):
        for t in combinations_with_replacement(range(s, l + 1), n - l):
            pins = _pinned_entries(ctx, zp, t)
            if pins is None:
                continue
            lower = _lower_bounds(ctx, s, pins)
            if lower is None:
                continue
            j = m * n - l * l - s * (m - n) - 2 * sum(t)
            yield s, t, j, pins, lower


def _lambdas(ctx, s, pins, lower, window):
    """Dominant length-n weights matching the pins, the bounds, and the window.

    Entries are scanned left to right; the running upper bound is the
    previous entry, tightened to s - m at position s+1 and by the window
    budget hi - partial - (least possible sum of the remaining entries).
    The running lower bound is lower[idx], raised to
    ceil((lo - partial) / (n - idx + 1)): the entries from idx on are at
    most the current one, so below that value the sum cannot reach lo. At
    the last position this is lo - partial, so every leaf lies in the window.
    Every free entry has a finite range, so the enumeration terminates.
    """
    n = ctx.n
    suffix = [0] * (n + 2)
    for idx in range(n, 0, -1):
        suffix[idx] = suffix[idx + 1] + lower[idx]
    out = []
    acc = [0] * n

    def walk(idx: int, prev: int | None, partial: int) -> None:
        if idx > n:
            out.append(tuple(acc))
            return
        ub = window.hi - partial - suffix[idx + 1]
        if prev is not None:
            ub = min(ub, prev)
        if idx == s + 1:
            ub = min(ub, s - ctx.m)
        lb = max(lower[idx], -((partial - window.lo) // (n - idx + 1)))
        if idx in pins:
            v = pins[idx]
            if lb <= v <= ub:
                acc[idx - 1] = v
                walk(idx + 1, v, partial + v)
            return
        for v in range(ub, lb - 1, -1):
            acc[idx - 1] = v
            walk(idx + 1, v, partial + v)

    walk(1, None, 0)
    return out


def _insert_block(ctx: MatrixContext, s: int, lam: tuple[int, ...]) -> tuple[int, ...]:
    """GL_m weight paired with lam: block (s-n)^(m-n) after position s,
    tail raised by m-n. Weakly decreasing whenever lam satisfies the
    position-s bounds, and validated here regardless."""
    m, n = ctx.m, ctx.n
    return dominant_weight(
        lam[:s] + (s - n,) * (m - n) + tuple(v + (m - n) for v in lam[s:])
    )


def ext_jzl(ctx: MatrixContext, zp: ZPair, window: DegreeWindow) -> EquivariantCharacter:
    """Windowed character of Ext(J_{z,l}, S), keyed by cohomological index."""
    _check_zpair(ctx, zp)
    ch = EquivariantCharacter()
    for s, t, j, pins, lower in _st_data(ctx, zp):
        for lam in _lambdas(ctx, s, pins, lower, window):
            ch.add(j, _insert_block(ctx, s, lam), lam, sum(lam))
    return ch


def ext_quotient(a: InvariantIdeal, window: DegreeWindow) -> EquivariantCharacter:
    """Windowed character of Ext(S/a, S): the sum over all factors of S/a."""
    ch = EquivariantCharacter()
    for zp in sorted(zset(a), key=lambda zp: (zp.l, zp.z)):
        ch.merge(ext_jzl(a.ctx, zp, window))
    return ch


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
    kernel = EquivariantCharacter()
    image = EquivariantCharacter()
    cokernel = EquivariantCharacter()
    for zp in sorted(za | zb, key=lambda zp: (zp.l, zp.z)):
        if zp in za and zp in zb:
            image.merge(ext_jzl(a.ctx, zp, window))
        elif zp in za:
            kernel.merge(ext_jzl(a.ctx, zp, window))
        else:
            cokernel.merge(ext_jzl(a.ctx, zp, window))
    return kernel, image, cokernel


def attainable_indices(ctx: MatrixContext, zp: ZPair) -> list[int]:
    """Cohomological indices where Ext(J_{z,l}, S) is nonzero."""
    _check_zpair(ctx, zp)
    return sorted({j for _, _, j, _, _ in _st_data(ctx, zp)})


def ext_min_degree(ctx: MatrixContext, zp: ZPair, j: int) -> int | None:
    """Least internal degree of Ext^j(J_{z,l}, S), or None when it vanishes.

    Every feasible datum attains its minimal degree by putting each free
    entry at its lower bound, so no windowed enumeration is needed.
    """
    _check_zpair(ctx, zp)
    best = None
    for s, t, jj, pins, lower in _st_data(ctx, zp):
        if jj != j:
            continue
        deg = sum(lower[1:])
        if best is None or deg < best:
            best = deg
    return best


def regularity(a: InvariantIdeal) -> int:
    """Castelnuovo-Mumford regularity of a nonzero proper invariant ideal.

    Computed as 1 + max over factors and feasible data of
    (-minimal degree - j); the maximum exists because every factor admits at
    least one feasible datum and minimal degrees are exact.
    """
    if a.is_zero:
        raise ValueError("the zero ideal has no regularity")
    if a.is_unit:
        raise ValueError("the unit ideal has no regularity")
    best = None
    for zp in zset(a):
        for s, t, j, pins, lower in _st_data(a.ctx, zp):
            val = -sum(lower[1:]) - j
            if best is None or val > best:
                best = val
    if best is None:
        raise RuntimeError(f"no feasible Ext datum for any factor of {a.gens}")
    return 1 + best

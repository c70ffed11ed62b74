"""GL-invariant ideals of the coordinate ring of generic m x n matrices.

Every such ideal is generated by orbits of products of minors det_x indexed
by partitions x with at most n parts, and distinct ideals correspond to
distinct antichains of such partitions. An ideal is therefore stored as its
canonical antichain of generators; containment of ideals reverses the
containment of diagrams.
"""

from __future__ import annotations

from typing import Iterable

from ._record import _Record
from .partitions import (
    Parts,
    _in_ideal,
    _index,
    _integer,
    _sized,
    minimalize,
    part,
    partition,
    truncate_columns,
)


class MatrixContext(_Record):
    """Ambient space of m x n matrices, with integer sides m >= n >= 1.

    A transposed problem gives literally the same antichain combinatorics,
    so callers with m < n should swap the sides before building a context.
    """

    __slots__ = ("m", "n")
    m: int
    n: int

    def _check(self):
        for name in self.__slots__:
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if not (self.m >= self.n >= 1):
            raise ValueError(f"need m >= n >= 1, got m={self.m}, n={self.n}")


class InvariantIdeal(_Record):
    """Ideal generated by the orbits of det_x for x in gens.

    gens is canonical: partitions with at most n parts, pairwise
    incomparable, in descending lexicographic order; () alone is the unit
    ideal (det of the empty minor is 1), no generators the zero ideal. The
    constructor checks gens for an outside caller; the library's own ideals
    are canonical by construction and skip it; tests sweep them against it.
    """

    __slots__ = ("ctx", "gens")
    ctx: MatrixContext
    gens: tuple[Parts, ...]

    def _check(self):
        if not isinstance(self.gens, tuple):
            raise ValueError("gens must be a tuple of partitions, not "
                             f"{type(self.gens).__name__}")
        if minimalize(_generators(self.ctx, self.gens)) != self.gens:
            raise ValueError("generators are not canonical partitions forming an "
                             "antichain in descending lexicographic order")

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return self.gens == ((),)


def make_ideal(ctx: MatrixContext, gens: Iterable[Iterable[int]]) -> InvariantIdeal:
    """Build the ideal generated by an arbitrary family of partitions.

    Canonicalizes each generator, discards the non-minimal ones, and sorts.
    An empty family gives the zero ideal.
    """
    return InvariantIdeal._trusted(ctx, minimalize(_generators(ctx, gens)))


def _generators(ctx: MatrixContext, gens) -> list[Parts]:
    """Each generator canonicalized by partition; one with more than n parts
    is a ValueError."""
    xs = []
    for g in gens:
        x = partition(g)
        if len(x) > ctx.n:
            raise ValueError(f"generator {x} has more than {ctx.n} parts")
        xs.append(x)
    return xs


def ideal_leq(a: InvariantIdeal, b: InvariantIdeal) -> bool:
    """True when a contains b as ideals.

    The antichain order runs opposite to inclusion: a >= b as ideals exactly
    when every generator of b contains some generator of a as a diagram,
    which the containment index of a.gens answers (partitions._in_ideal).
    """
    if a.ctx != b.ctx:
        raise ValueError("ideals live in different matrix contexts")
    trie = _index(a.gens)
    return all(_in_ideal(trie, y) for y in b.gens)


def power_of_minors(ctx: MatrixContext, p: int, d: int) -> InvariantIdeal:
    """d-th power of the ideal of p x p minors.

    Generated by every partition of size p*d with at most n parts, each part
    at most d: the first row is some c <= d and rows 1..n sum to p*d
    (_equal_rows with k = 1). d = 0 gives the unit ideal.
    """
    p, d = _integer(p, "minor size p", 1, ctx.n), _integer(d, "exponent d", 0)
    return _equal_rows(ctx, 1, p * d, d)


def symbolic_power(ctx: MatrixContext, p: int, d: int) -> InvariantIdeal:
    """d-th symbolic power of the ideal of p x p minors.

    Generated by the partitions whose first p rows share a common value
    c <= d and whose rows p..n sum to d (_equal_rows with k = p).
    """
    p, d = _integer(p, "minor size p", 1, ctx.n), _integer(d, "exponent d", 0)
    return _equal_rows(ctx, p, d, d)


def saturated_power(ctx: MatrixContext, p: int, d: int) -> InvariantIdeal:
    """Saturation of the d-th power of the p x p minors by the maximal ideal.

    Generated by the partitions with x_1 = x_2 = c <= d whose rows 2..n sum
    to (p-1)*d (_equal_rows with k = 2). Without the cap c <= d the same row
    conditions admit partitions that lie outside the saturation, so the cap
    is part of the description, not an optimization.
    """
    p, d = _integer(p, "minor size p", 1, ctx.n), _integer(d, "exponent d", 0)
    return _equal_rows(ctx, 2, (p - 1) * d, d)


def _equal_rows(ctx: MatrixContext, k: int, total: int, d: int) -> InvariantIdeal:
    """The ideal generated by the partitions with at most n parts whose first
    k rows equal some c <= d and whose rows k..n sum to total, for k >= 1.

    Rows k..n of a member form a partition y of total with at most n - k + 1
    parts, each at most d, and rows 1..k-1 copy y_1 = c; so the members are
    one enumeration, _sized(total, n - k + 1, d), with y_1 written k - 1
    more times in front (the power, k = 1, is that enumeration itself). y = ()
    exists only at total = 0 and gives (); k = 2 > n = 1, no rows for y,
    comes only with total = 0.

    Built canonical and descending, so it skips the constructor's check:
    the y descend, and copying y_1 keeps their order. An antichain: for
    c < c' the c-member has the shorter first row but more boxes after
    row k, so neither contains the other, and members with the same c are
    distinct partitions of the same size.
    """
    ys = _sized(total, ctx.n - k + 1, d)
    if k > 1:
        ys = ((y[0],) * (k - 1) + y if y else () for y in ys)
    return InvariantIdeal._trusted(ctx, tuple(ys))


def strip_short_columns(x, p: int) -> Parts:
    """Drop the columns of x of height at most p.

    Equivalently x(c) where c = x_{p+1} counts the columns of height greater
    than p. Identity at p = 0; the zero partition for p >= height of x.
    """
    p = _integer(p, "height p", 0)
    xx = partition(x)
    return truncate_columns(xx, part(xx, p + 1))


def saturation_generators(a: InvariantIdeal, p: int) -> tuple[Parts, ...]:
    """Generators of the saturation by the p x p minors, before reduction.

    Strips the short columns from each generator of a; the resulting family
    generates the saturated ideal but need not be an antichain. Sorted
    descending with duplicates removed.
    """
    p = _integer(p, "minor size p", 0, a.ctx.n)
    return tuple(sorted({strip_short_columns(x, p) for x in a.gens}, reverse=True))


def saturate(a: InvariantIdeal, p: int) -> InvariantIdeal:
    """Saturation of a by the ideal of p x p minors.

    Minimalizes the stripped generating family. p = 0 is the identity and
    p = n sends every nonzero ideal to the unit ideal.
    """
    return InvariantIdeal._trusted(a.ctx, minimalize(saturation_generators(a, p)))


def succ_min(ctx: MatrixContext, z, l: int) -> tuple[Parts, ...]:
    """Minimal partitions x in P_n with x >= z and x_i > z_i for some i > l.

    For each admissible row i the least such x adds one box to row i and to
    every earlier row tied with it, because rows must stay weakly
    decreasing. Minimalizing these candidates over i gives the full answer:
    any member of the set dominates the candidate built from any row
    witnessing its membership.
    """
    l = _integer(l, "l", 0, ctx.n - 1)
    zz = partition(z)
    if len(zz) > ctx.n:
        raise ValueError(f"{zz} has more than {ctx.n} parts")
    ramps = []
    for i in range(l + 1, ctx.n + 1):
        zi = part(zz, i)
        ramps.append(partition(tuple(
            part(zz, j) + 1 if j <= i and part(zz, j) == zi else part(zz, j)
            for j in range(1, ctx.n + 1)
        )))
    return minimalize(ramps)

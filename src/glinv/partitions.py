"""Partitions, dominant weights, and Gauss polynomial coefficients.

A partition is stored as a tuple of weakly decreasing positive integers with
trailing zeros stripped, so the empty tuple () is the zero partition and
equality of diagrams is equality of tuples. Dominant weights are weakly
decreasing integer tuples of a fixed length whose entries may be negative.
A Gauss polynomial is the tuple of its coefficients, indexed by the exponent
of q; the multiplicity tables read them as multiplicities.

All arithmetic is exact; the only floats in this module are the infinite
bounds of an empty containment index, which are only compared.
"""

from __future__ import annotations

from itertools import groupby
from math import inf
from operator import index
from typing import Iterable, Iterator

Parts = tuple[int, ...]
Weight = tuple[int, ...]


def partition(parts: Iterable[int]) -> Parts:
    """Canonicalize a sequence of row lengths.

    Entries must be weakly decreasing nonnegative integers; trailing zeros
    are dropped. The empty sequence is accepted and denotes the zero
    partition. The entries are checked through dominant_weight, whose
    integer and weakly-decreasing rules and messages hold here; partition
    adds only a nonnegative last entry, so its zeros are the trailing ones.
    """
    xs = dominant_weight(parts)
    if xs and xs[-1] < 0:
        raise ValueError(f"negative row length in {xs}")
    return xs[:len(xs) - xs.count(0)]


def _integer(value, name: str, lo: int | None = None, hi: int | None = None) -> int:
    """value as an int in lo..hi, a missing bound leaving that side open.

    A bool or a value without __index__ is a ValueError, by the rule of
    dominant_weight; so is a value out of range. The message names the
    argument. A plain int skips the type test.
    """
    if type(value) is not int:
        if isinstance(value, bool) or not hasattr(value, "__index__"):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        value = index(value)
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        bounds = (f"at least {lo}" if hi is None else f"at most {hi}" if lo is None
                  else f"in {lo}..{hi}")
        raise ValueError(f"{name} must be {bounds}, got {value}")
    return value


def part(x: Parts, i: int) -> int:
    """Row i of x, 1-based, reading zero past the last row."""
    return x[i - 1] if 0 < i <= len(x) else 0


def size(x: Parts) -> int:
    """Number of boxes of the diagram."""
    return sum(x)


def conjugate(x: Parts) -> Parts:
    """Transpose of the Young diagram: column heights become row lengths."""
    if not x:
        return ()
    return tuple(sum(1 for v in x if v >= c) for c in range(1, x[0] + 1))


def leq(x: Parts, y: Parts) -> bool:
    """Containment of diagrams: x_i <= y_i for every row."""
    if len(x) > len(y):
        return False
    return all(a <= b for a, b in zip(x, y))


def truncate_columns(x: Parts, c: int) -> Parts:
    """First c columns of x: every row clipped to length at most c."""
    c = _integer(c, "column count c", 0)
    return partition(min(v, c) for v in x)


def minimalize(xs: Iterable[Parts]) -> tuple[Parts, ...]:
    """Minimal elements of a family of partitions, sorted descending.

    The result is an antichain with the same up-set under leq as the input.
    A partition strictly inside another has fewer boxes, so the distinct
    inputs are taken in order of size, and each is kept unless the
    containment index of the kept partitions of smaller size finds one
    inside it (_in_ideal). A size class enters the index only when a larger
    class is about to be tested, and nothing is queried while the index is
    empty: a family of one size inserts and queries nothing.
    """
    keep: list[Parts] = []
    trie = _index()
    fresh: list[Parts] = []
    for _, same_size in groupby(sorted(set(xs), key=sum), key=sum):
        for x in fresh:
            _insert(trie, x)
        fresh = [x for x in same_size if not (keep and _in_ideal(trie, x))]
        keep += fresh
    return tuple(sorted(keep, reverse=True))


def _index(xs: Iterable[Parts] = ()) -> list:
    """Containment index of the partitions xs, a trie that _insert grows
    and _in_ideal queries; callers hold it and never read its nodes.

    A node is [least, rows, children]. least and rows are the fewest boxes
    and the fewest rows that a partition stored below the node still has
    from the node's depth on (infinite while nothing is stored), and
    children maps a row length to the next node. A stored partition x is
    the path x_1, ..., x_k from the root. Rows are positive, so least is 0
    exactly at a node where a stored partition ends.
    """
    trie = [inf, inf, {}]
    for x in xs:
        _insert(trie, x)
    return trie


def _insert(trie: list, x: Parts) -> None:
    """Store the partition x in the index, lowering the bounds along its path."""
    node, rest, rows = trie, sum(x), len(x)
    if rest < node[0]:
        node[0] = rest
    if rows < node[1]:
        node[1] = rows
    for v in x:
        rest -= v
        rows -= 1
        child = node[2].get(v)
        if child is None:
            child = node[2][v] = [rest, rows, {}]
        else:
            if rest < child[0]:
                child[0] = rest
            if rows < child[1]:
                child[1] = rows
        node = child


def _in_ideal(trie: list, z: Parts) -> bool:
    """Whether some partition stored in the index lies inside z.

    The search holds the children of a node at depth i and the boxes of z
    from row i+1 on. It follows a branch v only when v <= z_{i+1}, and
    succeeds at a child where a stored partition ends, since every row of
    that partition fit in z on the way. It skips a child whose stored
    partitions all have more boxes or more rows left than z has below it.
    These bounds keep the search off most of an index whose partitions are
    larger or longer than z, so its time follows the stored paths that can
    fit, not the number of partitions stored.
    """
    least, rows, children = trie
    if not least:
        return True
    room, k = sum(z), len(z)
    if least > room or rows > k:
        return False
    stack = [(children, 0, room)]
    while stack:
        children, i, room = stack.pop()
        zi = z[i]
        room -= zi
        i += 1
        for v, (least, rows, below) in children.items():
            if v <= zi:
                if not least:
                    return True
                if least <= room and rows <= k - i:
                    stack.append((below, i, room))
    return False


def enumerate_in_box(rows: int, cols: int) -> list[Parts]:
    """All partitions with at most `rows` parts, each part at most `cols`.

    binomial(rows + cols, rows) of them, in lexicographic order with a prefix
    first, as the walk yields them, not by size. A partition y inside x comes
    before x: y is lower at the first row where they differ, or a prefix of x.
    """
    return list(_box(_integer(rows, "rows", 0), _integer(cols, "cols", 0)))


def _box(rows: int, cap: int) -> Iterator[Parts]:
    yield ()
    if rows == 0 or cap == 0:
        return
    for head in range(1, cap + 1):
        for tail in _box(rows - 1, head):
            yield (head,) + tail


def partitions_of_size_in_box(total: int, rows: int, cols: int) -> list[Parts]:
    """Partitions of `total` with at most `rows` parts, each at most `cols`,
    in strictly descending lexicographic order, as the walk yields them; none
    when total is negative."""
    total = _integer(total, "total")
    rows, cols = _integer(rows, "rows", 0), _integer(cols, "cols", 0)
    return list(_sized(total, rows, cols)) if total >= 0 else []


def _sized(total: int, rows: int, cap: int) -> Iterator[Parts]:
    """The partitions of total >= 0 with at most `rows` parts, each at most
    cap (rows, cap >= 0), in strictly descending lexicographic order; ()
    alone for total = 0.

    One list of rows is rewritten in place. The first partition fills the
    rows greedily, cap boxes each. The next lowers the rightmost row i that
    can drop: row i falls by one to v, and rows i.. must still hold the
    boxes they held, so v * (rows - i) must reach that count (and v >= 1).
    The rows from i on are then refilled greedily with at most v boxes each,
    the largest tail under the lowered row. No row can drop after the last
    partition, whose rows are as even as the count allows.
    """
    if total == 0:
        yield ()
        return
    if total > rows * cap:
        return
    row, rest, v = [], total, cap
    while True:
        q, r = divmod(rest, v)
        row += [v] * q
        if r:
            row.append(r)
        yield tuple(row)
        i, rest = len(row), 0
        while True:
            i -= 1
            if i < 0:
                return
            v = row[i]
            rest += v
            v -= 1
            if v * (rows - i) >= rest:
                break
        del row[i:]


def attach(r: int, s: int, a: Parts, b: Parts) -> Parts:
    """Attach a to the right and b below an r x s rectangle.

    The rows are s + a_i for i = 1..r followed by the rows of b, so a needs
    at most r parts and b needs b_1 <= s for the result to be a partition.
    The size is always r*s + |a| + |b|.
    """
    r, s = _integer(r, "rectangle height r", 1), _integer(s, "rectangle width s", 1)
    if len(a) > r:
        raise ValueError(f"{a} has more than {r} parts")
    if b and b[0] > s:
        raise ValueError(f"{b} is wider than the rectangle")
    return partition([s + part(a, i) for i in range(1, r + 1)] + list(b))


def dominant_weight(entries: Iterable[int]) -> Weight:
    """Validate a weakly decreasing integer vector, returned as a tuple of
    ints; anything but an iterable of non-bool integers is a ValueError."""
    try:
        w = tuple(entries)
        if bool in map(type, w):
            raise ValueError(f"entries must be integers, not booleans: {w}")
        w = tuple(map(index, w))
    except TypeError as exc:
        raise ValueError(f"entries must be integers: {exc}") from None
    for a, b in zip(w, w[1:]):
        if a < b:
            raise ValueError(f"not weakly decreasing: {w}")
    return w


def dual_weight(w: Iterable[int]) -> Weight:
    """Highest weight of the dual representation: negate and reverse."""
    return tuple(-v for v in reversed(dominant_weight(w)))


def pad_weight(w: Iterable[int], N: int) -> Weight:
    """Extend a weight to length N by zeros on the right.

    Only meaningful when the missing entries can be read as zeros, so a
    shorter weight with a negative tail is rejected.
    """
    N, ww = _integer(N, "N", 0), dominant_weight(w)
    if len(ww) > N:
        raise ValueError(f"{ww} is longer than {N}")
    if len(ww) < N and ww and ww[-1] < 0:
        raise ValueError(f"cannot zero-pad {ww}: negative tail")
    return ww + (0,) * (N - len(ww))


def qbinomial(a: int, b: int) -> tuple[int, ...]:
    """Gauss polynomial, the q-analog of binomial(a, b), as its coefficients.

    Returns (c_0, ..., c_top) with top = b*(a-b), c_e the coefficient of
    q^e, or () when b > a. Computed in place from the product formula: for
    i = 1..b, multiply by (1 - q^(a-b+i)) and divide exactly by (1 - q^i),
    which leaves the Gauss polynomial binomial(a-b+i, i) of degree
    i*(a-b) <= top. A product before its division may pass q^top, but exact
    division by (1 - q^i) reads only lower coefficients, so the list is cut
    at q^top throughout. The coefficients are positive and sum to the
    ordinary binomial coefficient.
    """
    a, b = _integer(a, "a", 0), _integer(b, "b", 0)
    if b > a:
        return ()
    top = b * (a - b)
    c = [1] + [0] * top
    for i in range(1, b + 1):
        k = a - b + i
        for e in range(top, k - 1, -1):
            c[e] -= c[e - k]
        for e in range(i, top + 1):
            c[e] += c[e - i]
    return tuple(c)


def _qbinomial_updates(a: int, b: int) -> int:
    """The coefficient updates qbinomial(a, b) makes, counted without making
    them, plus its b outer steps, each priced as one update: qbinomial(a, a)
    makes no update but still takes a steps. With top = b(a - b), step
    i = 1..b makes max(0, top - k + 1) subtractions, k = a - b + i, and
    max(0, top - i + 1) additions; each is a sum of max(0, c - i) over
    i = 1..b, whose p = min(b, c - 1) positive terms add up to
    p*c - p(p + 1)/2. 0 when b > a."""
    a, b = _integer(a, "a", 0), _integer(b, "b", 0)
    if b > a:
        return 0
    top = b * (a - b)
    total = b
    for c in (top - (a - b) + 1, top + 1):
        p = min(b, max(0, c - 1))
        total += p * c - p * (p + 1) // 2
    return total

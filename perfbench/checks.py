"""Output checks of arbitrary jobs on seeds without recorded digests.

Written from the definitions, without glinv: an invariant ideal is the
up-set of its generating partitions under diagram containment.

* normalize, reg: the generators printed are the minimal elements of the
  raw family.
* compare: the relation follows from containment of generators.
* saturate -p: drop the columns of height at most p from every generator,
  then take minimal elements.
* zset (n <= 5): the Cauchy identity. For each degree D, the partitions of
  D with at most n parts outside the ideal are counted once by the factors
  J_{z,l}, which hold the x with x_i = z_i for i > l and x_i >= z_i for i <= l.
* reg: the regularity is at least the largest generator degree.

Each check returns None when the output passes and a message otherwise.
"""

from __future__ import annotations

import json

from jobs import Job, count_partitions

CAUCHY_MAX_N = 5
CAUCHY_EXTRA_DEGREES = 2


def _canon(parts) -> tuple[int, ...]:
    return tuple(v for v in parts if v)


def _contains(x, y) -> bool:
    """Diagram x lies inside diagram y."""
    return len(x) <= len(y) and all(a <= b for a, b in zip(x, y))


def minimal(family) -> list[list[int]]:
    pool = {_canon(g) for g in family}
    keep = [x for x in pool if not any(y != x and _contains(y, x) for y in pool)]
    return [list(x) for x in sorted(keep, reverse=True)]


def _ideal_contains(a, b) -> bool:
    """Every generator of b lies in the ideal generated by a."""
    return all(any(_contains(x, y) for x in a) for y in b)


def _strip(x, p: int) -> tuple[int, ...]:
    tall = sum(1 for c in range(1, (x[0] if x else 0) + 1) if sum(1 for v in x if v >= c) > p)
    return _canon(min(v, tall) for v in x)


def _partitions(total: int, rows: int, cap: int):
    if total == 0:
        yield ()
        return
    if rows == 0:
        return
    for head in range(min(cap, total), 0, -1):
        for tail in _partitions(total - head, rows - 1, head):
            yield (head,) + tail


def _cauchy(n: int, gens, pairs) -> str | None:
    gens = [_canon(g) for g in gens]
    top = max(sum(g) for g in gens) + CAUCHY_EXTRA_DEGREES
    for degree in range(top + 1):
        outside = sum(1 for x in _partitions(degree, n, degree)
                      if not any(_contains(g, x) for g in gens))
        counted = 0
        for pair in pairs:
            z, l = _canon(pair["z"]), pair["l"]
            row = z[l] if l < len(z) else 0
            free = degree - sum(z[l:]) - l * row
            # x is z with rows 1..l raised by a partition of `free` into <= l parts
            counted += count_partitions(free, l, free) if free >= 0 else 0
        if outside != counted:
            return f"Cauchy identity fails in degree {degree}: {outside} != {counted}"
    return None


def check(job: Job, output: str) -> str | None:
    """Seed-independent check of one job's stdout."""
    verb, meta = job.argv[0], job.meta
    try:
        data = json.loads(output)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    if verb == "compare":
        left, right = minimal(meta["left"]), minimal(meta["right"])
        ge, le = _ideal_contains(left, right), _ideal_contains(right, left)
        want = {(True, True): "equal", (True, False): "contains",
                (False, True): "contained-in", (False, False): "incomparable"}[(ge, le)]
        return None if data["relation"] == want else f"relation {data['relation']}, want {want}"
    gens = minimal(meta["raw"])
    if verb == "saturate":
        want = minimal(_strip(tuple(g), meta["p"]) for g in gens)
        return None if data["gens"] == want else f"saturation {data['gens']}, want {want}"
    if verb in ("normalize", "reg") and data["gens"] != gens:
        return f"generators {data['gens']}, want {gens}"
    if verb == "reg" and data["regularity"] < max(sum(g) for g in gens):
        return f"regularity {data['regularity']} below the largest generator degree"
    if verb == "zset" and meta["n"] <= CAUCHY_MAX_N:
        return _cauchy(meta["n"], gens, data["pairs"])
    return None

"""The reference loop that every timed interval is scaled by.

The machine the benchmark runs on is shared: the same code runs up to 2.4x
slower while other tenants load the host, in phases from seconds to minutes
long, on one vCPU or on both. Such a phase can cover a whole run, so no
statistic over the run's own samples removes it. Instead every timed
interval is bracketed by calls of reference(), a fixed piece of pure-Python
work that never touches glinv, and is reported at the reference speed:

    scaled = wall * NOMINAL_S / reference time measured around it

A change to glinv moves the wall time and not the reference, so it moves the
scaled time by the same factor; a slow phase of the machine moves both.
The loop mixes generator arithmetic with tuple, sort and dict work, because
each slows by a different factor in a slow phase and glinv does both kinds.
"""

import itertools
from time import perf_counter

# Seconds one call of reference() takes in a fast phase of the machine the
# benchmark was built on (2 KVM vCPUs, Xeon model 143, Python 3.11.7). It
# only sets the scale of the reported times.
NOMINAL_S = 3.2e-4


def _arithmetic() -> int:
    return sum(i * i % 7 for i in range(1500))


def _containers() -> int:
    acc = {}
    for parts in itertools.combinations(range(8), 4):
        key = tuple(sorted((a * 3 + b) % 11 for a, b in zip(parts, parts[1:])))
        acc[key] = acc.get(key, 0) + sum(parts)
    return len(acc)


def reference() -> float:
    """Seconds taken by one call of the fixed reference work."""
    start = perf_counter()
    _arithmetic()
    _containers()
    return perf_counter() - start


def scaled(seconds: float, ref_before: float, ref_after: float) -> float:
    """`seconds` at the reference speed, from the reference times measured
    just before and just after the interval."""
    return seconds * NOMINAL_S * 2 / (ref_before + ref_after)

"""Job lists of the three workloads, and the cost estimate that caps them.

A job is one argv list for `glinv.cli.main`. Lists are built from the
workload name and the seed alone and never import glinv, so the program
under test only ever sees the generated argv.

* families: zset and reg over the power, symbolic and saturated families,
  n = 6..8, m in {n, n+1}, p in FAMILY_P, d swept over 1..FAMILY_D. The seed
  only shuffles the order. Sweeps over d share truncations, so caches keyed
  by column count or by factor show their effect here.
* arbitrary: seeded random invariant ideals passed as raw, redundant --gens
  families (trailing zeros, supersets, duplicates, shuffled order) to
  normalize, compare, saturate, zset and reg, n = 4..7. Every ideal of one
  stratum has the same generator count, generator size and first row, so
  the Z-set cost (heads x generators) is the same on every seed and
  jobs_per_s stays comparable across seeds.
* characters: wide ext windows, betti tables up to 8x8, lc tables and
  lc --ds 0 windows. The seed only shuffles the order. The Z-set is
  negligible here; weights, characters, flattening and rendering do the work.

Every job is priced from its input by estimate_seconds. Jobs of the sweeps
above whose estimate exceeds JOB_CAP_S are left out and listed by
excluded_jobs, so one job cannot take over a run; they stay performance
targets.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

WORKLOADS = ("families", "arbitrary", "characters")
MIN_JOBS = 100

# Estimated wall time above which a job is left out of a list. One pass of a
# list has to fit several times into a run; a job over this cap would hold
# a pass for a large share of the run by itself.
JOB_CAP_S = 0.05

# Seconds per unit of estimated work, measured on a 2-vCPU KVM guest (Xeon
# model 143, Python 3.11). Only their order of magnitude matters.
JOB_BASE_S = 1.0e-3            # argument parsing, ideal construction, output
ZSET_S_PER_TEST = 9.0e-6       # one (head, generator) test of the Z-set scan
BETTI_S_PER_TERM = 6.5e-5      # one block term of the Betti polynomial, flattened
EXT_S_PER_UNIT = 1.5e-5        # one unit of window width x n^2 of an Ext query
DS_S_PER_WEIGHT = 4.0e-6       # one candidate weight of a D_0 window

FAMILY_NS = (6, 7, 8)
FAMILY_P = (2, 3)
FAMILY_D = 10
KINDS = ("power", "symbolic", "saturated")

# (n, first row, generator size, generator count) per arbitrary stratum.
ARBITRARY_STRATA = ((4, 7, 14, 7), (5, 6, 13, 9), (6, 5, 13, 11), (7, 5, 14, 12))
# jobs per verb and stratum
ARBITRARY_COUNTS = {"normalize": 6, "compare": 6, "saturate": 6, "zset": 16, "reg": 16}


@dataclass(frozen=True)
class Job:
    """One CLI call. `meta` carries what the output checks need."""

    argv: tuple[str, ...]
    meta: dict = field(default_factory=dict, compare=False, hash=False)

    @property
    def key(self) -> str:
        """Key of the job in digests.json: a short hash of its argv."""
        return hashlib.sha256(json.dumps(list(self.argv)).encode()).hexdigest()[:16]

    @property
    def name(self) -> str:
        return "glinv " + " ".join(self.argv)


# ---------------------------------------------------------------- counting

@lru_cache(maxsize=None)
def count_partitions(total: int, rows: int, cap: int) -> int:
    """Partitions of `total` with at most `rows` parts, each at most `cap`."""
    if total == 0:
        return 1
    if rows <= 0 or cap <= 0 or total < 0:
        return 0
    return sum(count_partitions(total - h, rows - 1, h) for h in range(1, min(cap, total) + 1))


def heads(n: int, cmax: int) -> int:
    """Heads the Z-set scan visits: partitions in the (n-1) x c box, c < cmax."""
    return sum(comb(n - 1 + c, c) for c in range(cmax))


def family_generators(kind: str, n: int, p: int, d: int) -> tuple[int, int]:
    """(generator count before reduction, largest first row) of a family."""
    if kind == "power":
        return count_partitions(p * d, n, d), d
    if kind == "symbolic":
        return sum(count_partitions(d - c, n - p, c) for c in range(d + 1)), d
    return sum(count_partitions((p - 1) * d - c, n - 2, c) for c in range(d + 1)), d


def betti_block_terms(m: int, n: int, a: int, b: int) -> int:
    """Terms the Betti polynomial accumulates: block terms times Gauss terms."""
    total = 0
    for t in range(n - a + 1):
        r, s = a + t, b + t
        e = min(r, s)
        block = comb(e + n - r, e) * comb(m - r + e, e)
        total += block * (t * (min(a, b) - 1) + 1)
    return total


def estimate_seconds(job: Job) -> float:
    """Wall time of a job predicted from its argv alone."""
    meta = job.meta
    verb = job.argv[0]
    if verb in ("zset", "reg", "ext"):
        units = heads(meta["n"], meta["cmax"]) * meta["gens"]
        extra = 0.0
        if verb == "ext":
            extra = meta["width"] * meta["n"] ** 2 * EXT_S_PER_UNIT
        return JOB_BASE_S + units * ZSET_S_PER_TEST + extra
    if verb == "betti":
        return JOB_BASE_S + betti_block_terms(meta["m"], meta["n"], meta["a"], meta["b"]) * BETTI_S_PER_TERM
    if verb == "lc" and "width" in meta:
        return JOB_BASE_S + comb(meta["n"] + meta["width"], meta["n"]) * DS_S_PER_WEIGHT
    return JOB_BASE_S


# ---------------------------------------------------------------- families

def _family_sweep() -> list[Job]:
    out = []
    for n in FAMILY_NS:
        for m in (n, n + 1):
            for kind in KINDS:
                for p in FAMILY_P:
                    for d in range(1, FAMILY_D + 1):
                        gens, cmax = family_generators(kind, n, p, d)
                        meta = {"n": n, "m": m, "gens": gens, "cmax": cmax}
                        for verb, fmt in (("zset", "pretty"), ("reg", "pretty")):
                            out.append(Job((verb, "--kind", kind, "-p", str(p), "-d", str(d),
                                            "-m", str(m), "-n", str(n), "--format", fmt), meta))
    return out


# ---------------------------------------------------------------- characters

def _characters_sweep() -> list[Job]:
    out = []
    # Ext windows start below the least Ext degree and widen upwards, where
    # the degree slices grow without bound.
    for n in (3, 4, 5):
        for m in (n, n + 1):
            for kind, p, d, gens in (("power", 2, 2, count_partitions(4, n, 2)),
                                     ("symbolic", 2, 3, 4), ("saturated", 3, 2, 4)):
                for hi in (0, 20, 40):
                    lo = -3 * m * n
                    meta = {"n": n, "m": m, "gens": gens, "cmax": d, "width": hi - lo}
                    for fmt in ("json", "pretty"):
                        out.append(Job(("ext", "--kind", kind, "-p", str(p), "-d", str(d),
                                        "-m", str(m), "-n", str(n), f"--window={lo}..{hi}",
                                        "--format", fmt), meta))
    for n in range(4, 9):
        for a in range(1, n + 1):
            for b in (1, 2, 3):
                meta = {"m": n, "n": n, "a": a, "b": b}
                fmt = ("pretty", "csv", "json")[(n + a + b) % 3]
                out.append(Job(("betti", "-m", str(n), "-n", str(n), "-a", str(a), "-b", str(b),
                                "--format", fmt), meta))
    for n in range(2, 9):
        for m in (n, n + 1):
            for p in range(1, n + 1):
                fmt = ("pretty", "json", "csv")[(m + p) % 3]
                out.append(Job(("lc", "-m", str(m), "-n", str(n), "-p", str(p), "--format", fmt),
                               {"m": m, "n": n}))
    for n in (3, 4, 5, 6):
        for m in (n, n + 1):
            for width in (4, 8, 12, 16):
                hi = -m * n
                meta = {"m": m, "n": n, "width": width}
                for fmt in ("json", "pretty"):
                    out.append(Job(("lc", "-m", str(m), "-n", str(n), "-p", "1", "--ds", "0",
                                    f"--window={hi - width}..{hi}", "--format", fmt), meta))
    return out


# ---------------------------------------------------------------- arbitrary

def _sample_partition(rng: random.Random, total: int, rows: int, cap: int) -> tuple[int, ...]:
    """Uniformly random partition of `total`, at most `rows` parts each <= cap."""
    parts = []
    while total:
        lo = -(-total // rows)
        choices = list(range(lo, min(cap, total) + 1))
        weights = [count_partitions(total - h, rows - 1, h) for h in choices]
        h = rng.choices(choices, weights)[0]
        parts.append(h)
        total, rows, cap = total - h, rows - 1, h
    return tuple(parts)


def _random_antichain(rng: random.Random, n: int, cmax: int, size: int, count: int) -> list[tuple[int, ...]]:
    """`count` distinct partitions of `size` (so an antichain), one of them
    with first row exactly `cmax` and all with first row at most `cmax`."""
    first = (cmax,) + _sample_partition(rng, size - cmax, n - 1, cmax)
    gens = {first}
    while len(gens) < count:
        gens.add(_sample_partition(rng, size, n, cmax))
    return sorted(gens, reverse=True)


def _grow(rng: random.Random, x: tuple[int, ...], n: int, boxes: int) -> tuple[int, ...]:
    """x with `boxes` extra boxes added at random addable corners."""
    xs = list(x)
    for _ in range(boxes):
        rows = [i for i in range(min(len(xs) + 1, n)) if i == 0 or (xs + [0])[i] < xs[i - 1]]
        i = rng.choice(rows)
        if i == len(xs):
            xs.append(1)
        else:
            xs[i] += 1
    return tuple(xs)


def _raw_family(rng: random.Random, gens: list[tuple[int, ...]], n: int) -> list[list[int]]:
    """The same ideal as a raw generating family: redundant supersets, a
    duplicate, trailing zeros and a shuffled order."""
    family = [list(g) for g in gens]
    for g in rng.sample(gens, max(1, len(gens) // 2)):
        family.append(list(_grow(rng, g, n, rng.randint(1, 3))))
    family.append(list(rng.choice(gens)))
    for g in family:
        if rng.random() < 0.5:
            g.extend([0] * (n - len(g)))
    rng.shuffle(family)
    return family


def _arbitrary_jobs(seed: int) -> list[Job]:
    rng = random.Random(seed)
    out = []
    for n, cmax, size, count in ARBITRARY_STRATA:
        def ideal():
            gens = _random_antichain(rng, n, cmax, size, count)
            return gens, _raw_family(rng, gens, n)

        def base(verb, m, raw):
            return Job((verb, "-m", str(m), "-n", str(n), "--gens", json.dumps(raw, separators=(",", ":")),
                        "--format", "json"),
                       {"n": n, "m": m, "gens": count, "cmax": cmax, "raw": raw})

        for verb, k in ARBITRARY_COUNTS.items():
            for _ in range(k):
                m = rng.choice((n, n + 1))
                gens, raw = ideal()
                if verb == "compare":
                    relation = rng.choice(("equal", "contains", "contained-in", "other"))
                    if relation == "equal":
                        other = _raw_family(rng, gens, n)
                    elif relation == "other":
                        other = _raw_family(rng, _random_antichain(rng, n, cmax, size, count), n)
                    else:
                        other = [list(_grow(rng, g, n, rng.randint(0, 2))) for g in gens]
                    left, right = (raw, other) if relation != "contained-in" else (other, raw)
                    out.append(Job(("compare", "-m", str(m), "-n", str(n),
                                    "--left", json.dumps(left, separators=(",", ":")),
                                    "--right", json.dumps(right, separators=(",", ":")),
                                    "--format", "json"),
                                   {"n": n, "m": m, "left": left, "right": right}))
                elif verb == "saturate":
                    job = base(verb, m, raw)
                    p = rng.randint(1, n - 1)
                    out.append(Job(job.argv + ("-p", str(p)), {**job.meta, "p": p}))
                else:
                    out.append(base(verb, m, raw))
    return out


# ---------------------------------------------------------------- lists

def sweep(workload: str, seed: int = 0) -> list[Job]:
    """Every job the workload would run without the cost cap, unshuffled."""
    if workload == "families":
        return _family_sweep()
    if workload == "characters":
        return _characters_sweep()
    if workload == "arbitrary":
        return _arbitrary_jobs(seed)
    raise ValueError(f"unknown workload {workload!r}")


def build(workload: str, seed: int) -> list[Job]:
    """The job list of one workload and seed, in its seeded order."""
    jobs = [job for job in sweep(workload, seed) if estimate_seconds(job) <= JOB_CAP_S]
    random.Random(f"{workload}:{seed}").shuffle(jobs)
    return jobs


def excluded_jobs(workload: str, seed: int = 0) -> list[tuple[Job, float]]:
    """Jobs of the sweep over the cap, with their estimated seconds."""
    return [(job, est) for job in sweep(workload, seed)
            if (est := estimate_seconds(job)) > JOB_CAP_S]


def excluded_report() -> str:
    """EXCLUDED.md: every job the cap removes, by name, with its estimate."""
    lines = ["# Jobs left out by the cost cap", "",
             f"Generated by `python3 perfbench/jobs.py > perfbench/EXCLUDED.md`. Each job below",
             f"is estimated from its input to take more than JOB_CAP_S = {JOB_CAP_S} s (see",
             "jobs.py), so one pass of its workload could not stay short enough to run many",
             "times within one run. Reason for each: exceeds run length. They remain",
             "performance targets; `python3 perfbench/trace_job.py <argv>` traces one.", ""]
    for workload in ("families", "characters"):
        dropped = excluded_jobs(workload)
        lines += [f"## {workload}: {len(dropped)} jobs", "",
                  "| job | estimate (s) | reason |", "|---|---|---|"]
        lines += [f"| `{job.name}` | {est:.3g} | exceeds run length |" for job, est in dropped]
        lines.append("")
    lines.append("arbitrary: none; every stratum is sized below the cap.")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    print(excluded_report(), end="")

"""Benchmark of the glinv command line: fixed job lists run in-process.

    python3 perfbench/run.py --workload families|arbitrary|characters \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; glinv is imported from ./src, no
install needed. Workloads and the cost cap are described in jobs.py.

A run first starts SETUP_STARTS fresh interpreters that only import
glinv.cli, then runs passes until S seconds have gone by, each on the CPU
that is fastest when it starts (fastest_cpu). A pass is a fresh
interpreter (worker.py) that imports glinv.cli and runs the job list once as
a closed loop with one client and one thread; nothing is warmed first.
Every pass start is also a set-up sample.

Every time is scaled to the speed of a fixed reference loop timed just
before and just after it (speedref.py), because the shared machine has slow
phases that can outlast a run. With --trace 0 the end-to-end metrics come
from all passes, taking each job's median scaled time over the passes
(job_times). With --trace 1
untraced and traced passes alternate: per-layer metrics come from the traced
ones (tracer.py), averaged per pass of the job list, and
trace.overhead_frac compares the two kinds.

Every job's exit code and stdout are hashed and compared with digests
recorded from the parent commit (record.py, digests.json). Arbitrary jobs
on seeds without recorded digests get the checks in checks.py instead. Any
failed job makes `correct` false and the exit code 1.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics. Failures also show as fail_frac on the summary lines
above it; it is not a metric of BENCHMARK.json because it is 0 whenever
the program is correct. Spans of the last traced pass are written to
.perfbench/spans-<workload>.csv.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import checks
import jobs as joblists
from speedref import reference, scaled

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
DIGESTS = os.path.join(HERE, "digests.json")
OUT_DIR = os.path.join(ROOT, ".perfbench")

SETUP_STARTS = 9
PROBE_LOOPS = 50_000
PASS_TIMEOUT_S = 120

END_TO_END = {
    "jobs_per_s": "jobs/s",
    "job_ms_p50": "ms",
    "job_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# name -> (unit, layer, how the per-pass value is formed)
PER_LAYER = {
    "ideals.calls": ("count", "ideals", "calls"),
    "ideals.self_ms": ("ms", "ideals", "self_ms"),
    "ideals.gens_kept_frac": ("ratio", "ideals", "out/in"),
    "zset.calls": ("count", "zset", "calls"),
    "zset.self_ms": ("ms", "zset", "self_ms"),
    "zset.pairs_out": ("count", "zset", "out"),
    "zset.ms_per_pair": ("ms", "zset", "self_ms/out"),
    "st.calls": ("count", "st", "calls"),
    "st.self_ms": ("ms", "st", "self_ms"),
    "st.yielded": ("count", "st", "out"),
    "st.feasible_frac": ("ratio", "st", "out/in"),
    "weights.calls": ("count", "weights", "calls"),
    "weights.self_ms": ("ms", "weights", "self_ms"),
    "weights.out": ("count", "weights", "out"),
    "char.inserts": ("count", "char", "in"),
    "char.self_ms": ("ms", "char", "self_ms"),
    "char.new_key_frac": ("ratio", "char", "out/in"),
    "dim.calls": ("count", "dim", "in"),
    "dim.self_ms": ("ms", "dim", "self_ms"),
    "dim.distinct_frac": ("ratio", "dim", "distinct/in"),
    "betti.calls": ("count", "betti", "calls"),
    "betti.self_ms": ("ms", "betti", "self_ms"),
    "betti.terms": ("count", "betti", "out"),
    "cli.render_ms": ("ms", "cli", "self_ms"),
    "cli.bytes_out": ("bytes", None, "bytes_out"),
    "trace.overhead_frac": ("ratio", None, "overhead"),
    "trace.attributed_frac": ("ratio", None, "attributed"),
}


class BenchError(Exception):
    """The benchmark cannot produce a result; no result line is printed."""


def check_declared() -> None:
    """Metric names and units must be exactly those of BENCHMARK.json."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from None
    for key, table in (("end_to_end", END_TO_END),
                       ("per_layer", {k: v[0] for k, v in PER_LAYER.items()})):
        declared = {m["name"]: m["unit"] for m in spec.get(key, [])}
        if declared != table:
            raise BenchError(f"{key} metrics of BENCHMARK.json differ from run.py: "
                             f"{sorted(set(declared.items()) ^ set(table.items()))}")


def fastest_cpu(cpus: list[int]) -> int:
    """The CPU on which a short Python loop runs fastest right now.

    On a shared host each CPU has slow phases of its own, lasting tens of
    seconds; a worker started on the faster CPU mostly stays in its fast
    phase."""
    def spin_s(cpu: int) -> float:
        os.sched_setaffinity(0, {cpu})
        start = time.perf_counter()
        sum(i * i % 7 for i in range(PROBE_LOOPS))
        return time.perf_counter() - start
    return min(cpus, key=spin_s)


def start_worker(args: list[str], cpu: int) -> tuple[float, dict]:
    """Run worker.py in a fresh interpreter on one CPU; (its set-up time at
    the reference speed, its report)."""
    os.sched_setaffinity(0, {cpu})
    ref_before = reference()
    start = time.monotonic()
    proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=PASS_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    report = json.loads(lines[-1])
    return scaled(report["ready"] - start, ref_before, report["ready_ref"]), report


def load_digests() -> dict[str, str]:
    try:
        with open(DIGESTS) as fh:
            return json.load(fh)["digests"]
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        raise BenchError(f"cannot read recorded digests {DIGESTS}: {exc}") from None


def verify(workload: str, job_list, report: dict, recorded: dict, first: dict | None) -> list[str]:
    """Failure messages for one pass; `first` maps job index to the first
    pass's digest, so later passes must repeat it byte for byte."""
    failures = []
    for i, (job, (_, rc, _, dig, err, _, _)) in enumerate(zip(job_list, report["jobs"])):
        if rc != 0:
            failures.append(f"exit {rc}: {job.name}: {err.strip()}")
            continue
        want = recorded.get(job.key)
        if want is not None:
            if dig[:len(want)] != want:
                failures.append(f"output differs from the recorded digest: {job.name}")
        elif first is not None:
            if dig != first[i]:
                failures.append(f"output differs from the first pass: {job.name}")
        elif workload == "arbitrary":
            problem = checks.check(job, report["outputs"][i])
            if problem:
                failures.append(f"{problem}: {job.name}")
        else:
            failures.append(f"no recorded digest: {job.name}")
    return failures


def job_times(reports: list[dict]) -> list[float]:
    """Each job's median time over the passes, every sample scaled by the
    reference times measured around it. Every pass is a cold start, so no
    warm cache enters a sample."""
    per_pass = ([scaled(j[0], j[5], j[6]) for j in r["jobs"]] for r in reports)
    return [statistics.median(times) for times in zip(*per_pass)]


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (q in 1..99), exclusive method of statistics.quantiles."""
    return statistics.quantiles(values, n=100)[q - 1]


def layer_metrics(traced: list[dict], bytes_out: float, overhead: float) -> dict:
    """Per-layer values per pass of the job list, averaged over traced passes."""
    def mean(fn):
        return statistics.fmean(fn(r) for r in traced)

    def layer(r, name):
        return r["trace"]["layers"][name]

    out = {}
    for metric, (unit, name, form) in PER_LAYER.items():
        if form == "bytes_out":
            value = bytes_out
        elif form == "overhead":
            value = overhead
        elif form == "attributed":
            value = mean(lambda r: sum(t["self_s"] for t in r["trace"]["layers"].values())
                         / sum(j[0] for j in r["jobs"]))
        elif form == "self_ms":
            value = mean(lambda r: layer(r, name)["self_s"] * 1e3)
        elif form == "self_ms/out":
            ms = mean(lambda r: layer(r, name)["self_s"] * 1e3)
            count = mean(lambda r: layer(r, name)["out"])
            value = ms / count if count else 0.0
        elif form == "distinct/in":
            distinct = mean(lambda r: r["trace"]["distinct_weights"])
            calls = mean(lambda r: layer(r, name)["in"])
            value = distinct / calls if calls else 0.0
        elif "/" in form:
            num, den = form.split("/")
            n = mean(lambda r: layer(r, name)[num])
            d = mean(lambda r: layer(r, name)[den])
            value = n / d if d else 0.0
        else:
            value = mean(lambda r: layer(r, name)[form])
        out[metric] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=joblists.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    check_declared()
    if not os.path.isfile(os.path.join(ROOT, "src", "glinv", "cli.py")):
        raise BenchError(f"no glinv sources under {os.path.join(ROOT, 'src')}")
    job_list = joblists.build(args.workload, args.seed)
    if len(job_list) < joblists.MIN_JOBS:
        raise BenchError(f"{args.workload} has {len(job_list)} jobs, fewer than {joblists.MIN_JOBS}")
    recorded = load_digests()

    cpus = sorted(os.sched_getaffinity(0))
    setup = []
    for _ in range(SETUP_STARTS):
        setup.append(start_worker(["--setup-only"], fastest_cpu(cpus))[0])

    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, f"spans-{args.workload}.csv")
    passes = {False: [], True: []}
    kinds = (False, True) if args.trace else (False,)
    failures, first, attempted = [], None, 0
    # Rounds of one pass of each kind; a round starts only if one as long
    # as the last still ends within --seconds, and at least one always runs.
    deadline = time.monotonic() + args.seconds
    round_s = 0.0
    while not passes[False] or time.monotonic() + round_s <= deadline:
        round_start = time.monotonic()
        cpu = fastest_cpu(cpus)
        for traced in kinds:
            extra = ["--spans", spans] if traced else []
            setup_s, report = start_worker(["--workload", args.workload, "--seed", str(args.seed),
                                            "--trace", str(int(traced)), *extra], cpu)
            setup.append(setup_s)
            attempted += len(job_list)
            failures += verify(args.workload, job_list, report, recorded, first)
            first = first or [j[3] for j in report["jobs"]]
            passes[traced].append(report)
        round_s = time.monotonic() - round_start

    plain = passes[False]
    walls = job_times(plain)
    jobs_per_s = len(walls) / sum(walls)
    bytes_out = statistics.fmean(sum(j[2] for j in r["jobs"]) for r in plain)
    e2e = {
        "jobs_per_s": jobs_per_s,
        "job_ms_p50": statistics.median(walls) * 1e3,
        "job_ms_p90": percentile(walls, 90) * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in plain) / 1024,
    }
    failed = len(failures)
    for message in failures[:20]:
        print(f"FAIL {message}", file=sys.stderr)

    print(f"workload {args.workload}, seed {args.seed}: {len(job_list)} jobs per pass, "
          f"{len(plain)} untraced and {len(passes[True])} traced passes, "
          f"{len(walls)} job samples ({len(walls) - int(0.9 * len(walls))} beyond p90), "
          f"each the median of {len(plain)} passes, "
          f"{len(setup)} set-up samples")
    for name, unit in END_TO_END.items():
        print(f"  {name:<12} {e2e[name]:12.4f} {unit}")
    print(f"  {'fail_frac':<12} {failed / attempted:12.4f} ratio ({failed} of {attempted} jobs)")

    if args.trace:
        traced = passes[True]
        traced_walls = job_times(traced)
        traced_rate = len(traced_walls) / sum(traced_walls)
        metrics = layer_metrics(traced, bytes_out, traced_rate / jobs_per_s - 1)
        summary = traced[-1]["trace"]
        if summary["absent"] or summary["missing"]:
            print(f"  absent layers: {summary['absent']}; missing names: {summary['missing']}")
        print(f"  spans: {summary['spans']} kept, {summary['spans_dropped']} dropped, in {spans}")
        for name, m in metrics.items():
            print(f"  {name:<22} {m['value']:14.4f} {m['unit']}")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)

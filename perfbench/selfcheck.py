"""Self-check of the benchmark.

    python3 perfbench/selfcheck.py [--seeds 101,202] [--seconds 20]

Checks that
* the metric names and units run.py prints are those of BENCHMARK.json;
* every job list has at least MIN_JOBS jobs, on SEEDS_LISTED seeds;
* the seed reaches the inputs: arbitrary job lists differ between seeds and
  repeat for one seed;
* arbitrary jobs_per_s on two seeds agrees within its BENCHMARK.json bound.
The last check runs the benchmark twice, so it takes twice --seconds and more.
"""

import argparse
import json
import os
import subprocess
import sys

import run
from jobs import MIN_JOBS, WORKLOADS, build

SEEDS_LISTED = range(32)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="101,202")
    parser.add_argument("--seconds", default="20")
    args = parser.parse_args()
    problems = []

    try:
        run.check_declared()
    except run.BenchError as exc:
        problems.append(str(exc))

    for workload in WORKLOADS:
        sizes = {len(build(workload, seed)) for seed in SEEDS_LISTED}
        if min(sizes) < MIN_JOBS:
            problems.append(f"{workload}: a job list has {min(sizes)} jobs, fewer than {MIN_JOBS}")
        print(f"{workload}: {sorted(sizes)} jobs per list on {len(SEEDS_LISTED)} seeds")
    if build("arbitrary", 1) != build("arbitrary", 1) or build("arbitrary", 1) == build("arbitrary", 2):
        problems.append("arbitrary job lists do not follow the seed")

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bound = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}["jobs_per_s"]
    rates = []
    for seed in args.seeds.split(","):
        proc = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"), "--workload", "arbitrary",
                               "--seed", seed, "--seconds", args.seconds, "--trace", "0"],
                              capture_output=True, text=True, cwd=run.ROOT)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        rates.append(result["metrics"]["jobs_per_s"]["value"])
        print(f"arbitrary seed {seed}: jobs_per_s {rates[-1]:.3f}, correct {result['correct']}")
    gap = abs(rates[0] - rates[1]) / min(rates)
    if gap > bound:
        problems.append(f"arbitrary jobs_per_s differs by {gap:.1%} between seeds, bound {bound:.0%}")

    for problem in problems:
        print(f"FAIL {problem}")
    print("self-check " + ("failed" if problems else f"passed (seed gap {gap:.1%}, bound {bound:.0%})"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the output digests that every benchmark run compares against.

    python3 perfbench/record.py

Run it from the root of a checkout of the commit whose output is the
reference, normally the parent of the change being measured. It runs every
job of families and characters, and of arbitrary for RECORDED_SEEDS, once,
and writes perfbench/digests.json: a 128-bit prefix of the sha256 of exit
code and stdout, keyed by Job.key. Arbitrary outputs must also pass the
seed-independent checks, which tests those checks on the recorded seeds.
"""

import json
import os
import sys

import worker  # imports glinv.cli from ./src first
from checks import check
from jobs import build

RECORDED_SEEDS = range(16)
DIGEST_HEX = 32


def main() -> int:
    digests, problems = {}, []
    lists = [("families", 0), ("characters", 0)] + [("arbitrary", s) for s in RECORDED_SEEDS]
    for workload, seed in lists:
        for job in build(workload, seed):
            rc, out, err = worker.run_job(list(job.argv))
            if rc != 0:
                problems.append(f"exit {rc}: {job.name}: {err[-500:]}")
            elif workload == "arbitrary" and (problem := check(job, out.decode())):
                problems.append(f"{problem}: {job.name}")
            digests[job.key] = worker.digest(rc, out)[:DIGEST_HEX]
        print(f"{workload} seed {seed}: {len(digests)} digests so far", file=sys.stderr)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    if problems:
        return 1
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")
    with open(path, "w") as fh:
        json.dump({"arbitrary_seeds": list(RECORDED_SEEDS), "digests": dict(sorted(digests.items()))},
                  fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

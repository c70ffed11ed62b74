"""One pass of a workload in a fresh interpreter.

Started by run.py, never by hand:

    python3 perfbench/worker.py --setup-only
    python3 perfbench/worker.py --workload W --seed N --trace 0|1 [--spans FILE]

glinv.cli is imported from the checkout's src/ before anything else, and the
monotonic clock is read when it is ready, so that the parent can time set-up
from the moment it started the process; the reference loop (speedref.py) is
timed right after, so that the parent can scale the set-up time. The pass then runs the job list
once as a closed loop: one thread, each job an in-process call of
glinv.cli.main with stdout captured, the next job starting when the previous
one returns. Nothing runs before the loop, so no cache is warm; garbage is
collected between jobs, outside their timing, and what survives is frozen.

Every job is bracketed by two timed calls of the reference loop, outside
its wall time. The result is one JSON object on the real stdout: per job the
wall time, exit code, stdout size, sha256 of exit code and stdout, the end of
stderr if the exit code is not 0, and the two reference times; the peak RSS of
the process; and, when traced, the per-layer totals.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
import glinv.cli  # noqa: E402  (set-up being timed)

READY = time.monotonic()

from speedref import reference  # noqa: E402

reference()  # the reference's own first call, so later calls are comparable
READY_REF = reference()

import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from time import perf_counter  # noqa: E402

import jobs as joblists  # noqa: E402
from tracer import Tracer  # noqa: E402


def digest(rc: int, out: bytes) -> str:
    """sha256 over the exit code line and the stdout bytes of one job."""
    return hashlib.sha256(b"%d\n" % rc + out).hexdigest()


def run_job(argv: list[str]) -> tuple[int, bytes, str]:
    """Exit code, stdout bytes and stderr text of one call of glinv.cli.main."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = glinv.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash of one job is a failed job
            print(f"raised {type(exc).__name__}: {exc}", file=err)
            rc = -1
    return rc, out.getvalue().encode(), err.getvalue()


def main(argv: list[str]) -> int:
    if not os.path.abspath(glinv.cli.__file__).startswith(SRC + os.sep):
        print(f"glinv was imported from {glinv.cli.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    if argv == ["--setup-only"]:
        print(json.dumps({"ready": READY, "ready_ref": READY_REF}))
        return 0
    opts = dict(zip(argv[::2], argv[1::2]))
    workload, seed, traced = opts["--workload"], int(opts["--seed"]), opts["--trace"] == "1"
    job_list = joblists.build(workload, seed)
    # arbitrary outputs feed the seed-independent checks in run.py
    keep = workload == "arbitrary"

    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    results, kept = [], []
    for i, job in enumerate(job_list):
        # Start every job from an empty garbage heap, as a CLI process does;
        # otherwise when a collection falls depends on the jobs before it.
        # Freezing the survivors keeps them out of later collections, so
        # neither this collection nor those inside a job grow with the
        # caches earlier jobs left behind.
        gc.collect()
        gc.freeze()
        ref_before = reference()
        frame = tracer.job_span(i) if tracer else None
        t0 = perf_counter()
        rc, out, err = run_job(list(job.argv))
        wall = perf_counter() - t0
        if tracer:
            tracer.end_job(frame)
        ref_after = reference()
        results.append([wall, rc, len(out), digest(rc, out), err[-500:] if rc else "",
                         ref_before, ref_after])
        if keep:
            kept.append(out.decode())
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    report = {"ready": READY, "ready_ref": READY_REF, "peak_rss_kb": peak_kb,
              "jobs": results, "outputs": kept}
    if tracer:
        report["trace"] = tracer.summary()
        if "--spans" in opts:
            tracer.write_spans(opts["--spans"])
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

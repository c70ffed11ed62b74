"""Trace one glinv command and print the share of its wall time per layer.

    python3 perfbench/trace_job.py zset --kind power -p 3 -d 8 -m 8 -n 8

For jobs outside the workload lists, such as those the cost cap excludes.
Layers and counts are those of tracer.py; the output is not checked.
"""

import sys
from time import perf_counter

import worker  # imports glinv.cli from ./src first
from tracer import Tracer


def main(argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    frame = tracer.job_span(0)
    t0 = perf_counter()
    rc, out, err = worker.run_job(argv)
    wall = perf_counter() - t0
    tracer.end_job(frame)
    print(f"glinv {' '.join(argv)}: exit {rc}, {len(out)} bytes, {wall:.3f} s")
    if rc:
        print(err, end="", file=sys.stderr)
    for name, totals in tracer.layers.items():
        if totals["calls"] or totals["in"]:
            print(f"  {name:<8} self {totals['self_s']:9.3f} s {totals['self_s'] / wall:7.1%}  "
                  f"calls {totals['calls']}  in {totals['in']}  out {totals['out']}")
    rest = wall - sum(t["self_s"] for t in tracer.layers.values())
    print(f"  {'other':<8} self {rest:9.3f} s {rest / wall:7.1%}")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

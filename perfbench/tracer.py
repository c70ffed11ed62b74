"""Per-layer tracing of glinv from outside the program.

Layers are named after glinv's modules. Each is a list of functions that
Tracer.install wraps by patching module and class attributes, including
every name another glinv module bound to the same function by import
(`from .homology import regularity` in glinv.cli, for example). A wrapped
call is a span (name, start, end, parent, job); spans nest on one stack, so
a span's self time is its duration minus the time its child spans cover.
Self time, calls and work counts are summed per layer as the spans close;
the spans themselves are kept in memory up to SPAN_LIMIT and written out by
write_spans when the pass ends.

A wrapped name that no longer exists is skipped. A layer with none of its
names left is reported as absent, not as an error, so that the benchmark
keeps working when the program deletes or replaces a function.
"""

from __future__ import annotations

import sys
from functools import update_wrapper
from math import comb
from time import perf_counter

# layer -> "module:attribute" or "module:Class.method" targets. A target
# ending in "*" wraps every attribute of the module with that prefix.
LAYERS = {
    "ideals": ["glinv.ideals:make_ideal", "glinv.partitions:minimalize",
               "glinv.ideals:power_of_minors", "glinv.ideals:symbolic_power",
               "glinv.ideals:saturated_power", "glinv.ideals:saturate",
               "glinv.ideals:ideal_leq"],
    "zset": ["glinv.homology:zset_of_generators"],
    "st": ["glinv.homology:_st_data"],
    "weights": ["glinv.homology:_lambdas", "glinv.loccoh:ds_character"],
    "char": ["glinv.schur:EquivariantCharacter.add", "glinv.schur:EquivariantCharacter.merge",
             "glinv.schur:EquivariantCharacter.at_index", "glinv.schur:EquivariantCharacter.items"],
    "dim": ["glinv.schur:dim_schur", "glinv.schur:dim_term", "glinv.betti:betti_table"],
    "betti": ["glinv.betti:h_rect", "glinv.betti:betti_polynomial"],
    "cli": ["glinv.cli:_print_*", "glinv.cli:_emit_json", "glinv.cli:render_diagram",
            "glinv.betti:BettiTable.render", "glinv.betti:BettiTable.csv_rows"],
}

SPAN_LIMIT = 100_000


class Tracer:
    """Span stack, per-layer totals and the kept spans of one process."""

    def __init__(self):
        self.layers = {name: {"calls": 0, "self_s": 0.0, "in": 0, "out": 0}
                       for name in LAYERS}
        self.absent: list[str] = []
        self.missing: list[str] = []
        self.distinct_weights: set = set()
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.job = -1
        # open spans: [span id, layer, start, time covered by children]
        self._stack: list[list] = []
        self._next_id = 0

    # ------------------------------------------------------------ spans

    def _enter(self, layer):
        frame = [self._next_id, layer, 0.0, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        frame[2] = perf_counter()
        return frame

    def _exit(self, frame, name):
        end = perf_counter()
        self._stack.pop()
        dur = end - frame[2]
        if self._stack:
            self._stack[-1][3] += dur
        layer = frame[1]
        if layer is not None:
            totals = self.layers[layer]
            totals["self_s"] += dur - frame[3]
        if len(self.spans) < SPAN_LIMIT:
            parent = self._stack[-1][0] if self._stack else -1
            self.spans.append((name, frame[2], end, frame[0], parent, self.job))
        else:
            self.spans_dropped += 1
        return dur

    def job_span(self, job_id: int):
        """Open the root span of one job; close it with end_job."""
        self.job = job_id
        return self._enter(None)

    def end_job(self, frame) -> float:
        return self._exit(frame, "job")

    # ------------------------------------------------------------ wrapping

    def install(self) -> None:
        """Patch every target of LAYERS in the loaded glinv modules."""
        for layer, targets in LAYERS.items():
            found = 0
            for target in targets:
                resolved = _resolve(target)
                if not resolved:
                    self.missing.append(target)
                for owner, attr, fn in resolved:
                    found += 1
                    wrapper = self._wrap(layer, f"{layer}.{attr}", attr, fn)
                    if isinstance(owner, type):
                        setattr(owner, attr, wrapper)
                    else:
                        _rebind(fn, wrapper)
            if not found:
                self.absent.append(layer)

    def _wrap(self, layer, name, attr, fn):
        totals = self.layers[layer]
        enter, leave = self._enter, self._exit

        if attr == "_st_data":
            def st_data(ctx, zp, *args, **kwargs):
                totals["calls"] += 1
                totals["in"] += sum(comb(ctx.n - s, ctx.n - zp.l) for s in range(zp.l + 1))
                return _TimedIter(fn(ctx, zp, *args, **kwargs), enter, leave, layer, name, totals)
            return update_wrapper(st_data, fn)

        if attr == "minimalize":
            def minimalize(xs, *args, **kwargs):
                frame = enter(layer)
                try:
                    xs = list(xs)
                    out = fn(xs, *args, **kwargs)
                finally:
                    leave(frame, name)
                totals["calls"] += 1
                totals["in"] += len(xs)
                totals["out"] += len(out)
                return out
            return update_wrapper(minimalize, fn)

        if attr == "add" and layer == "char":
            def add(self_, *args, **kwargs):
                before = len(self_)
                frame = enter(layer)
                try:
                    out = fn(self_, *args, **kwargs)
                finally:
                    leave(frame, name)
                totals["calls"] += 1
                totals["in"] += 1
                totals["out"] += len(self_) > before
                return out
            return update_wrapper(add, fn)

        if attr == "dim_schur":
            seen = self.distinct_weights

            def dim_schur(w, N, *args, **kwargs):
                frame = enter(layer)
                try:
                    out = fn(w, N, *args, **kwargs)
                finally:
                    leave(frame, name)
                totals["calls"] += 1
                totals["in"] += 1
                seen.add((tuple(w), N))
                return out
            return update_wrapper(dim_schur, fn)

        count_out = layer in ("zset", "weights", "betti")

        def wrapper(*args, **kwargs):
            frame = enter(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                leave(frame, name)
            totals["calls"] += 1
            if count_out:
                totals["out"] += len(getattr(out, "character", out))
            return out
        return update_wrapper(wrapper, fn)

    # ------------------------------------------------------------ output

    def write_spans(self, path: str) -> None:
        """One span per line: name,start_s,end_s,span_id,parent_id,job."""
        with open(path, "w") as fh:
            fh.write(f"# spans kept {len(self.spans)}, dropped {self.spans_dropped}\n")
            fh.write("name,start_s,end_s,span_id,parent_id,job\n")
            for name, start, end, span_id, parent, job in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{span_id},{parent},{job}\n")

    def summary(self) -> dict:
        return {"layers": self.layers, "absent": self.absent, "missing": self.missing,
                "distinct_weights": len(self.distinct_weights),
                "spans": len(self.spans), "spans_dropped": self.spans_dropped}


class _TimedIter:
    """Iterator proxy timing each next() of a wrapped generator as a span."""

    __slots__ = ("_it", "_enter", "_leave", "_layer", "_name", "_totals")

    def __init__(self, it, enter, leave, layer, name, totals):
        self._it, self._enter, self._leave = it, enter, leave
        self._layer, self._name, self._totals = layer, name, totals

    def __iter__(self):
        return self

    def __next__(self):
        frame = self._enter(self._layer)
        try:
            item = next(self._it)
        finally:
            self._leave(frame, self._name)
        self._totals["out"] += 1
        return item


def _resolve(target: str):
    """(owner, attribute, function) triples a target names, [] if gone."""
    module_name, _, path = target.partition(":")
    module = sys.modules.get(module_name)
    if module is None:
        return []
    if path.endswith("*"):
        prefix = path[:-1]
        return [(module, attr, fn) for attr, fn in sorted(vars(module).items())
                if attr.startswith(prefix) and callable(fn)]
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return []
    fn = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return [(owner, attr, fn)] if callable(fn) else []


def _rebind(fn, wrapper) -> None:
    """Point every glinv module attribute bound to fn at wrapper."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "glinv" or name.startswith("glinv.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, wrapper)

"""Spans around calls into ndnshield's public functions.

A `Tracer` replaces each function or method named in its table with a
wrapper that records a span (name, start, end, parent) in memory, and puts
every original back on `uninstall`. Functions that modules import by name
(`sign_packet`, `wire_size`, ...) are replaced in every ndnshield module
that binds them, so a call through any binding is seen.

Per-layer self time is a span's duration minus the time its child spans
cover, summed per span name. Nothing here changes what the simulator
computes: the wrappers call the original with the same arguments and
return its result.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# (span name, module, attribute) of the calls the timed runs need.
TIMED = (
    ("scenario.load", "ndnshield.scenario", "load_scenario"),
    ("scenario.build", "ndnshield.scenario", "build_sim"),
    ("scenario.run", "ndnshield.scenario", "Sim.run"),
)

# Everything the traced run wraps, by layer.
TRACED = TIMED + (
    ("experiment.run", "ndnshield.experiment", "run_experiment"),
    ("crypto.keygen", "ndnshield.crypto", "KeyPair.generate"),
    ("crypto.sign", "ndnshield.crypto", "sign_packet"),
    ("crypto.verify", "ndnshield.crypto", "verify_signature"),
    ("crypto.content_hash", "ndnshield.packets", "compute_content_hash"),
    ("packets.wire_size", "ndnshield.packets", "wire_size"),
    ("packets.serialize", "ndnshield.packets", "canonical_serialize"),
    ("packets.match", "ndnshield.packets", "matches_base"),
    ("packets.match", "ndnshield.packets", "interest_matches"),
    ("simnet.run", "ndnshield.simnet", "Network.run"),
    ("simnet.send", "ndnshield.simnet", "Network.send_from"),
    ("router.on_interest", "ndnshield.router", "Router.on_interest"),
    ("router.on_data", "ndnshield.router", "Router.on_data"),
    ("router.fib.lpm", "ndnshield.router", "Fib.longest_prefix_match"),
    ("router.pit_sweep", "ndnshield.router", "Router.pit_sweep"),
    ("router.cs.insert", "ndnshield.router", "ContentStore.insert"),
    ("router.cs.lookup", "ndnshield.router", "ContentStore.lookup"),
    ("flooding.admit", "ndnshield.flooding", "FloodingDefense.admit"),
    ("flooding.pushback", "ndnshield.flooding", "FloodingDefense.on_expiry_feedback"),
    ("flooding.pushback", "ndnshield.flooding", "FloodingDefense.handle_pushback"),
    ("poisoning.scid_check", "ndnshield.poisoning", "PoisoningGuard.scid_check"),
    ("poisoning.maintenance", "ndnshield.poisoning", "PoisoningGuard.scan"),
    ("poisoning.maintenance", "ndnshield.poisoning", "PoisoningGuard.on_inserted"),
    ("poisoning.maintenance", "ndnshield.poisoning", "PoisoningGuard.handle_warning"),
    ("poisoning.maintenance", "ndnshield.poisoning", "PoisoningGuard.handle_feedback"),
    ("nodes.producer.serve", "ndnshield.nodes", "Producer.serve"),
    ("nodes.consumer.on_packet", "ndnshield.nodes", "RequestConsumer.on_packet"),
    ("nodes.consumer.on_packet", "ndnshield.nodes", "CollectionConsumer.on_packet"),
    ("attacks.gen_flood_interest", "ndnshield.attacks", "gen_flood_interest"),
    ("metrics.sample", "ndnshield.metrics", "MetricsCollector.sample"),
    ("metrics.csv", "ndnshield.metrics", "MetricsCollector.csv_bytes"),
    ("metrics.summarize", "ndnshield.metrics", "summarize_run"),
)

# Calls whose entry and exit cut a timed run into segments (see `Clock`):
# set-up, then the simulation at every metrics tick, then the output.
CLOCKED = TIMED + (("metrics.sample", "ndnshield.metrics", "MetricsCollector.sample"),)
SETUP_SPANS = ("scenario.load", "scenario.build")
SIM_SPANS = ("scenario.run",)

# Calls the traced run counts without a span: the scheduler entry point
# runs once per event, and a span there would double the tracing cost.
COUNTED = (("simnet.events", "ndnshield.simnet", "Network.at"),)

# Span outcomes worth counting, as predicates over the call's result.
OUTCOMES = {
    "router.cs.insert": lambda evicted: evicted is not None,
    "router.cs.lookup": lambda hit: hit is not None,
    "flooding.admit": lambda verdict: verdict[1] is not None,
}


class Tracer:
    """Spans for the calls in `table`, plain call counts for `counted`."""

    def __init__(self, table=TIMED, counted=()):
        self.table = table
        self.counted = counted
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.outcomes: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> "Tracer":
        for span, module, attr in self.table:
            self._replace(module, attr, lambda fn, s=span: self._spanned(fn, s))
        for label, module, attr in self.counted:
            self._replace(module, attr, lambda fn, c=label: self._counting(fn, c))
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _replace(self, module_name: str, attr: str, make) -> None:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                wrapped = classmethod(make(raw.__func__))
            else:
                wrapped = make(raw)
            self._saved.append((cls, meth, raw))
            setattr(cls, meth, wrapped)
            return
        original = getattr(module, attr)
        wrapped = make(original)
        for name in sorted(sys.modules):
            mod = sys.modules[name]
            if (name == "ndnshield" or name.startswith("ndnshield.")) and (
                getattr(mod, attr, None) is original
            ):
                self._saved.append((mod, attr, original))
                setattr(mod, attr, wrapped)

    def _spanned(self, fn, span: str):
        if span not in self.name_ids:
            self.name_ids[span] = len(self.names)
            self.names.append(span)
        span_id = self.name_ids[span]
        outcome = OUTCOMES.get(span)
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        stack, outcomes, clock = self._stack, self.outcomes, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(span_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if outcome is not None and outcome(result):
                outcomes[span] += 1
            return result

        return traced

    def _counting(self, fn, label: str):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[label] += 1
            return fn(*args, **kwargs)

        return counted

    # -- derived figures ---------------------------------------------------------

    def per_name(self) -> dict[str, dict[str, float]]:
        """Calls, self seconds and outermost inclusive seconds per span name.

        "Outermost" skips spans nested in a span of the same name, so a
        recursive call is not counted twice."""
        n = len(self.start)
        duration = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += duration[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        outer_ns = [0] * len(self.names)
        for i in range(n):
            k = self.name[i]
            calls[k] += 1
            self_ns[k] += duration[i] - child[i]
            p = self.parent[i]
            if p < 0 or self.name[p] != k:
                outer_ns[k] += duration[i]
        return {
            name: {"calls": calls[k], "self_s": self_ns[k] / 1e9, "total_s": outer_ns[k] / 1e9}
            for k, name in enumerate(self.names)
        }

    def write(self, path: Path) -> None:
        """Dump the spans as columns: span i is (names[name[i]], start_ns[i],
        end_ns[i], parent[i]); parent -1 marks a root span."""
        columns = {"name": self.name, "start_ns": self.start, "end_ns": self.end,
                   "parent": self.parent}
        with open(path, "w") as fh:
            fh.write('{"names": ' + json.dumps(self.names))
            for key, column in columns.items():
                fh.write(f', "{key}": [')
                # In slices: a million spans as one list of ints would
                # cost more memory than the run being traced.
                for i in range(0, len(column), 1 << 16):
                    fh.write(("," if i else "") + ",".join(map(str, column[i:i + (1 << 16)])))
                fh.write("]")
            fh.write("}")


class Clock(Tracer):
    """Wall and CPU clock readings at the entry and exit of every call in
    `table`, in call order. They cut a timed run into segments that are
    the same work in every run of one (workload, seed): the simulation is
    deterministic, so segment i of one run matches segment i of another."""

    def __init__(self, table=CLOCKED):
        super().__init__(table)
        self.marks: list[tuple[str, bool, int, int]] = []  # (span, entry, wall_ns, cpu_ns)

    def _spanned(self, fn, span: str):
        marks, wall, cpu = self.marks, time.perf_counter_ns, time.process_time_ns

        @functools.wraps(fn)
        def clocked(*args, **kwargs):
            marks.append((span, True, wall(), cpu()))
            try:
                return fn(*args, **kwargs)
            finally:
                marks.append((span, False, wall(), cpu()))

        return clocked

    def segments(self, start: tuple[int, int], end: tuple[int, int]) -> list[list]:
        """[kind, wall_s, cpu_s] of every stretch between consecutive cuts,
        from `start` to `end` (each a (wall_ns, cpu_ns) reading). A segment
        inside load_scenario or build_sim is "setup", one inside Sim.run is
        "sim", any other is "other"."""
        out = []
        stack: list[str] = []
        prev = start
        for span, entry, wall_ns, cpu_ns in self.marks:
            out.append([_kind(stack), (wall_ns - prev[0]) / 1e9, (cpu_ns - prev[1]) / 1e9])
            if entry:
                stack.append(span)
            else:
                stack.pop()
            prev = (wall_ns, cpu_ns)
        out.append([_kind(stack), (end[0] - prev[0]) / 1e9, (end[1] - prev[1]) / 1e9])
        return out


def _kind(stack: list[str]) -> str:
    for span in reversed(stack):
        if span in SIM_SPANS:
            return "sim"
        if span in SETUP_SPANS:
            return "setup"
    return "other"

"""Span tracing of spinmaps layers from outside the package.

A Tracer replaces public functions in the modules that bind them with
wrappers that record one span per call: (name, start_ns, end_ns, parent
index, request id). Spans stay in memory until the run ends. Self time is a
span's duration minus the part of its interval that its child spans cover.

The wrappers go on every module that binds a function, not only on the
module that defines it: `from .qlinalg import kron_all` in reduced makes a
second reference that a patch of qlinalg alone would miss, and the calls
made through it would silently count as zero.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
import time
from contextlib import contextmanager


def trace_targets(mods: dict) -> list:
    """(owner, attribute, span name) for every traced binding.

    mods maps the spinmaps module names to the imported modules. Methods are
    patched on their class, which every binding of the class shares.
    """
    q, net, red = mods["qlinalg"], mods["network"], mods["reduced"]
    ana, ens, dis, mea = mods["analytic"], mods["ensemble"], mods["disorder"], mods["measure"]
    return [
        (net, "build_hamiltonian", "network.build_hamiltonian"),
        (ens, "build_hamiltonian", "network.build_hamiltonian"),
        (q, "kron_all", "qlinalg.kron_all"),
        (net, "kron_all", "qlinalg.kron_all"),
        (red, "kron_all", "qlinalg.kron_all"),
        (q, "partial_trace_keep", "qlinalg.partial_trace_keep"),
        (red, "partial_trace_keep", "qlinalg.partial_trace_keep"),
        (q, "density_of", "qlinalg.density_of"),
        (red, "density_of", "qlinalg.density_of"),
        (q.HermitianEvolver, "__init__", "qlinalg.HermitianEvolver.eigh"),
        (q.HermitianEvolver, "unitary", "qlinalg.HermitianEvolver.unitary"),
        (red, "transfer_from_unitary", "reduced.transfer_from_unitary"),
        (ens, "transfer_from_unitary", "reduced.transfer_from_unitary"),
        (red.MapExtractor, "transfer", "reduced.MapExtractor.transfer"),
        (red, "fit_pc", "reduced.fit_pc"),
        (red, "choi_check", "reduced.choi_check"),
        (mea, "choi_check", "reduced.choi_check"),
        (ana, "cc_params", "analytic.cc_params"),
        (ana, "ring_params", "analytic.ring_params"),
        (ana, "xx_reduced_map", "analytic.xx_reduced_map"),
        (dis, "xx_reduced_map", "analytic.xx_reduced_map"),
        (ana, "xx_unitary_components", "analytic.xx_unitary_components"),
        (ens, "network_average", "ensemble.network_average"),
        (ens, "time_average", "ensemble.time_average"),
        (ens, "steady_channel", "ensemble.steady_channel"),
        (dis, "mc_disorder_map", "disorder.mc_disorder_map"),
        (dis, "sample_pair", "disorder.sample_pair"),
        (dis, "closedform_disorder_components", "disorder.closedform_disorder_components"),
        (mea, "uniform_sample", "measure.uniform_sample"),
        (mea, "broken_uniform_sample", "measure.broken_uniform_sample"),
        (mea, "trajectory_sample", "measure.trajectory_sample"),
        (mea, "volume_mc", "measure.volume_mc"),
        (mea, "cp_contains", "measure.cp_contains"),
    ]


def traced_names(targets) -> list:
    """Distinct span names in target order."""
    return list(dict.fromkeys(name for _, _, name in targets))


class Tracer:
    """Records spans for the patched functions and for harness-made spans."""

    def __init__(self):
        self.spans = []  # (name, start_ns, end_ns, parent_index, request)
        self.request = None
        self._stack = []
        self._patches = []

    def _open(self, name):
        index = len(self.spans)
        self.spans.append((name, 0, 0, self._stack[-1] if self._stack else -1, self.request))
        self._stack.append(index)
        return index

    def _close(self, index, start):
        end = time.perf_counter_ns()
        self._stack.pop()
        name, _, _, parent, request = self.spans[index]
        self.spans[index] = (name, start, end, parent, request)

    @contextmanager
    def span(self, name):
        index = self._open(name)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(index, start)

    def _wrapper(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index, start)
        return traced

    def install(self, targets):
        """Patch every target; one wrapper per function object, shared by
        all the modules that bind it."""
        wrappers = {}
        for owner, attr, name in targets:
            original = owner.__dict__[attr]
            if id(original) not in wrappers:
                wrappers[id(original)] = self._wrapper(original, name)
            setattr(owner, attr, wrappers[id(original)])
            self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path):
        """Write every span as one JSON list per line, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def covered_ns(start, end, intervals) -> int:
    """Length of the part of [start, end] covered by the union of intervals."""
    total, reach = 0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times_ns(spans) -> list:
    """Self time of each span: its duration minus what its children cover."""
    children = [[] for _ in spans]
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [(end - start) - covered_ns(start, end, kids)
            for (_, start, end, _, _), kids in zip(spans, children)]


def summarize(spans) -> dict:
    """Per span name: calls, total self time and inclusive call durations."""
    out = {}
    for span, self_ns in zip(spans, self_times_ns(spans)):
        entry = out.setdefault(span[0], {"calls": 0, "self_ns": 0, "durations_ns": []})
        entry["calls"] += 1
        entry["self_ns"] += self_ns
        entry["durations_ns"].append(span[2] - span[1])
    return out


def percentile_us(durations_ns, q: int):
    """q-th percentile of call durations in microseconds, or None when fewer
    than ten calls lie beyond it."""
    if len(durations_ns) * (100 - q) < 1000:
        return None
    cuts = statistics.quantiles(durations_ns, n=100, method="inclusive")
    return cuts[q - 1] / 1e3


def count_children(spans, child: str, parent: str) -> int:
    """Number of `child` spans whose direct parent is a `parent` span."""
    return sum(1 for name, _, _, p, _ in spans
               if name == child and p >= 0 and spans[p][0] == parent)

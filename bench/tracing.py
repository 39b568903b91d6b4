"""Spans and counters around tuntime's layers, recorded from the benchmark.

`Tracer.install()` wraps each traced public function under every name it is
bound to in a tuntime module (most callers import functions by name, so
patching only the defining module would miss them), and patches the traced
methods on their classes.  A span is (id, name, start, end, parent, op,
size); spans stay in memory until `write()`.  `uninstall()` restores the
original objects, so traced and untraced passes can alternate in one process.

Spans opened by the CLI's worker threads take the main thread's innermost
open span as their parent, so `cli.main`'s self time excludes the rows it
waits on.  A span's self time is its duration minus the union of its
children's intervals.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# (module, function): wrapped wherever tuntime binds the function object
FUNCTIONS = (
    ("scattering", "solve"),
    ("stationary_times", "phase_time"),
    ("stationary_times", "bl_time"),
    ("stationary_times", "dwell_time_stationary"),
    ("stationary_times", "two_phase_times"),
    ("wavepacket", "propagator"),
    ("flux_times", "mean_time"),
    ("flux_times", "dwell"),
    ("flux_times", "dwell_decomposition"),
    ("flux_times", "duration"),
    ("flux_times", "causality_check"),
    ("double_barrier", "find_resonances"),
    ("double_barrier", "phase_time_total"),
    ("emguide", "cutoff_wavelength"),
    ("emguide", "propagation_constant"),
    ("emguide", "photon_phase_time"),
    ("emguide", "map_to_barrier"),
    ("emguide", "mapped_phase_time"),
    ("cli", "main"),
)


def _table_size(args, result):
    table = args[0]
    return (len(table.E), len(table.E) * len(table.pot.segments))


def _flux_samples(args, result):
    return (len(args[0].packet.k) * int(np.size(args[2])), 0)


def _captured(args, result):
    return (int(result.tail_captured), 0)


_NO_SIZE = (0, 0)

# (module, class, method, span name, size of the work done or None)
METHODS = (
    ("scattering", "SolutionTable", "__init__", "scattering.SolutionTable", _table_size),
    ("wavepacket", "Propagator", "__init__", "wavepacket.Propagator", None),
    ("wavepacket", "Propagator", "flux", "wavepacket.Propagator.flux", _flux_samples),
    ("wavepacket", "Propagator", "psi_grid", "wavepacket.Propagator.psi_grid", _flux_samples),
    ("wavepacket", "Propagator", "flux_series", "wavepacket.Propagator.flux_series", _captured),
)

# per-layer metrics: (name, unit, better)
PER_LAYER = [
    ("scattering.SolutionTable.calls", "count", "lower"),
    ("scattering.SolutionTable.energies", "count", "lower"),
    ("scattering.SolutionTable.region_energies", "count", "lower"),
    ("scattering.SolutionTable.self_s", "s", "lower"),
    ("scattering.SolutionTable.us_per_energy", "us", "lower"),
    ("scattering.solve.calls", "count", "lower"),
    ("scattering.solve.self_s", "s", "lower"),
    ("stationary_times.phase_time.calls", "count", "lower"),
    ("stationary_times.phase_time.self_s", "s", "lower"),
    ("stationary_times.phase_time.refinements", "count", "lower"),
]
for _fn in ("bl_time", "dwell_time_stationary", "two_phase_times"):
    PER_LAYER += [(f"stationary_times.{_fn}.calls", "count", "lower"),
                  (f"stationary_times.{_fn}.self_s", "s", "lower")]
PER_LAYER += [
    ("wavepacket.propagator.calls", "count", "lower"),
    ("wavepacket.propagator.hit_ratio", "1", "higher"),
    ("wavepacket.Propagator.flux.calls", "count", "lower"),
    ("wavepacket.Propagator.flux.samples", "count", "lower"),
    ("wavepacket.Propagator.flux.self_s", "s", "lower"),
    ("wavepacket.Propagator.flux.ns_per_sample", "ns", "lower"),
    ("wavepacket.Propagator.psi_grid.calls", "count", "lower"),
    ("wavepacket.Propagator.psi_grid.samples", "count", "lower"),
    ("wavepacket.Propagator.psi_grid.self_s", "s", "lower"),
    ("wavepacket.Propagator.flux_series.calls", "count", "lower"),
    ("wavepacket.Propagator.flux_series.extensions", "count", "lower"),
    ("wavepacket.Propagator.flux_series.captured_ratio", "1", "higher"),
    ("wavepacket.Propagator.flux_series.self_s", "s", "lower"),
]
for _fn in ("mean_time", "dwell", "dwell_decomposition", "duration", "causality_check"):
    PER_LAYER += [(f"flux_times.{_fn}.calls", "count", "lower"),
                  (f"flux_times.{_fn}.self_s", "s", "lower")]
PER_LAYER += [
    ("flux_times.dwell.flux_series_per_call", "count", "lower"),
    ("double_barrier.find_resonances.calls", "count", "lower"),
    ("double_barrier.find_resonances.self_s", "s", "lower"),
    ("double_barrier.find_resonances.solves_per_call", "count", "lower"),
    ("double_barrier.phase_time_total.calls", "count", "lower"),
    ("double_barrier.phase_time_total.self_s", "s", "lower"),
    ("emguide.calls", "count", "lower"),
    ("emguide.self_s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.main.rows", "count", "higher"),
    ("proc.cpu_s", "s", "lower"),
    ("proc.cpu_over_wall", "1", "higher"),
    ("trace.overhead_s", "s", "lower"),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patches = []
        self.op = 0
        self._op_span = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name, fn, size):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif tracer._main_stack:
                parent = tracer._main_stack[-1]
            else:
                parent = tracer._op_span
            sid = next(tracer._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(sid, name, t0, parent, _NO_SIZE)
                raise
            tracer._close(sid, name, t0, parent, size(args, result) if size else _NO_SIZE)
            return result
        return traced

    def _close(self, sid, name, t0, parent, size):
        t1 = time.perf_counter()
        self._stack().pop()
        self.spans.append((sid, name, t0, t1, parent, self.op, size))

    def begin_op(self, op: int):
        self.op = op
        self._op_span = next(self._ids)
        self._op_t0 = time.perf_counter()

    def end_op(self):
        self.spans.append((self._op_span, "op", self._op_t0, time.perf_counter(), 0, self.op,
                           _NO_SIZE))
        self._op_span = 0

    def install(self):
        for name in ("cli", "double_barrier", "emguide", "flux_times", "scattering",
                     "stationary_times", "wavepacket"):
            importlib.import_module(f"tuntime.{name}")
        modules = [m for key, m in sys.modules.items()
                   if key == "tuntime" or key.startswith("tuntime.")]
        for mod_name, attr in FUNCTIONS:
            original = getattr(sys.modules[f"tuntime.{mod_name}"], attr)
            wrapper = self._span(f"{mod_name}.{attr}", original, None)
            for module in modules:
                for key in [k for k, v in vars(module).items() if v is original]:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapper)
        for mod_name, cls_name, meth, span_name, size in METHODS:
            cls = getattr(sys.modules[f"tuntime.{mod_name}"], cls_name)
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, self._span(span_name, original, size))

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("id,name,start_s,end_s,parent,op,size\n")
            for s in self.spans:
                fh.write(f"{s[0]},{s[1]},{s[2]!r},{s[3]!r},{s[4]},{s[5]},{s[6][0]}\n")


def _covered(intervals, lo, hi) -> float:
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def layer_metrics(spans, rows: int) -> dict:
    """Per-layer metrics of one pass's spans (see PER_LAYER); rows is the
    number of CSV rows the pass's CLI runs wrote."""
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        children[s[4]].append(s)
    calls, self_s = defaultdict(int), defaultdict(float)
    size = defaultdict(lambda: np.zeros(2, dtype=np.int64))
    for s in spans:
        sid, name, t0, t1 = s[:4]
        calls[name] += 1
        size[name] += s[6]
        self_s[name] += (t1 - t0) - _covered([(c[2], c[3]) for c in children[sid]], t0, t1)

    def parent_is(s, name):
        p = by_id.get(s[4])
        return p is not None and p[1] == name

    def under(s, name):
        while s is not None:
            s = by_id.get(s[4])
            if s is not None and s[1] == name:
                return True
        return False

    def count(name, pred):
        return sum(1 for s in spans if s[1] == name and pred(s))

    def per(num, den):
        return num / den if den else 0.0

    m = {}
    tab, flux, fser = ("scattering.SolutionTable", "wavepacket.Propagator.flux",
                       "wavepacket.Propagator.flux_series")
    m[f"{tab}.calls"] = calls[tab]
    m[f"{tab}.energies"] = int(size[tab][0])
    m[f"{tab}.region_energies"] = int(size[tab][1])
    m[f"{tab}.self_s"] = self_s[tab]
    m[f"{tab}.us_per_energy"] = 1e6 * per(self_s[tab], size[tab][0])
    for name in ("scattering.solve", "stationary_times.phase_time",
                 "stationary_times.bl_time", "stationary_times.dwell_time_stationary",
                 "stationary_times.two_phase_times", "flux_times.mean_time",
                 "flux_times.dwell", "flux_times.dwell_decomposition",
                 "flux_times.duration", "flux_times.causality_check",
                 "double_barrier.find_resonances", "double_barrier.phase_time_total",
                 "cli.main", flux, "wavepacket.Propagator.psi_grid", fser):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
    m["stationary_times.phase_time.refinements"] = count(
        "stationary_times.phase_time", lambda s: parent_is(s, "stationary_times.phase_time"))
    m["wavepacket.propagator.calls"] = calls["wavepacket.propagator"]
    m["wavepacket.propagator.hit_ratio"] = (
        1.0 - per(calls["wavepacket.Propagator"], calls["wavepacket.propagator"])
        if calls["wavepacket.propagator"] else 0.0)
    m[f"{flux}.samples"] = int(size[flux][0])
    m[f"{flux}.ns_per_sample"] = 1e9 * per(self_s[flux], size[flux][0])
    m["wavepacket.Propagator.psi_grid.samples"] = int(size["wavepacket.Propagator.psi_grid"][0])
    m[f"{fser}.extensions"] = count(flux, lambda s: parent_is(s, fser)) - calls[fser]
    m[f"{fser}.captured_ratio"] = per(int(size[fser][0]), calls[fser])
    m["flux_times.dwell.flux_series_per_call"] = per(
        count(fser, lambda s: under(s, "flux_times.dwell")), calls["flux_times.dwell"])
    m["double_barrier.find_resonances.solves_per_call"] = per(
        count("scattering.solve", lambda s: parent_is(s, "double_barrier.find_resonances")),
        calls["double_barrier.find_resonances"])
    eg = [n for n in calls if n.startswith("emguide.")]
    m["emguide.calls"] = sum(calls[n] for n in eg)
    m["emguide.self_s"] = sum(self_s[n] for n in eg)
    m["cli.main.rows"] = rows
    return m

"""Span recorder that times gflowlab's layers from outside.

A *layer* is one module of ``src/gflowlab``.  ``Tracer.install`` replaces
public functions and methods with timing wrappers at the name each caller
looks up (the module attribute for ``_accel.integrate_profile``, the
imported name for ``cli.run_flow``, the class attribute for methods).
Nothing inside the package is edited.

Each call records one span ``(name, start, end, parent, op)``; spans stay in
memory until the pass ends.  A span's self time is its duration minus the
time its direct children cover (calls are single-threaded, so children
never overlap each other).
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

# (span name, module, attribute); install() imports each module
FUNCTIONS = [
    ("accel.integrate_profile", "gflowlab._accel", "integrate_profile"),
    ("accel.flow_run", "gflowlab._accel", "flow_run"),
    ("accel.radial_semi_implicit_run", "gflowlab._accel",
     "radial_semi_implicit_run"),
    ("solitons.solve_bowl", "gflowlab.solitons", "solve_bowl"),
    ("solitons.solve_shrinker", "gflowlab.solitons", "solve_shrinker"),
    ("solitons.inversion", "gflowlab.solitons", "brentq"),
    ("solitons.shrinker_w_diagnostic", "gflowlab.solitons",
     "shrinker_w_diagnostic"),
    ("flow.run_flow", "gflowlab.cli", "run_flow"),
    ("flow.translation_speed", "gflowlab.cli", "translation_speed"),
    ("flow.state_from_reference", "gflowlab.cli", "state_from_reference"),
    ("spectral.build_basis", "gflowlab.spectral", "build_basis"),
    ("spectral.gamma_trace_from_run", "gflowlab.spectral",
     "gamma_trace_from_run"),
    ("spectral.merle_zaag_classifier", "gflowlab.spectral",
     "merle_zaag_classifier"),
    ("fits.fit_bowl_expansion", "gflowlab.fits", "fit_bowl_expansion"),
    ("fits.fit_shrinker_neck", "gflowlab.fits", "fit_shrinker_neck"),
    ("fits.measure_rescaled_decay", "gflowlab.fits", "measure_rescaled_decay"),
    ("output.write_csv", "gflowlab.output", "write_csv"),
    ("output.write_json", "gflowlab.output", "write_json"),
    ("output.write_plot_script", "gflowlab.output", "write_plot_script"),
]

# (layer span name, module, class, method)
METHODS = [
    ("flow.bc_tables", "gflowlab.flow", "BoundaryCondition", "tables"),
    ("spectral.projections", "gflowlab.spectral", "HermiteBasis", "project"),
    ("speeds.F", "gflowlab.speeds", "SpeedFunction", "F"),
    ("speeds.Fx", "gflowlab.speeds", "SpeedFunction", "Fx"),
    ("speeds.f_closed", "gflowlab.speeds", "SpeedFunction", "f_closed"),
]

# bytes of the four float64 ``out_*`` node buffers passed per integrator call
_PROFILE_BUFFERS = slice(16, 20)


class Tracer:
    """Collects spans and work counters for one pass of a workload."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, op id]
        self.counts = defaultdict(int)
        self.profiles = []   # BowlProfile / ShrinkerProfile objects returned
        self.op = -1
        self._stack = []
        self._restore = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, count=None):
        """Return ``fn`` wrapped so that every call records a span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, 0.0, 0.0, parent, self.op])
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx][1:3] = start, end
            if count is not None:
                count(args, result)
            return result

        return traced

    def _counter(self, name):
        counts = self.counts

        if name == "accel.integrate_profile":
            def count(args, result):
                counts["accel.integrate_profile.nodes"] += int(result[1])
                counts["accel.integrate_profile.buffer_bytes"] += sum(
                    a.nbytes for a in args[_PROFILE_BUFFERS])
        elif name == "accel.flow_run":
            def count(args, result):
                counts["accel.flow_run.node_steps"] += (int(result[2])
                                                        * args[6].size)
        elif name == "accel.radial_semi_implicit_run":
            def count(args, result):
                counts["accel.radial_semi_implicit_run.node_steps"] += (
                    int(result[2]) * args[5].size)
        elif name in ("solitons.solve_bowl", "solitons.solve_shrinker"):
            def count(args, result):
                self.profiles.append(result)
        elif name == "output.write_csv":
            def count(args, result):
                columns = args[1]
                counts["output.rows"] += len(columns[next(iter(columns))])
                counts["output.bytes"] += os.path.getsize(args[0])
        elif name.startswith("output."):
            def count(args, result):
                counts["output.bytes"] += os.path.getsize(args[0])
        else:
            count = None
        return count

    def install(self):
        """Replace every traced callable; ``uninstall`` puts them back."""
        for name, module, attr in FUNCTIONS:
            mod = importlib.import_module(module)
            self._patch(mod, attr, name)
        for name, module, cls, method in METHODS:
            owner = getattr(importlib.import_module(module), cls)
            self._patch(owner, method, name)

    def _patch(self, owner, attr, name):
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, self._counter(name)))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


# -- analysis ---------------------------------------------------------------

def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def nesting_errors(spans, tol=1e-9):
    """Describe every span that is not inside its parent, or that overlaps
    an earlier sibling; an empty list means the spans nest."""
    errors = []
    last_child_end = {}
    for idx, (name, start, end, parent, op) in enumerate(spans):
        if end < start:
            errors.append(f"span {idx} {name} ends before it starts")
        if parent < 0:
            continue
        pname, pstart, pend, _, pop = spans[parent]
        if parent >= idx:
            errors.append(f"span {idx} {name} precedes its parent {parent}")
        if op != pop:
            errors.append(f"span {idx} {name} has op {op}, parent has {pop}")
        if start < pstart - tol or end > pend + tol:
            errors.append(f"span {idx} {name} leaves its parent {pname}")
        if start < last_child_end.get(parent, -float("inf")) - tol:
            errors.append(f"span {idx} {name} overlaps a sibling")
        last_child_end[parent] = end
    return errors


def summarize(spans):
    """{span name: {"calls", "busy_s", "self_s"}} summed over the spans."""
    out = {}
    for (name, start, end, _, _), own in zip(spans, self_times(spans)):
        row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["busy_s"] += end - start
        row["self_s"] += own
    return out

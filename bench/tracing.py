"""Span tracing for the traced run, installed from outside the package.

Each public roughflow function or method named in ``LAYERS`` is replaced,
wherever callers look it up, by a wrapper that records one span: a name, a
start, an end and the span that was open when it began.  Spans live in flat
in-memory arrays until the run writes them out.  ``uninstall`` puts every
original object back; an untraced run never calls ``install``.

A layer's self time is the sum over its spans of the span's duration minus
the durations of its direct children.
"""

import functools
import sys
import time
from array import array

import numpy as np

# (layer name, defining module, qualified name).  A function is wrapped in
# every roughflow module that binds it, which covers each module where a
# caller looks it up; a method is wrapped on its class.
LAYERS = (
    ("fields.deposit", "roughflow.fields", "deposit"),
    ("fields.biot_savart", "roughflow.fields", "biot_savart"),
    ("fields.interpolate_velocity", "roughflow.fields", "interpolate_velocity"),
    ("fields.sigma", "roughflow.fields", "ConstantField.__call__"),
    ("fields.sigma", "roughflow.fields", "ConstantField.gradient"),
    ("fields.sigma", "roughflow.fields", "ShearField.__call__"),
    ("fields.sigma", "roughflow.fields", "ShearField.gradient"),
    ("fields.sigma", "roughflow.fields", "GradPerpField.__call__"),
    ("fields.sigma", "roughflow.fields", "GradPerpField.gradient"),
    ("fields.sigma", "roughflow.fields", "SumField.__call__"),
    ("fields.sigma", "roughflow.fields", "SumField.gradient"),
    ("flow.davie_step", "roughflow.flow", "davie_step"),
    ("flow.solve_nonlocal_flow", "roughflow.flow", "solve_nonlocal_flow"),
    ("flow.solve_flow", "roughflow.flow", "solve_flow"),
    ("flow.FlowProblem.check", "roughflow.flow", "FlowProblem.check"),
    ("flow.lagrangian_stability_bound", "roughflow.flow", "lagrangian_stability_bound"),
    ("flow.GridDrift.velocity", "roughflow.flow", "GridDrift.velocity"),
    ("flow.GridDrift.__init__", "roughflow.flow", "GridDrift.__init__"),
    ("roughpath.RoughPath.increment", "roughflow.roughpath", "RoughPath.increment"),
    ("roughpath.RoughPath.resample", "roughflow.roughpath", "RoughPath.resample"),
    ("roughpath.variation_control", "roughflow.roughpath", "variation_control"),
    ("roughpath.difference_variation_control", "roughflow.roughpath",
     "difference_variation_control"),
    ("variation.p_variation", "roughflow.variation", "p_variation"),
    ("variation.localized_p_variation", "roughflow.variation", "localized_p_variation"),
    ("euler.solve_rough_euler", "roughflow.euler", "solve_rough_euler"),
    ("euler.weak_remainder", "roughflow.euler", "weak_remainder"),
    ("euler.FourierTestFunctions.at_points", "roughflow.euler",
     "FourierTestFunctions.at_points"),
    ("euler.FourierTestFunctions.gradients_at", "roughflow.euler",
     "FourierTestFunctions.gradients_at"),
    ("euler.FourierTestFunctions.hessians_at", "roughflow.euler",
     "FourierTestFunctions.hessians_at"),
    ("euler.FourierTestFunctions.pair_particles", "roughflow.euler",
     "FourierTestFunctions.pair_particles"),
    ("euler.FourierTestFunctions.flux_pair_particles", "roughflow.euler",
     "FourierTestFunctions.flux_pair_particles"),
    ("euler.FourierTestFunctions.transport_at", "roughflow.euler",
     "FourierTestFunctions.transport_at"),
    ("euler.FourierTestFunctions.second_transport_at", "roughflow.euler",
     "FourierTestFunctions.second_transport_at"),
    ("harness.run_flow_convergence", "roughflow.harness", "run_flow_convergence"),
    ("cli.main", "roughflow.cli", "main"),
)

ROOT_SPAN = "pass"

# Layer counts reported per unit of work: (metric, numerator span, denominator).
# A denominator is a span name, or a work unit the workload reports.
RATIOS = (
    ("fields.deposit.per_step", "fields.deposit", "flow.davie_step"),
    ("fields.biot_savart.per_step", "fields.biot_savart", "flow.davie_step"),
    ("flow.GridDrift.new_per_step", "flow.GridDrift.__init__", "flow.davie_step"),
    ("euler.FourierTestFunctions.gradients_at.per_snapshot",
     "euler.FourierTestFunctions.gradients_at", "snapshots"),
)
COUNTED = ("fields.deposit", "fields.biot_savart", "fields.sigma", "flow.davie_step",
           "flow.GridDrift.velocity", "roughpath.RoughPath.increment",
           "euler.FourierTestFunctions.gradients_at")


def layer_names() -> list:
    return sorted({name for name, _, _ in LAYERS})


def metric_names() -> list:
    """Every per-layer metric a traced run reports."""
    names = [f"{layer}.self_s" for layer in layer_names()]
    names += [f"{layer}.calls" for layer in COUNTED]
    names += [ratio for ratio, _, _ in RATIOS]
    return sorted(names) + ["trace.overhead_s"]


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "count" if metric.endswith(".calls") else "ratio"


class Tracer:
    """Installs span-recording wrappers and holds the spans they record."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list = []
        self._saved: list = []  # (owner, attribute, original) in install order

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        return self._wrapper(name, fn)(*args, **kwargs)

    def _wrapper(self, name: str, original):
        name_id = self._id(name)
        stack, starts, ends = self._stack, self.start, self.end
        name_ids, parents, clock = self.name_id, self.parent, time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return original(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        modules = [m for key, m in sys.modules.items()
                   if key == "roughflow" or key.startswith("roughflow.")]
        for name, module_name, qualname in LAYERS:
            owner = sys.modules[module_name]
            head, _, attr = qualname.rpartition(".")
            if head:
                cls = getattr(owner, head)
                original = vars(cls)[attr]
                self._saved.append((cls, attr, original))
                setattr(cls, attr, self._wrapper(name, original))
                continue
            original = getattr(owner, attr)
            traced = self._wrapper(name, original)
            for module in modules:
                if vars(module).get(attr) is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def arrays(self) -> dict:
        """The recorded spans as flat arrays (what ``save`` writes)."""
        return {"names": np.array(self.names, dtype=str),
                "name_id": np.frombuffer(self.name_id, dtype=np.int64).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy()}

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())


def pass_summaries(spans: dict) -> list:
    """Per root span: ``{layer: (calls, self_s)}`` over the spans recorded
    inside it.

    ``spans`` is :meth:`Tracer.arrays`.  Spans are recorded in call order, so
    a pass owns every span between its root and the next root; a wrapped call
    made outside any pass is an error.
    """
    names = [str(n) for n in spans["names"]]
    name_id, parent = spans["name_id"], spans["parent"]
    duration = spans["end"] - spans["start"]
    self_time = duration.copy()
    nested = parent >= 0
    np.subtract.at(self_time, parent[nested], duration[nested])
    roots = np.flatnonzero(~nested)
    if roots.size and any(names[i] != ROOT_SPAN for i in name_id[roots]):
        raise ValueError(f"a traced call ran outside a {ROOT_SPAN!r} span")
    bounds = np.r_[roots, parent.size]
    summaries = []
    for lo, hi in zip(bounds[:-1] + 1, bounds[1:]):
        ids = name_id[lo:hi]
        calls = np.bincount(ids, minlength=len(names))
        times = np.bincount(ids, weights=self_time[lo:hi], minlength=len(names))
        summaries.append({names[k]: (int(calls[k]), float(times[k]))
                          for k in np.flatnonzero(calls)})
    return summaries


def layer_metrics(summary: dict, units: dict) -> dict:
    """Per-layer metric values of one traced pass (0 for layers not reached)."""
    out = {}
    for layer in layer_names():
        out[f"{layer}.self_s"] = summary.get(layer, (0, 0.0))[1]
    for layer in COUNTED:
        out[f"{layer}.calls"] = summary.get(layer, (0, 0.0))[0]
    for metric, numerator, denominator in RATIOS:
        count = summary.get(numerator, (0, 0.0))[0]
        base = units.get(denominator, summary.get(denominator, (0, 0.0))[0])
        out[metric] = count / base if base else 0.0
    return out

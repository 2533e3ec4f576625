"""Spans recorded from outside the package, around its public functions.

``Tracer.install`` wraps every public function defined in the layer
modules and rebinds the wrapper under every name that held the original
in any ``xxfusion`` namespace, so calls made through a name imported
elsewhere (``fusion.rodeo_cycle``, ``cli.energy_scan``, ``rodeo.expmv``)
and module-global calls (``propagate.adiabatic_ramp`` as
``converged_ramp`` sees it) are both recorded.  Spans are kept in memory
and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time
from collections import defaultdict

from workloads import RAMP_DIMS

LAYERS = ("spin_model", "spectral", "propagate", "rodeo", "fusion", "cli")


def _ramp_attrs(bound, result):
    return {"dim": bound.arguments["basis"].dim, "steps": bound.arguments["schedule"].steps}


def _expmv_attrs(bound, result):
    return {"t": abs(float(bound.arguments["t"]))}


def _probe_attrs(bound, result):
    return {"steps": result.steps}


#: Arguments or results recorded on the spans of these functions.
ATTRS = {
    "propagate.adiabatic_ramp": _ramp_attrs,
    "propagate.expmv": _expmv_attrs,
    "propagate.converged_ramp": _probe_attrs,
}


class Span:
    __slots__ = ("name", "invocation", "parent", "start", "end", "child_s", "attrs")

    def __init__(self, name, invocation, parent):
        self.name, self.invocation, self.parent = name, invocation, parent
        self.child_s = 0.0
        self.attrs = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.invocation = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, name: str, fn):
        hook = ATTRS.get(name)
        sig = inspect.signature(fn) if hook else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(name, self.invocation, parent)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    spans[parent].child_s += span.duration
            if hook is not None:
                span.attrs = hook(sig.bind(*args, **kwargs), result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public layer function under every name bound to it."""
        modules = [importlib.import_module("xxfusion")]
        modules += [importlib.import_module(f"xxfusion.{m}") for m in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules[1:]):
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def write(self, path) -> None:
        rows = [
            {"id": i, "name": s.name, "invocation": s.invocation, "parent": s.parent,
             "start": s.start, "end": s.end, "self_s": s.self_s, "attrs": s.attrs}
            for i, s in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)


#: Per-layer metrics: name -> (unit, better).
PER_LAYER = {
    "spin_model.enumerate_sector.self_s": ("s", "lower"),
    "spin_model.build_hamiltonian.self_s": ("s", "lower"),
    "spectral.lowest_two.calls": ("count", "lower"),
    "spectral.lowest_two.self_s": ("s", "lower"),
    "propagate.ramp_time_for_infidelity.calls": ("count", "lower"),
    "propagate.converged_ramp.calls": ("count", "lower"),
    "propagate.converged_ramp.probe_s": ("s", "lower"),
    "propagate.adiabatic_ramp.calls": ("count", "lower"),
    "propagate.adiabatic_ramp.steps": ("count", "lower"),
    **{
        f"propagate.adiabatic_ramp.d{d}.{m}": (unit, "lower")
        for d in RAMP_DIMS
        for m, unit in (("self_s", "s"), ("step_us", "us"))
    },
    "propagate.ramp.useful_step_ratio": ("ratio", "higher"),
    "propagate.expmv.calls": ("count", "lower"),
    "propagate.expmv.evolved_time": ("1/J", "lower"),
    "propagate.expmv.self_s": ("s", "lower"),
    "propagate.expmv.call_ms.p50": ("ms", "lower"),
    "propagate.expmv.call_ms.p99": ("ms", "lower"),
    "rodeo.rodeo_cycle.calls": ("count", "lower"),
    "rodeo.rodeo_cycle.self_s": ("s", "lower"),
    "rodeo.run_rodeo.self_s": ("s", "lower"),
    "rodeo.energy_scan.self_s": ("s", "lower"),
    "fusion.compare_methods.self_s": ("s", "lower"),
    "fusion.fuse_step.self_s": ("s", "lower"),
    "fusion.run_fusion.self_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.coverage": ("ratio", "higher"),
}


def _quantile(values, q: float) -> float:
    """Nearest-rank quantile; 0 when nothing was measured."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def summarize(spans: list[Span], traced_wall: float) -> dict:
    """Per-layer metrics of one traced round, keyed as in ``PER_LAYER``,
    all but ``trace.overhead_s``, which needs an untraced round as well.

    A layer the workload does not reach reports 0.  Coverage is the share
    of the traced wall time spent in spans below ``cli.main``, that is, in
    calls into the library layers.
    """
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def self_s(name):
        return sum(s.self_s for s in by_name[name])

    def attr_sum(name, key, where=lambda a: True):
        return sum(s.attrs[key] for s in by_name[name] if s.attrs and where(s.attrs))

    out = {}
    for name in ("spin_model.enumerate_sector", "spin_model.build_hamiltonian",
                 "spectral.lowest_two", "propagate.expmv", "rodeo.rodeo_cycle",
                 "rodeo.run_rodeo", "rodeo.energy_scan", "fusion.compare_methods",
                 "fusion.fuse_step", "fusion.run_fusion", "cli.main"):
        out[f"{name}.self_s"] = self_s(name)
    for name in ("spectral.lowest_two", "propagate.ramp_time_for_infidelity",
                 "propagate.converged_ramp", "propagate.adiabatic_ramp",
                 "propagate.expmv", "rodeo.rodeo_cycle"):
        out[f"{name}.calls"] = len(by_name[name])

    probes = by_name["propagate.converged_ramp"]
    out["propagate.converged_ramp.probe_s"] = _quantile([s.duration for s in probes], 0.5)
    ramp = "propagate.adiabatic_ramp"
    steps = attr_sum(ramp, "steps")
    out[f"{ramp}.steps"] = steps
    for d in RAMP_DIMS:
        d_self = sum(s.self_s for s in by_name[ramp] if s.attrs and s.attrs["dim"] == d)
        d_steps = attr_sum(ramp, "steps", lambda a: a["dim"] == d)
        out[f"{ramp}.d{d}.self_s"] = d_self
        out[f"{ramp}.d{d}.step_us"] = 1e6 * d_self / d_steps if d_steps else 0.0
    useful = attr_sum("propagate.converged_ramp", "steps")
    out["propagate.ramp.useful_step_ratio"] = useful / steps if steps else 0.0

    calls_ms = [1e3 * s.duration for s in by_name["propagate.expmv"]]
    out["propagate.expmv.evolved_time"] = attr_sum("propagate.expmv", "t")
    out["propagate.expmv.call_ms.p50"] = _quantile(calls_ms, 0.50)
    out["propagate.expmv.call_ms.p99"] = _quantile(calls_ms, 0.99)

    out["trace.coverage"] = sum(s.child_s for s in by_name["cli.main"]) / traced_wall
    return {name: out[name] for name in PER_LAYER if name != "trace.overhead_s"}

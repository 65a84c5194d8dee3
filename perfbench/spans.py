"""Per-layer tracing for the traced run.

Wraps module-level functions of morreylab (and a few methods) from outside
the program: each wrapper is patched into every namespace that binds the
original, including by-name imports and dispatch tables such as
``experiments.SUITES``.  A wrapped call opens a span (task, name, start,
end, parent); self time is the span's duration minus the time its child
spans cover, kept with a span stack.  Spans stay in memory and are written
out when the worker exits.  A task is one top-level ``cli.main`` call.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

# label -> (module, attribute path) of every spanned callable
SPANNED = {
    "cli.main": ("cli", "main"),
    "stepfn.StepFunction": ("stepfn", "StepFunction.__init__"),
    "stepfn.combine": ("stepfn", "combine"),
    "maxops.maximal": ("maxops", "maximal"),
    "maxops._cell_floor": ("maxops", "_cell_floor"),
    "maxops.maximal_envelope": ("maxops", "maximal_envelope"),
    "maxops.iterated_maximal": ("maxops", "iterated_maximal"),
    "orlicz.luxemburg_average": ("orlicz", "luxemburg_average"),
    "orlicz.weak_llog_average": ("orlicz", "weak_llog_average"),
    "orlicz.llog_functional": ("orlicz", "llog_functional"),
    "orlicz.holder_check": ("orlicz", "holder_check"),
    "families.resolve_family": ("families", "resolve_family"),
    "families.cover_ratio_sup": ("families", "ResolvedFamily.cover_ratio_sup"),
    "norms.morrey_norm": ("norms", "morrey_norm"),
    "norms.zygmund_morrey_norm": ("norms", "zygmund_morrey_norm"),
    "norms.weak_zygmund_morrey_norm": ("norms", "weak_zygmund_morrey_norm"),
    "norms.bmo_p_seminorm": ("norms", "bmo_p_seminorm"),
    "norms.characterization_functional": ("norms", "characterization_functional"),
    "radial.zm_radial_functional": ("radial", "zm_radial_functional"),
    "radial.zm_radial_functional_M": ("radial", "zm_radial_functional_M"),
    "radial.inner_integral": ("radial", "inner_integral"),
    "experiments.suite_holder": ("experiments", "suite_holder"),
    "experiments.suite_radial": ("experiments", "suite_radial"),
}
# counted without a span: far too frequent for one
COUNTED = {"stepfn.Interval": ("stepfn", "Interval.__init__")}

# per_layer metrics in BENCHMARK.json order: name -> unit
METRICS = {
    "cli.main.self_ms": "ms",
    "stepfn.StepFunction.calls": "count",
    "stepfn.StepFunction.self_ms": "ms",
    "stepfn.Interval.calls": "count",
    "stepfn.combine.calls": "count",
    "maxops.maximal.calls": "count",
    "maxops.maximal.self_ms": "ms",
    "maxops._cell_floor.calls": "count",
    "maxops._cell_floor.self_ms": "ms",
    "maxops.maximal_envelope.self_ms": "ms",
    "maxops.iterated_maximal.self_ms": "ms",
    "maxops.envelope_cells": "count",
    "maxops.cell_keep_ratio": "1",
    "orlicz.luxemburg_average.calls": "count",
    "orlicz.luxemburg_average.self_ms": "ms",
    "orlicz.luxemburg_average.nonzero_frac": "1",
    "orlicz.weak_llog_average.calls": "count",
    "orlicz.weak_llog_average.self_ms": "ms",
    "orlicz.llog_functional.calls": "count",
    "orlicz.llog_functional.self_ms": "ms",
    "orlicz.holder_check.self_ms": "ms",
    "families.resolve_family.self_ms": "ms",
    "families.family_size": "count",
    "families.cover_ratio_sup.calls": "count",
    "norms.morrey_norm.self_ms": "ms",
    "norms.zygmund_morrey_norm.self_ms": "ms",
    "norms.weak_zygmund_morrey_norm.self_ms": "ms",
    "norms.bmo_p_seminorm.self_ms": "ms",
    "norms.characterization_functional.self_ms": "ms",
    "radial.zm_radial_functional.self_ms": "ms",
    "radial.zm_radial_functional_M.self_ms": "ms",
    "radial.inner_integral.self_ms": "ms",
    "experiments.suite_holder.self_ms": "ms",
    "experiments.suite_radial.self_ms": "ms",
    "bracket_gap": "1",
    "trace_overhead_frac": "1",
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.task = array("i")
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[list] = []  # [span index, time covered by children]
        self.tasks = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.envelope_cells = 0
        self.family_sizes: list[int] = []
        self.lux_nonzero = 0

    def spanned(self, label: str, fn):
        code = len(self.names)
        self.names.append(label)
        observe = self._observers().get(label)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            if not self.stack:
                self.tasks += 1
            self.task.append(self.tasks - 1)
            self.name.append(code)
            self.parent.append(self.stack[-1][0] if self.stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            frame = [idx, 0.0]
            self.stack.append(frame)
            t0 = self.start[idx] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self.stack.pop()
                self.end[idx] = t1
                self.self_s[label] += (t1 - t0) - frame[1]
                self.calls[label] += 1
                if self.stack:
                    self.stack[-1][1] += t1 - t0
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def counted(self, label: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[label] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observers(self) -> dict:
        def envelope(env) -> None:
            self.envelope_cells += env.lower.num_cells

        def lux(value) -> None:
            self.lux_nonzero += value > 0.0

        return {
            "maxops.maximal_envelope": envelope,
            "families.resolve_family": lambda fam: self.family_sizes.append(len(fam)),
            "orlicz.luxemburg_average": lux,
        }

    def install(self) -> None:
        """Patch every wrapper into every morreylab namespace binding the original."""
        for targets, make in ((SPANNED, self.spanned), (COUNTED, self.counted)):
            for label, (module, attr) in targets.items():
                owner = sys.modules[f"morreylab.{module}"]
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
                wrapped = make(label, original)
                if path:  # a method: the class is the only binding
                    setattr(owner, leaf, wrapped)
                    continue
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == "morreylab" or mod_name.startswith("morreylab."):
                        _rebind(vars(mod), original, wrapped)

    def metrics(self, tasks: int) -> dict[str, float]:
        """Per-task figures over ``tasks`` traced tasks."""
        out: dict[str, float] = {}
        for name in METRICS:
            prefix, _, stat = name.rpartition(".")
            if stat == "self_ms":
                out[name] = 1e3 * self.self_s.get(prefix, 0.0) / tasks
            elif stat == "calls":
                out[name] = self.calls.get(prefix, 0) / tasks
        floors = self.calls.get("maxops._cell_floor", 0)
        lux = self.calls.get("orlicz.luxemburg_average", 0)
        out["maxops.envelope_cells"] = self.envelope_cells / tasks
        out["maxops.cell_keep_ratio"] = self.envelope_cells / floors if floors else 0.0
        out["orlicz.luxemburg_average.nonzero_frac"] = self.lux_nonzero / lux if lux else 0.0
        sizes = self.family_sizes
        out["families.family_size"] = sum(sizes) / len(sizes) if sizes else 0.0
        return out

    def write_spans(self, path: Path) -> None:
        """Spans as gzipped tab-separated rows: task, name, start_s, end_s, parent row."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("task\tname\tstart_s\tend_s\tparent\n")
            for t, n, s, e, p in zip(self.task, self.name, self.start, self.end, self.parent):
                fh.write(f"{t}\t{self.names[n]}\t{s:.9f}\t{e:.9f}\t{p}\n")


def _rebind(namespace: dict, original, wrapped) -> None:
    for key, value in list(namespace.items()):
        if value is original:
            namespace[key] = wrapped
        elif isinstance(value, dict) and not key.startswith("__"):
            for k, v in list(value.items()):
                if v is original:
                    value[k] = wrapped

"""Spans around the calls into novlab's public functions, from outside the package.

A function is rebound at the module attribute its caller looks up, not
only where it is defined: `novlab.cli` calls `evolve` through its own
global, so wrapping `novlab.evolution.evolve` alone would miss that call.
Spans (name, start, end, parent) are kept in memory and written out
after the run.  A binding that a later version of the package no longer
has is recorded as missing instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from time import perf_counter

# (module whose attribute is rebound, attribute, layer name).  The layer
# name is <defining module>.<function>, so one function rebound in two
# caller modules adds up under one name.
BINDINGS = [
    ("novlab.cli", "load_config", "config.load_config"),
    ("novlab.cli", "transform_with_map", "initial.transform_with_map"),
    ("novlab.cli", "evolve", "evolution.evolve"),
    ("novlab.cli", "euler_fields", "reconstruct.euler_fields"),
    ("novlab.cli", "find_crossings", "breaking.find_crossings"),
    ("novlab.cli", "classify", "breaking.classify"),
    ("novlab.cli", "fit_exponent", "breaking.fit_exponent"),
    ("novlab.cli", "verify_cancellations", "breaking.verify_cancellations"),
    ("novlab.cli", "export_points_jsonl", "breaking.export_points_jsonl"),
    ("novlab.cli", "lipschitz_experiment", "metric.lipschitz_experiment"),
    ("novlab.metric", "transform_with_map", "initial.transform_with_map"),
    ("novlab.metric", "evolve", "evolution.evolve"),
    ("novlab.metric", "distance_upper", "metric.distance_upper"),
    ("novlab.metric", "straight_line_path", "metric.straight_line_path"),
    ("novlab.metric", "tangent_norm_info", "metric.tangent_norm_info"),
    ("novlab.evolution", "rk4_step", "evolution.rk4_step"),
    ("novlab.evolution", "rhs", "evolution.rhs"),
    ("novlab.evolution", "assemble_sources", "sources.assemble_sources"),
    ("novlab.evolution", "check_omega", "evolution.check_omega"),
    ("novlab.evolution", "conserved", "evolution.conserved"),
    ("novlab.sources", "kernel_accumulator", "sources.kernel_accumulator"),
    ("novlab.sources", "exp_convolve", "sources.exp_convolve"),
]
# Every public novlab.cliio.write_* function is rebound as well; the cli
# module reaches them through the cliio module attribute.
WRITER_MODULE = "novlab.cliio"

# The bindings an untraced run keeps: they feed the output checks and
# drift_max, and are called a few hundred times per run at most.
OBSERVED = {"evolution.evolve", "metric.tangent_norm_info"}


class Tracer:
    """Rebinds layer functions while active and records one span per call."""

    def __init__(self, hooks=None, only=None):
        # hooks: layer name -> callable(result) run after a call returns,
        # outside its span.  only: restrict the rebinding to these layers.
        self.hooks = hooks or {}
        self.only = only
        self.spans = []  # [name, start, end, parent index, returned]
        self.missing = []
        self._stack = [-1]
        self._saved = []

    def _bindings(self):
        for module_name, attr, layer in BINDINGS:
            yield module_name, attr, layer
        writers = importlib.import_module(WRITER_MODULE)
        for attr in sorted(getattr(writers, "__all__", dir(writers))):
            if attr.startswith("write_"):
                yield WRITER_MODULE, attr, f"cliio.{attr}"

    def __enter__(self):
        for module_name, attr, layer in self._bindings():
            if self.only is not None and layer not in self.only:
                continue
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(layer, fn))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False

    def wrap(self, name, fn):
        spans, stack, hook = self.spans, self._stack, self.hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1], False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                span[4] = True
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(result)
            return result

        return traced

    def call(self, name, fn, *args, **kwargs):
        """Run fn under a span of its own, as the root of what it calls."""
        return self.wrap(name, fn)(*args, **kwargs)

    def layers(self) -> dict:
        """Per layer: calls, returned calls, inclusive and self seconds, durations."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, returned) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "returned": 0, "s": 0.0,
                                        "self_s": 0.0, "durations": []})
            row["calls"] += 1
            row["returned"] += returned
            row["s"] += end - start
            row["self_s"] += end - start - child[i]
            row["durations"].append(end - start)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for i, (name, start, end, parent, _) in enumerate(self.spans):
                fh.write(f"{i},{name},{start - t0!r},{end - t0!r},{parent}\n")


# Percentiles above the median offered for a timing, highest first.
PERCENTILES = (99.9, 99.0, 90.0)


def timing_summary(samples: list) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    text = f"median {statistics.median(samples):.6g} s"
    for p in PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10.0:
            q = statistics.quantiles(samples, n=1000, method="inclusive")
            text += f", p{p:g} {q[round(p * 10) - 1]:.6g} s"
            break
    else:
        text += ", no percentile above the median has ten samples beyond it"
    return text + f" (n={n})"

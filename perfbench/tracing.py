"""Per-layer tracing of msamp from outside the package.

The tracer replaces each traced public function with a wrapper in every
loaded ``msamp`` module namespace that binds it, so nested calls made
inside the package (``reconstruct`` -> ``apply_coset_operator``,
``stability_report`` -> ``measured_stability_ratio`` -> ``evaluate``) are
seen as well as the benchmark's own calls. Nothing inside ``src/msamp``
changes; ``uninstall`` restores the original bindings.

Each wrapped call records one span (name, operation index, parent span,
start, end, time covered by child spans, computed work counts). Spans are
kept in memory and written out by the caller once the run ends. A span's
self time is its duration minus the time its child spans cover.

``signal_model.sinc`` is not a span. Inside a coset span it is probed:
its points and time are added to that span's counts, and its time stays
in the coset layer's self time, because the dense sinc matrix is the
work that layer does. Elsewhere (inside ``evaluate``) it runs untraced,
so its time stays in ``evaluate``'s self time.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import math
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np

COSET = "sampling_operator.apply_coset_operator"
# Float64 sinc kernel plus the complex128 copy that the coset matvec reads.
KERNEL_BYTES_PER_PAIR = 8 + 16


def _quadrature_points(p, out):
    a, b = float(p["window"][0]), float(p["window"][1])
    return {"points": int(math.ceil((b - a) / p["step"])) + 1}


def _solve_counts(p, out):
    b = np.asarray(p["coset_values"])
    return {"columns": 1 if b.ndim == 1 else b.shape[1], "size_max": p["V"].size}


# (module, function, computed work counts from the bound arguments and the result)
TARGETS = (
    ("sampling_operator", "apply_coset_operator",
     lambda p, out: {"pairs": np.size(p["x"]) * (2 * p["samples"].grid.J + 1)}),
    ("signal_model", "evaluate", lambda p, out: {"points": np.size(p["x"])}),
    ("oracle", "l2_norm_quadrature", _quadrature_points),
    ("sampling_operator", "sample_signal", lambda p, out: {"rows": p["grid"].n_points}),
    ("sampling_operator", "samples_to_csv",
     lambda p, out: {"rows": p["samples"].grid.n_points}),
    ("sampling_operator", "samples_from_csv", lambda p, out: {"rows": out.grid.n_points}),
    ("reconstruction", "reconstruction_to_csv",
     lambda p, out: {"rows": len(p["rec"].eval_points)}),
    ("reconstruction", "solve_coset_system", _solve_counts),
    ("reconstruction", "reconstruct", None),
    ("reconstruction", "build_vandermonde", None),
    ("sampling_grid", "validate_against", None),
    ("oracle", "random_valid_pair", None),
    ("stability", "stability_report", None),
    ("stability", "measured_stability_ratio", None),
    ("stability", "gautschi_bounds", None),
    ("stability", "vandermonde_inverse_norm", None),
    ("cli", "main", None),
)

CLI_SUBCOMMANDS = ("synth", "sample", "reconstruct")

STAT_UNITS = {
    "calls": "count", "pairs": "count", "points": "count", "rows": "count",
    "columns": "count", "size_max": "count", "self_s": "s", "share": "ratio",
    "bytes_computed": "B", "pairs_per_s": "1/s",
}


def _stats(layer, *stats):
    return tuple((f"{layer}.{stat}", STAT_UNITS[stat]) for stat in stats)


# Every per-layer metric, in report order, with its unit. Counts are
# computed from argument sizes, not measured. Self time is reported in
# seconds for the layers every workload runs; for the others it is the
# share of operation time, which reads 0 on a workload that never calls
# the layer, so that no time reads exactly the same on every run.
LAYER_METRICS = (
    *_stats(COSET, "calls", "self_s", "share", "pairs", "bytes_computed", "pairs_per_s"),
    *_stats("signal_model.sinc", "points", "self_s"),
    *_stats("signal_model.evaluate", "calls", "points", "share"),
    *_stats("oracle.l2_norm_quadrature", "points", "share"),
    *_stats("sampling_operator.sample_signal", "rows", "share"),
    *_stats("sampling_operator.samples_to_csv", "rows", "share"),
    *_stats("sampling_operator.samples_from_csv", "rows", "share"),
    *_stats("reconstruction.reconstruction_to_csv", "rows", "share"),
    *(m for c in CLI_SUBCOMMANDS for m in _stats(f"cli.main.{c}", "share")),
    *_stats("reconstruction.solve_coset_system", "calls", "columns", "size_max", "self_s"),
    *_stats("reconstruction.reconstruct", "calls", "self_s"),
    *_stats("reconstruction.build_vandermonde", "calls", "self_s"),
    *_stats("sampling_grid.validate_against", "calls", "self_s"),
    *(
        m
        for layer in (
            "oracle.random_valid_pair",
            "stability.stability_report",
            "stability.measured_stability_ratio",
            "stability.gautschi_bounds",
            "stability.vandermonde_inverse_norm",
        )
        for m in _stats(layer, "calls", "share")
    ),
    # the untraced pass; large temporaries are mapped and faulted in anew
    ("process.sys_s", "s"),
    ("process.minor_faults", "faults"),
    ("check.err_over_tau_max", "ratio"),
    ("trace.ops_per_s", "1/s"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.overhead", "ratio"),
)

# Stats that are exact counts; they must repeat between traced cycles.
COUNT_STATS = ("calls", "pairs", "points", "rows", "columns", "size_max")


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "child_s", "counts")

    def __init__(self, name, op, parent, start):
        self.name = name
        self.op = op
        self.parent = parent
        self.start = start
        self.end = start
        self.child_s = 0.0
        self.counts = {}

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s

    def as_dict(self) -> dict:
        return {
            "name": self.name, "op": self.op, "parent": self.parent,
            "start": self.start, "end": self.end, "self_s": self.self_s,
            "counts": self.counts,
        }


class Tracer:
    """Installs span-recording wrappers into the msamp module namespaces."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self.recording = True
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run untraced (the benchmark's own checks)."""
        self.recording = False
        try:
            yield
        finally:
            self.recording = True

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "msamp"]
        for module, fname, count in TARGETS:
            original = getattr(importlib.import_module(f"msamp.{module}"), fname)
            self._rebind(modules, original, self._wrap(original, f"{module}.{fname}", count))
        sinc = importlib.import_module("msamp.signal_model").sinc
        self._rebind(modules, sinc, self._probe_sinc(sinc))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _rebind(self, modules, original, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def _wrap(self, func, name, count):
        signature = inspect.signature(func)
        spans, stack = self.spans, self._stack
        is_cli = name == "cli.main"

        def traced(*args, **kwargs):
            if not self.recording:
                return func(*args, **kwargs)
            span_name = f"{name}.{args[0][0]}" if is_cli else name
            span = Span(span_name, self.op, stack[-1] if stack else None,
                        time.perf_counter())
            stack.append(len(spans))
            spans.append(span)
            try:
                out = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if stack:
                    spans[stack[-1]].child_s += span.end - span.start
            if count is not None:
                span.counts.update(count(signature.bind(*args, **kwargs).arguments, out))
            return out

        return traced

    def _probe_sinc(self, func):
        spans, stack = self.spans, self._stack

        def probed(u):
            if not self.recording or not stack or spans[stack[-1]].name != COSET:
                return func(u)
            t0 = time.perf_counter()
            out = func(u)
            counts = spans[stack[-1]].counts
            counts["sinc_s"] = counts.get("sinc_s", 0.0) + time.perf_counter() - t0
            counts["sinc_points"] = counts.get("sinc_points", 0) + int(np.size(out))
            return out

        return probed


def layer_totals(spans) -> dict:
    """Sum calls, self time and counts per span name over a list of spans."""
    out: dict = {}

    def add(key, value, combine=lambda a, b: a + b):
        out[key] = combine(out[key], value) if key in out else value

    for s in spans:
        add(f"{s.name}.calls", 1)
        add(f"{s.name}.self_s", s.self_s)
        for stat, value in s.counts.items():
            if stat == "sinc_points":
                add("signal_model.sinc.points", value)
            elif stat == "sinc_s":
                add("signal_model.sinc.self_s", value)
            elif stat == "size_max":
                add(f"{s.name}.size_max", value, max)
            else:
                add(f"{s.name}.{stat}", value)
    return out


def exact_counts(totals: dict) -> dict:
    return {k: v for k, v in totals.items() if k.rsplit(".", 1)[1] in COUNT_STATS}


@dataclass
class Round:
    """One untraced and one traced pass over the same operations."""

    totals: dict  # layer_totals of the traced pass
    traced_s: float
    untraced_s: float
    sys_s: float  # kernel CPU time of the untraced pass
    minor_faults: int  # page faults of the untraced pass


def layer_metrics(rounds: list[Round], ops: int) -> dict:
    """Per-layer metrics of one pass of `ops` operations.

    Counts come from the first round (they are equal in all of them);
    times and ratios are medians over rounds.
    """
    def med(fn):
        return statistics.median(fn(r) for r in rounds)

    first = rounds[0].totals
    values = {}
    for name, unit in LAYER_METRICS:
        layer, stat = name.rsplit(".", 1)
        if stat == "self_s":
            values[name] = med(lambda r: r.totals.get(name, 0.0))
        elif stat == "share":
            values[name] = med(lambda r: r.totals.get(f"{layer}.self_s", 0.0) / r.traced_s)
        elif unit == "count":
            values[name] = first.get(name, 0)
    coset_self = values[f"{COSET}.self_s"]
    values[f"{COSET}.bytes_computed"] = values[f"{COSET}.pairs"] * KERNEL_BYTES_PER_PAIR
    values[f"{COSET}.pairs_per_s"] = (
        values[f"{COSET}.pairs"] / coset_self if coset_self > 0 else 0.0
    )
    values["process.sys_s"] = med(lambda r: r.sys_s)
    values["process.minor_faults"] = med(lambda r: r.minor_faults)
    values["trace.ops_per_s"] = ops / med(lambda r: r.traced_s)
    values["trace.untraced_ops_per_s"] = ops / med(lambda r: r.untraced_s)
    values["trace.overhead"] = med(lambda r: r.traced_s / r.untraced_s) - 1.0
    return values

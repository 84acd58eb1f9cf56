"""Span tracing of fairclust layer calls, installed from outside the package.

A Tracer wraps chosen module functions and records one span per call: name,
start, end, parent span and shape-derived counters. The package binds many
functions by name (``model`` and ``autoencoder`` do ``from .nn import
forward``; ``cli.COMMANDS`` holds ``cmd_eval``), so the wrapper replaces
every module-level binding of the original function in every ``fairclust``
module, including values of module-level dicts. ``uninstall`` restores them.

Spans are kept in memory; the helpers at the end reduce them to the
per-layer figures named in BENCHMARK.json. Computed counters (GFLOP, megabytes) come
from array shapes, not from hardware counters, so they repeat exactly.
"""

from __future__ import annotations

import sys
import time
import tracemalloc

# (module, function, span name). The span name is "<module>.<function>"
# except for the CLI command, which is recorded as the command it serves.
TARGETS = (
    ("nn", "forward", "nn.forward"),
    ("nn", "backward", "nn.backward"),
    ("nn", "sgd_step", "nn.sgd_step"),
    ("nn", "clip_gradients", "nn.clip_gradients"),
    ("autoencoder", "pretrain", "autoencoder.pretrain"),
    ("autoencoder", "encode", "autoencoder.encode"),
    ("model", "train", "model.train"),
    ("model", "fair_objective", "model.fair_objective"),
    ("model", "init_centroids", "model.init_centroids"),
    ("model", "batch_centroids", "model.batch_centroids"),
    ("model", "soft_assign", "model.soft_assign"),
    ("model", "compute_fairoids", "model.compute_fairoids"),
    ("model", "sharpen_target", "model.sharpen_target"),
    ("model", "smooth_target", "model.smooth_target"),
    ("model", "load_model", "model.load_model"),
    ("clustering", "kmeans_pp_init", "clustering.kmeans_pp_init"),
    ("clustering", "lloyd", "clustering.lloyd"),
    ("clustering", "hungarian_match", "clustering.hungarian_match"),
    ("metrics", "report_from_assignments", "metrics.report_from_assignments"),
    ("data", "synth_blobs", "data.synth_blobs"),
    ("data", "normalize", "data.normalize"),
    ("data", "save_csv", "data.save_csv"),
    ("data", "load_csv", "data.load_csv"),
    ("cli", "cmd_eval", "cli.eval"),
)

# Spans that make up the target refresh when their nearest traced ancestor
# is model.train (the same functions under model.fair_objective are the
# per-batch objective, not the refresh).
REFRESH_SPANS = frozenset({
    "autoencoder.encode", "model.soft_assign", "model.compute_fairoids",
    "model.batch_centroids", "model.sharpen_target", "model.smooth_target",
})

# sgd_step reads params, gradients and velocity and writes new params and
# new velocity: five arrays of n_params float64 values.
SGD_ARRAYS_TOUCHED = 5
FLOAT64_BYTES = 8


def _forward_flop(args):
    layers, x = args[0], args[1]
    rows = len(x)
    return sum(2 * rows * layer.n_in * layer.n_out for layer in layers)


def _backward_flop(args):
    # Two GEMMs per layer: the weight gradient h_in.T @ g and the input
    # gradient g @ W.T, each 2 * rows * n_in * n_out.
    tape = args[0]
    rows = tape.steps[0][0].shape[0]
    return sum(4 * rows * layer.n_in * layer.n_out for layer in tape.layers)


def _sgd_bytes(args):
    return args[0].n_params * SGD_ARRAYS_TOUCHED * FLOAT64_BYTES


# Span name -> function of the call's arguments giving the span's counter.
COUNTERS = {"nn.forward": _forward_flop, "nn.backward": _backward_flop, "nn.sgd_step": _sgd_bytes}


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "counter", "base_bytes", "peak_bytes")

    def __init__(self, span_id, name, parent):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.start = self.end = None
        self.counter = 0
        self.base_bytes = self.peak_bytes = 0

    @property
    def duration(self):
        return self.end - self.start

    def to_dict(self):
        return {"id": self.id, "name": self.name, "start": self.start, "end": self.end,
                "parent": None if self.parent is None else self.parent.id,
                "counter": self.counter, "peak_bytes": self.peak_bytes}


class Tracer:
    """Records spans for the wrapped functions of one fairclust import.

    With ``memory=True`` each span also records its tracemalloc peak above
    the allocation level at its start. tracemalloc slows allocation-heavy
    code, so timing figures should come from a tracer without it.
    """

    def __init__(self, memory=False):
        self.memory = memory
        self.spans = []  # closed spans, in order of completion
        self._stack = []  # open spans, innermost last
        self._peaks = []  # per open span: highest traced bytes seen so far
        self._restore = []

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "fairclust" or name.startswith("fairclust."))]
        for mod_name, fn_name, span_name in TARGETS:
            original = getattr(sys.modules[f"fairclust.{mod_name}"], fn_name)
            wrapper = self._wrap(original, span_name)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(vars(module), attr, wrapper)
                    elif isinstance(value, dict):
                        for key, item in list(value.items()):
                            if item is original:
                                self._rebind(value, key, wrapper)
        if self.memory:
            tracemalloc.start()
        return self

    def _rebind(self, namespace, key, wrapper):
        self._restore.append((namespace, key, namespace[key]))
        namespace[key] = wrapper

    def uninstall(self):
        if self.memory:
            tracemalloc.stop()
        for namespace, key, original in reversed(self._restore):
            namespace[key] = original
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, fn, name):
        counter = COUNTERS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            count = counter(args) if counter is not None else 0
            span = tracer._enter(name)
            span.counter = count
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(span)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _enter(self, name):
        span = Span(len(self.spans) + len(self._stack), name,
                    self._stack[-1] if self._stack else None)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._peaks:
                self._peaks[-1] = max(self._peaks[-1], peak)
            tracemalloc.reset_peak()
            span.base_bytes = current
            self._peaks.append(current)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _exit(self, span):
        span.end = time.perf_counter()
        self._stack.pop()
        if self.memory:
            _, peak = tracemalloc.get_traced_memory()
            own_peak = max(self._peaks.pop(), peak)
            span.peak_bytes = own_peak - span.base_bytes
            if self._peaks:
                self._peaks[-1] = max(self._peaks[-1], own_peak)
            tracemalloc.reset_peak()
        self.spans.append(span)


def _nearest(span, names):
    """Nearest ancestor of span whose name is in names, or None."""
    node = span.parent
    while node is not None and node.name not in names:
        node = node.parent
    return node


def self_times(spans):
    """Map span id -> duration minus the durations of its direct children."""
    child = {}
    for span in spans:
        if span.parent is not None:
            child[span.parent.id] = child.get(span.parent.id, 0.0) + span.duration
    return {span.id: span.duration - child.get(span.id, 0.0) for span in spans}


def span_totals(spans):
    """Per span name: calls, total duration, self time, counter sum, peak bytes."""
    selfs = self_times(spans)
    totals = {}
    for span in spans:
        t = totals.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                          "counter": 0, "peak_bytes": 0})
        t["calls"] += 1
        t["s"] += span.duration
        t["self_s"] += selfs[span.id]
        t["counter"] += span.counter
        t["peak_bytes"] = max(t["peak_bytes"], span.peak_bytes)
    return totals


def refresh_spans(spans):
    """Refresh-pass spans: REFRESH_SPANS whose nearest traced ancestor is train."""
    traced = {name for _, _, name in TARGETS}
    return [s for s in spans if s.name in REFRESH_SPANS
            and getattr(_nearest(s, traced), "name", None) == "model.train"]


def pretrain_sgd_steps(spans):
    return sum(1 for s in spans if s.name == "nn.sgd_step"
               and _nearest(s, {"autoencoder.pretrain"}) is not None)

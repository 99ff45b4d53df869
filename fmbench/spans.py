"""Layer spans recorded from outside the fmest package.

The traced run rebinds every ``fmest.<module>`` attribute that refers to one
of the public functions in ``LAYERS`` (``solve_locations`` lives in both
``estimator`` and ``inference``, for example) to a wrapper that records a
span: id, parent span, CLI call id, layer name, start and end on the
``perf_counter_ns`` clock, and a work count taken from the arguments or the
return value.  Nothing under ``src/`` changes; leaving the ``tracing``
context restores the original bindings.

Spans nest strictly because every workload runs on one thread, so a span's
self time is its duration minus the durations of its direct children, and
the self times of one call sum exactly (in integer nanoseconds) to the
duration of its root ``cli.main`` span.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

ROOT = "cli.main"
SAMPLER = "inference.mixture_sampler"


def _columns(args, kwargs, result) -> int:
    """Replicates x grid points solved: every axis of ``values`` but the curves."""
    values = args[0] if args else kwargs["values"]
    shape = np.shape(values)
    return int(np.prod(shape)) // shape[-2]


def _load_rows(args, kwargs, result) -> int:
    return sum(curve.n_observed for curve in result.curves)


@dataclass(frozen=True)
class Layer:
    """A public function that gets a span, and the per-layer metrics it emits.

    ``metrics`` holds ``calls``, ``self_s`` and at most one work-count name;
    ``work`` maps (args, kwargs, result) to that count.
    """

    name: str
    metrics: tuple
    work: Callable | None = None


LAYERS = (
    Layer("estimator.solve_locations", ("calls", "self_s", "columns"), _columns),
    Layer("estimator.mad_cutoffs", ("calls", "self_s", "columns"), _columns),
    Layer("estimator.mad_profile", ("self_s",)),
    Layer("estimator.fit_marginal", ("self_s",)),
    Layer("estimator.interpolate_rows", ("self_s",)),
    Layer("inference.bootstrap_ensemble", ("self_s", "replicates"),
          lambda a, k, r: int(r.replicates.shape[0])),
    Layer("inference.anova_l2_test", ("self_s",)),
    Layer("inference.eigen_mixture", ("self_s", "rank"), lambda a, k, r: int(r[0].size)),
    # not a module attribute: the sampler eigen_mixture returns, wrapped on return
    Layer(SAMPLER, ("self_s", "variates")),
    Layer("inference.trend_ci", ("self_s",)),
    Layer("sampling.generate_masks", ("calls", "self_s", "curves"),
          lambda a, k, r: int(a[1] if len(a) > 1 else k["n"])),
    Layer("simulation.generate_curves", ("self_s", "curves"), lambda a, k, r: int(r.shape[0])),
    Layer("simulation.run_ise_study", ("self_s",)),
    Layer("data.matrix_dataset", ("self_s", "curves"), lambda a, k, r: int(r.n)),
    Layer("data.restrict_dataset", ("self_s",)),
    Layer("data.load_csv", ("self_s", "rows"), _load_rows),
    Layer("seeding.make_rng", ("calls", "self_s")),
    Layer(ROOT, ("self_s",)),
)


def layer_metric_names() -> list[str]:
    """Every per-layer metric the traced run emits, in a fixed order."""
    return [f"{layer.name}.{m}" for layer in LAYERS for m in layer.metrics]


class Tracer:
    """In-memory span log.  A span is the list
    ``[span_id, parent_id, call_id, name, start_ns, end_ns, work]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.call_id = 0
        self._stack: list[list] = []

    def wrap(self, name: str, fn, work: Callable | None = None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1][0] if stack else None, self.call_id, name, 0, 0, None]
            spans.append(span)
            stack.append(span)
            span[4] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter_ns()
                stack.pop()
            if work is not None:
                span[6] = work(args, kwargs, result)
            return result

        return traced

    def _sampler_on_return(self, eigen_mixture):
        @functools.wraps(eigen_mixture)
        def adapter(*args, **kwargs):
            lambdas, sampler = eigen_mixture(*args, **kwargs)
            rank = int(np.size(lambdas))
            return lambdas, self.wrap(SAMPLER, sampler,
                                      lambda a, k, r: int(a[0] if a else k["m"]) * rank)

        return adapter

    @contextlib.contextmanager
    def tracing(self):
        """Rebind every fmest module attribute that refers to a layer function."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "fmest" or name.startswith("fmest.")]
        saved = []
        try:
            for layer in LAYERS:
                if layer.name == SAMPLER:
                    continue
                module_name, func = layer.name.split(".")
                original = getattr(sys.modules[f"fmest.{module_name}"], func)
                fn = self._sampler_on_return(original) \
                    if layer.name == "inference.eigen_mixture" else original
                wrapped = self.wrap(layer.name, fn, layer.work)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            saved.append((module, attr, original))
                            setattr(module, attr, wrapped)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_times(spans: list[list]) -> list[int]:
    """Self time of each span in ns: its duration minus its direct children's."""
    out = [s[5] - s[4] for s in spans]
    for s in spans:
        if s[1] is not None:
            out[s[1]] -= s[5] - s[4]
    return out


def accounting_errors(spans: list[list]) -> list[str]:
    """Per call, the self times must sum to the root span's duration."""
    selfs = self_times(spans)
    total: dict[int, int] = {}
    roots: dict[int, int] = {}
    for s, own in zip(spans, selfs):
        total[s[2]] = total.get(s[2], 0) + own
        if s[1] is None:
            if s[3] != ROOT or s[2] in roots:
                return [f"call {s[2]}: unexpected root span {s[3]}"]
            roots[s[2]] = s[5] - s[4]
    return [f"call {c}: self times sum to {total[c]} ns, root span lasts {roots.get(c)} ns"
            for c in total if total[c] != roots.get(c)]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-CLI-call medians of calls, self seconds and work for every layer.

    A layer the workload bypasses reports zeros, never a missing entry.
    """
    selfs = self_times(spans)
    per_call: dict[int, dict[str, list]] = {}
    for s, own in zip(spans, selfs):
        acc = per_call.setdefault(s[2], {}).setdefault(s[3], [0, 0, 0])
        acc[0] += 1
        acc[1] += own
        acc[2] += s[6] or 0
    calls = list(per_call.values()) or [{}]
    out = {}
    for layer in LAYERS:
        for metric in layer.metrics:
            name = f"{layer.name}.{metric}"
            if metric == "self_s":
                out[name] = statistics.median(c.get(layer.name, (0, 0, 0))[1] for c in calls) / 1e9
            else:  # a count stays a whole number
                index = 0 if metric == "calls" else 2
                out[name] = statistics.median_low(c.get(layer.name, (0, 0, 0))[index] for c in calls)
    return out


def layer_unit(metric: str) -> str:
    return "s" if metric.endswith(".self_s") else "count"

"""Spans and counters recorded around calls into the package's layers.

Tracing works from outside the package: :meth:`Tracer.installed` rebinds
the public names that each consumer module imported (for example
``lecamjd.experiments.tv_quadrature``) to wrappers that record a span per
call, and wraps the ``pdf`` of every density those calls return so pdf
evaluations are counted.  Leaving the context restores the originals, so
traced and untraced units can alternate in one process.

Spans are kept in memory as ``(name, start, end, parent, run)`` tuples.
Pdf evaluations are only counted and timed in aggregate: the continuous
sweep makes about a million of them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import threading
import time

import numpy as np

import lecamjd.cli
import lecamjd.experiments
import lecamjd.simulate

#: span name -> (module whose binding is replaced, attribute name)
_EXPERIMENT_SPANS = {
    "model.summaries": ["build_increment_summaries"],
    "laws.density": ["increment_density_exact", "bernoulli_density",
                     "gaussian_density"],
    "oracle.tv": ["tv_quadrature"],
    "kernels.fold": ["fold_density_to_lattice_cell"],
    "kernels.pushforward": ["truncate_resample_pushforward"],
    "kernels.transfer": ["transfer_estimator"],
    "distances.bound": ["bernoulli_aggregate_bound",
                        "discrete_kernel_aggregate_bound",
                        "continuous_kernel_aggregate_bound",
                        "hellinger_product_tv_bound", "theorem_rate"],
    "simulate.path": ["sample_path"],
    "simulate.white_noise": ["sample_white_noise_increments"],
}
_CLI_SPANS = {
    "model.summaries": ["build_increment_summaries"],
    "kernels.truncate_resample": ["truncate_resample"],
    "distances.bound": ["bernoulli_aggregate_bound",
                        "discrete_kernel_aggregate_bound",
                        "continuous_kernel_aggregate_bound"],
    "simulate.path": ["sample_path"],
}
#: spans whose return value is a Density whose pdf gets counted
_DENSITY_SPANS = {"laws.density", "kernels.fold", "kernels.pushforward"}


class Tracer:
    """In-memory span recorder plus aggregate pdf counters."""

    def __init__(self):
        self.spans: list = []
        self.run = 0
        self.summary_intervals = 0
        self.pdf_calls = 0
        self.pdf_points = 0
        self.pdf_s = 0.0
        self.tv_pdf_calls = 0
        self.tv_pdf_s = 0.0
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident
        self._pdf_depth = 0
        self._tv_depth = 0

    # -- spans --------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span; threads without an open span hang under main's."""
        ident = threading.get_ident()
        stack = self._stacks.setdefault(ident, [])
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main)
            parent = main[-1] if main and ident != self._main else None
        with self._lock:
            idx = len(self.spans)
            self.spans.append(None)
        stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[idx] = (name, start, end, parent, self.run)

    def wrap(self, fn, name: str):
        if name in _DENSITY_SPANS:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with self.span(name):
                    d = fn(*args, **kwargs)
                    return dataclasses.replace(d, pdf=self._count_pdf(d.pdf))
        elif name == "oracle.tv":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self._tv_depth += 1
                try:
                    with self.span(name):
                        return fn(*args, **kwargs)
                finally:
                    self._tv_depth -= 1
        elif name == "model.summaries":
            @functools.wraps(fn)
            def wrapper(spec, grid, *args, **kwargs):
                with self.span(name):
                    out = fn(spec, grid, *args, **kwargs)
                with self._lock:
                    self.summary_intervals += grid.n
                return out
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with self.span(name):
                    return fn(*args, **kwargs)
        return wrapper

    def _count_pdf(self, pdf):
        """Count outermost evaluations; a pdf that calls another is one call.

        Densities are only evaluated on the thread that drives the sweep,
        so the depth counters need no lock.
        """
        def counted(x):
            if self._pdf_depth:
                return pdf(x)
            self._pdf_depth += 1
            t0 = time.perf_counter()
            try:
                return pdf(x)
            finally:
                dt = time.perf_counter() - t0
                self._pdf_depth -= 1
                self.pdf_calls += 1
                self.pdf_points += int(np.size(x))
                self.pdf_s += dt
                if self._tv_depth:
                    self.tv_pdf_calls += 1
                    self.tv_pdf_s += dt
        return counted

    # -- installing wrappers ------------------------------------------------

    @contextlib.contextmanager
    def installed(self, targets: str):
        """Rebind the layer entry points of ``experiments`` or ``cli``."""
        module, table = {
            "experiments": (lecamjd.experiments, _EXPERIMENT_SPANS),
            "cli": (lecamjd.cli, _CLI_SPANS),
        }[targets]
        saved = []
        gen_cls = lecamjd.simulate.RngStream
        saved_gen = gen_cls.generator
        try:
            for name, attrs in table.items():
                for attr in attrs:
                    original = getattr(module, attr)
                    saved.append((attr, original))
                    setattr(module, attr, self.wrap(original, name))
            gen_cls.generator = self.wrap(saved_gen, "simulate.generator")
            yield self
        finally:
            gen_cls.generator = saved_gen
            for attr, original in saved:
                setattr(module, attr, original)


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def span_table(spans):
    """Per name: call count, total duration and total self time."""
    children: dict[int, list] = {}
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    table: dict[str, dict] = {}
    for idx, (name, start, end, _, _) in enumerate(spans):
        row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                      "durations": []})
        dur = end - start
        row["calls"] += 1
        row["s"] += dur
        row["self_s"] += dur - union_length(children.get(idx, ()))
        row["durations"].append(dur)
    return table

"""Spans around the public functions of each doslab layer, from outside.

The tracer patches the targets below for the duration of a ``with
tracer.active():`` block and restores them afterwards.  A module-level
function is replaced by identity in every loaded ``doslab.*`` namespace
(``dos`` and ``ergodic`` bind ``from .spectral import ...``) and in its own
module; a method is replaced on its class.  Each call records a span
(name, start, end, parent, CPU time, growth of ``ru_maxrss``) plus the
target's counters; spans stay in memory until the run writes them out.

A target that does not exist is listed in ``skipped`` with the reason,
so the benchmark keeps running when the library drops a function.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import resource
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _n3(arg):
    """Cube of the dimension of the named argument."""
    return lambda bound, result: float(np.shape(bound.arguments[arg])[-1]) ** 3


_EIG_VECTORS = {"kernel.eig_vectors.n3_sum": _n3("a")}
_EIG_VALUES = {"kernel.eig_values.n3_sum": _n3("a")}
_POINTS = {"spaces.ball_arrays.points": lambda bound, result: len(result[0])}

# (span name, module, attribute path, {counter metric: fn(bound args, result)})
TARGETS = (
    ("kernel.eig_vectors", "numpy.linalg", "eigh", _EIG_VECTORS),
    ("kernel.eig_vectors", "scipy.linalg", "eigh", _EIG_VECTORS),
    ("kernel.eig_values", "numpy.linalg", "eigvalsh", _EIG_VALUES),
    ("kernel.eig_values", "scipy.linalg", "eigvalsh", _EIG_VALUES),
    ("kernel.eig_tridiagonal", "scipy.linalg", "eigh_tridiagonal", {}),
    ("kernel.eig_tridiagonal", "scipy.linalg", "eigvalsh_tridiagonal", {}),
    ("hamiltonians.build_truncated", "doslab.hamiltonians", "build_truncated",
     {"hamiltonians.build_truncated.n_sum": lambda bound, result: result.n}),
    ("spectral.function_diagonal", "doslab.spectral", "function_diagonal", {}),
    ("spectral.product_eigenvalues", "doslab.spectral", "product_eigenvalues", {}),
    ("spectral.symmetric_eigenvalues", "doslab.spectral", "symmetric_eigenvalues",
     {}),
    ("spectral.slope_fit", "doslab.spectral", "slope_dixmier_estimate", {}),
    ("dos.main_theorem_check", "doslab.dos", "main_theorem_check", {}),
    ("dos.dixmier_lhs", "doslab.dos", "dixmier_lhs", {}),
    ("dos.dos_approximant", "doslab.dos", "dos_approximant", {}),
    ("dos.weight_dixmier_trace", "doslab.dos", "weight_dixmier_trace", {}),
    ("dos.ids_histogram", "doslab.dos", "ids_histogram", {}),
    ("ergodic.ergodic_average", "doslab.ergodic", "ergodic_average",
     {"ergodic.realizations":
      lambda bound, result: bound.arguments["realizations"]}),
    ("percolation.percolate_bonds", "doslab.percolation", "percolate_bonds", {}),
    ("percolation.largest_cluster", "doslab.percolation", "largest_cluster",
     {"percolation.cluster_size": lambda bound, result: result.n_nodes}),
    ("percolation.chemical_ball_growth", "doslab.percolation",
     "chemical_ball_growth", {}),
    ("percolation.save_sample", "doslab.percolation", "save_sample",
     {"percolation.save_sample.bytes":
      lambda bound, result: os.path.getsize(bound.arguments["path"])}),
    ("percolation.load_sample", "doslab.percolation", "load_sample", {}),
    ("percolation.sample_digest", "doslab.percolation", "sample_digest", {}),
    ("spaces.ball_arrays", "doslab.spaces", "Lattice.ball_arrays", _POINTS),
    ("spaces.ball_arrays", "doslab.spaces", "Graph.ball_arrays", _POINTS),
    ("spaces.ball_arrays", "doslab.spaces", "CayleyF2.ball_arrays", _POINTS),
    ("spaces.ladder", "doslab.spaces", "Lattice.radii_ladder", {}),
    ("spaces.ladder", "doslab.spaces", "Lattice.ladder_to_radius", {}),
    ("spaces.ladder", "doslab.spaces", "Graph.radii_ladder", {}),
    ("spaces.ladder", "doslab.spaces", "Graph.ladder_to_radius", {}),
    ("spaces.graph_build", "doslab.spaces", "Graph.from_edges", {}),
    ("spaces.graph_build", "doslab.spaces", "Graph.subgraph", {}),
    ("spaces.bfs", "doslab.spaces", "Graph.bfs_from", {}),
    ("spaces.condition_c", "doslab.spaces", "condition_c_report", {}),
    ("rng.uniform_stream", "doslab._rng", "uniform_stream",
     {"rng.uniform_stream.draws": lambda bound, result: np.size(result)}),
)
SPAN_STATS = ("self_s", "cpu_s", "calls", "rss_delta_mb")


def metric_names() -> set:
    """Every metric a traced run can produce."""
    names = set()
    for span, _, _, counters in TARGETS:
        names.update(f"{span}.{stat}" for stat in SPAN_STATS)
        names.update(counters)
    return names


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    def __init__(self):
        # [name, start, end, parent index, cpu seconds, maxrss growth in KiB]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.skipped: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn, counters):
        signature = inspect.signature(fn) if counters else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0.0, 0]
            self.spans.append(span)
            self._stack.append(index)
            rss0, cpu0 = _maxrss_kb(), time.process_time()
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                span[4] = time.process_time() - cpu0
                span[5] = _maxrss_kb() - rss0
                self._stack.pop()
            if counters:
                bound = signature.bind(*args, **kwargs)
                for metric, count in counters.items():
                    self.counts[metric] += float(count(bound, result))
            return result
        return traced

    def _resolve(self, module: str, path: str):
        """(owner, attribute, original) or a reason string when missing."""
        try:
            owner = importlib.import_module(module)
        except ImportError as exc:
            return f"module {module} not importable: {exc}"
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls, None)
            if owner is None:
                return f"{module} has no class {cls}"
        if classes:
            if attr not in vars(owner):
                return f"{module}.{'.'.join(classes)} has no method {attr}"
            return owner, attr, vars(owner)[attr]
        if not hasattr(owner, attr):
            return f"{module} has no function {attr}"
        return owner, attr, getattr(owner, attr)

    def _install(self) -> None:
        self.skipped = []
        for name, module, path, counters in TARGETS:
            found = self._resolve(module, path)
            if isinstance(found, str):
                self.skipped.append({"target": f"{module}.{path}", "span": name,
                                     "reason": found})
                continue
            owner, attr, original = found
            if isinstance(original, (classmethod, staticmethod)):
                replacement = type(original)(
                    self._wrap(name, original.__func__, counters))
                self._patch(owner, attr, original, replacement)
            elif isinstance(owner, type):
                self._patch(owner, attr, original,
                            self._wrap(name, original, counters))
            else:
                replacement = self._wrap(name, original, counters)
                namespaces = [owner] + [
                    m for n, m in list(sys.modules.items())
                    if (n == "doslab" or n.startswith("doslab.")) and m is not owner]
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            self._patch(ns, key, original, replacement)

    def _patch(self, owner, attr: str, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def _uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def active(self):
        self._install()
        try:
            yield self
        finally:
            self._uninstall()

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, cpu, rss in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def summary(self) -> dict:
        """Totals per metric: SPAN_STATS per span name, and the counters."""
        out: dict[str, float] = defaultdict(float)
        for span, self_s in zip(self.spans, self.self_times()):
            name = span[0]
            out[f"{name}.self_s"] += self_s
            out[f"{name}.cpu_s"] += span[4]
            out[f"{name}.calls"] += 1
            out[f"{name}.rss_delta_mb"] += span[5] / 1024.0
        for key, value in self.counts.items():
            out[key] += value
        return dict(out)

    def dump(self) -> dict:
        return {"spans": [dict(zip(("name", "start", "end", "parent", "cpu_s",
                                    "maxrss_delta_kb"), s)) for s in self.spans],
                "skipped": self.skipped}

"""Outside-in tracer for the quips layers.

While active, every listed public function is replaced, in every ``quips.*``
module namespace that binds it, by a wrapper that records a span: name,
start, end, parent span and request id.  Calls between layers go through
those namespaces, so nested calls (``quips.hybrid.search_top_n``,
``quips.index.mahalanobis_assign``, ``quips.index.apply_preprocess_rows``)
are seen from outside without touching the library.  Deactivating restores
the original functions, so untraced code runs exactly as shipped.

Spans are kept in memory; ``write`` dumps them as JSON lines.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

# layer -> public functions timed at their boundary
TRACED = {
    "vecstore": ("load_vectors", "apply_preprocess", "apply_preprocess_rows"),
    "covariance": ("estimate_subspace_covariances",),
    "train": ("train_quip", "mahalanobis_assign", "update_centroids",
              "subspace_objective", "train_quip_opt",
              "find_violated_constraints", "constrained_assign",
              "penalized_objective"),
    "index": ("encode_database", "build_index", "save_index", "load_index",
              "build_lookup_table", "table_scores", "search_top_n"),
    "hybrid": ("train_partitioner", "build_hybrid",
               "assign_query_partitions", "hybrid_search"),
    "cli": ("main",),
}


def _iterations(trace: list[dict]) -> int:
    return len({entry["iteration"] for entry in trace})


# counts read at a boundary from the arguments or the return value
PROBES = {
    "train.train_quip": lambda args, out: {"iterations": _iterations(out[2])},
    "train.train_quip_opt": lambda args, out: {
        "iterations": _iterations(out[2]), "opt_iterations": _iterations(out[2]),
        "constraints": sum(e["n_constraints"] for e in out[2])},
    "index.table_scores": lambda args, out: {"rows": int(args[1].shape[0])},
    "hybrid.hybrid_search": lambda args, out: {"scanned": int(out[1])},
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "counts")

    def __init__(self, name, parent, request):
        self.name = name
        self.start = self.end = 0.0
        self.parent = parent
        self.request = request
        self.counts = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.request = ""
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- patching -----------------------------------------------------------

    def _wrap(self, name, fn):
        probe = PROBES.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self.request)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if probe is not None:
                span.counts = probe(args, out)
            return out

        return traced

    def activate(self) -> None:
        """Wrap every listed function at every quips namespace binding it."""
        homes = {layer: importlib.import_module(f"quips.{layer}") for layer in TRACED}
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "quips" or key.startswith("quips."))]
        for layer, names in TRACED.items():
            home = homes[layer]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def deactivate(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.activate()
        return self

    def __exit__(self, *exc):
        self.deactivate()
        return False

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the time covered by its direct child spans."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.duration
        return out

    def by_request(self, prefix: str) -> dict[str, list[int]]:
        """Span indices grouped by request id, for requests starting with prefix."""
        groups: dict[str, list[int]] = defaultdict(list)
        for i, s in enumerate(self.spans):
            if s.request.startswith(prefix):
                groups[s.request].append(i)
        return groups

    def write(self, path: str) -> None:
        selfs = self.self_times()
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": s.name, "request": s.request,
                    "parent": s.parent, "start": s.start, "end": s.end,
                    "self": selfs[i], "counts": s.counts}) + "\n")

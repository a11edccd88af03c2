"""Span tracing of speclust's layer modules, for the benchmark's traced run.

`Tracer` wraps every public function defined in each layer module, at every
module-level binding that refers to it (found by identity, so
`speclust.pca.eig_symmetric` and `speclust.cli.kmeans` are wrapped too), and
spans nest along the real call path. The Jacobi sweep kernel, which is
private, is wrapped as well because its return value carries the sweep
count. Spans stay in memory; `write_jsonl` writes them out at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import time

import numpy as np

LAYERS = ("data", "graph", "laplacian", "eigen", "embedding", "cluster", "pca", "cli")
SWEEP_KERNEL = "_jacobi_sweeps"  # returns (sweeps, off, threshold) at this commit


def _edges(args, kwargs, graph):
    return {"edges": int(np.count_nonzero(np.triu(graph.weights, 1)))}


def _residual(args, kwargs, es):
    return {"max_residual": float(es.max_residual)}


def _sweeps(args, kwargs, result):
    if isinstance(result, tuple) and result and isinstance(result[0], (int, np.integer)):
        return {"sweeps": int(result[0])}
    return {}


# span name -> counts read off the call's arguments and result
COUNTERS = {
    "data.load_csv": lambda a, kw, r: {"csv_bytes": os.path.getsize(a[0] if a else kw["path"])},
    "graph.build_full_graph": _edges,
    "graph.build_knn_graph": _edges,
    "graph.build_epsilon_graph": _edges,
    "graph.connected_components": lambda a, kw, r: {"components": int(r.component_count)},
    "eigen.eig_symmetric": _residual,
    "eigen.eig_rw": _residual,
    f"eigen.{SWEEP_KERNEL}": _sweeps,
    "cluster.kmeans": lambda a, kw, r: {"lloyd_iters": int(r.iterations)},
}


class Tracer:
    """Records spans of speclust's layer functions while installed."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op = None
        self._stack: list[int] = []
        package = importlib.import_module("speclust")
        layers = {layer: importlib.import_module(f"speclust.{layer}") for layer in LAYERS}
        targets = {}  # id(function) -> (function, wrapper)
        for layer, module in layers.items():
            for name, obj in vars(module).items():
                if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    targets[id(obj)] = (obj, self._wrap(obj, f"{layer}.{name}"))
        kernel = getattr(layers["eigen"], SWEEP_KERNEL, None)
        self.has_sweep_kernel = callable(kernel)
        if self.has_sweep_kernel:
            targets[id(kernel)] = (kernel, self._wrap(kernel, f"eigen.{SWEEP_KERNEL}"))
        # (module, attribute, original, wrapper) for every binding of a target
        self._bindings = [
            (module, attr, obj, targets[id(obj)][1])
            for module in (package, *layers.values())
            for attr, obj in vars(module).items()
            if id(obj) in targets and targets[id(obj)][0] is obj
        ]

    def install(self, op: int) -> None:
        self.op = op
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)
        self.op = None

    def _wrap(self, fn, name: str):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "op": self.op,
                "id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "name": name,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.update(counter(args, kwargs, result))
            return result

        return traced

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def op_layer_stats(spans: list[dict], has_sweep_kernel: bool) -> dict:
    """Per-layer self time and counts of one op's spans.

    A span's self time is its duration minus the durations of its child
    spans; calls are sequential, so children never overlap.
    """
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    stats = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for s in spans:
        key = s["name"].split(".")[0] + ".self_s"
        stats[key] += s["end"] - s["start"] - child_time.get(s["id"], 0.0)

    def total(name, field):
        return sum(s.get(field, 0) for s in spans if s["name"] == name)

    eig = [s for s in spans if s["name"] in ("eigen.eig_symmetric", "eigen.eig_rw")]
    stats.update({
        "eigen.calls": sum(s["name"] == "eigen.eig_symmetric" for s in spans),
        "eigen.sweeps": total(f"eigen.{SWEEP_KERNEL}", "sweeps") if has_sweep_kernel else None,
        "eigen.max_residual": max((s["max_residual"] for s in eig), default=None),
        "graph.edges": sum(s.get("edges", 0) for s in spans if s["name"].startswith("graph.build_")),
        "graph.components": total("graph.connected_components", "components"),
        "data.csv_bytes": total("data.load_csv", "csv_bytes"),
        "cluster.kmeans_calls": sum(s["name"] == "cluster.kmeans" for s in spans),
        "cluster.lloyd_iters": total("cluster.kmeans", "lloyd_iters"),
    })
    return stats


def median_stats(per_op: list[dict]) -> dict:
    """Median over ops of each statistic; None where any op has none."""
    keys = per_op[0].keys()
    return {
        k: None if any(s[k] is None for s in per_op) else statistics.median(s[k] for s in per_op)
        for k in keys
    }

"""Span tracer that wraps odac's public functions from outside the package.

A span records a name, a start, an end, its parent span and a few
attributes (rows read, index path, query memory peak). Spans stay in
memory; `Tracer.dump` writes them when the run ends. Wrapping replaces
every reference the package holds to a target (module globals, dict
values such as the CLI's scorer table, and default arguments), so
`from .fast import score_all_fast` style imports are traced too.
`Tracer.uninstall` puts every original back.

The layers are odac's modules. `naive` is the oracle and is not traced.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import time
import tracemalloc

LAYERS = ("cli", "ingest", "types", "fast", "datagen", "evaluate")

# Methods traced besides each layer's public module-level functions.
_METHODS = {
    "fast": ("NeighborIndex.__init__", "NeighborIndex.distances_all"),
    "types": ("ScoreReport.__post_init__",),
}

_MIB = 1024.0 * 1024.0


def _sum_time(name):
    return lambda spans, kids: sum(s.end - s.start for s in spans if s.name == name)


def _count(name):
    return lambda spans, kids: sum(1 for s in spans if s.name == name)


def _self_time(layer):
    def metric(spans, kids):
        return sum(
            (s.end - s.start) - kids.get(id(s), 0.0)
            for s in spans
            if s.name.split(".", 1)[0] == layer
        )

    return metric


def _sum_attr(name, key):
    return lambda spans, kids: sum(s.attrs.get(key, 0) for s in spans if s.name == name)


def _max_attr(name, key):
    return lambda spans, kids: max(
        (s.attrs[key] for s in spans if s.name == name and key in s.attrs), default=0.0
    )


def _scorer_calls(spans, kids):
    return sum(
        1
        for s in spans
        if s.name == "fast.score_all_fast"
        and s.parent is not None
        and s.parent.name.startswith("evaluate.")
    )


# metric name -> (span names it needs, how it is computed from one phase's spans)
METRICS = {
    "cli.main_s": (("cli.main",), _sum_time("cli.main")),
    "ingest.read_csv_s": (("ingest.read_csv",), _sum_time("ingest.read_csv")),
    "ingest.rows_read": (("ingest.read_csv",), _sum_attr("ingest.read_csv", "rows")),
    "ingest.preprocess_s": (("ingest.preprocess",), _sum_time("ingest.preprocess")),
    "ingest.write_scores_s": (("ingest.write_scores",), _sum_time("ingest.write_scores")),
    "ingest.write_csv_s": (("ingest.write_csv",), _sum_time("ingest.write_csv")),
    "types.validate_s": (("types.validate_dataset",), _sum_time("types.validate_dataset")),
    "types.validate_calls": (("types.validate_dataset",), _count("types.validate_dataset")),
    "types.ranking_s": (("types.ascending_ranking",), _sum_time("types.ascending_ranking")),
    "types.report_s": (
        ("types.ScoreReport.__post_init__",),
        _sum_time("types.ScoreReport.__post_init__"),
    ),
    "fast.index_build_s": (
        ("fast.NeighborIndex.__init__",),
        _sum_time("fast.NeighborIndex.__init__"),
    ),
    "fast.knn_query_s": (
        ("fast.NeighborIndex.distances_all",),
        _sum_time("fast.NeighborIndex.distances_all"),
    ),
    "fast.knn_passes": (
        ("fast.NeighborIndex.distances_all",),
        _count("fast.NeighborIndex.distances_all"),
    ),
    "fast.tree_passes": (
        ("fast.NeighborIndex.distances_all",),
        _sum_attr("fast.NeighborIndex.distances_all", "tree"),
    ),
    "fast.brute_passes": (
        ("fast.NeighborIndex.distances_all",),
        _sum_attr("fast.NeighborIndex.distances_all", "brute"),
    ),
    "fast.knn_query_peak_mib": (
        ("fast.NeighborIndex.distances_all",),
        _max_attr("fast.NeighborIndex.distances_all", "peak_mib"),
    ),
    "fast.transform_s": (
        ("fast.similarity_from_distance",),
        _sum_time("fast.similarity_from_distance"),
    ),
    "datagen.generate_s": (("datagen.generate",), _sum_time("datagen.generate")),
    "datagen.scenes": (("datagen.generate",), _count("datagen.generate")),
    "evaluate.scorer_calls": (("fast.score_all_fast",), _scorer_calls),
}
for _layer in LAYERS:
    METRICS[f"{_layer}.self_s"] = ((), _self_time(_layer))

# Peaks combine by maximum across set-up and pass; everything else adds.
_PEAKS = {"fast.knn_query_peak_mib"}


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = {}


def _index_path(index, attrs):
    method = getattr(index, "method", None)
    if method in ("tree", "brute"):
        attrs[method] = 1


def _rows_read(result, attrs):
    data = getattr(result, "data", result)  # LabeledDataset wraps a Dataset
    attrs["rows"] = int(getattr(data, "q", 0))


class Tracer:
    """Collects spans from wrapped odac functions while installed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []
        self.wrapped = set()

    def _wrap(self, name, fn):
        tracer = self
        measure_memory = name == "fast.NeighborIndex.distances_all"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, time.perf_counter(), parent)
            tracer.spans.append(span)
            tracer._stack.append(span)
            if measure_memory:
                _index_path(args[0], span.attrs)
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if measure_memory:
                    span.attrs["peak_mib"] = tracemalloc.get_traced_memory()[1] / _MIB
                    tracemalloc.stop()
                tracer._stack.pop()
                span.end = time.perf_counter()
            if name == "ingest.read_csv":
                _rows_read(result, span.attrs)
            return result

        return wrapper

    def install(self, package):
        """Wrap the public functions and listed methods of every layer."""
        modules = [getattr(package, layer) for layer in LAYERS]
        for layer, module in zip(LAYERS, modules):
            for attr, value in list(vars(module).items()):
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == module.__name__
                ):
                    wrapper = self._wrap(f"{layer}.{attr}", value)
                    self._rebind(modules, value, wrapper)
                    self.wrapped.add(f"{layer}.{attr}")
            for path in _METHODS.get(layer, ()):
                cls_name, meth = path.split(".")
                cls = getattr(module, cls_name, None)
                original = vars(cls).get(meth) if cls is not None else None
                if original is None:
                    continue  # target gone: its metrics are reported absent
                setattr(cls, meth, self._wrap(f"{layer}.{path}", original))
                self._undo.append(lambda c=cls, m=meth, o=original: setattr(c, m, o))
                self.wrapped.add(f"{layer}.{path}")

    def _rebind(self, modules, original, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append(
                        lambda m=module, a=attr, o=original: setattr(m, a, o)
                    )
                elif isinstance(value, dict) and any(v is original for v in value.values()):
                    for key in [k for k, v in value.items() if v is original]:
                        value[key] = wrapper
                        self._undo.append(
                            lambda d=value, k=key, o=original: d.__setitem__(k, o)
                        )
                elif inspect.isfunction(value) and value.__defaults__ and any(
                    d is original for d in value.__defaults__
                ):
                    old = value.__defaults__
                    value.__defaults__ = tuple(
                        wrapper if d is original else d for d in old
                    )
                    self._undo.append(
                        lambda f=value, o=old: setattr(f, "__defaults__", o)
                    )

    def uninstall(self):
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()

    def mark(self):
        """Position in the span list; phases are slices between marks."""
        return len(self.spans)

    def phase_metrics(self, start, stop):
        """Per-layer metrics over the spans recorded between two marks."""
        spans = self.spans[start:stop]
        kids = {}
        for s in spans:
            if s.parent is not None:
                kids[id(s.parent)] = kids.get(id(s.parent), 0.0) + (s.end - s.start)
        return {
            name: fn(spans, kids)
            for name, (needs, fn) in METRICS.items()
            if all(n in self.wrapped for n in needs)
        }

    def dump(self, path, phases):
        """Write every span as one JSON line: name, start, end, parent, phase."""
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for label, start, stop in phases:
                for s in self.spans[start:stop]:
                    record = {
                        "id": ids[id(s)],
                        "name": s.name,
                        "start": s.start,
                        "end": s.end,
                        "parent": ids[id(s.parent)] if s.parent is not None else None,
                        "phase": label,
                    }
                    if s.attrs:
                        record["attrs"] = s.attrs
                    handle.write(json.dumps(record) + "\n")


def combine(setup, passes):
    """One set-up's metrics plus the median pass, metric by metric."""
    out = {}
    for name in passes[0]:
        median = statistics.median(p[name] for p in passes)
        extra = setup.get(name, 0)
        out[name] = max(median, extra) if name in _PEAKS else median + extra
    return out

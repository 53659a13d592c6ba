"""The benchmark tracer still finds every seam it times in `odac`.

`perfbench/tracer.py` reports a metric as absent when the function or
method it wraps is gone, so a refactor that renames one of them would
silently drop per-layer metrics. This test installs the tracer as the
benchmark does and checks that every metric it defines can be computed.
"""

import importlib.util

import numpy as np

import odac

from conftest import REPO_ROOT


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", REPO_ROOT / "perfbench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_span_its_metrics_need():
    tracer = load_tracer()
    t = tracer.Tracer()
    t.install(odac)
    try:
        needed = {name for needs, _ in tracer.METRICS.values() for name in needs}
        assert needed - t.wrapped == set()
        for dim in (3, 25):  # the kd-tree path and the brute path
            points = np.random.default_rng(dim).uniform(size=(12, dim))
            index = odac.fast.NeighborIndex(points)
            assert index.method in ("tree", "brute")
            index.distances_all(2)
        paths = [
            s.attrs for s in t.spans if s.name == "fast.NeighborIndex.distances_all"
        ]
        assert [("tree" in a, "brute" in a) for a in paths] == [(True, False), (False, True)]
    finally:
        t.uninstall()
    assert not hasattr(odac.fast.NeighborIndex.distances_all, "__wrapped__")

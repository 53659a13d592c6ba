"""The benchmark tracer still finds every seam it times in `odac`.

`perfbench/tracer.py` reports a metric as absent when the function or
method it wraps is gone, so a refactor that renames one of them would
silently drop per-layer metrics. This test installs the tracer as the
benchmark does and checks that every metric it defines can be computed.
"""

import importlib.util

import numpy as np
import pytest

import odac
import odac.cli  # a traced layer; `import odac` alone does not load it

from conftest import REPO_ROOT


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", REPO_ROOT / "perfbench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tracer():
    """The benchmark's tracer module and a Tracer installed on odac."""
    module = load_tracer()
    t = module.Tracer()
    t.install(odac)
    yield module, t
    t.uninstall()
    assert not hasattr(odac.fast.NeighborIndex.distances_all, "__wrapped__")


def test_tracer_wraps_every_span_its_metrics_need(tracer):
    module, t = tracer
    needed = {name for needs, _ in module.METRICS.values() for name in needs}
    assert needed - t.wrapped == set()
    for dim in (3, 25):  # the kd-tree path and the brute path
        points = np.random.default_rng(dim).uniform(size=(12, dim))
        index = odac.fast.NeighborIndex(points)
        assert index.method in ("tree", "brute")
        index.distances_all(2)
    paths = [s.attrs for s in t.spans if s.name == "fast.NeighborIndex.distances_all"]
    assert [("tree" in a, "brute" in a) for a in paths] == [(True, False), (False, True)]


@pytest.mark.parametrize("dim, path", [(3, "tree"), (25, "brute")])
def test_score_all_fast_is_one_traced_knn_pass(tracer, dim, path):
    # The score path runs its k-NN pass, transform included, inside
    # `distances_all`, the seam the per-layer k-NN metrics time.
    _, t = tracer
    data = odac.Dataset(np.random.default_rng(dim).uniform(size=(12, dim)))
    mark = t.mark()
    odac.fast.score_all_fast(data, odac.Params(n_d=1.0, s_n=2))
    passes = [s for s in t.spans[mark:] if s.name == "fast.NeighborIndex.distances_all"]
    assert len(passes) == 1
    callers, span = [], passes[0].parent
    while span is not None:
        callers.append(span.name)
        span = span.parent
    assert "fast.score_all_fast" in callers
    assert path in passes[0].attrs and "peak_mib" in passes[0].attrs
    metrics = t.phase_metrics(mark, t.mark())
    assert metrics["fast.knn_passes"] == metrics[f"fast.{path}_passes"] == 1

import numpy as np
import pytest

from odac import SyntheticSpec, generate


def norms(points):
    return np.linalg.norm(points, axis=1)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(dim=1, normal_count=10, anomaly_count=1),
        dict(dim=3, normal_count=0, anomaly_count=1),
        dict(dim=3, normal_count=10, anomaly_count=-1),
        dict(dim=3, normal_count=10, anomaly_count=1, radius=0.0),
        dict(dim=3, normal_count=10, anomaly_count=1, shell_min=1.0),
        dict(dim=3, normal_count=10, anomaly_count=1, shell_min=1.5, shell_max=1.2),
    ],
)
def test_spec_validation(kwargs):
    with pytest.raises(ValueError):
        SyntheticSpec(**kwargs)


def test_default_scene_shape():
    spec = SyntheticSpec(dim=3, normal_count=200, anomaly_count=20, seed=5)
    labeled = generate(spec)
    assert labeled.q == 220
    assert labeled.data.n == 3
    assert labeled.outlier_count == 20
    assert not labeled.is_outlier[:200].any()
    assert labeled.is_outlier[200:].all()
    r = norms(labeled.data.points)
    assert r[:200].max() <= 1.0
    assert 1.1 <= r[200:].min() and r[200:].max() <= 3.0


def test_narrow_shell_scene():
    spec = SyntheticSpec(
        dim=2, normal_count=215, anomaly_count=5, shell_min=1.3, seed=8
    )
    labeled = generate(spec)
    assert labeled.q == 220
    assert labeled.outlier_count == 5
    assert norms(labeled.data.points[215:]).min() >= 1.3


def test_no_anomalies():
    labeled = generate(SyntheticSpec(dim=2, normal_count=12, anomaly_count=0))
    assert labeled.q == 12
    assert not labeled.is_outlier.any()


def test_radial_separation_holds_across_seeds():
    for seed in range(25):
        spec = SyntheticSpec(
            dim=4, normal_count=60, anomaly_count=8,
            radius=2.5, shell_min=1.05, shell_max=2.0, seed=seed,
        )
        labeled = generate(spec)
        r = norms(labeled.data.points)
        inner = r[~labeled.is_outlier]
        outer = r[labeled.is_outlier]
        assert inner.max() <= spec.radius
        assert outer.min() >= spec.shell_min * spec.radius
        assert outer.max() <= spec.shell_max * spec.radius
        assert inner.max() < outer.min()


def test_deterministic_given_seed():
    spec = SyntheticSpec(dim=3, normal_count=50, anomaly_count=5, seed=99)
    a = generate(spec)
    b = generate(spec)
    assert np.array_equal(a.data.points, b.data.points)
    assert np.array_equal(a.is_outlier, b.is_outlier)


def test_seed_changes_scene():
    base = dict(dim=3, normal_count=50, anomaly_count=5)
    a = generate(SyntheticSpec(seed=1, **base))
    b = generate(SyntheticSpec(seed=2, **base))
    assert not np.array_equal(a.data.points, b.data.points)


def test_tuple_seed_accepted():
    spec = SyntheticSpec(dim=2, normal_count=10, anomaly_count=2, seed=(7, 3))
    assert generate(spec).q == 12

"""Synthetic benchmark scenes: a ball-shaped cluster with a shell of anomalies.

Normal points fill a ball of radius R around the origin; anomalies land
in the surrounding shell [shell_min * R, shell_max * R], strictly outside
the cluster. Directions are uniform on the sphere. Normal radii follow a
half-gaussian profile (sigma = R/3, redrawn beyond R) so the cluster has
a dense core and a thin rim; anomaly radii are uniform over the shell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .types import Dataset, LabeledDataset


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for one labeled scene.

    Attributes:
        dim: Dimensionality, at least 2.
        normal_count: Points inside the cluster ball.
        anomaly_count: Points in the shell; may be 0.
        radius: Cluster radius R.
        shell_min: Inner shell bound as a multiple of R; must exceed 1 so
            anomalies stay strictly outside the cluster.
        shell_max: Outer shell bound as a multiple of R.
        seed: RNG seed; an int or a tuple of ints.
    """

    dim: int
    normal_count: int
    anomaly_count: int
    radius: float = 1.0
    shell_min: float = 1.1
    shell_max: float = 3.0
    seed: "int | tuple[int, ...]" = 0

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise ValueError(f"dim must be >= 2, got {self.dim}")
        if self.normal_count < 1:
            raise ValueError(f"normal_count must be >= 1, got {self.normal_count}")
        if self.anomaly_count < 0:
            raise ValueError(f"anomaly_count must be >= 0, got {self.anomaly_count}")
        if not self.radius > 0:
            raise ValueError(f"radius must be > 0, got {self.radius}")
        if not self.shell_min > 1.0:
            raise ValueError(f"shell_min must be > 1, got {self.shell_min}")
        if not self.shell_max > self.shell_min:
            raise ValueError(
                f"shell_max must exceed shell_min, got {self.shell_max}"
            )


def _radial_points(rng, count, dim, draw_radius, lo, hi):
    """count points with uniform direction and radii from draw_radius.

    Rows whose *computed* norm falls outside [lo, hi] are redrawn, which
    both truncates the radius law and guarantees the separation
    invariant exactly as measured, immune to rounding at the bounds.
    """
    out = np.empty((count, dim))
    remaining = count
    while remaining:
        vec = rng.standard_normal((remaining, dim))
        norm = np.linalg.norm(vec, axis=1)
        r = draw_radius(remaining)
        safe = np.where(norm > 0, norm, 1.0)
        cand = vec * (r / safe)[:, None]
        cn = np.linalg.norm(cand, axis=1)
        good = (norm > 0) & (cn >= lo) & (cn <= hi)
        taken = cand[good]
        out[count - remaining : count - remaining + len(taken)] = taken
        remaining -= len(taken)
    return out


def generate(spec: SyntheticSpec) -> LabeledDataset:
    """Sample one scene; bit-identical for identical spec (seed included).

    Returns:
        LabeledDataset with normal points first, then anomalies flagged
        True. min anomaly norm >= shell_min * R > R >= max normal norm
        (the scene is centred on the origin).
    """
    rng = np.random.default_rng(spec.seed)
    normals = _radial_points(
        rng,
        spec.normal_count,
        spec.dim,
        lambda m: np.abs(rng.standard_normal(m)) * (spec.radius / 3.0),
        0.0,
        spec.radius,
    )
    lo = spec.shell_min * spec.radius
    hi = spec.shell_max * spec.radius
    anomalies = _radial_points(
        rng,
        spec.anomaly_count,
        spec.dim,
        lambda m: rng.uniform(lo, hi, m),
        lo,
        hi,
    )
    points = np.vstack([normals, anomalies])
    flags = np.zeros(len(points), dtype=bool)
    flags[spec.normal_count :] = True
    return LabeledDataset(Dataset(points), flags)

"""Core domain types: datasets, parameters, score reports and labels.

All types are immutable after construction (arrays are frozen) and safe
to share across concurrent readers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteValue, TooFewDimensions, TooFewPoints

#: Default observation-point offset. Scale-dependent: suits data spread
#: over roughly [0, 300], e.g. the output of ingest.preprocess with the
#: default scale. Normalize first when in doubt.
DEFAULT_N_D = 80.0

#: Default number of top similarities summed per point.
DEFAULT_S_N = 40


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Dataset:
    """q points in n dimensions, stored as a row-major (q, n) matrix.

    Construction only coerces shape and dtype; use validate_dataset to
    enforce the scoring preconditions (q > 2, n >= 2, all finite).
    """

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.array(self.points, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError(f"points must be 2-D, got shape {pts.shape}")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def q(self) -> int:
        """Number of points."""
        return self.points.shape[0]

    @property
    def n(self) -> int:
        """Number of dimensions."""
        return self.points.shape[1]


@dataclass(frozen=True)
class Params:
    """The two scoring knobs.

    Attributes:
        n_d: Offset of each observation point along the added dimension.
            Must be strictly positive: the similarity depends only on
            |n_d|, so negative values are redundant. Larger n_d flattens
            score differences; the useful range tracks the data scale.
        s_n: How many of the largest similarities are summed into a
            point's score. Must satisfy 1 <= s_n <= q - 1 at scoring
            time; the upper bound is checked against the dataset.
    """

    n_d: float = DEFAULT_N_D
    s_n: int = DEFAULT_S_N

    def __post_init__(self) -> None:
        n_d = float(self.n_d)
        if not math.isfinite(n_d) or n_d <= 0.0:
            raise ValueError(f"n_d must be finite and > 0, got {self.n_d}")
        s_n = int(self.s_n)
        if s_n != self.s_n or s_n < 1:
            raise ValueError(f"s_n must be an integer >= 1, got {self.s_n}")
        object.__setattr__(self, "n_d", n_d)
        object.__setattr__(self, "s_n", s_n)


def ascending_ranking(scores: np.ndarray) -> np.ndarray:
    """Point indices sorted by score ascending, ties by ascending index.

    The single place the ranking tie rule lives; ScoreReport derives every
    ranking with it, so runs are reproducible and scorers interchangeable.
    """
    return np.argsort(scores, kind="stable")


@dataclass(frozen=True)
class ScoreReport:
    """Per-point anomaly scores plus the ascending-score ranking.

    Lower scores mark more outlying points: ranking[0] is the strongest
    outlier candidate. The ranking is derived from the scores, ties broken
    by ascending point index. Scores must be finite.
    """

    scores: np.ndarray
    ranking: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        scores = _frozen_array(self.scores, np.float64)
        if scores.ndim != 1:
            raise ValueError(f"scores must be 1-D, got shape {scores.shape}")
        if not np.isfinite(scores).all():
            raise ValueError("scores must be finite")
        ranking = ascending_ranking(scores)
        ranking.setflags(write=False)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "ranking", ranking)

    @property
    def q(self) -> int:
        return self.scores.shape[0]

    def rank_positions(self) -> np.ndarray:
        """1-based rank per point: rank_positions()[p] == t+1 iff ranking[t] == p."""
        pos = np.empty(self.q, dtype=np.intp)
        pos[self.ranking] = np.arange(1, self.q + 1)
        return pos


@dataclass(frozen=True)
class LabeledDataset:
    """A dataset plus a ground-truth outlier flag per point."""

    data: Dataset
    is_outlier: np.ndarray

    def __post_init__(self) -> None:
        flags = _frozen_array(self.is_outlier, bool)
        if flags.shape != (self.data.q,):
            raise ValueError(
                f"expected {self.data.q} flags, got shape {flags.shape}"
            )
        object.__setattr__(self, "is_outlier", flags)

    @property
    def q(self) -> int:
        return self.data.q

    @property
    def outlier_count(self) -> int:
        return int(self.is_outlier.sum())

    @property
    def outlier_indices(self) -> np.ndarray:
        return np.flatnonzero(self.is_outlier)


def validate_dataset(data: Dataset) -> Dataset:
    """Check the scoring preconditions and return the dataset unchanged.

    Raises:
        TooFewPoints: q <= 2.
        TooFewDimensions: n < 2.
        NonFiniteValue: any cell is NaN or infinite (first offender
            reported by row and column).
    """
    if data.q <= 2:
        raise TooFewPoints(f"need more than 2 points, got {data.q}")
    if data.n < 2:
        raise TooFewDimensions(f"need at least 2 dimensions, got {data.n}")
    finite = np.isfinite(data.points)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise NonFiniteValue(int(row), int(col))
    return data

"""Reference scorer: a literal transcription of the scoring recipe.

Every point is scored in four steps. The dataset is lifted to n+1
dimensions by appending a zero coordinate. For a measured point X_i, an
observation point O_i is placed directly "above" it: identical in the
first n coordinates, n_d in the added one. The cosine similarity between
the vector O_i -> X_i and each vector O_i -> X_j is evaluated with the
absolute-value numerator

    S_ij = sum_k |O_k - Xi_k| * |O_k - Xj_k|  /  (||O - Xi|| * ||O - Xj||)

over all n+1 coordinates, and the point's score SUM_i is the sum of the
s_n largest S_ij. Low scores mark outliers.

This module keeps the arithmetic deliberately literal (the full
(n+1)-dimensional vectors are materialized; nothing is reduced to a
distance transform) so it can serve as the correctness oracle for the
k-NN fast path in `odac.fast`. It is still vectorized across reference
points, which keeps the O(q^2 n) cost usable for test-sized data.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidTopR
from .types import Dataset, Params, ScoreReport, validate_dataset


def augment(data: Dataset) -> np.ndarray:
    """Validate the dataset and append a zero coordinate to every point.

    Returns:
        A (q, n+1) array whose row i is the lifted point X_i.
    """
    validate_dataset(data)
    out = np.zeros((data.q, data.n + 1))
    out[:, :-1] = data.points
    return out


def observation_point(measured: np.ndarray, n_d: float) -> np.ndarray:
    """Copy of a lifted point with its added coordinate set to n_d.

    Args:
        measured: Lifted point of length n+1 with a zero last coordinate.
        n_d: Strictly positive offset along the added dimension.
    """
    measured = np.asarray(measured, dtype=np.float64)
    if measured[-1] != 0.0:
        raise ValueError("measured point must have a zero last coordinate")
    if not n_d > 0.0:
        raise ValueError(f"n_d must be > 0, got {n_d}")
    out = measured.copy()
    out[-1] = n_d
    return out


def cosine_similarity(o: np.ndarray, xi: np.ndarray, xj: np.ndarray):
    """Similarity between the vectors o -> xi and o -> xj, in (0, 1].

    Evaluates the absolute-value form directly on the n+1 coordinates,
    after dividing each vector by its largest component (cosine
    similarity does not change under that scaling). The denominator can
    never vanish: both difference vectors carry the full n_d offset in
    the added coordinate, so even duplicate points are safe (and score
    exactly 1.0), and the scaling keeps the products from overflowing or
    underflowing at extreme n_d or coordinates.

    Args:
        o: Observation point, length n+1.
        xi: Lifted measured point, length n+1.
        xj: One lifted reference point (length n+1), or an (m, n+1)
            matrix of them.

    Returns:
        A float for one reference point, else an array of m similarities.
        A point gets the same bits whichever way it is passed.
    """
    o = np.asarray(o, dtype=np.float64)
    xj = np.asarray(xj, dtype=np.float64)
    di = np.abs(o - np.asarray(xi, dtype=np.float64))
    dj = np.abs(o - np.atleast_2d(xj))
    di /= di.max()
    dj /= dj.max(axis=1, keepdims=True)
    sims = (dj @ di) / (np.linalg.norm(di) * np.linalg.norm(dj, axis=1))
    return float(sims[0]) if xj.ndim == 1 else sims


def score_all_naive(data: Dataset, params: Params) -> ScoreReport:
    """Score every point and rank ascending (most outlying first).

    Args:
        data: Validated dataset (q > 2, n >= 2, finite).
        params: Scoring knobs; requires s_n <= q - 1.

    Returns:
        ScoreReport with scores[i] in (0, s_n].
    """
    aug = augment(data)
    if params.s_n > data.q - 1:
        raise InvalidTopR(
            f"s_n = {params.s_n} but only {data.q - 1} other points exist"
        )
    scores = np.empty(data.q)
    for i, xi in enumerate(aug):
        o = observation_point(xi, params.n_d)
        sims = np.delete(cosine_similarity(o, xi, aug), i)  # S_ii = 1 is no neighbour
        # The s_n largest values, accumulated in ascending order so the
        # result is schedule-independent.
        scores[i] = np.sum(np.sort(sims)[-params.s_n :])
    return ScoreReport(scores)

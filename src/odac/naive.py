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
from .types import Dataset, Params, ScoreReport, ascending_ranking, validate_dataset


def augment(data: Dataset) -> np.ndarray:
    """Append a zero coordinate to every point.

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


def cosine_similarity(o: np.ndarray, xi: np.ndarray, xj: np.ndarray) -> float:
    """Similarity between the vectors o -> xi and o -> xj, in (0, 1].

    Evaluates the absolute-value form directly on the n+1 coordinates,
    after dividing each vector by its largest component (cosine
    similarity does not change under that scaling). The denominator can
    never vanish: both difference vectors carry the full n_d offset in
    the added coordinate, so even duplicate points are safe (and score
    exactly 1.0), and the scaling keeps the products from overflowing or
    underflowing at extreme n_d or coordinates.
    """
    o = np.asarray(o, dtype=np.float64)
    di = np.abs(o - np.asarray(xi, dtype=np.float64))
    dj = np.abs(o - np.asarray(xj, dtype=np.float64))
    di /= di.max()
    dj /= dj.max()
    numer = float(di @ dj)
    denom = float(np.linalg.norm(di) * np.linalg.norm(dj))
    return numer / denom


def _similarity_row(aug: np.ndarray, i: int, n_d: float) -> np.ndarray:
    """S_ij for all j at once (entry j == i is 1.0 and must be dropped).

    Each difference vector is divided by its largest component, as in
    `cosine_similarity`; its n_d entry keeps that divisor above 0.
    """
    o = observation_point(aug[i], n_d)
    to_measured = np.abs(o - aug[i])
    to_refs = np.abs(o - aug)
    to_measured /= to_measured.max()
    to_refs /= to_refs.max(axis=1, keepdims=True)
    numer = to_refs @ to_measured
    denom = np.linalg.norm(to_measured) * np.linalg.norm(to_refs, axis=1)
    return numer / denom


def _check_top_r(s_n: int, q: int) -> None:
    if s_n > q - 1:
        raise InvalidTopR(f"s_n = {s_n} but only {q - 1} reference points exist")


def _top_r_sum(sims: np.ndarray, s_n: int) -> float:
    # Largest s_n values, ties at the cut resolved by ascending index;
    # accumulated in ascending order so the result is schedule-independent.
    top = sims[np.argsort(-sims, kind="stable")[:s_n]]
    return float(np.sum(np.sort(top)))


def score_point(data: Dataset, i: int, params: Params) -> float:
    """Score a single point: the sum of its s_n largest similarities."""
    validate_dataset(data)
    _check_top_r(params.s_n, data.q)
    if not 0 <= i < data.q:
        raise IndexError(f"point index {i} out of range for q = {data.q}")
    sims = _similarity_row(augment(data), i, params.n_d)
    return _top_r_sum(np.delete(sims, i), params.s_n)


def score_all_naive(data: Dataset, params: Params) -> ScoreReport:
    """Score every point and rank ascending (most outlying first).

    Args:
        data: Validated dataset (q > 2, n >= 2, finite).
        params: Scoring knobs; requires s_n <= q - 1.

    Returns:
        ScoreReport with scores[i] in (0, s_n] and the ascending ranking.
    """
    validate_dataset(data)
    _check_top_r(params.s_n, data.q)
    aug = augment(data)
    scores = np.empty(data.q)
    for i in range(data.q):
        sims = _similarity_row(aug, i, params.n_d)
        scores[i] = _top_r_sum(np.delete(sims, i), params.s_n)
    return ScoreReport(scores=scores, ranking=ascending_ranking(scores))

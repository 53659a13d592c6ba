"""Production scorer: one exact k-nearest-neighbor pass plus a closed form.

Because the observation point sits directly above the measured point,
each similarity reduces to a function of the plain Euclidean distance d
between the two original points:

    S = n_d / sqrt(d^2 + n_d^2)

which is strictly decreasing in d. The s_n largest similarities of a
point are therefore attained exactly at its s_n nearest neighbors.
Scoring splits into two steps:

  * `neighbor_distances(data, k)` runs the one exact k-NN pass and
    returns every point's ascending neighbor distances. They do not
    depend on n_d, and the distances for any s_n <= k are a prefix of
    the same row. One loop over row blocks serves both index paths. The
    kd-tree takes blocks in its leaf order, so each block's queries walk
    nearby nodes. It is a sliding-midpoint tree (Maneewongvatana & Mount
    1999) with leaves of up to _LEAF points: each cell is split at the
    midpoint of its widest side, the cut sliding to the nearest point when
    one side would be empty. On clustered data that prunes far more than a
    median split, and the distances are the same bits, since the shape
    only decides which pairs a query visits. The brute-force scan takes
    blocks in input order, sized so a block of distances stays small. It
    ranks a block against every point with one BLAS matrix product of
    the expanded squared distance, recomputes the few best candidates
    exactly, in cdist's order, and rescans by cdist any row whose ranking
    rounding could have changed (the FAISS scheme, Johnson et al. 2017).
    Each block's k + 1 nearest distances are written, minus column 0,
    into one (q, k) array.
  * `scores_from_distances(dist, params)` applies the transform to the
    first s_n columns and sums them, one block of rows at a time, so
    only a block of similarities is ever held.

So one pass at the largest s_n serves every parameter setting, which is
how `evaluate.sweep` tunes n_d and s_n. The reduction is asserted against
the literal scorer by the test suite; `odac.naive` remains the
independent oracle.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .errors import InvalidTopR, SimilarityUnderflow
from .types import Dataset, Params, ScoreReport, validate_dataset

# kd-tree pruning degrades as dimensionality grows; past this width a
# blocked brute-force scan is both simpler and faster.
_TREE_MAX_DIM = 20
# Cells per brute-force block. A block holds its (rows, q) float64
# squared-distance estimates and the int64 indices `np.argpartition`
# returns for them: 32 MiB together, so the scan's memory stays flat as
# q grows.
_BRUTE_CELLS = 1 << 21
# Candidates per row beyond the m nearest the brute scan must report, so a
# row's cut usually clears its m-th distance by more than rounding error.
_SPARE = 8
# Rows per kd-tree query block and per transform block. Each tree block
# holds (k + 1) distances and indices per row, 16 B each: 2.6 MiB at
# k = 40, held next to the (q, k) output. Measured with the sliding-
# midpoint tree on 2 cores: interleaved `distances_all` runs on
# normalised 6-D `datagen` scenes, and the tracemalloc peak of one run.
# At q = 10^5, k = 40, blocks of 2^11 to 2^14 rows took 4.0-5.1 s (medians
# of 3-9 runs), and no size was fastest at every leaf size; at _LEAF, 15
# more pairs gave a median of 4.33 s at both 2^12 and 2^13. Peaks were
# 37.2, 38.6, 41.4 and 46.9 MiB. At q = 1.5 * 10^4, k = 80, every size
# took 0.60-0.74 s, with peaks of 12.6, 15.2, 20.5 and 29.2 MiB. So
# memory decides.
_BLOCK = 1 << 12
# Points per kd-tree leaf. Same runs at _BLOCK: medians of 9 runs of 4.7,
# 4.4, 4.5, 4.6 and 5.0 s at leaf sizes 16, 24, 32, 48 and 64 for
# q = 10^5, against 7.1 s for scipy's default median-split tree (leaves
# of 16); 0.70, 0.65, 0.64, 0.62 and 0.64 s for q = 1.5 * 10^4, against
# 0.80 s. Sizes 24 to 48 lie within the runs' spread (single runs vary by
# about 0.5 s at q = 10^5), and 32 sits in the middle of that range.
_LEAF = 32


def similarity_from_distance(d, n_d: float):
    """Closed-form similarity n_d / sqrt(d^2 + n_d^2) at Euclidean distance d.

    Evaluated as 1 / hypot(d / n_d, 1): a zero distance gives exactly 1.0
    however small n_d is (n_d * n_d would underflow), and a ratio too
    large to square still gives its true, tiny similarity.
    """
    d = np.asarray(d, dtype=np.float64)
    with np.errstate(over="ignore"):
        r = np.divide(d, n_d, out=np.empty(d.shape))
    np.hypot(r, 1.0, out=r)
    np.reciprocal(r, out=r)
    return r[()]  # a scalar for scalar input, else the array


class NeighborIndex:
    """Immutable exact k-NN index over the original n-dimensional points.

    The kd-tree and cdist square coordinate differences, which overflow
    past about 1e154 and go subnormal below about 1e-154. So the index
    holds the points scaled by the power of two 2**-e that brings the
    largest magnitude into [0.5, 1), and scales distances back by 2**e.
    Both steps are exact, so distances at ordinary scales are unchanged
    bit for bit.
    """

    def __init__(self, points: np.ndarray) -> None:
        self._exp = int(np.frexp(np.abs(points).max(initial=0.0))[1])
        self._points = np.ldexp(points, -self._exp)
        if points.shape[1] <= _TREE_MAX_DIM:
            self._tree = cKDTree(self._points, leafsize=_LEAF, balanced_tree=False)
            return
        self._tree = None
        # The brute scan ranks candidates on points centred on their mean:
        # the expanded squared distance then rounds relative to the spread
        # of the data, not to its offset from the origin.
        self._centred = self._points - self._points.mean(axis=0)
        self._norms = np.einsum("ij,ij->i", self._centred, self._centred)

    @property
    def method(self) -> str:
        return "brute" if self._tree is None else "tree"

    def distances_all(self, k: int) -> np.ndarray:
        """Ascending distances to the k nearest neighbors of every point.

        Returns a (q, k) array; a point is never its own neighbor, but a
        duplicate twin is, at distance 0. Only distances are reported:
        tied boundary neighbors are interchangeable for any
        distance-based score, so no index tie-break is needed.
        """
        q = self._points.shape[0]
        if not 1 <= k <= q - 1:
            raise InvalidTopR(f"s_n = {k} but only {q - 1} other points exist")
        if self._tree is None:
            order, rows, nearest = np.arange(q), max(1, _BRUTE_CELLS // q), self._scan
        else:
            order, rows, nearest = self._tree.indices, _BLOCK, self._query
        out = np.empty((q, k))
        for start in range(0, q, rows):
            block = order[start : start + rows]
            # Each point is at distance 0 from itself, so column 0 is
            # always a zero; dropping it leaves the k true neighbor
            # distances (a duplicate twin, or a point whose differences
            # underflow, may stand in for self at the same 0). The block's
            # arrays are dropped before the next block allocates its own.
            out[block] = nearest(block, k + 1)[:, 1:]
        return np.ldexp(out, self._exp, out=out)

    def _query(self, block: np.ndarray, m: int) -> np.ndarray:
        """Ascending distances from each block point to its m nearest points, by kd-tree."""
        return self._tree.query(self._points[block], k=m, workers=-1)[0]

    def _scan(self, block: np.ndarray, m: int) -> np.ndarray:
        """Ascending distances from each block point to its m nearest points, by brute force.

        One matrix product ranks every point for the block by the expanded
        squared distance |a|^2 + |b|^2 - 2ab (less the row constant |a|^2),
        and the m + _SPARE smallest become candidates. Their distances are
        then computed exactly, as cdist computes them, and a row whose cut
        is too close to its m-th distance to trust the ranking is scanned
        again by `_nearest_exact`. So the result is cdist's, bit for bit.
        """
        q, n = self._points.shape
        width = min(m + _SPARE, q)
        lead = self._centred[block]
        lead *= -2.0  # exact; cheaper than scaling the (rows, q) product
        approx = lead @ self._centred.T
        approx += self._norms
        cand = np.argpartition(approx, width - 1, axis=1)[:, :width]
        cut = approx[np.arange(len(block)), cand[:, -1]]  # the width-th smallest
        del approx
        rows = self._points[block]
        sq = _squared_distances(rows, self._points[cand])
        sq.partition(m - 1, axis=1)
        # A point outside the candidates has an estimate >= cut, so its
        # squared distance is at least cut + |a|^2 less the rounding of
        # both formulas. Each is a length-n dot product or sum of squares
        # of values bounded by |a|^2 + max |b|^2 (centring rounds each
        # coordinate once), so all of it stays below 16 (n + 2) eps times
        # that sum, or below the smallest normal double when it underflows.
        # A row whose margin is smaller is scanned again.
        slack = 16 * (n + 2) * np.finfo(float).eps * (self._norms[block] + self._norms.max())
        close = cut + self._norms[block] - sq[:, m - 1] <= slack + np.finfo(float).tiny
        nearest = sq[:, :m]
        np.sqrt(nearest, out=nearest)
        nearest.sort(axis=1)
        if width < q and close.any():
            nearest[close] = _nearest_exact(rows[close], self._points, m)
        return nearest


def _squared_distances(rows: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """(b, c) squared distances from rows (b, n) to their candidates (b, c, n).

    Squares are summed one coordinate at a time, in cdist's order, so the
    square roots are cdist's distances bit for bit. `candidates` is
    overwritten.
    """
    diff = np.subtract(candidates, rows[:, None, :], out=candidates)
    diff *= diff
    sq = diff[:, :, 0].copy()
    for j in range(1, diff.shape[2]):
        sq += diff[:, :, j]
    return sq


def _nearest_exact(rows: np.ndarray, points: np.ndarray, m: int) -> np.ndarray:
    """Ascending distances from each row to its m nearest points, by cdist."""
    dist = cdist(rows, points)
    dist.partition(m - 1, axis=1)
    nearest = dist[:, :m]
    nearest.sort(axis=1)
    return nearest


def neighbor_distances(data: Dataset, k: int) -> np.ndarray:
    """Validate the dataset and return its (q, k) ascending k-NN distances.

    Raises:
        InvalidTopR: unless 1 <= k <= q - 1.
    """
    validate_dataset(data)
    return NeighborIndex(data.points).distances_all(k)


def scores_from_distances(dist: np.ndarray, params: Params) -> ScoreReport:
    """Score every point from its ascending neighbor distances.

    Args:
        dist: (q, k) array from `neighbor_distances`; only the first
            params.s_n columns are read, so any k >= s_n gives the same
            scores. It is not modified, so a sweep can reuse it.
        params: Scoring knobs.

    Raises:
        InvalidTopR: params.s_n exceeds the k columns of `dist`.
        SimilarityUnderflow: a summed similarity is below the smallest
            normal double.
    """
    if params.s_n > dist.shape[1]:
        raise InvalidTopR(
            f"s_n = {params.s_n} but only {dist.shape[1]} neighbor distances per point"
        )
    # The similarity falls as the distance grows, so the smallest one any
    # point sums sits at the largest distance of column s_n - 1.
    farthest = dist[:, params.s_n - 1].max()
    if similarity_from_distance(farthest, params.n_d) < np.finfo(float).tiny:
        raise SimilarityUnderflow(params.n_d)
    scores = np.empty(dist.shape[0])
    for start in range(0, dist.shape[0], _BLOCK):
        block = slice(start, start + _BLOCK)
        sims = similarity_from_distance(dist[block, : params.s_n], params.n_d)
        # Rows are descending (distances ascending); reverse so the sum
        # accumulates ascending values like the reference scorer.
        scores[block] = sims[:, ::-1].sum(axis=1)
    return ScoreReport(scores)


def score_all_fast(data: Dataset, params: Params) -> ScoreReport:
    """Score every point via k-NN distances; same contract as the naive path.

    Args:
        data: Validated dataset (q > 2, n >= 2, finite).
        params: Scoring knobs; requires s_n <= q - 1.

    Returns:
        ScoreReport matching score_all_naive up to floating-point noise,
        with the identical ranking tie rule.
    """
    return scores_from_distances(neighbor_distances(data, params.s_n), params)

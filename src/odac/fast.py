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
    kd-tree is a sliding-midpoint tree (Maneewongvatana & Mount 1999)
    with leaves of up to _LEAF points: each cell is split at the midpoint
    of its widest side, the cut sliding to the nearest point when one side
    would be empty. On clustered data that prunes far more than a median
    split, and the distances are the same bits, since the shape only
    decides which pairs a query visits. The index holds the points in the
    leaf order of a first build and builds the tree again on them, so
    every leaf, and every block of queries, is a contiguous run of the
    array, and a block's queries walk nearby nodes. The blocks are queried
    on a pool of one thread per CPU the process may use, each query on
    one thread, while the calling thread takes the results in block order;
    with one block or one CPU the calling thread queries them itself. The
    brute-force scan takes blocks in input order, one at a time (its
    matrix product already runs on BLAS's threads), sized so a block's
    estimates stay in a core's cache. It ranks a block against every
    point with one BLAS matrix product of the expanded squared distance,
    recomputes the few best candidates exactly, in cdist's order, and
    rescans against every point, in the same order, any row whose
    ranking rounding could have changed (the FAISS scheme, Johnson et al.
    2017). The candidates are picked in two stages: each row's estimates
    are cut into _SLICES equal slices, their element-wise minimum is the
    minimum of each group of strided columns (one per slice), and only
    the estimates of the groups with the smallest minima are
    partitioned. Each block's k + 1 nearest distances, minus column 0, go
    into one (q, k) array, or, given a per-row reduction, are reduced to
    one value per row as the calling thread takes the block.
  * `scores_from_distances(dist, params)` scores a held (q, k) array one
    block of rows at a time with `_row_scores`: the transform of the
    first s_n columns, summed, so only a block of similarities is ever
    held.

So one pass at the largest s_n serves every parameter setting, which is
how `evaluate.sweep` tunes n_d and s_n. `score_all_fast` needs one
setting, so its pass hands each block straight to `_row_scores` and keeps
only the scores: the (q, s_n) distances are never held, and the scores
are the same bits as the two steps give. The reduction is asserted
against the literal scorer by the test suite; `odac.naive` remains the
independent oracle.

Only the kd-tree needs scipy, so the brute-force path runs on numpy
alone and this module imports no scipy. `scipy.spatial` is imported when
`NeighborIndex` first builds a tree, before the pass allocates its
blocks; a process that only takes the brute path never loads it. Every
other module a pass uses, the thread pool's included, is imported when
this module is: an import inside a pass would load it after the pass has
allocated its memory, which can leave the heap untrimmed and raise the
process's peak memory. `odac.cli` gives free heap back after every
command, so a first tree build's import leaves none resident for the
next command to stack on.
"""

from __future__ import annotations

import collections
import contextlib
import os
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np

from .errors import InvalidTopR, SimilarityUnderflow
from .types import Dataset, Params, ScoreReport, validate_dataset

if TYPE_CHECKING:
    from scipy.spatial import cKDTree

# kd-tree pruning degrades as dimensionality grows; past this width a
# blocked brute-force scan is both simpler and faster.
_TREE_MAX_DIM = 20
# Cells per brute-force block. A block holds its (rows, q) float64
# squared-distance estimates, 4 MiB, so the scan's memory stays flat as q
# grows and the selection reads them mostly from a core's L2 (2 MiB on
# the 2-core machine measured). On the 32-D, 10^4-point `score_highdim`
# scene, k = 40, with one `np.argpartition` per row, a pass took 1.17-1.20 s
# at 2^21 cells, 0.93-0.94 s at 2^19 and 0.96-1.01 s at 2^18. With the
# group pre-selection (8 interleaved in-process runs on two scenes) it
# took medians of 0.78-0.84, 0.71-0.73, 0.67-0.71 and 0.79-0.85 s at 2^18,
# 2^19, 2^20 and 2^21. 2^20's medians were 3-6% lower, inside the runs'
# spread, for twice the memory.
_BRUTE_CELLS = 1 << 19
# Slices per row in the brute scan's pre-selection, so each group of
# strided columns holds this many estimates. In the same runs at 2^19
# cells, 4 and 16 slices took 0.78-0.81 s.
_SLICES = 8
# Candidates per row beyond the m nearest the brute scan must report, so a
# row's cut usually clears its m-th distance by more than rounding error.
_SPARE = 8
# Rows per kd-tree query block and per transform block. A query block
# holds (k + 1) distances and indices per row, 16 B each: 0.6 MiB at
# k = 40, and the pool holds at most threads + 1 blocks. Measured with the
# pooled pass over leaf-ordered points on 2 cores: `distances_all` with
# the scoring reduction on normalised 6-D `datagen` scenes, in 3 sets of
# 4, 6 and 8 interleaved in-process runs (per-set medians below), and the
# tracemalloc peak of one run. At q = 10^5, k = 40, leaves of 32 to 64
# and blocks of 2^10 to 2^12 rows took 2.2-2.9 s, against 3.2-4.0 s for
# blocks of 2^12 queried one at a time on scipy's threads; at _LEAF, 2^10
# rows took 2.89, 2.43 and 2.31 s and 2^11 rows 2.51, 2.56 and 2.18 s,
# with peaks of 2.8 and 4.7 MiB (8.5 MiB at 2^12). At q = 1.5 * 10^4,
# _LEAF, 2^10 rows took 0.30, 0.28 and 0.29 s at k = 40 and 0.46, 0.45
# and 0.42 s at k = 80; 2^11 rows 0.32, 0.31 and 0.27 s and 0.51, 0.48
# and 0.42 s, with peaks of 4.0 and 7.8 MiB at k = 80. No size was
# faster beyond the runs' spread, so memory decides.
_BLOCK = 1 << 10
# Points per kd-tree leaf. In the same runs at q = 10^5, leaves of 32, 48
# and 64 took 2.71-2.92, 2.51-2.89 and 2.60-2.85 s in the first set;
# leaves of 40 to 64 took 2.37-2.65 s in the second and 48 and 64 took
# 2.18-2.32 s in the third. Every size lay within the runs' spread of the
# others, at both scales, and 48 sits in the middle of the range. For the
# earlier serial pass over input-ordered points, leaves of 24 to 48 had
# measured alike, and scipy's default median-split tree (leaves of 16)
# had taken 1.3-1.6 times as long.
_LEAF = 48


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

    The kd-tree and the brute-force scan square coordinate differences,
    which overflow past about 1e154 and go subnormal below about 1e-154.
    So the index holds the points scaled by the power of two 2**-e that
    brings the largest magnitude into [0.5, 1), and scales distances back
    by 2**e. Both steps are exact, so distances at ordinary scales are
    unchanged bit for bit.
    """

    def __init__(self, points: np.ndarray) -> None:
        self._exp = int(np.frexp(np.abs(points).max(initial=0.0))[1])
        self._points = np.ldexp(points, -self._exp)
        if points.shape[1] <= _TREE_MAX_DIM:
            # The points are held in the leaf order of a first build, and
            # the tree is built again on them: its leaves are then
            # contiguous runs of the array, and so is each query block.
            # _order maps a position back to the input row.
            self._order = _sliding_midpoint(self._points).indices
            self._points = self._points[self._order]
            self._tree = _sliding_midpoint(self._points)
            return
        self._tree = self._order = None
        # The brute scan ranks candidates on points centred on their mean:
        # the expanded squared distance then rounds relative to the spread
        # of the data, not to its offset from the origin. The columns are
        # padded to a multiple of _SLICES with zero rows of infinite norm,
        # whose estimates are inf and so never become candidates. _reach,
        # the largest squared norm of a real point, bounds the rounding.
        q = len(points)
        padded = q + -q % _SLICES
        self._centred = np.zeros((padded, points.shape[1]))
        np.subtract(self._points, self._points.mean(axis=0), out=self._centred[:q])
        self._norms = np.full(padded, np.inf)
        np.einsum("ij,ij->i", self._centred[:q], self._centred[:q], out=self._norms[:q])
        self._reach = self._norms[:q].max()

    @property
    def method(self) -> str:
        return "brute" if self._tree is None else "tree"

    def distances_all(
        self, k: int, reduce: Callable[[np.ndarray], np.ndarray] | None = None
    ) -> np.ndarray:
        """Ascending distances to the k nearest neighbors of every point.

        Returns a (q, k) array; a point is never its own neighbor, but a
        duplicate twin is, at distance 0. Only distances are reported:
        tied boundary neighbors are interchangeable for any
        distance-based score, so no index tie-break is needed.

        With `reduce`, each block's (rows, k) distances are passed to it
        instead, and the one value per row it returns is stored: the
        result is a (q,) array.

        Both paths take row blocks. The brute scan takes blocks of input
        rows, one at a time. The kd-tree takes contiguous slices of its
        leaf-ordered points, queried by a pool of threads (one per CPU),
        at most threads + 1 blocks held or in progress at once. Either
        way the results are taken in block order in the calling thread,
        which scales them, runs `reduce` and stores them in their input
        rows. Every pool thread has ended when this returns or raises.
        """
        q = self._points.shape[0]
        if not 1 <= k <= q - 1:
            raise InvalidTopR(f"s_n = {k} but only {q - 1} other points exist")
        if self._tree is None:
            # One block at a time: each block's matrix product already
            # runs on BLAS's threads.
            order, size = np.arange(q), max(1, _BRUTE_CELLS // q)
            blocks = [order[start : start + size] for start in range(0, q, size)]
            passes = (self._scan(block, k + 1) for block in blocks)
        else:
            blocks = [slice(start, start + _BLOCK) for start in range(0, q, _BLOCK)]
            passes = _in_order(lambda block: self._query(block, k + 1), blocks, _cpus())
        out = np.empty((q, k) if reduce is None else q)
        with contextlib.closing(passes):
            for block, dist in zip(blocks, passes):
                # Each point is at distance 0 from itself, so column 0 is
                # always a zero; dropping it leaves the k true neighbor
                # distances (a duplicate twin, or a point whose differences
                # underflow, may stand in for self at the same 0).
                dist = dist[:, 1:]
                np.ldexp(dist, self._exp, out=dist)
                rows = block if self._order is None else self._order[block]
                out[rows] = dist if reduce is None else reduce(dist)
                # Dropped before the next block's result is taken.
                del dist
        return out

    def _query(self, block: slice, m: int) -> np.ndarray:
        """Ascending distances from a slice of the points to their m nearest points, by kd-tree.

        Run on one thread: `distances_all` runs one query per thread.
        """
        return self._tree.query(self._points[block], k=m, workers=1)[0]

    def _scan(self, block: np.ndarray, m: int) -> np.ndarray:
        """Ascending distances from each block point to its m nearest points, by brute force.

        One matrix product ranks every point for the block by the expanded
        squared distance |a|^2 + |b|^2 - 2ab (less the row constant |a|^2),
        and the m + _SPARE smallest become candidates (`_smallest`). Their
        distances are then computed exactly, as cdist computes them, and a
        row whose cut is too close to its m-th distance to trust the
        ranking is scanned again by `_nearest_exact`. So the result is
        cdist's, bit for bit.
        """
        q, n = self._points.shape
        width = min(m + _SPARE, q)
        lead = self._centred[block]
        lead *= -2.0  # exact; cheaper than scaling the (rows, q) product
        approx = lead @ self._centred.T
        approx += self._norms
        cand = _smallest(approx, width)
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
        slack = 16 * (n + 2) * np.finfo(float).eps * (self._norms[block] + self._reach)
        close = cut + self._norms[block] - sq[:, m - 1] <= slack + np.finfo(float).tiny
        nearest = sq[:, :m]
        np.sqrt(nearest, out=nearest)
        nearest.sort(axis=1)
        if width < q and close.any():
            nearest[close] = _nearest_exact(rows[close], self._points, m)
        return nearest


def _sliding_midpoint(points: np.ndarray) -> cKDTree:
    """A sliding-midpoint kd-tree over `points`, with leaves of up to _LEAF points.

    scipy is imported here, at the first tree build, so the brute-force
    path never loads it.
    """
    from scipy.spatial import cKDTree

    return cKDTree(points, leafsize=_LEAF, balanced_tree=False)


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _in_order(fn: Callable, items: list, threads: int) -> Iterator:
    """Yield fn(item) for each item, in order, computed on up to `threads` threads.

    With one thread or one item, each result is computed in the calling
    thread when it is asked for. Otherwise a pool of threads computes
    them, at most threads + 1 results held or in progress at once, so
    memory stays a few items' worth however many items there are. A
    result's exception is raised when that result is reached. The pool
    is shut down, waiting for its threads, when the generator finishes
    or is closed.
    """
    threads = min(threads, len(items))
    if threads <= 1:
        yield from map(fn, items)
        return
    pool = ThreadPoolExecutor(threads)
    ahead = collections.deque()
    try:
        for item in items:
            ahead.append(pool.submit(fn, item))
            if len(ahead) > threads:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def _smallest(approx: np.ndarray, width: int) -> np.ndarray:
    """Column indices of the `width` smallest entries of each row, the width-th last.

    The columns, a multiple of _SLICES, are cut into S slices of g
    columns, and group i holds columns i, i + g, ..., i + (S - 1) g, one
    from each slice. The element-wise minimum of the slices is each
    group's minimum; the `width` groups with the smallest minima are
    kept, and the width smallest of the width * S entries they hold are
    returned. S is `_slice_count(cols, width)`.

    This is exact. Let cut be the width-th smallest kept entry and tau the
    width-th smallest group minimum. A kept entry not returned is >= cut.
    An entry of a dropped group is >= its group's minimum, which is >= tau.
    The kept groups' minima are `width` distinct kept entries, all <= tau,
    so cut <= tau. So every entry not returned is >= cut, and cut is the
    same value a partition of the whole row would give.
    """
    rows, cols = approx.shape
    slices = _slice_count(cols, width)
    g = cols // slices
    minima = approx.reshape(rows, slices, g).min(axis=1)
    best = np.argpartition(minima, width - 1, axis=1)[:, :width]
    pool = (best[:, None, :] + g * np.arange(slices)[:, None]).reshape(rows, -1)
    pick = np.argpartition(np.take_along_axis(approx, pool, axis=1), width - 1, axis=1)
    return np.take_along_axis(pool, pick[:, :width], axis=1)


def _slice_count(cols: int, width: int) -> int:
    """Slices `_smallest` cuts a row of `cols` columns into, cols a multiple of _SLICES.

    The largest of _SLICES, _SLICES / 2, ..., 1 that leaves g = cols / S
    >= width groups to choose the width smallest from.
    """
    slices = _SLICES
    while slices > 1 and cols // slices < width:
        slices //= 2
    return slices


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
    """Ascending distances from each row to its m nearest points, by a full scan.

    The (rows, q) squares are summed one coordinate at a time, in cdist's
    order, as `_squared_distances` sums them, so the distances are
    cdist's bit for bit.
    """
    # Each coordinate contiguous: for 52 rows against 10^4 points in 32-D,
    # 42 ms against 145 ms for strided columns (cdist took 8-16 ms).
    columns = points.T.copy()
    dist = np.zeros((len(rows), len(points)))
    diff = np.empty_like(dist)
    for row_j, column in zip(rows.T, columns):
        np.subtract(row_j[:, None], column, out=diff)
        diff *= diff
        dist += diff
    del diff, columns
    np.sqrt(dist, out=dist)
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
    scores = np.empty(dist.shape[0])
    for start in range(0, dist.shape[0], _BLOCK):
        scores[start : start + _BLOCK] = _row_scores(dist[start : start + _BLOCK], params)
    return ScoreReport(scores)


def _row_scores(dist: np.ndarray, params: Params) -> np.ndarray:
    """Scores of a block of rows of ascending distances, from their first s_n columns.

    Raises:
        SimilarityUnderflow: a summed similarity is below the smallest
            normal double.
    """
    sims = similarity_from_distance(dist[:, : params.s_n], params.n_d)
    # The similarity falls as the distance grows, so the smallest one a
    # row sums sits in column s_n - 1.
    if sims[:, -1].min() < np.finfo(float).tiny:
        raise SimilarityUnderflow(params.n_d)
    # Rows are descending (distances ascending); reverse so the sum
    # accumulates ascending values like the reference scorer.
    return sims[:, ::-1].sum(axis=1)


def score_all_fast(data: Dataset, params: Params) -> ScoreReport:
    """Score every point via k-NN distances; same contract as the naive path.

    The scores of each block of the k-NN pass are computed as soon as the
    block's distances are, so the (q, s_n) distances are never held.

    Args:
        data: Validated dataset (q > 2, n >= 2, finite).
        params: Scoring knobs; requires s_n <= q - 1.

    Returns:
        ScoreReport matching score_all_naive up to floating-point noise,
        with the identical ranking tie rule.
    """
    validate_dataset(data)
    index = NeighborIndex(data.points)
    return ScoreReport(index.distances_all(params.s_n, lambda d: _row_scores(d, params)))

"""Production scorer: one exact k-nearest-neighbor pass plus a closed form.

Because the observation point sits directly above the measured point,
each similarity reduces to a function of the plain Euclidean distance d
between the two original points:

    S = n_d / sqrt(d^2 + n_d^2)

which is strictly decreasing in d. The s_n largest similarities of a
point are therefore attained exactly at its s_n nearest neighbors. Those
distances do not depend on n_d, and the distances for any s_n <= k are a
prefix of the same ascending row. So `score_settings` scores a list of
settings with one exact k-NN pass at their largest s_n: the pass hands
each block of rows to `_row_scores`, which scores it for every setting,
and only the (q, settings) scores are kept, never the distances.
`score_all_fast` is the one-setting case; `evaluate.sweep` tunes n_d and
s_n with the list.

One loop over row blocks, `NeighborIndex.distances_all`, serves both
index paths, and `NeighborIndex(points)` chooses the path from the
dimension: a `_TreeIndex` up to _TREE_MAX_DIM, a `_BruteIndex` past it.
Each path's class owns its build (`_build`), its plan (`_plan`: the BLAS
to hold to one thread, the threads, the rows per block), its per-block
query (`_query`) and its row order (`_rows`, the input rows of a block).
The loop clamps the plan's threads to the number of blocks, and holds
the BLAS only when more than one thread is left.

`_TreeIndex` is a sliding-midpoint kd-tree (Maneewongvatana & Mount
1999) with leaves of up to _LEAF points: each cell is split at the
midpoint of its widest side, the cut sliding to the nearest point when
one side would be empty. On clustered data that prunes far more than a
median split, and the distances are the same bits, since the shape only
decides which pairs a query visits. The index holds the points in the
leaf order of a first build and builds the tree again on them, so every
leaf, and every block of queries, is a contiguous run of the array, and
a block's queries walk nearby nodes. The blocks are queried on a pool of
one thread per CPU the process may use, each query on one thread, while
the calling thread takes the results in block order; with one block or
one CPU the calling thread queries them itself.

`_BruteIndex` gives the same pool its blocks as tasks of _BRUTE_TASK
input rows, and each task ranks its rows one chunk at a time, sized so
the chunks in progress share one budget of estimates that stays near
the cores' caches: the pool's unit of work and the scan's unit of
memory are set apart, so a small budget does not mean a hand-off per
few rows. Most of a chunk's work is numpy's single-threaded selection
and exact recomputation, so while the pool runs numpy's OpenBLAS is
held to one thread, whose threads would otherwise contend with the
pool's, and its saved thread count is restored when the pass ends,
however it ends. Where no OpenBLAS thread-count call is found, the
calling thread takes the tasks one at a time, each chunk's product on
BLAS's own threads and with the whole budget. The scan ranks a chunk
against every point with one float32 BLAS matrix product of the
expanded squared distance and recomputes the few best candidates
exactly, in cdist's order (the FAISS scheme, Johnson et al. 2017). A
row is settled when a bound on the product's rounding shows that no
point outside its candidates can be nearer; the bound grows with the
norms of the row and of each point it compares, not with the largest
norm in the data (Higham 2002, ch. 3), so far outliers do not unsettle
the rest. So there are three stages: every row is ranked in float32,
the rows that leaves unsettled are ranked again in float64 under the
same bound, and the rows still unsettled, or tied at the cut in either
ranking, are scanned against every point in cdist's order, all of a
task's such rows in one scan. Each stage's distances are cdist's bits.
The index holds the caller's points, their mean, their float64 squared
norms and the float32 ranker; the float64 ranker is
built, once and under a lock, when a chunk first has a row the float32
stage leaves unsettled, and kept for the life of the index, so a scene
float32 settles never holds it. The candidates are picked in two steps:
each row's estimates are cut into _SLICES equal slices, their
element-wise minimum is the minimum of each group of strided columns
(one per slice), and only the estimates of the groups with the smallest
minima are partitioned.

On either path each block's k + 1 nearest distances, minus column 0,
are reduced as the calling thread takes the block. The reduction is
asserted against the literal scorer by the test suite; `odac.naive`
remains the independent oracle.

Only the kd-tree needs scipy, so the brute-force path runs on numpy
alone and this module imports no scipy. `scipy.spatial` is imported when
`_TreeIndex` first builds a tree, before the pass allocates its
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
import ctypes
import functools
import glob
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import InvalidTopR, SimilarityUnderflow
from .types import Dataset, Params, ScoreReport, validate_dataset

# kd-tree pruning degrades as dimensionality grows; past this width a
# blocked brute-force scan is both simpler and faster.
_TREE_MAX_DIM = 20
# Cells in the brute-force chunks in progress at once, shared among the
# pool's threads. A chunk holds its (rows, q) float32 squared-distance
# estimates, so the scan's memory stays flat as q and the CPU count grow;
# the chunks in progress set the brute pass's peak memory, and each
# thread selects from estimates near a core's L2 (2 MiB on the 2-core
# machine measured). On the 32-D, 10^4-point `score_highdim` scene,
# k = 40, on 2 CPUs, one chunk a task (before _BRUTE_TASK), in 5 rounds
# of 8 s benchmark runs, 3 * 2^18 cells read a median `peak_rss_mib` of
# 53.39 MiB and `wall_s` of 0.378 s, 2^20 cells 54.93 MiB and 0.383 s,
# and 2^19 cells 51.58 MiB but 0.405 s. In 256-row tasks, on the seed-1
# scene, the medians of 11 interleaved in-process runs of 7
# `score_all_fast` passes were 0.226, 0.244 and 0.275 s at 3 * 2^18, 2^19 and 3 * 2^17
# cells, against 0.272 s for one chunk a task at 3 * 2^18 (an earlier set
# of 7 runs: 0.253, 0.288 and 0.330 s against 0.299 s); the steady peak
# of a process running the benchmark's CLI passes and checks 7 times
# (median of 9 interleaved) was 52.66, 50.14 and 49.56 MiB, against
# 51.26 MiB. 2^19 is the smallest budget whose pass stayed faster than
# one chunk a task in both sets.
_BRUTE_CELLS = 1 << 19
# Rows per brute-force pool task, scanned one chunk at a time, so the
# pool makes one hand-off per task, not per chunk. At 2^19 cells, in the
# runs above, tasks of 128, 256, 512 and 1024 rows took 0.259, 0.244,
# 0.235 and 0.227 s and peaked at 51.07, 50.14, 51.05 and 51.71 MiB: the
# pool holds threads + 1 tasks' distances at once.
_BRUTE_TASK = 256
# Cells in each part of a full rescan (`_nearest_exact`), whose (rows, q)
# float64 sums and differences then take 1 MiB, near a core's cache; the
# brute index's build fills its rankers in parts of as many coordinates. On
# 4,000 points of {0,1}^32, k = 40, where 2,354 rows are rescanned, in 7
# interleaved in-process passes at 1.5 * 2^19 brute cells, one chunk a
# task, all of a task's rescanned rows at once (up to 98) took a median
# of 0.26-0.28 s, 2^17 cells 0.20-0.21 s, 2^16 0.20 s and 2^15 0.23 s.
_RESCAN_CELLS = 1 << 16
# Machine epsilon and smallest normal of each ranker dtype, for the brute
# scan's settle bound, looked up once rather than per chunk.
_FINFO = {dtype: (np.finfo(dtype).eps, np.finfo(dtype).tiny) for dtype in (np.float32, np.float64)}
# Slices per row in the brute scan's pre-selection, so each group of
# strided columns holds this many estimates. With float64 estimates, one
# block at a time at 2^19 cells, a pass on the `score_highdim` scene took
# 0.71-0.73 s with 8 slices and 0.78-0.81 s with 4 or 16 (8 interleaved
# in-process runs on two scenes). The pooled float32 scan at 3 * 2^18
# cells barely feels the count: medians of 9 interleaved in-process
# passes on 2 CPUs were 0.218, 0.223 and 0.243 s with 4, 8 and 16 slices
# on the seed-1 scene, and 0.245, 0.234 and 0.241 s on seed 2.
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


def similarity_from_distance(d, n_d: float, exp: int = 0):
    """Closed-form similarity n_d / sqrt(D^2 + n_d^2) at Euclidean distance D = d * 2**exp.

    Evaluated as 1 / hypot(D / n_d, 1): a zero distance gives exactly 1.0
    however small n_d is (n_d * n_d would underflow), and a ratio too
    large to square still gives its true, tiny similarity. With n_d =
    f * 2**e, f in [0.5, 1), the ratio is (d * 2**(exp - e)) / f: the
    scaling overflows only where the ratio itself does, so `NeighborIndex`
    can hand over distances in its scaled units, with its exponent, that
    would overflow if scaled back. Where no step leaves the normal range,
    this is the bits of D / n_d.
    """
    d = np.asarray(d, dtype=np.float64)
    f, e = np.frexp(n_d)
    with np.errstate(over="ignore"):
        r = np.ldexp(d, exp - e, out=np.empty(d.shape))
        r /= f
    np.hypot(r, 1.0, out=r)
    np.reciprocal(r, out=r)
    return r[()]  # a scalar for scalar input, else the array


class NeighborIndex:
    """Immutable exact k-NN index over the original n-dimensional points.

    `NeighborIndex(points)` returns a `_TreeIndex` up to _TREE_MAX_DIM
    dimensions and a `_BruteIndex` past them; this is the one place the
    path is chosen, and a path's class builds that path whatever the
    dimension. The base class finds the scaling exponent and runs the one
    block loop, `distances_all`; the module docstring describes the rest.

    The kd-tree and the brute-force scan square coordinate differences,
    which overflow past about 1e154 and go subnormal below about 1e-154.
    So both paths work on the points scaled by the power of two 2**-e
    that brings the largest magnitude into [0.5, 1): `_TreeIndex` holds
    them scaled; `_BruteIndex` holds the caller's array, scales each row
    it gathers, and builds its rankers from the scaled points. Distances
    are scaled back by 2**e, or handed to a reduction in the scaled units
    with e. Both steps are exact, so distances at ordinary scales are
    unchanged bit for bit.
    """

    method: str  # "tree" or "brute", set by the path's class

    def __new__(cls, points: np.ndarray) -> NeighborIndex:
        if cls is NeighborIndex:
            cls = _TreeIndex if points.shape[1] <= _TREE_MAX_DIM else _BruteIndex
        return super().__new__(cls)

    def __init__(self, points: np.ndarray) -> None:
        self._exp = int(np.frexp(np.abs(points).max(initial=0.0))[1])
        self._build(points)

    def distances_all(
        self, k: int, reduce: Callable[[np.ndarray, int], np.ndarray] | None = None
    ) -> np.ndarray:
        """Ascending distances to the k nearest neighbors of every point, reduced.

        `reduce(dist, e)` is passed each block's (rows, k) distances in
        the index's scaled units, so the true distances are dist * 2**e,
        and what it returns for the block is stored in those rows of the
        result: one row per point, as many columns as `reduce` returns.
        The scaled distances are finite even where the true ones would
        overflow. Without `reduce` the result is the (q, k) distances
        themselves, scaled back. A point is
        never its own neighbor, but a duplicate twin is, at distance 0.
        Only distances are reported: tied boundary neighbors are
        interchangeable for any distance-based score, so no index
        tie-break is needed.

        Each block is queried on one thread: on a pool when the index's
        plan and the block count leave more than one thread, at most
        threads + 1 blocks held or in progress at once. The calling thread
        takes them in block order and runs `reduce` on each, so `reduce`
        may raise to end the pass. A BLAS thread count held for the pool
        is restored, and every pool thread has ended, when this returns or
        raises.
        """
        q = self._points.shape[0]
        if not 1 <= k <= q - 1:
            raise InvalidTopR(f"s_n = {k} but only {q - 1} other points exist")
        blas, threads, size = self._plan(q)
        # The brute scan's padded columns lie past q, so no block reaches them.
        blocks = [slice(start, min(start + size, q)) for start in range(0, q, size)]
        threads = min(threads, len(blocks))
        passes = _in_order(lambda block: self._query(block, k + 1), blocks, threads)
        out = None
        # The pool has ended before BLAS gets its threads back.
        with _one_blas_thread(blas if threads > 1 else None), contextlib.closing(passes):
            for block, dist in zip(blocks, passes):
                # Each point is at distance 0 from itself, so column 0 is
                # always a zero; dropping it leaves the k true neighbor
                # distances (a duplicate twin, or a point whose differences
                # underflow, may stand in for self at the same 0).
                dist = dist[:, 1:]
                if reduce is None:
                    value = np.ldexp(dist, self._exp, out=dist)
                else:
                    value = reduce(dist, self._exp)
                if out is None:
                    out = np.empty((q,) + value.shape[1:])
                out[self._rows(block)] = value
                # Dropped before the next block's result is taken.
                del dist, value
        return out


class _TreeIndex(NeighborIndex):
    """The sliding-midpoint kd-tree path, queried on one thread per CPU."""

    method = "tree"

    def _build(self, points: np.ndarray) -> None:
        """Hold the points scaled, in the leaf order of a first tree, and build the tree again.

        Both are sliding-midpoint trees with leaves of up to _LEAF points.
        The second tree's leaves are contiguous runs of the held array, and
        so is each query block. scipy is imported here, at the first tree
        build, so the brute-force path never loads it.
        """
        from scipy.spatial import cKDTree

        tree = functools.partial(cKDTree, leafsize=_LEAF, balanced_tree=False)
        self._points = np.ldexp(points, -self._exp)
        # _order maps a position back to the input row.
        self._order = tree(self._points).indices
        self._points = self._points[self._order]
        self._tree = tree(self._points)

    def _plan(self, q: int) -> tuple[_BlasThreads | None, int, int]:
        """No BLAS held; one thread per CPU, each query on one thread; _BLOCK rows a block."""
        return None, _cpus(), _BLOCK

    def _query(self, block: slice, m: int) -> np.ndarray:
        """Ascending distances from a slice of the points to their m nearest points, by kd-tree.

        Run on one thread: `distances_all` runs one query per thread.
        """
        return self._tree.query(self._points[block], k=m, workers=1)[0]

    def _rows(self, block: slice) -> np.ndarray:
        """The input rows of a slice of the leaf-ordered points."""
        return self._order[block]


class _BruteIndex(NeighborIndex):
    """The blocked brute-force scan, for points past _TREE_MAX_DIM dimensions."""

    method = "brute"

    def _build(self, points: np.ndarray) -> None:
        """Keep the caller's points, their mean and squared norms, and the float32 ranker.

        The scan scales only the rows it gathers, so it holds no scaled
        copy of the points. It ranks candidates on points centred on their
        mean: the expanded squared distance then rounds relative to the
        spread of the data, not to its offset from the origin. A ranker,
        shape (n + 1, padded) and C-contiguous, holds the centred points
        transposed, then their squared norms; the columns are padded to a
        multiple of _SLICES with zero points of infinite norm, whose
        estimates are inf and so never become candidates. The float64
        squared norms (`_norms`), which the settle bound reads, and the
        float32 ranker are filled _RESCAN_CELLS at a time, so no float64
        copy of all the points outlives the build. The float64 ranker is
        built from the same mean and norms when a row first needs it
        (`_float64_ranker`) and kept for the life of the index.
        """
        self._points = np.asarray(points, dtype=np.float64)
        q, n = points.shape
        total = np.zeros(n)
        for part in self._parts():
            total += np.ldexp(self._points[part], -self._exp).sum(axis=0)
        self._mean = total / q
        self._norms = np.empty(q)
        for part, centred in self._centred():
            np.einsum("ij,ij->j", centred, centred, out=self._norms[part])
        self._ranker32 = self._ranker(np.float32)
        self._ranker64 = None
        self._ranker64_lock = threading.Lock()

    def _parts(self) -> Iterator[slice]:
        """Slices of the points, _RESCAN_CELLS coordinates each."""
        q, n = self._points.shape
        step = max(1, _RESCAN_CELLS // n)
        return (slice(start, min(start + step, q)) for start in range(0, q, step))

    def _centred(self) -> Iterator[tuple[slice, np.ndarray]]:
        """Each part of the points, scaled, centred on `_mean` and transposed, in float64."""
        for part in self._parts():
            centred = np.ldexp(self._points[part].T, -self._exp)
            centred -= self._mean[:, None]
            yield part, centred

    def _ranker(self, dtype: type) -> np.ndarray:
        """A ranker in `dtype`: the centred points transposed, then `_norms`, padded."""
        q, n = self._points.shape
        ranker = np.zeros((n + 1, q + -q % _SLICES), dtype)
        for part, centred in self._centred():
            ranker[:n, part] = centred
        ranker[n, :q] = self._norms
        ranker[n, q:] = np.inf
        return ranker

    def _float64_ranker(self) -> np.ndarray:
        """The float64 ranker, built once, by the first chunk that needs it."""
        with self._ranker64_lock:
            if self._ranker64 is None:
                self._ranker64 = self._ranker(np.float64)
        return self._ranker64

    def _plan(self, q: int) -> tuple[_BlasThreads | None, int, int]:
        """OpenBLAS held and one thread per CPU, or neither; _BRUTE_TASK rows a task.

        Pooled only where OpenBLAS can be held to one thread: on its own
        threads the product contends with the pool's, and a pool so left
        ran slower than one chunk at a time.
        """
        blas = _openblas()
        return blas, 1 if blas is None else _cpus(), _BRUTE_TASK

    def _query(self, block: slice, m: int) -> np.ndarray:
        """Ascending distances from each task point to its m nearest points, by brute force.

        The task's rows are ranked one chunk at a time, a chunk being the
        rows whose estimates fit the plan's threads' share of _BRUTE_CELLS,
        so the estimates held at once do not grow with the number of CPUs.
        Each chunk runs a cascade: every row is ranked in float32
        (`_rank`); the rows that ranking cannot settle are ranked again in
        float64, on the ranker `_float64_ranker` builds for the first such
        row. The rows still unsettled, and the rows tied at the cut in
        either ranking, are collected over the task's chunks and scanned
        again in full by one `_nearest_exact` call. Each stage computes its
        distances as cdist computes them, so the result is cdist's, bit for
        bit, whichever stage settles a row.
        """
        q = len(self._points)
        chunk = max(1, _BRUTE_CELLS // (self._plan(q)[1] * q))
        nearest = np.empty((block.stop - block.start, m))
        rescan = []
        for start in range(block.start, block.stop, chunk):
            # The float32 stage ranks the whole chunk, a run of the points.
            at = slice(start, min(start + chunk, block.stop))
            rows = np.ldexp(self._points[at], -self._exp)
            todo = np.arange(at.start, at.stop)
            for ranker in (lambda: self._ranker32, self._float64_ranker):
                if not len(todo):
                    break
                found, settled, tied = self._rank(ranker(), at, rows, m)
                nearest[todo - block.start] = found
                rescan.append(todo[tied])
                left = ~(settled | tied)
                at = todo = todo[left]
                rows = rows[left]
            rescan.append(todo)
        rescan = np.concatenate(rescan)
        if len(rescan):
            rows = np.ldexp(self._points[rescan], -self._exp)
            nearest[rescan - block.start] = _nearest_exact(rows, self._points, m, self._exp)
        return nearest

    def _rank(
        self, ranker: np.ndarray, at: slice | np.ndarray, rows: np.ndarray, m: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Distances to each row's m nearest candidates; which rows are settled, which tied.

        `at` holds the rows' positions among the points, a slice where they
        are a run, and `rows` their scaled coordinates. One matrix product
        in the ranker's dtype estimates every point's expanded squared
        distance from each row, less the row constant |a|^2: the lead rows
        [-2a, 1] against the ranker's [b, |b|^2] give |b|^2 - 2ab. The
        m + _SPARE smallest estimates become candidates (`_smallest`),
        whose distances are then computed exactly, in cdist's order. A row
        is settled when no point outside its candidates can be nearer than
        its m-th candidate. A row not settled is tied when every candidate
        past its m-th is as near as the m-th, as on grid data: a finer
        ranking can settle it only by finding nearer points this one
        missed, so it is better scanned again at once.
        """
        q, n = self._points.shape
        width = min(m + _SPARE, q)
        lead = np.empty((len(rows), n + 1), ranker.dtype)
        np.multiply(ranker[:n, at].T, -2, out=lead[:, :n])  # exact
        lead[:, n] = 1
        approx = lead @ ranker
        cand = _smallest(approx, width)
        last = cand[:, -1] + np.arange(0, approx.size, approx.shape[1])
        cut = approx.ravel().take(last).astype(np.float64)
        del approx
        others = self._points[cand]
        sq = _squared_distances(rows, np.ldexp(others, -self._exp, out=others))
        sq.partition(m - 1, axis=1)
        # Why a settled row is exact. A point b outside the row's
        # candidates has an estimate >= cut. Write a and b for the centred
        # points, A for a's squared norm as held in float64, S for b's
        # square as computed in cdist's order, and eps, u = eps / 2 and
        # tiny for the machine epsilon, unit roundoff and smallest normal
        # of the ranker's dtype. Every rounding between the held points
        # and the two computed values moves the estimate away from S - A
        # by under c (A + |b|^2), c = 16 (n + 2) eps = 32 (n + 2) u, by
        # Higham's bounds (2002, ch. 3), gamma_k = k u / (1 - k u):
        #   - the product sums n + 1 terms, each at most |2 a_i b_i| or
        #     |b|^2, so their magnitudes sum to at most A + 2 |b|^2. With
        #     each factor rounded to the ranker's dtype and the terms summed
        #     in any order, the estimate moves by under
        #     gamma_(n+3) (A + 2 |b|^2) <= (2n + 7) u (A + |b|^2);
        #   - the float64 steps move it by under (4n + 8) u64 (A + |b|^2):
        #     the norms |b|^2 and A (n u64 each), cdist's sum of n squares
        #     ((2n + 2) u64, as S <= 2 (A + |b|^2)), and the centring, which
        #     is a translation and then one rounding per coordinate (4 u64).
        # That is under a third of c in either dtype; the rest absorbs the
        # second-order terms. A BLAS kernel that flushes subnormals to zero
        # loses at most 4 tiny in each of its n + 1 products and n sums
        # (the centred coordinates lie within 2), so floor = 16 (n + 2) tiny
        # covers it. Neither term grows with the largest norm in the data,
        # so far outliers do not loosen the bound of the other rows. Then,
        # with |b|^2 <= 2 |a - b|^2 + 2 A <= 2 S + 2 A,
        #   S >= cut - floor + A - c (A + |b|^2)
        #     >= cut - floor + (1 - 3c) A - 2c S,
        # so S >= (cut - floor + (1 - 3c) A) / (1 + 2c), the `bound` below.
        # Computing it in float64 rounds it by under 4 eps64 (|cut| + A).
        # When the row's m-th candidate square lies below it by more than
        # that, no point outside the candidates is nearer, and the row is
        # settled.
        eps, tiny = _FINFO[ranker.dtype.type]
        c = 16 * (n + 2) * eps
        norms = self._norms[at]
        bound = (cut - 16 * (n + 2) * tiny + (1 - 3 * c) * norms) / (1 + 2 * c)
        settled = bound - sq[:, m - 1] > 4 * _FINFO[np.float64][0] * (np.abs(cut) + norms)
        settled |= width == q  # every point is a candidate
        tied = ~settled & (sq.max(axis=1) <= sq[:, m - 1])
        nearest = sq[:, :m]
        np.sqrt(nearest, out=nearest)
        nearest.sort(axis=1)
        return nearest, settled, tied

    def _rows(self, block: slice) -> slice:
        """The input rows of a block: the brute scan takes them in input order."""
        return block


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _in_order(fn: Callable, items: list, threads: int) -> Iterator:
    """Yield fn(item) for each item, in order, computed on `threads` threads.

    With one thread, each result is computed in the calling thread when
    it is asked for. Otherwise a pool of threads computes them, at most
    threads + 1 results held or in progress at once, so memory stays a
    few items' worth however many items there are. A result's exception
    is raised when that result is reached. The pool is shut down, waiting
    for its threads, when the generator finishes or is closed.
    """
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


# The get and set thread-count functions of a BLAS library.
_BlasThreads = tuple[Callable[[], int], Callable[[int], None]]


@functools.cache
def _openblas() -> _BlasThreads | None:
    """The get and set thread-count functions of numpy's bundled OpenBLAS, or None.

    Looked up once, in the library numpy's wheel ships beside its package;
    None for any other BLAS (MKL, Accelerate, BLIS) or a build without it.
    """
    libs = os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")
    for path in sorted(glob.glob(libs)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # not loadable here: treated as no OpenBLAS
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


# Held by a pass while numpy's OpenBLAS runs on one thread for it. The
# thread count is the process's, so passes in other threads wait; a pass
# nested in the same thread saves and restores the held count of one.
_BLAS_HELD = threading.RLock()


@contextlib.contextmanager
def _one_blas_thread(blas: _BlasThreads | None) -> Iterator[None]:
    """Hold OpenBLAS, by its `_openblas` functions, to one thread inside the block.

    The saved count is restored when the block ends, however it ends. With
    None this does nothing.
    """
    if blas is None:
        yield
        return
    get, set_ = blas
    with _BLAS_HELD:
        saved = get()
        set_(1)
        try:
            yield
        finally:
            set_(saved)


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
    # Entries are read through indices into the flattened rows.
    starts = np.arange(0, rows * cols, cols)[:, None]
    best += starts
    pool = (best[:, None, :] + g * np.arange(slices)[:, None]).reshape(rows, -1)
    pick = np.argpartition(approx.ravel().take(pool), width - 1, axis=1)[:, :width]
    pick += np.arange(0, pool.size, pool.shape[1])[:, None]
    return pool.ravel().take(pick) - starts


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
    # Reduced along its first, outermost axis, a contiguous array is
    # summed one coordinate at a time, in order, not pairwise.
    return np.add.reduce(diff.transpose(2, 0, 1).copy(), axis=0)


def _nearest_exact(rows: np.ndarray, points: np.ndarray, m: int, exp: int) -> np.ndarray:
    """Ascending distances from each row to its m nearest points, by a full scan.

    The points are scaled by 2**-exp as they are copied (exactly, as
    `NeighborIndex` scales them); the rows are taken as they are. The
    (rows, q) squares are summed one coordinate at a time, in cdist's
    order, as `_squared_distances` sums them, so the distances are
    cdist's bit for bit. The rows are scanned _RESCAN_CELLS // q at a
    time.
    """
    # Each coordinate contiguous: for 52 rows against 10^4 points in 32-D,
    # 42 ms against 145 ms for strided columns (cdist took 8-16 ms).
    columns = np.ldexp(points.T, -exp, out=np.empty(points.shape[::-1]))
    step = max(1, _RESCAN_CELLS // len(points))
    nearest = np.empty((len(rows), m))
    for start in range(0, len(rows), step):
        part = rows[start : start + step]
        dist = np.zeros((len(part), len(points)))
        diff = np.empty_like(dist)
        for row_j, column in zip(part.T, columns):
            np.subtract(row_j[:, None], column, out=diff)
            diff *= diff
            dist += diff
        np.sqrt(dist, out=dist)
        dist.partition(m - 1, axis=1)
        nearest[start : start + step] = np.sort(dist[:, :m], axis=1)
    return nearest


def score_settings(data: Dataset, settings: Sequence[Params]) -> list[ScoreReport]:
    """Score every point under each setting, from one k-NN pass at the largest s_n.

    Each block of the pass is scored for every setting as soon as its
    distances are found, so only the (q, settings) scores are held. The
    dataset and each setting are as for `score_all_fast`, and so is each
    of the ScoreReports returned, one per setting, in order.

    Raises:
        InvalidTopR: the largest s_n exceeds q - 1.
        SimilarityUnderflow: a summed similarity is below the smallest
            normal double. It names the first such setting in the list,
            whichever block the similarity is in.
    """
    validate_dataset(data)
    index = NeighborIndex(data.points)
    tiny = np.finfo(float).tiny
    minima = []

    def reduce(dist: np.ndarray, exp: int) -> np.ndarray:
        scores, least = _row_scores(dist, settings, exp)
        # No setting precedes the first, so its underflow ends the pass.
        if least[0] < tiny:
            raise SimilarityUnderflow(settings[0].n_d)
        minima.append(least)
        return scores

    scores = index.distances_all(max(p.s_n for p in settings), reduce)
    # The others are checked after the pass: a check per block would name
    # the first setting to underflow in the earliest such block instead.
    for params, smallest in zip(settings, np.min(minima, axis=0)):
        if smallest < tiny:
            raise SimilarityUnderflow(params.n_d)
    return [ScoreReport(column) for column in scores.T]


def _row_scores(
    dist: np.ndarray, settings: Sequence[Params], exp: int
) -> tuple[np.ndarray, np.ndarray]:
    """Scores of a block of rows of ascending distances, and their smallest similarities.

    The true distances are dist * 2**exp. A setting's column of the
    (rows, settings) scores sums the transform of the first s_n distances
    of each row; its entry of the (settings,) minima is the smallest
    similarity it sums in the block. The transform runs once per distinct
    n_d, at the largest s_n of its settings, and each of them sums a
    prefix of that.
    """
    scores = np.empty((len(dist), len(settings)))
    least = np.empty(len(settings))
    for n_d in dict.fromkeys(params.n_d for params in settings):
        group = [j for j, params in enumerate(settings) if params.n_d == n_d]
        widest = max(settings[j].s_n for j in group)
        sims = similarity_from_distance(dist[:, :widest], n_d, exp)
        for j in group:
            # Rows are descending (distances ascending); the first s_n
            # reversed, so the sum accumulates ascending values like the
            # reference scorer, and the smallest similarity comes first.
            prefix = sims[:, settings[j].s_n - 1 :: -1]
            least[j] = prefix[:, 0].min()
            scores[:, j] = prefix.sum(axis=1)
    return scores, least


def score_all_fast(data: Dataset, params: Params) -> ScoreReport:
    """Score every point via k-NN distances; same contract as the naive path.

    The one-setting case of `score_settings`, so the (q, s_n) distances
    are never held.

    Args:
        data: Validated dataset (q > 2, n >= 2, finite).
        params: Scoring knobs; requires s_n <= q - 1.

    Returns:
        ScoreReport matching score_all_naive up to floating-point noise,
        with the identical ranking tie rule.
    """
    return score_settings(data, [params])[0]

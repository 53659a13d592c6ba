import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from odac import (
    Dataset,
    InvalidTopR,
    Params,
    SimilarityUnderflow,
    SyntheticSpec,
    generate,
    score_all_fast,
    score_all_naive,
)
from odac import fast
from odac.fast import (
    NeighborIndex,
    neighbor_distances,
    scores_from_distances,
    similarity_from_distance,
)
from odac.naive import augment, cosine_similarity, observation_point

from conftest import grid_dataset, random_dataset


def test_transform_at_zero_distance():
    assert similarity_from_distance(0.0, 7.0) == 1.0
    assert similarity_from_distance(0.0, 1e-170) == 1.0


def test_transform_past_square_overflow():
    # (d / n_d)^2 overflows here; the similarity is still n_d / d.
    assert similarity_from_distance(1.0, 1e-170) == pytest.approx(1e-170, rel=1e-12, abs=0)


def test_transform_decreasing():
    d = np.linspace(0.0, 50.0, 200)
    s = similarity_from_distance(d, 5.0)
    assert np.all(np.diff(s) < 0)
    assert np.all((s > 0) & (s <= 1))


def index_on(path, points, monkeypatch):
    """A NeighborIndex forced onto the "tree" or the "brute" path."""
    monkeypatch.setattr(fast, "_TREE_MAX_DIM", points.shape[1] if path == "tree" else 0)
    index = NeighborIndex(points)
    assert index.method == path
    return index


class TestNeighborIndex:
    def test_collinear_two_nn(self):
        index = NeighborIndex(np.array([[0.0, 0], [1.0, 0], [3.0, 0]]))
        assert index.distances_all(2).tolist() == [
            [1.0, 3.0], [1.0, 2.0], [2.0, 3.0],
        ]

    def test_all_others_for_full_k(self, monkeypatch):
        rng = np.random.default_rng(21)
        points = random_dataset(rng, 9, 3).points
        pairwise = np.linalg.norm(points[:, None] - points[None], axis=2)
        expected = np.sort(pairwise, axis=1)[:, 1:]  # column 0 is self
        for path in ("tree", "brute"):
            got = index_on(path, points, monkeypatch).distances_all(8)
            np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_tied_distances(self, monkeypatch):
        # Four points at distance exactly 1 from the origin point.
        pts = np.array([[0.0, 0], [0, 1], [1, 0], [0, -1], [-1, 0], [5, 5]])
        for path in ("tree", "brute"):
            dist = index_on(path, pts, monkeypatch).distances_all(2)
            assert dist[0].tolist() == [1.0, 1.0]

    def test_duplicate_twin_is_a_neighbor_but_self_is_not(self, monkeypatch):
        pts = np.array([[2.0, 2.0], [2.0, 2.0], [9.0, 9.0], [2.0, 2.0]])
        for path in ("tree", "brute"):
            dist = index_on(path, pts, monkeypatch).distances_all(3)
            assert dist[1].tolist() == [0.0, 0.0, 7.0 * np.sqrt(2.0)]
            assert dist[2, 0] == 7.0 * np.sqrt(2.0)

    def test_tree_and_brute_agree(self, monkeypatch):
        rng = np.random.default_rng(22)
        points = random_dataset(rng, 80, 4).points
        np.testing.assert_allclose(
            index_on("tree", points, monkeypatch).distances_all(11),
            index_on("brute", points, monkeypatch).distances_all(11),
            rtol=1e-12,
        )

    def test_brute_blocks_agree_with_tree(self, monkeypatch):
        rng = np.random.default_rng(28)
        q = 3000
        assert fast._BRUTE_CELLS // q < q  # several blocks, the last one short
        points = random_dataset(rng, q, 4).points
        np.testing.assert_allclose(
            index_on("brute", points, monkeypatch).distances_all(7),
            index_on("tree", points, monkeypatch).distances_all(7),
            rtol=1e-12,
        )

    def test_high_dimension_selects_brute(self):
        rng = np.random.default_rng(23)
        assert NeighborIndex(random_dataset(rng, 10, 25).points).method == "brute"
        assert NeighborIndex(random_dataset(rng, 10, 4).points).method == "tree"

    def test_capacity(self):
        rng = np.random.default_rng(24)
        dist = neighbor_distances(random_dataset(rng, 10_000, 6), 5)
        assert dist.shape == (10_000, 5)
        assert np.all(np.diff(dist, axis=1) >= 0)

    def test_k_out_of_range(self, monkeypatch):
        rng = np.random.default_rng(25)
        points = random_dataset(rng, 6, 2).points
        for path in ("tree", "brute"):
            index = index_on(path, points, monkeypatch)
            for k in (0, 6):
                with pytest.raises(InvalidTopR):
                    index.distances_all(k)


class TestScoreAllFast:
    def test_three_point_example(self):
        data = Dataset(np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]]))
        report = score_all_fast(data, Params(n_d=1.0, s_n=2))
        np.testing.assert_allclose(
            report.scores,
            [0.8066105002075463, 0.817538307261394, 0.20993524509584544],
            atol=1e-14,
        )
        assert report.ranking.tolist() == [2, 0, 1]

    def test_identical_points(self):
        data = Dataset(np.tile([1.0, 2.0], (5, 1)))
        report = score_all_fast(data, Params(n_d=2.0, s_n=3))
        assert report.scores.tolist() == [3.0] * 5
        assert report.ranking.tolist() == list(range(5))

    def test_duplicate_at_tiny_n_d(self):
        # n_d * n_d underflows to 0 here; the twins must still see S = 1.
        data = Dataset(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [3.0, 0.0]]))
        report = score_all_fast(data, Params(n_d=1e-170, s_n=1))
        assert report.scores[:2].tolist() == [1.0, 1.0]
        # The others keep their true, tiny similarities n_d / d.
        np.testing.assert_allclose(report.scores[2:], [1e-170, 5e-171], rtol=1e-12)
        assert report.ranking.tolist() == [3, 2, 0, 1]

    def test_naive_agrees_at_tiny_n_d(self):
        data = Dataset(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 2.0]]))
        params = Params(n_d=1e-170, s_n=2)
        fast_report = score_all_fast(data, params)
        naive_report = score_all_naive(data, params)
        np.testing.assert_allclose(fast_report.scores, naive_report.scores, rtol=1e-9)
        assert fast_report.ranking.tolist() == naive_report.ranking.tolist() == [3, 2, 0, 1]

    def test_top_r_capped(self):
        data = Dataset(np.zeros((4, 2)))
        with pytest.raises(InvalidTopR):
            score_all_fast(data, Params(n_d=1.0, s_n=4))

    def test_matches_naive_on_random_data(self):
        rng = np.random.default_rng(26)
        for _ in range(10):
            q = int(rng.integers(10, 120))
            n = int(rng.integers(2, 8))
            data = random_dataset(rng, q, n)
            params = Params(
                n_d=float(rng.uniform(0.5, 200.0)),
                s_n=int(rng.integers(1, q)),
            )
            fast_report = score_all_fast(data, params)
            naive = score_all_naive(data, params)
            np.testing.assert_allclose(fast_report.scores, naive.scores, atol=1e-9)
            assert fast_report.ranking.tolist() == naive.ranking.tolist()

    def test_top_similarities_are_nearest_neighbors(self):
        """The top-s_n similarities of every point sit at its s_n nearest neighbors."""
        rng = np.random.default_rng(27)
        data = random_dataset(rng, 70, 4)
        s_n, n_d = 9, 12.0
        dist = neighbor_distances(data, s_n)
        aug = augment(data)
        for i in range(data.q):
            sims = cosine_similarity(observation_point(aug[i], n_d), aug[i], aug)
            sims[i] = -np.inf
            top = np.sort(sims)[::-1][:s_n]
            np.testing.assert_allclose(
                top, similarity_from_distance(dist[i], n_d), rtol=1e-12
            )


@given(
    # The coordinate scale and n_d, drawn jointly and log-uniform: the scale
    # over the normal range, n_d over every positive double, subnormals too,
    # so n_d / scale runs from about 1e-630 to 1e615.
    scale_exp=st.floats(-307.0, 307.0),
    nd_exp=st.floats(-323.0, 308.0),
    dim=st.sampled_from([3, 32]),  # the kd-tree path and the brute path
    seed=st.integers(0, 2**32 - 1),
    twins=st.integers(0, 3),
    shift=st.integers(-16, 16),
)
@example(scale_exp=0.0, nd_exp=-320.0, dim=3, seed=0, twins=0, shift=0)  # subnormal n_d
@example(scale_exp=160.0, nd_exp=159.7, dim=3, seed=0, twins=0, shift=3)
@example(scale_exp=-160.0, nd_exp=-160.3, dim=3, seed=0, twins=1, shift=-3)
@example(scale_exp=300.0, nd_exp=299.7, dim=32, seed=1, twins=0, shift=5)
@example(scale_exp=-300.0, nd_exp=-320.0, dim=3, seed=2, twins=2, shift=4)  # scored
@example(scale_exp=-307.0, nd_exp=308.0, dim=32, seed=3, twins=3, shift=0)  # saturated
@settings(max_examples=200, deadline=None)
def test_extreme_coordinate_scales(scale_exp, nd_exp, dim, seed, twins, shift):
    """Over the whole double range both scorers agree, or both reject.

    A draw is scored by both with scores in (0, s_n], equal within relative
    1e-9 and ranked alike up to float ties, or both raise the same
    SimilarityUnderflow. When the smallest similarity a point sums lies
    within relative 1e-9 of the smallest normal double, the scorers'
    rounding may put it on either side, so either may reject alone.
    """
    scale = 10.0**scale_exp
    # Coordinates in [scale, 2 * scale), so every input is a normal float.
    points = scale * np.random.default_rng(seed).uniform(1.0, 2.0, (8, dim))
    points[8 - twins :] = points[:twins]  # duplicate points
    data, params = Dataset(points), Params(n_d=10.0**nd_exp, s_n=3)
    outcomes = []
    for scorer in (score_all_fast, score_all_naive):
        try:
            outcomes.append(scorer(data, params))
        except SimilarityUnderflow as exc:
            outcomes.append(exc)
    report, naive = outcomes
    rejected = [isinstance(o, SimilarityUnderflow) for o in outcomes]
    if rejected[0] != rejected[1]:
        farthest = neighbor_distances(data, params.s_n)[:, -1].max()
        smallest = similarity_from_distance(farthest, params.n_d)
        tiny = np.finfo(float).tiny
        assert abs(smallest - tiny) <= 1e-9 * tiny
        return
    if rejected[0]:
        assert str(report) == str(naive)
        return
    assert np.all((report.scores > 0.0) & (report.scores <= params.s_n))
    np.testing.assert_allclose(report.scores, naive.scores, rtol=1e-9, atol=0)
    # Same ranking up to float ties: the oracle's scores, read in the
    # fast ranking's order, never fall by more than noise.
    assert np.all(np.diff(naive.scores[report.ranking]) >= -1e-9 * naive.scores.max())
    # Scaling data and n_d by one power of two changes no bit, while both
    # stay exact: coordinates and distances need 2^16 of headroom.
    factor = 2.0**shift
    if abs(scale_exp) <= 300 and params.n_d * factor / factor == params.n_d:
        scaled = score_all_fast(
            Dataset(points * factor), Params(n_d=params.n_d * factor, s_n=params.s_n)
        )
        assert np.array_equal(scaled.scores, report.scores)


class TestScoresFromDistances:
    def test_prefixes_match_score_all_fast(self):
        # Both scorers score a block with `_row_scores`, so they agree bit
        # for bit. q = 1,000 in 25-D takes the brute path.
        rng = np.random.default_rng(29)
        for q, dim in ((90, 3), (1_000, 25)):
            data = random_dataset(rng, q, dim)
            dist = neighbor_distances(data, 30)
            for s in (1, 2, 7, 30):
                params = Params(n_d=6.0, s_n=s)
                expected = score_all_fast(data, params)
                for columns in (dist, dist[:, :s]):
                    got = scores_from_distances(columns, params)
                    assert np.array_equal(got.scores, expected.scores)
                    assert got.ranking.tolist() == expected.ranking.tolist()

    def test_s_n_beyond_columns(self):
        rng = np.random.default_rng(30)
        dist = neighbor_distances(random_dataset(rng, 20, 2), 5)
        with pytest.raises(InvalidTopR):
            scores_from_distances(dist, Params(n_d=1.0, s_n=6))

    def test_dist_is_not_modified(self):
        rng = np.random.default_rng(30)
        dist = neighbor_distances(random_dataset(rng, 40, 3), 6)
        before = dist.copy()
        dist.setflags(write=False)  # an in-place write would raise
        scores_from_distances(dist, Params(n_d=2.0, s_n=5))
        assert np.array_equal(dist, before)


def estimate_rows(kind, q, rows=5, seed=0):
    """(rows, q) stand-ins for the brute scan's squared-distance estimates."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.standard_normal((rows, q))
    if kind == "duplicates":  # four values: ties everywhere, at the cut too
        return rng.integers(0, 4, size=(rows, q)).astype(float)
    # Squared distances on an integer grid: small sums of squares, many ties.
    return (rng.integers(-3, 4, size=(rows, q, 3)) ** 2).sum(axis=2).astype(float)


class TestSmallest:
    """`_smallest` picks the same values as one `np.argpartition` of the row."""

    @staticmethod
    def check(estimates, width):
        # Pad the columns as NeighborIndex pads its points: inf estimates.
        rows, q = estimates.shape
        approx = np.hstack([estimates, np.full((rows, -q % fast._SLICES), np.inf)])
        cand = fast._smallest(approx, width)
        reference = np.partition(estimates, width - 1, axis=1)[:, :width]
        chosen = np.take_along_axis(approx, cand, axis=1)
        assert cand.shape == (rows, width)
        assert (cand < q).all()  # the padding is never a candidate
        assert all(len(set(row)) == width for row in cand.tolist())
        assert np.array_equal(np.sort(chosen, axis=1), np.sort(reference, axis=1))
        assert np.array_equal(chosen[:, -1], reference.max(axis=1))  # the cut is last

    # q not a multiple of 8; q just below, at and above 8 width = 112, where
    # 8 slices first fit (q = 104 takes 4 slices, 105 pads to 112); and
    # small rows of 1 and 2 slices.
    @pytest.mark.parametrize("q", [14, 29, 61, 104, 105, 111, 112, 113, 1001])
    @pytest.mark.parametrize("kind", ["random", "duplicates", "grid"])
    def test_matches_argpartition(self, kind, q):
        self.check(estimate_rows(kind, q, seed=q), min(14, q))

    @pytest.mark.parametrize("width", [1, 3, 8])
    def test_all_smallest_in_one_stride_class(self, width):
        # Columns 5, 5 + g, ..., 5 + 7g hold the 8 smallest estimates: one
        # group, whose minimum alone would stand for all of them.
        q = 1000
        g = q // fast._SLICES
        row = np.random.default_rng(width).uniform(10.0, 20.0, size=(1, q))
        row[0, 5::g] = np.arange(fast._SLICES)[::-1]
        self.check(row, width)

    @pytest.mark.parametrize("width", [3, 14])
    def test_smallest_in_distinct_groups(self, width):
        # The width smallest estimates sit in width different groups, so
        # each kept group holds one of them.
        q = 1000
        row = np.random.default_rng(width).uniform(10.0, 20.0, size=(1, q))
        row[0, :width] = np.arange(width)[::-1]
        self.check(row, width)


class TestBlockedPass:
    """The k-NN pass and the transform at block sizes a test can reach."""

    @pytest.fixture
    def queries(self, monkeypatch):
        """Shrink the tree blocks to 7 rows and record every query's size."""
        calls = []
        query = NeighborIndex._query

        def recording_query(index, block, m):
            dist = query(index, block, m)
            calls.append(len(dist))  # pool threads append in any order
            return dist

        monkeypatch.setattr(fast, "_BLOCK", 7)
        monkeypatch.setattr(NeighborIndex, "_query", recording_query)
        return calls

    @pytest.fixture
    def scans(self, monkeypatch):
        """Force the brute path at 100 cells per block and record every block's rows."""
        calls = []
        scan = NeighborIndex._scan

        def recording_scan(index, block, m):
            calls.append(len(block))
            return scan(index, block, m)

        monkeypatch.setattr(fast, "_TREE_MAX_DIM", 0)
        monkeypatch.setattr(fast, "_BRUTE_CELLS", 100)
        monkeypatch.setattr(NeighborIndex, "_scan", recording_scan)
        return calls

    @pytest.fixture
    def rescans(self, monkeypatch):
        """Force the brute path and record the rows of every exact rescan."""
        calls = []

        def recording_rescan(rows, points, m):
            calls.append(len(rows))
            return nearest_exact(rows, points, m)

        nearest_exact = fast._nearest_exact
        monkeypatch.setattr(fast, "_TREE_MAX_DIM", 0)
        monkeypatch.setattr(fast, "_nearest_exact", recording_rescan)
        return calls

    @staticmethod
    def sorted_cdist(points, k):
        return np.sort(cdist(points, points), axis=1)[:, 1 : k + 1]

    @staticmethod
    def points_with_twin(q):
        points = random_dataset(np.random.default_rng(q), q, 3).points.copy()
        points[q // 2] = points[0]  # a duplicate twin
        return points

    @pytest.mark.parametrize("q", [7, 29, 36])  # one block; a short last one; a 1-row last one
    def test_blocks_match_unblocked_input_order_query(self, queries, q):
        points = self.points_with_twin(q)
        k = min(5, q - 1)
        params = Params(n_d=3.0, s_n=k)
        reference = cKDTree(points).query(points, k=k + 1)[0][:, 1:]
        sims = similarity_from_distance(reference, params.n_d)
        reference_scores = sims[:, ::-1].sum(axis=1)

        dist = NeighborIndex(points).distances_all(k)
        assert np.array_equal(dist, reference)
        assert np.array_equal(score_all_fast(Dataset(points), params).scores, reference_scores)
        assert sorted(queries) == sorted(2 * ([7] * (q // 7) + ([q % 7] if q % 7 else [])))

    @staticmethod
    def tree_scene(name):
        if name == "ball_and_shell":  # three blocks of rows
            spec = SyntheticSpec(dim=4, normal_count=9_900, anomaly_count=100, seed=5)
            return generate(spec).data.points
        if name == "grid":  # 3,000 points on 4,096 cells: duplicates and ties
            return grid_dataset(np.random.default_rng(32), 3_000, 3, step=1.0, span=8).points
        # Points 2^-1 ... 2^-1000 apart on a line: each sliding-midpoint split
        # peels off a point or two, so the tree is about 1,000 levels deep,
        # and past 2^-538 the squared differences underflow to 0.
        x = 2.0 ** -np.arange(1, 1001)
        return np.column_stack([x, np.zeros_like(x)])

    @pytest.mark.parametrize("name", ["ball_and_shell", "grid", "geometric"])
    def test_tree_matches_unblocked_default_tree(self, name):
        # The tree's shape decides which pairs a query visits, not how a
        # pair's distance is computed, so the k smallest are the same bits.
        points = self.tree_scene(name)
        k = 20
        index = NeighborIndex(points)
        assert index.method == "tree"
        reference = cKDTree(points).query(points, k + 1)[0][:, 1:]
        assert np.array_equal(index.distances_all(k), reference)

    @staticmethod
    def points_in_two_classes(q, k):
        """Random points, but for a cluster in two groups of the candidate pre-selection.

        Point 0 and, for the slice length g `_smallest` uses at this q and
        k, every column 1 + j g and 2 + j g form a tight cluster far from
        the rest. So each of their rows has its m + _SPARE smallest
        estimates in as few groups as the group size allows.
        """
        width = min(k + 1 + fast._SPARE, q)
        cols = q + -q % fast._SLICES
        slices = fast._slice_count(cols, width)
        g = cols // slices
        rng = np.random.default_rng(q)
        points = rng.uniform(100.0, 200.0, size=(q, 3))
        cluster = [0] + [c + j * g for c in (1, 2) for j in range(slices) if c + j * g < q]
        points[cluster] = rng.uniform(0.0, 1.0, size=(len(cluster), 3))
        return points

    # One block; 3-row blocks; 2-row blocks; then q just below, at and
    # above 8 (m + _SPARE) = 112, where 8 slices first fit, in 1-row blocks.
    @pytest.mark.parametrize("q", [7, 29, 36, 104, 105, 111, 112, 113])
    def test_brute_blocks_match_unblocked_distances(self, scans, q):
        k = min(5, q - 1)
        for points in (self.points_with_twin(q), self.points_in_two_classes(q, k)):
            reference = self.sorted_cdist(points, k)
            assert np.array_equal(NeighborIndex(points).distances_all(k), reference)
        assert sum(scans) == 2 * q
        assert max(scans) == min(q, max(1, fast._BRUTE_CELLS // q))

    def test_ties_at_the_cut_are_rescanned(self, rescans):
        # The origin and the 24 unit vectors of 24-D: the origin has all
        # others at 1, and each unit vector the origin at 1 and 23 others at
        # sqrt(2). So every row's 6th nearest ties its 14th candidate, and
        # all 25 rows are rescanned in one batch.
        points = np.vstack([np.zeros(24), np.eye(24)])
        dist = NeighborIndex(points).distances_all(5)
        assert np.array_equal(dist, self.sorted_cdist(points, 5))
        assert rescans == [25]

    @given(
        dim=st.sampled_from([2, 6, 25, 33]),
        scales=st.sampled_from(["offset", "mixed"]),
        q=st.integers(2, 80),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_rescan_is_cdist_bit_for_bit(self, dim, scales, q, seed):
        # Random differences round differently in another summation order,
        # so these catch a change of order where the unit vectors, whose
        # squares are exact, cannot.
        rng = np.random.default_rng(seed)
        points = rng.uniform(-1.0, 1.0, size=(q, dim))
        if scales == "offset":
            points += 1e6
        else:  # every column, and every point, at a scale of its own
            points *= 10.0 ** rng.uniform(-6, 6, size=dim)
            points *= 10.0 ** rng.uniform(-3, 3, size=(q, 1))
        rows = points[rng.integers(0, q, size=rng.integers(1, 9))]
        m = int(rng.integers(1, q + 1))
        expected = np.sort(cdist(rows, points), axis=1)[:, :m]
        assert np.array_equal(fast._nearest_exact(rows, points, m), expected)

    def test_translated_scene_is_exact_without_rescan(self, rescans, monkeypatch):
        # Centring keeps the expanded formula's rounding at the scale of the
        # spread (1), not of the offset (1e6), where no margin would clear it.
        monkeypatch.setattr(fast, "_BRUTE_CELLS", 300 * 37)
        points = np.random.default_rng(31).uniform(size=(300, 32)) + 1e6
        dist = NeighborIndex(points).distances_all(7)
        assert np.array_equal(dist, self.sorted_cdist(points, 7))
        assert rescans == []

    @pytest.mark.parametrize("q", [3, 9, 14])  # q <= k + 1 + _SPARE: every point a candidate
    def test_every_point_a_candidate(self, rescans, q):
        points = np.vstack([np.zeros(24), np.eye(24)])[:q]  # ties at every cut
        k = min(5, q - 1)
        assert k + 1 + fast._SPARE >= q
        dist = NeighborIndex(points).distances_all(k)
        assert np.array_equal(dist, self.sorted_cdist(points, k))
        assert rescans == []

    @pytest.mark.parametrize("path", ["tree", "brute"])
    def test_streamed_scores_match_two_step(self, monkeypatch, path):
        # 7-row tree blocks or 3-row brute blocks: score_all_fast scores
        # each block as the pass yields it, and must give the bits of
        # scoring the whole (q, s_n) distance array afterwards.
        monkeypatch.setattr(fast, "_BLOCK", 7)
        monkeypatch.setattr(fast, "_BRUTE_CELLS", 300)
        points = self.points_with_twin(100)
        points[60:64] = points[7]  # four more copies of one point
        data = Dataset(points)
        assert index_on(path, points, monkeypatch).method == path
        for s_n in (1, 6, 99):  # 99: every other point is a neighbor
            params = Params(n_d=3.0, s_n=s_n)
            two_step = scores_from_distances(neighbor_distances(data, s_n), params)
            assert np.array_equal(score_all_fast(data, params).scores, two_step.scores)

    @pytest.mark.parametrize("path", ["tree", "brute"])
    def test_underflow_only_in_the_last_block(self, monkeypatch, path):
        # 29 points in the unit square and, last, one 1e10 away. At
        # n_d = 1e-300 only that point's similarities (about 1e-310) are
        # subnormal, and it is taken in the last of five blocks. The tree
        # pass queries its blocks on a pool of 3 threads, more than the
        # blocks left when the last is scored: the error must still reach
        # the caller, and every pool thread be gone when it does.
        points = np.vstack([np.random.default_rng(33).uniform(size=(29, 2)), [1e10, 0.0]])
        monkeypatch.setattr(fast, "_BLOCK", 7)
        monkeypatch.setattr(fast, "_BRUTE_CELLS", 7 * len(points))
        monkeypatch.setattr(fast, "_cpus", lambda: 3)
        index = index_on(path, points, monkeypatch)
        far = len(points) - 1
        order = np.arange(len(points)) if path == "brute" else index._order
        assert np.flatnonzero(order == far)[0] >= 28  # blocks of 7: rows 28 and 29 last
        params = Params(n_d=1e-300, s_n=2)
        dist = index.distances_all(params.s_n)
        sims = similarity_from_distance(dist[:, -1], params.n_d)
        assert np.flatnonzero(sims < np.finfo(float).tiny).tolist() == [far]
        threads = threading.active_count()
        # The error is held, and its traceback with the pass's frame, while
        # the threads are counted.
        with pytest.raises(SimilarityUnderflow) as raised:
            score_all_fast(Dataset(points), params)
        assert threading.active_count() == threads, raised
        with pytest.raises(SimilarityUnderflow):
            scores_from_distances(dist, params)

    @pytest.mark.parametrize("k", [1, 199])  # the nearest; every other point
    def test_pooled_pass_matches_serial(self, monkeypatch, k):
        # A clustered scene with duplicate twins, in 7-row tree blocks:
        # queried on a pool of 4 threads, more than the cores, the
        # distances and scores are the bits of the pass on one thread.
        points = generate(SyntheticSpec(dim=6, normal_count=190, anomaly_count=10, seed=6))
        points = points.data.points.copy()
        points[150:160] = points[:10]
        data, params = Dataset(points), Params(n_d=0.5, s_n=k)
        monkeypatch.setattr(fast, "_BLOCK", 7)
        callers = set()
        query = NeighborIndex._query

        def recording_query(index, block, m):
            callers.add(threading.get_ident())
            return query(index, block, m)

        monkeypatch.setattr(NeighborIndex, "_query", recording_query)
        results = {}
        for cpus in (1, 4):
            monkeypatch.setattr(fast, "_cpus", lambda: cpus)
            callers.clear()
            results[cpus] = (
                NeighborIndex(points).distances_all(k),
                score_all_fast(data, params).scores,
            )
            assert (callers == {threading.get_ident()}) == (cpus == 1)
        for serial, pooled in zip(results[1], results[4]):
            assert np.array_equal(serial, pooled)

    @pytest.mark.parametrize("path", ["tree", "brute"])
    def test_underflowing_difference_reads_as_a_twin(self, monkeypatch, path):
        # Points 0 and 1 differ by 1e-200, whose square underflows, so their
        # distance is 0 as for the duplicate twin 2. Two-row blocks split them.
        points = np.array([[1.0, 0], [1.0, 1e-200], [1.0, 0], [4.0, 4], [1.0, -3]])
        monkeypatch.setattr(fast, "_BLOCK", 2)
        monkeypatch.setattr(fast, "_BRUTE_CELLS", 2 * len(points))
        dist = index_on(path, points, monkeypatch).distances_all(3)
        assert dist.tolist() == [
            [0.0, 0.0, 3.0],
            [0.0, 0.0, 3.0],
            [0.0, 0.0, 3.0],
            [5.0, 5.0, 5.0],
            [3.0, 3.0, 3.0],
        ]


def test_score_all_fast_never_holds_the_distance_array():
    # The pass hands each block's distances to the transform, so the
    # (q, s_n) float64 array, 30.5 MiB here, is never allocated.
    q, s_n = 100_000, 40
    data = Dataset(np.random.default_rng(34).uniform(size=(q, 2)))
    tracemalloc.start()
    try:
        score_all_fast(data, Params(n_d=0.01, s_n=s_n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < q * s_n * 8 / 2

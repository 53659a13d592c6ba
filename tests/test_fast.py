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
        rng = np.random.default_rng(29)
        data = random_dataset(rng, 90, 3)
        dist = neighbor_distances(data, 30)
        for s in (1, 2, 7, 30):
            params = Params(n_d=6.0, s_n=s)
            expected = score_all_fast(data, params)
            for columns in (dist, dist[:, :s]):
                got = scores_from_distances(columns, params)
                np.testing.assert_allclose(got.scores, expected.scores, rtol=1e-12)
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


class TestBlockedPass:
    """The k-NN pass and the transform at block sizes a test can reach."""

    @pytest.fixture
    def queries(self, monkeypatch):
        """Shrink the tree blocks to 7 rows and record every query's size."""
        calls = []

        class RecordingTree(fast.cKDTree):
            def query(self, x, *args, **kwargs):
                calls.append(len(x))
                return super().query(x, *args, **kwargs)

        monkeypatch.setattr(fast, "_BLOCK", 7)
        monkeypatch.setattr(fast, "cKDTree", RecordingTree)
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
        assert queries == 2 * ([7] * (q // 7) + ([q % 7] if q % 7 else []))

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

    @pytest.mark.parametrize("q", [7, 29, 36])  # one block; 3-row blocks; 2-row blocks
    def test_brute_blocks_match_unblocked_distances(self, scans, q):
        points = self.points_with_twin(q)
        k = min(5, q - 1)
        reference = self.sorted_cdist(points, k)

        assert np.array_equal(NeighborIndex(points).distances_all(k), reference)
        assert sum(scans) == q
        assert max(scans) <= fast._BRUTE_CELLS // q

    def test_ties_at_the_cut_are_rescanned(self, rescans):
        # The origin and the 24 unit vectors of 24-D: the origin has all
        # others at 1, and each unit vector the origin at 1 and 23 others at
        # sqrt(2). So every row's 6th nearest ties its 14th candidate, and
        # all 25 rows are rescanned in one batch.
        points = np.vstack([np.zeros(24), np.eye(24)])
        dist = NeighborIndex(points).distances_all(5)
        assert np.array_equal(dist, self.sorted_cdist(points, 5))
        assert rescans == [25]

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

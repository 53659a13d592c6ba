import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from odac import Dataset, InvalidTopR, Params, score_all_fast, score_all_naive
from odac import fast
from odac.fast import (
    NeighborIndex,
    neighbor_distances,
    scores_from_distances,
    similarity_from_distance,
)
from odac.naive import augment, cosine_similarity, observation_point

from conftest import random_dataset


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


class TestNeighborIndex:
    def test_collinear_two_nn(self):
        index = NeighborIndex(np.array([[0.0, 0], [1.0, 0], [3.0, 0]]))
        assert index.distances_all(2).tolist() == [
            [1.0, 3.0], [1.0, 2.0], [2.0, 3.0],
        ]

    def test_all_others_for_full_k(self):
        rng = np.random.default_rng(21)
        points = random_dataset(rng, 9, 3).points
        pairwise = np.linalg.norm(points[:, None] - points[None], axis=2)
        expected = np.sort(pairwise, axis=1)[:, 1:]  # column 0 is self
        for method in ("tree", "brute"):
            got = NeighborIndex(points, method=method).distances_all(8)
            np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_tied_distances(self):
        # Four points at distance exactly 1 from the origin point.
        pts = np.array([[0.0, 0], [0, 1], [1, 0], [0, -1], [-1, 0], [5, 5]])
        for method in ("tree", "brute"):
            dist = NeighborIndex(pts, method=method).distances_all(2)
            assert dist[0].tolist() == [1.0, 1.0]

    def test_duplicate_twin_is_a_neighbor_but_self_is_not(self):
        pts = np.array([[2.0, 2.0], [2.0, 2.0], [9.0, 9.0], [2.0, 2.0]])
        for method in ("tree", "brute"):
            dist = NeighborIndex(pts, method=method).distances_all(3)
            assert dist[1].tolist() == [0.0, 0.0, 7.0 * np.sqrt(2.0)]
            assert dist[2, 0] == 7.0 * np.sqrt(2.0)

    def test_tree_and_brute_agree(self):
        rng = np.random.default_rng(22)
        points = random_dataset(rng, 80, 4).points
        np.testing.assert_allclose(
            NeighborIndex(points, method="tree").distances_all(11),
            NeighborIndex(points, method="brute").distances_all(11),
            rtol=1e-12,
        )

    def test_brute_blocks_agree_with_tree(self):
        rng = np.random.default_rng(28)
        q = 3000
        assert fast._BRUTE_CELLS // q < q  # several blocks, the last one short
        points = random_dataset(rng, q, 4).points
        np.testing.assert_allclose(
            NeighborIndex(points, method="brute").distances_all(7),
            NeighborIndex(points, method="tree").distances_all(7),
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

    def test_k_out_of_range(self):
        rng = np.random.default_rng(25)
        points = random_dataset(rng, 6, 2).points
        for method in ("tree", "brute"):
            index = NeighborIndex(points, method=method)
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
    exponent=st.floats(-300.0, 300.0),
    nd_ratio=st.floats(0.05, 20.0),
    dim=st.sampled_from([3, 32]),  # the kd-tree path and the brute path
    seed=st.integers(0, 2**32 - 1),
    shift=st.integers(-16, 16),
)
@example(exponent=160.0, nd_ratio=0.5, dim=3, seed=0, shift=3)
@example(exponent=-160.0, nd_ratio=0.5, dim=3, seed=0, shift=-3)
@example(exponent=300.0, nd_ratio=0.5, dim=32, seed=1, shift=5)
@settings(max_examples=100, deadline=None)
def test_extreme_coordinate_scales(exponent, nd_ratio, dim, seed, shift):
    """From 1e-300 to 1e300 scores stay in (0, s_n] and match the oracle."""
    scale = 10.0**exponent
    # Coordinates in [scale, 2 * scale), so every input is a normal float.
    points = scale * np.random.default_rng(seed).uniform(1.0, 2.0, (8, dim))
    params = Params(n_d=nd_ratio * scale, s_n=3)
    report = score_all_fast(Dataset(points), params)
    assert np.all((report.scores > 0.0) & (report.scores <= params.s_n))
    naive = score_all_naive(Dataset(points), params)
    np.testing.assert_allclose(report.scores, naive.scores, rtol=1e-9, atol=0)
    # Same ranking up to float ties: the oracle's scores, read in the
    # fast ranking's order, never fall by more than noise.
    assert np.all(np.diff(naive.scores[report.ranking]) >= -1e-9 * params.s_n)
    # Scaling data and n_d by one power of two changes no bit.
    factor = 2.0**shift
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

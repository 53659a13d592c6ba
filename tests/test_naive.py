import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odac import Dataset, InvalidTopR, Params, score_all_naive
from odac.fast import similarity_from_distance
from odac.naive import augment, cosine_similarity, observation_point

from conftest import grid_dataset, random_dataset

# Brute-force reference values for {(0,0), (1,0), (10,0)}, n_d=1, s_n=2,
# frozen from an independent scalar-arithmetic evaluation of the
# similarity formula (sums of 1/sqrt(2), 1/sqrt(82), 1/sqrt(101)).
THREE_POINTS = Dataset(np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]]))
THREE_POINT_SCORES = [0.8066105002075463, 0.817538307261394, 0.20993524509584544]


class TestAugment:
    def test_appends_zero(self):
        data = Dataset(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        aug = augment(data)
        assert aug[0].tolist() == [1.0, 2.0, 0.0]

    def test_zero_vector(self):
        data = Dataset(np.zeros((3, 3)))
        assert augment(data)[1].tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_shape(self):
        rng = np.random.default_rng(0)
        data = random_dataset(rng, 17, 5)
        assert augment(data).shape == (17, 6)


class TestObservationPoint:
    def test_offset_80(self):
        out = observation_point(np.array([1.0, 2.0, 0.0]), 80.0)
        assert out.tolist() == [1.0, 2.0, 80.0]

    def test_origin(self):
        assert observation_point(np.zeros(3), 1.0).tolist() == [0.0, 0.0, 1.0]

    def test_offset_200(self):
        out = observation_point(np.array([5.0, 5.0, 5.0, 0.0]), 200.0)
        assert out.tolist() == [5.0, 5.0, 5.0, 200.0]

    def test_input_left_untouched(self):
        measured = np.array([1.0, 0.0])
        observation_point(measured, 2.0)
        assert measured[-1] == 0.0

    def test_rejects_lifted_input(self):
        with pytest.raises(ValueError):
            observation_point(np.array([1.0, 2.0, 3.0]), 80.0)


class TestCosineSimilarity:
    def _sim(self, xi, xj, n_d):
        xi = np.append(np.asarray(xi, float), 0.0)
        xj = np.append(np.asarray(xj, float), 0.0)
        return cosine_similarity(observation_point(xi, n_d), xi, xj)

    def test_three_four_five(self):
        assert self._sim([0, 0, 0], [3, 4, 0], 5.0) == pytest.approx(
            0.7071067811865475, abs=1e-15
        )

    def test_duplicate_is_exactly_one(self):
        assert self._sim([2.5, -1.5], [2.5, -1.5], 7.0) == 1.0

    def test_unit_distance(self):
        assert self._sim([0, 0, 0], [1, 0, 0], 1.0) == pytest.approx(
            0.7071067811865475, abs=1e-15
        )

    def test_vanishes_with_distance(self):
        values = [self._sim([0.0, 0.0], [d, 0.0], 1.0) for d in (1e2, 1e4, 1e6)]
        assert values[0] > values[1] > values[2] > 0.0

    def test_matrix_rows_match_single_calls(self):
        # One similarity per row, bit for bit what a single call returns.
        rng = np.random.default_rng(17)
        aug = augment(random_dataset(rng, 20, 4))
        o = observation_point(aug[3], 6.0)
        sims = cosine_similarity(o, aug[3], aug)
        assert sims.shape == (20,)
        assert sims[3] == 1.0
        assert sims.tolist() == [cosine_similarity(o, aug[3], x) for x in aug]

    @given(
        st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=8),
        st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=8),
        st.floats(1e-3, 1e3),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_distance_transform(self, xi, xj, n_d):
        """The literal formula collapses to n_d / sqrt(d^2 + n_d^2)."""
        size = min(len(xi), len(xj))
        xi, xj = np.asarray(xi[:size]), np.asarray(xj[:size])
        literal = self._sim(xi, xj, n_d)
        closed = similarity_from_distance(np.linalg.norm(xi - xj), n_d)
        assert literal == pytest.approx(closed, rel=1e-12)
        assert 0.0 < literal <= 1.0


class TestScorePoint:
    """One point's score, read from its row of score_all_naive."""

    def test_far_point(self):
        report = score_all_naive(THREE_POINTS, Params(n_d=1.0, s_n=2))
        assert report.scores[2] == pytest.approx(THREE_POINT_SCORES[2], abs=1e-14)

    def test_near_point(self):
        report = score_all_naive(THREE_POINTS, Params(n_d=1.0, s_n=2))
        assert report.scores[0] == pytest.approx(THREE_POINT_SCORES[0], abs=1e-14)

    def test_full_s_n_sums_everything(self):
        rng = np.random.default_rng(3)
        data = random_dataset(rng, 12, 3)
        aug = augment(data)
        params = Params(n_d=5.0, s_n=11)
        scores = score_all_naive(data, params).scores
        for i in (0, 7):
            o = observation_point(aug[i], params.n_d)
            sims = [
                cosine_similarity(o, aug[i], aug[j]) for j in range(12) if j != i
            ]
            assert scores[i] == pytest.approx(sum(sorted(sims)), abs=1e-12)

    def test_top_r_capped(self):
        with pytest.raises(InvalidTopR):
            score_all_naive(THREE_POINTS, Params(n_d=1.0, s_n=3))


class TestScoreAll:
    def test_three_point_ranking(self):
        report = score_all_naive(THREE_POINTS, Params(n_d=1.0, s_n=2))
        np.testing.assert_allclose(report.scores, THREE_POINT_SCORES, atol=1e-14)
        assert report.ranking.tolist() == [2, 0, 1]

    def test_identical_points(self):
        data = Dataset(np.tile([4.0, -2.0, 7.0], (6, 1)))
        report = score_all_naive(data, Params(n_d=3.0, s_n=4))
        assert report.scores.tolist() == [4.0] * 6  # every similarity is 1
        assert report.ranking.tolist() == list(range(6))

    def test_translation_bit_identical(self):
        # Grid-valued data: adding a grid-multiple offset is exact in
        # binary floating point, so scores must not move at all.
        rng = np.random.default_rng(11)
        data = grid_dataset(rng, 40, 3)
        params = Params(n_d=2.0, s_n=7)
        baseline = score_all_naive(data, params)
        shifted = Dataset(data.points + np.array([37.5, -128.0, 0.25]))
        report = score_all_naive(shifted, params)
        assert np.array_equal(report.scores, baseline.scores)
        assert np.array_equal(report.ranking, baseline.ranking)

    def test_joint_scale_invariance(self):
        rng = np.random.default_rng(12)
        data = random_dataset(rng, 50, 4)
        base = score_all_naive(data, Params(n_d=3.0, s_n=10))
        for c in (0.125, 3.7, 640.0):
            scaled = score_all_naive(
                Dataset(data.points * c), Params(n_d=3.0 * c, s_n=10)
            )
            np.testing.assert_allclose(scaled.scores, base.scores, rtol=1e-12)
            assert np.array_equal(scaled.ranking, base.ranking)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(13)
        data = random_dataset(rng, 30, 3)
        params = Params(n_d=4.0, s_n=6)
        perm = rng.permutation(30)
        base = score_all_naive(data, params)
        permuted = score_all_naive(Dataset(data.points[perm]), params)
        assert np.array_equal(permuted.scores, base.scores[perm])

    def test_similarity_order_follows_distance_order(self):
        rng = np.random.default_rng(14)
        data = random_dataset(rng, 60, 5)
        aug = augment(data)
        for i in (0, 31):
            o = observation_point(aug[i], 9.0)
            sims = np.delete(cosine_similarity(o, aug[i], aug), i)
            dists = np.delete(
                np.linalg.norm(data.points - data.points[i], axis=1), i
            )
            by_distance = sims[np.argsort(dists)]
            assert np.all(np.diff(by_distance) <= 0)

    def test_large_n_d_flattens_scores(self):
        # Data spread ~1 so n_d = 1 already sits past the spread peak at
        # n_d ~ neighbor distance; from there the spread only shrinks.
        rng = np.random.default_rng(15)
        data = random_dataset(rng, 40, 4, scale=0.5)
        spreads = []
        for n_d in (1.0, 10.0, 100.0, 1000.0):
            scores = score_all_naive(data, Params(n_d=n_d, s_n=8)).scores
            spreads.append(scores.max() - scores.min())
        assert spreads == sorted(spreads, reverse=True)

    def test_scores_within_range(self):
        rng = np.random.default_rng(16)
        data = random_dataset(rng, 35, 3)
        params = Params(n_d=2.5, s_n=9)
        scores = score_all_naive(data, params).scores
        assert np.all(scores > 0.0)
        assert np.all(scores <= params.s_n)

import numpy as np
import pytest

from odac import (
    Dataset,
    LabeledDataset,
    Params,
    ScoreReport,
    NonFiniteValue,
    TooFewDimensions,
    TooFewPoints,
)
from odac.types import ascending_ranking, validate_dataset


class TestValidateDataset:
    def test_minimum_legal_size_accepted(self):
        data = Dataset(np.zeros((3, 2)))
        assert validate_dataset(data) is data

    def test_two_points_rejected(self):
        with pytest.raises(TooFewPoints):
            validate_dataset(Dataset(np.zeros((2, 2))))

    def test_one_dimension_rejected(self):
        with pytest.raises(TooFewDimensions):
            validate_dataset(Dataset(np.zeros((5, 1))))

    def test_nan_located(self):
        pts = np.zeros((10, 5))
        pts[3, 1] = np.nan
        with pytest.raises(NonFiniteValue) as err:
            validate_dataset(Dataset(pts))
        assert (err.value.row, err.value.column) == (3, 1)

    def test_infinity_rejected(self):
        pts = np.ones((4, 3))
        pts[0, 2] = np.inf
        with pytest.raises(NonFiniteValue):
            validate_dataset(Dataset(pts))


class TestDataset:
    def test_shape_properties(self):
        data = Dataset(np.zeros((7, 4)))
        assert (data.q, data.n) == (7, 4)

    def test_points_frozen(self):
        data = Dataset(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            data.points[0, 0] = 1.0

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros(5))

    def test_copies_input(self):
        raw = np.zeros((3, 2))
        data = Dataset(raw)
        raw[0, 0] = 9.0
        assert data.points[0, 0] == 0.0


class TestParams:
    def test_defaults_are_canonical(self):
        params = Params()
        assert params.n_d == 80.0
        assert params.s_n == 40

    @pytest.mark.parametrize("n_d", [0.0, -1.0, -80.0, np.nan, np.inf])
    def test_rejects_bad_n_d(self, n_d):
        with pytest.raises(ValueError):
            Params(n_d=n_d)

    @pytest.mark.parametrize("s_n", [0, -3, 2.5])
    def test_rejects_bad_s_n(self, s_n):
        with pytest.raises(ValueError):
            Params(s_n=s_n)


class TestScoreReport:
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_scores_must_be_finite(self, bad):
        with pytest.raises(ValueError):
            ScoreReport([1.0, bad, 3.0])

    def test_tie_break_by_index(self):
        scores = np.array([0.5, 0.2, 0.5, 0.1])
        assert ascending_ranking(scores).tolist() == [3, 1, 0, 2]

    def test_ranking_derived_with_tie_rule(self):
        report = ScoreReport([0.5, 0.2, 0.5, 0.1])
        assert report.ranking.tolist() == [3, 1, 0, 2]
        with pytest.raises(ValueError):
            report.ranking[0] = 1  # frozen like the scores

    def test_rank_positions_inverts_ranking(self):
        report = ScoreReport([0.3, 0.1, 0.2])
        assert report.rank_positions().tolist() == [3, 1, 2]


class TestLabeledDataset:
    def test_counts(self):
        labeled = LabeledDataset(
            Dataset(np.zeros((4, 2))), [False, True, False, True]
        )
        assert labeled.outlier_count == 2
        assert labeled.outlier_indices.tolist() == [1, 3]

    def test_flag_length_checked(self):
        with pytest.raises(ValueError):
            LabeledDataset(Dataset(np.zeros((4, 2))), [True, False])

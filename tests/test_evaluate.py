import io
from dataclasses import replace

import numpy as np
import pytest

from odac import (
    Dataset,
    LabeledDataset,
    NoOutliersLabeled,
    Params,
    ScoreReport,
    SyntheticSpec,
    donor_trials_accuracy,
    generate,
    percentile_recall,
    run_trials,
    score_all_fast,
    score_all_naive,
    sweep,
)
from odac.evaluate import (
    EvalReport,
    SweepReport,
    enumerate_outlier_trials,
    exact_set_accuracy,
    worst_outlier_rank,
)
from odac.fast import NeighborIndex


def separated_scene(seed=0, anomalies=4):
    return generate(
        SyntheticSpec(
            dim=3, normal_count=60, anomaly_count=anomalies,
            shell_min=2.0, shell_max=3.0, seed=seed,
        )
    )


def fixed_scorer(scores):
    """A stub scorer returning canned scores, for protocol-only tests."""

    def scorer(data, params):
        return ScoreReport(scores)

    return scorer


class TestExactSet:
    def test_separated_scene_succeeds(self):
        labeled = separated_scene()
        assert exact_set_accuracy(labeled, Params(n_d=5.0, s_n=10)) is True

    def test_planted_inlier_fails(self):
        labeled = separated_scene()
        # Move one "anomaly" into the cluster core: the exact-set check
        # must now miss it.
        pts = labeled.data.points.copy()
        pts[labeled.outlier_indices[0]] = 0.01
        broken = LabeledDataset(Dataset(pts), labeled.is_outlier)
        assert exact_set_accuracy(broken, Params(n_d=5.0, s_n=10)) is False

    def test_requires_outliers(self):
        labeled = generate(SyntheticSpec(dim=2, normal_count=10, anomaly_count=0))
        with pytest.raises(NoOutliersLabeled):
            exact_set_accuracy(labeled, Params(n_d=1.0, s_n=3))

    def test_invariant_under_row_permutation(self):
        labeled = separated_scene(seed=5)
        rng = np.random.default_rng(40)
        perm = rng.permutation(labeled.q)
        shuffled = LabeledDataset(
            Dataset(labeled.data.points[perm]), labeled.is_outlier[perm]
        )
        params = Params(n_d=5.0, s_n=10)
        assert exact_set_accuracy(labeled, params) == exact_set_accuracy(
            shuffled, params
        )


class TestRunTrials:
    def test_single_trial(self):
        spec = SyntheticSpec(dim=2, normal_count=40, anomaly_count=3,
                             shell_min=2.0, seed=1)
        report = run_trials(spec, Params(n_d=5.0, s_n=8), trials=1)
        assert report.trial_count == 1
        assert report.success_count in (0, 1)

    def test_zero_anomalies_rejected(self):
        spec = SyntheticSpec(dim=2, normal_count=40, anomaly_count=0)
        with pytest.raises(NoOutliersLabeled):
            run_trials(spec, Params(n_d=5.0, s_n=8), trials=3)

    def test_bad_trial_count(self):
        spec = SyntheticSpec(dim=2, normal_count=40, anomaly_count=2)
        with pytest.raises(ValueError):
            run_trials(spec, Params(n_d=5.0, s_n=8), trials=0)

    def test_deterministic(self):
        spec = SyntheticSpec(dim=3, normal_count=50, anomaly_count=5,
                             shell_min=1.5, seed=7)
        params = Params(n_d=5.0, s_n=10)
        a = run_trials(spec, params, trials=20)
        b = run_trials(spec, params, trials=20)
        assert a == b

    def test_easy_config_scores_high(self):
        spec = SyntheticSpec(dim=3, normal_count=60, anomaly_count=5,
                             shell_min=2.0, seed=3)
        report = run_trials(spec, Params(n_d=5.0, s_n=10), trials=30)
        assert report.accuracy >= 0.9

    def test_scorer_interchangeable(self):
        spec = SyntheticSpec(dim=2, normal_count=30, anomaly_count=3,
                             shell_min=1.5, seed=11)
        params = Params(n_d=5.0, s_n=6)
        fast = run_trials(spec, params, trials=10, scorer=score_all_fast)
        naive = run_trials(spec, params, trials=10, scorer=score_all_naive)
        assert fast == naive

    def test_csv_render(self, tmp_path):
        report = EvalReport(trial_count=8, success_count=6)
        sink = io.StringIO()
        report.to_csv(sink)
        assert sink.getvalue() == "trials,successes,accuracy\n8,6,0.750000\n"
        report.to_csv(tmp_path / "trials.csv")
        assert (tmp_path / "trials.csv").read_text() == sink.getvalue()


class TestPercentileRecall:
    def test_bucket_arithmetic(self):
        # 200 points, outliers planted at ranks 1..10 via canned scores.
        scores = np.arange(200, dtype=float)
        flags = np.zeros(200, dtype=bool)
        flags[:10] = True  # lowest ten scores are the outliers
        labeled = LabeledDataset(Dataset(np.zeros((200, 2))), flags)
        report = percentile_recall(
            labeled, Params(), bucket_width_percent=1.0,
            scorer=fixed_scorer(scores),
        )
        assert len(report.buckets) == 100
        assert sum(b.point_count for b in report.buckets) == 200
        assert sum(b.outlier_count for b in report.buckets) == 10
        # 1% of 200 = 2 points per bucket; ten outliers fill buckets 0-4
        assert [b.outlier_count for b in report.buckets[:6]] == [2, 2, 2, 2, 2, 0]
        assert report.buckets[4].cumulative_fraction == 1.0

    def test_wilt_sized_bucket_boundaries(self):
        # floor(b * q / 100) boundaries for q = 4671: sizes alternate
        # 46/47 and the 7th bucket ends at rank 326.
        q = 4671
        scores = np.arange(q, dtype=float)
        flags = np.zeros(q, dtype=bool)
        flags[:93] = True
        labeled = LabeledDataset(Dataset(np.zeros((q, 2))), flags)
        report = percentile_recall(
            labeled, Params(), bucket_width_percent=1.0,
            scorer=fixed_scorer(scores),
        )
        ends = [b.rank_end for b in report.buckets[:7]]
        assert ends == [46, 93, 140, 186, 233, 280, 326]
        assert sum(b.point_count for b in report.buckets) == q

    def test_cumulative_fraction_monotone(self):
        labeled = separated_scene(seed=9, anomalies=6)
        report = percentile_recall(labeled, Params(n_d=5.0, s_n=10),
                                   bucket_width_percent=5.0)
        fractions = [b.cumulative_fraction for b in report.buckets]
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0

    def test_perfect_detector_fills_first_buckets(self):
        labeled = separated_scene(seed=12, anomalies=6)
        report = percentile_recall(labeled, Params(n_d=5.0, s_n=10),
                                   bucket_width_percent=10.0)
        assert report.buckets[0].outlier_count == 6

    @pytest.mark.parametrize("width", [0.0, -1.0, 101.0])
    def test_bad_width(self, width):
        labeled = separated_scene()
        with pytest.raises(ValueError):
            percentile_recall(labeled, Params(n_d=5.0, s_n=10),
                              bucket_width_percent=width)

    def test_requires_outliers(self):
        labeled = generate(SyntheticSpec(dim=2, normal_count=10, anomaly_count=0))
        with pytest.raises(NoOutliersLabeled):
            percentile_recall(labeled, Params(n_d=1.0, s_n=3))

    def test_csv_and_text_render(self):
        labeled = separated_scene(seed=14, anomalies=5)
        report = percentile_recall(labeled, Params(n_d=5.0, s_n=10),
                                   bucket_width_percent=10.0)
        sink = io.StringIO()
        report.to_csv(sink)
        lines = sink.getvalue().splitlines()
        assert lines[0].startswith("bucket,rank_start,rank_end")
        assert len(lines) == 1 + len(report.buckets)
        assert "cumulative" in report.to_text()


class TestSweep:
    def test_worst_rank_bounds(self):
        labeled = separated_scene(seed=20, anomalies=5)
        report = score_all_fast(labeled.data, Params(n_d=5.0, s_n=10))
        worst = worst_outlier_rank(labeled, report)
        assert labeled.outlier_count <= worst <= labeled.q

    def test_single_value_curve(self):
        labeled = separated_scene(seed=21)
        report = sweep(labeled, Params(n_d=5.0, s_n=10), "n_d", [7.5])
        assert len(report.curve) == 1
        assert report.curve[0][0] == 7.5

    def test_s_n_of_one_is_well_defined(self):
        labeled = separated_scene(seed=22)
        report = sweep(labeled, Params(n_d=5.0, s_n=10), "s_n", [1])
        assert report.curve[0][1] >= labeled.outlier_count

    def test_rejects_empty_values(self):
        labeled = separated_scene()
        with pytest.raises(ValueError):
            sweep(labeled, Params(n_d=5.0, s_n=10), "n_d", [])

    def test_rejects_unknown_parameter(self):
        labeled = separated_scene()
        with pytest.raises(ValueError):
            sweep(labeled, Params(n_d=5.0, s_n=10), "radius", [1.0])

    def test_worst_rank_joint_scale_invariant(self):
        labeled = separated_scene(seed=23, anomalies=5)
        params = Params(n_d=5.0, s_n=10)
        base = worst_outlier_rank(labeled, score_all_fast(labeled.data, params))
        c = 17.0
        scaled = LabeledDataset(
            Dataset(labeled.data.points * c), labeled.is_outlier
        )
        got = worst_outlier_rank(
            scaled, score_all_fast(scaled.data, Params(n_d=5.0 * c, s_n=10))
        )
        assert got == base

    @pytest.mark.parametrize(
        "vary, values",
        [("n_d", [0.05, 0.3, 1.0, 8.0]), ("s_n", [1, 4, 10, 25])],
    )
    def test_shared_pass_matches_per_value_scoring(self, vary, values):
        # A near shell, so the worst-outlier rank moves along both curves.
        # The 3-D scene takes the kd-tree path. With 22 columns of small
        # noise it takes the brute path, and its curves still move (a
        # 25-D shell scene is separated at every value).
        scene = generate(
            SyntheticSpec(dim=3, normal_count=60, anomaly_count=6,
                          shell_min=1.05, shell_max=1.6, seed=1)
        )
        noise = 0.01 * np.random.default_rng(1).uniform(size=(scene.q, 22))
        padded = np.hstack([scene.data.points, noise])
        scenes = (scene, LabeledDataset(Dataset(padded), scene.is_outlier))
        assert [NeighborIndex(s.data.points).method for s in scenes] == ["tree", "brute"]
        for labeled in scenes:
            fixed = Params(n_d=1.0, s_n=10)
            report = sweep(labeled, fixed, vary, values)
            assert len({rank for _, rank in report.curve}) > 1
            per_value = tuple(
                (v, worst_outlier_rank(
                    labeled, score_all_fast(labeled.data, replace(fixed, **{vary: v}))
                ))
                for v in values
            )
            assert report.curve == per_value
            assert report == sweep(labeled, fixed, vary, values, scorer=score_all_naive)

    @pytest.mark.parametrize(
        "vary, values, k",
        [("n_d", [2.0, 8.0, 30.0], 10), ("s_n", [3, 17, 8], 17)],
    )
    def test_one_knn_pass_per_sweep(self, monkeypatch, vary, values, k):
        # The pass returns one score per point and value, so no sweep holds
        # the (q, k) distances.
        labeled = separated_scene(seed=26)
        calls, shapes = [], []
        original = NeighborIndex.distances_all

        def counting(self, k, reduce=None):
            calls.append(k)
            out = original(self, k, reduce)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(NeighborIndex, "distances_all", counting)
        sweep(labeled, Params(n_d=5.0, s_n=10), vary, values)
        assert calls == [k]
        assert shapes == [(labeled.q, len(values))]

    def test_two_column_csv(self):
        labeled = separated_scene(seed=24)
        report = sweep(labeled, Params(n_d=5.0, s_n=10), "n_d", [2.0, 8.0])
        sink = io.StringIO()
        report.to_csv(sink)
        lines = sink.getvalue().splitlines()
        assert lines[0] == "n_d,worst_outlier_rank"
        assert len(lines) == 3

    def test_csv_leaves_byte_stream_open(self):
        report = SweepReport(parameter="s_n", curve=((2, 5), (4, 3)))
        sink = io.BytesIO()
        report.to_csv(sink)
        assert not sink.closed
        assert sink.getvalue() == b"s_n,worst_outlier_rank\n2,5\n4,3\n"


class TestDonorTrials:
    def test_single_donor_combinations(self):
        donor = np.arange(8.0).reshape(4, 2) + 50.0
        trials = list(enumerate_outlier_trials(np.zeros((5, 2)), [(donor, 2)]))
        assert len(trials) == 6  # C(4, 2)
        assert all(t.outlier_count == 2 for t in trials)
        assert all(t.q == 7 for t in trials)

    def test_cartesian_across_donors(self):
        a = np.zeros((3, 2)) + 40.0
        b = np.zeros((2, 2)) + 60.0
        trials = list(
            enumerate_outlier_trials(np.zeros((4, 2)), [(a, 1), (b, 1)])
        )
        assert len(trials) == 6  # 3 * 2

    def test_accuracy_on_separated_donors(self):
        rng = np.random.default_rng(41)
        normals = rng.uniform(-1.0, 1.0, size=(30, 3))
        donor = rng.uniform(-1.0, 1.0, size=(6, 3)) + 20.0
        report = donor_trials_accuracy(
            normals, [(donor, 1)], Params(n_d=5.0, s_n=8)
        )
        assert report.trial_count == 6
        assert report.accuracy == 1.0

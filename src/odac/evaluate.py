"""Evaluation harness: exact-set accuracy, percentile recall, parameter sweeps.

Three measurement protocols over labeled data, all scorer-agnostic (any
callable (Dataset, Params) -> ScoreReport works, so the naive and fast
paths are interchangeable):

  * exact-set accuracy: a trial succeeds iff the k lowest-scored points
    are exactly the k true outliers. This is the strictest coherent
    reading of "accurate recognition".
  * percentile recall: outliers tallied per bucket of the ascending
    score ranking (bucket b covers ranks floor(b*q*w/100)+1 through
    floor((b+1)*q*w/100) for width w%).
  * sweep: worst-outlier rank (the largest ascending-score rank held by
    any true outlier) as one parameter varies. With the fast scorer, one
    k-NN pass serves every value.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .datagen import SyntheticSpec, generate
from .errors import NoOutliersLabeled
from .fast import neighbor_distances, score_all_fast, scores_from_distances
from .ingest import _write_rows
from .types import Dataset, LabeledDataset, Params, ScoreReport

Scorer = Callable[[Dataset, Params], ScoreReport]


@dataclass(frozen=True)
class EvalReport:
    """Outcome of repeated exact-set trials."""

    trial_count: int
    success_count: int

    @property
    def accuracy(self) -> float:
        return self.success_count / self.trial_count

    def to_text(self) -> str:
        return (
            f"trials        {self.trial_count}\n"
            f"successes     {self.success_count}\n"
            f"accuracy      {self.accuracy:.4f}"
        )

    def to_csv(self, sink) -> None:
        _write_rows(
            sink,
            ["trials", "successes", "accuracy"],
            [[str(self.trial_count), str(self.success_count), f"{self.accuracy:.6f}"]],
        )


@dataclass(frozen=True)
class PercentileBucket:
    """One band of the ascending score ranking."""

    rank_start: int  # 1-based, inclusive
    rank_end: int  # inclusive
    point_count: int
    outlier_count: int
    cumulative_outliers: int
    cumulative_fraction: float


@dataclass(frozen=True)
class PercentileReport:
    """Outlier tallies per percentile band of the score ranking."""

    buckets: "tuple[PercentileBucket, ...]"
    total_outliers: int
    bucket_width_percent: float = 1.0

    def to_text(self) -> str:
        lines = ["scope      ranks        points  outliers  cumulative"]
        w = self.bucket_width_percent
        for b, bucket in enumerate(self.buckets):
            if bucket.point_count == 0:
                continue  # q < 100 / w leaves some bands without a rank
            scope = f"{b * w:g}-{(b + 1) * w:g}%"
            ranks = f"{bucket.rank_start}-{bucket.rank_end}"
            lines.append(
                f"{scope:<10s} {ranks:<12s} {bucket.point_count:<7d} "
                f"{bucket.outlier_count:<9d} {bucket.cumulative_fraction:.1%}"
            )
            if bucket.cumulative_outliers == self.total_outliers:
                break
        return "\n".join(lines)

    def to_csv(self, sink) -> None:
        _write_rows(
            sink,
            [
                "bucket", "rank_start", "rank_end", "points",
                "outliers", "cumulative_outliers", "cumulative_fraction",
            ],
            [
                [
                    str(b), str(bucket.rank_start), str(bucket.rank_end),
                    str(bucket.point_count), str(bucket.outlier_count),
                    str(bucket.cumulative_outliers), f"{bucket.cumulative_fraction:.6f}",
                ]
                for b, bucket in enumerate(self.buckets)
            ],
        )


@dataclass(frozen=True)
class SweepReport:
    """Worst-outlier rank as one scoring parameter varies."""

    parameter: str
    curve: "tuple[tuple[float, int], ...]"

    def to_text(self) -> str:
        lines = [f"{self.parameter}  worst_outlier_rank"]
        lines += [f"{value}  {rank}" for value, rank in self.curve]
        return "\n".join(lines)

    def to_csv(self, sink) -> None:
        _write_rows(
            sink,
            [self.parameter, "worst_outlier_rank"],
            [[str(value), str(rank)] for value, rank in self.curve],
        )


def _require_outliers(labeled: LabeledDataset) -> int:
    k = labeled.outlier_count
    if k == 0:
        raise NoOutliersLabeled("no point is labeled as an outlier")
    if k >= labeled.q:
        raise ValueError("every point is labeled as an outlier")
    return k


def exact_set_accuracy(
    labeled: LabeledDataset,
    params: Params,
    scorer: Scorer = score_all_fast,
) -> bool:
    """One trial: are the k lowest-scored points exactly the k true outliers?"""
    k = _require_outliers(labeled)
    report = scorer(labeled.data, params)
    return bool(np.isin(labeled.outlier_indices, report.ranking[:k]).all())


def _exact_set_trials(
    trials: Iterable[LabeledDataset], params: Params, scorer: Scorer
) -> EvalReport:
    """Count the trials whose k lowest-scored points are the k outliers."""
    count = successes = 0
    for labeled in trials:
        count += 1
        successes += exact_set_accuracy(labeled, params, scorer)
    return EvalReport(trial_count=count, success_count=successes)


def run_trials(
    spec: SyntheticSpec,
    params: Params,
    trials: int,
    scorer: Scorer = score_all_fast,
) -> EvalReport:
    """Generate, score, and judge `trials` scenes with derived seeds.

    Trial t uses seed (spec.seed..., t), so results are independent of
    execution order and reproducible from the spec alone.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if spec.anomaly_count == 0:
        raise NoOutliersLabeled("spec generates no anomalies")
    base = spec.seed if isinstance(spec.seed, tuple) else (int(spec.seed),)
    scenes = (generate(replace(spec, seed=base + (t,))) for t in range(trials))
    return _exact_set_trials(scenes, params, scorer)


def percentile_recall(
    labeled: LabeledDataset,
    params: Params,
    bucket_width_percent: float = 1.0,
    scorer: Scorer = score_all_fast,
) -> PercentileReport:
    """Tally true outliers per percentile band of the ascending ranking."""
    if not 0 < bucket_width_percent <= 100:
        raise ValueError(
            f"bucket width must be in (0, 100], got {bucket_width_percent}"
        )
    total = _require_outliers(labeled)
    report = scorer(labeled.data, params)
    outlier_by_rank = labeled.is_outlier[report.ranking]
    q = labeled.q

    buckets = []
    seen = 0
    end = 0
    bucket_count = math.ceil(100 / bucket_width_percent)
    for b in range(bucket_count):
        start = end
        # Tiny nudge so widths like 0.1 that are inexact in binary do not
        # push an exact boundary below its integer value.
        end = min(q, math.floor((b + 1) * q * bucket_width_percent / 100 + 1e-9))
        if b == bucket_count - 1:
            end = q
        hits = int(outlier_by_rank[start:end].sum())
        seen += hits
        buckets.append(
            PercentileBucket(
                rank_start=start + 1,
                rank_end=end,
                point_count=end - start,
                outlier_count=hits,
                cumulative_outliers=seen,
                cumulative_fraction=seen / total,
            )
        )
    return PercentileReport(
        buckets=tuple(buckets),
        total_outliers=total,
        bucket_width_percent=float(bucket_width_percent),
    )


def worst_outlier_rank(labeled: LabeledDataset, report: ScoreReport) -> int:
    """The largest 1-based ascending-score rank held by any true outlier."""
    _require_outliers(labeled)
    return int(report.rank_positions()[labeled.is_outlier].max())


def sweep(
    labeled: LabeledDataset,
    fixed: Params,
    vary: str,
    values: Sequence,
    scorer: Scorer = score_all_fast,
) -> SweepReport:
    """Worst-outlier rank for each value of one parameter.

    With the default fast scorer the whole sweep costs one k-NN pass, at
    the largest s_n it needs; any other scorer is called once per value.

    Args:
        vary: "n_d" or "s_n"; the other knob stays at its `fixed` value.
        values: Non-empty list of settings to try.
    """
    if vary not in ("n_d", "s_n"):
        raise ValueError(f"vary must be 'n_d' or 's_n', got {vary!r}")
    if not values:
        raise ValueError("values must be non-empty")
    _require_outliers(labeled)
    settings = [replace(fixed, **{vary: value}) for value in values]
    if scorer is score_all_fast:
        # Neighbor distances do not depend on n_d, and those for a smaller
        # s_n are a prefix of each row: one k-NN pass serves every setting.
        dist = neighbor_distances(labeled.data, max(p.s_n for p in settings))
        reports = (scores_from_distances(dist, p) for p in settings)
    else:
        reports = (scorer(labeled.data, p) for p in settings)
    curve = tuple(
        (value, worst_outlier_rank(labeled, report))
        for value, report in zip(values, reports)
    )
    return SweepReport(parameter=vary, curve=curve)


def enumerate_outlier_trials(
    normal_points: np.ndarray,
    donors: "Sequence[tuple[np.ndarray, int]]",
) -> Iterator[LabeledDataset]:
    """Trial datasets pairing a fixed normal block with enumerated outliers.

    Each donor contributes every combination of `take` of its rows; the
    choices multiply across donors. One donor with take=2 and 50 rows
    yields C(50, 2) = 1225 trials; two donors with take=1 and 50/49 rows
    yield 50 * 49 = 2450. Enumeration order is deterministic.
    """
    normal_points = np.asarray(normal_points, dtype=np.float64)
    pools = [
        itertools.combinations(range(len(points)), take)
        for points, take in donors
    ]
    for combo in itertools.product(*pools):
        outlier_rows = np.vstack(
            [
                np.asarray(points, dtype=np.float64)[list(chosen)]
                for (points, _), chosen in zip(donors, combo)
            ]
        )
        points = np.vstack([normal_points, outlier_rows])
        flags = np.zeros(len(points), dtype=bool)
        flags[len(normal_points) :] = True
        yield LabeledDataset(Dataset(points), flags)


def donor_trials_accuracy(
    normal_points: np.ndarray,
    donors: "Sequence[tuple[np.ndarray, int]]",
    params: Params,
    scorer: Scorer = score_all_fast,
) -> EvalReport:
    """Exact-set accuracy over every enumerated donor-outlier trial."""
    trials = enumerate_outlier_trials(normal_points, donors)
    report = _exact_set_trials(trials, params, scorer)
    if report.trial_count == 0:
        raise NoOutliersLabeled("donor enumeration produced no trials")
    return report

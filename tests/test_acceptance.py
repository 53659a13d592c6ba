"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
Criteria touching the external Iris/Wilt benchmark files skip with a
notice when no file is available (see tests/conftest.py for the lookup
paths); everything else is self-contained and runs in well under a
minute.
"""

import time

import numpy as np
import pytest

from odac import (
    Dataset,
    Params,
    SyntheticSpec,
    donor_trials_accuracy,
    generate,
    percentile_recall,
    preprocess,
    run_trials,
    score_all_fast,
    score_all_naive,
    sweep,
)
from odac.fast import similarity_from_distance
from odac.naive import cosine_similarity, observation_point

from conftest import grid_dataset


def criterion(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[acceptance] {name}: {status}{suffix}")
    assert ok, f"{name}: {detail}"


def skipped(name, reason):
    print(f"\n[acceptance] {name}: SKIPPED ({reason})")
    pytest.skip(reason)


def test_c1_oracle_equivalence():
    """Fast and naive scorers agree on 100 random datasets."""
    rng = np.random.default_rng(20260810)
    worst = 0.0
    for _ in range(100):
        q = int(rng.integers(10, 301))
        n = int(rng.integers(2, 11))
        data = Dataset(rng.uniform(-50.0, 50.0, (q, n)))
        params = Params(
            n_d=float(rng.uniform(1.0, 300.0)), s_n=int(rng.integers(1, q))
        )
        naive = score_all_naive(data, params)
        fast = score_all_fast(data, params)
        worst = max(worst, float(np.abs(naive.scores - fast.scores).max()))
        assert np.abs(naive.scores - fast.scores).max() <= 1e-9
        if not np.array_equal(naive.ranking, fast.ranking):
            # Positions may differ only across genuine floating-point ties.
            for a, b in zip(naive.ranking, fast.ranking):
                if a != b:
                    assert abs(naive.scores[a] - naive.scores[b]) <= 1e-7
    criterion(
        "C1 oracle equivalence (100 datasets)", True,
        f"max |score delta| = {worst:.2e} <= 1e-9",
    )


def test_c2_closed_form():
    """Literal similarity formula equals the distance transform, 1e5 triples."""
    rng = np.random.default_rng(42)
    n = 6
    count = 100_000
    xi = rng.uniform(-100.0, 100.0, (count, n))
    xj = rng.uniform(-100.0, 100.0, (count, n))
    nd = rng.uniform(1e-2, 1e3, count)

    # Literal evaluation, batched: |O - Xi| is zero except for the added
    # coordinate, so every term of the absolute-value numerator is formed
    # exactly as in the per-pair operation.
    diff_i = np.zeros((count, n + 1))
    diff_i[:, n] = nd
    diff_j = np.concatenate([np.abs(xi - xj), nd[:, None]], axis=1)
    numer = np.einsum("ij,ij->i", np.abs(diff_i), diff_j)
    denom = np.linalg.norm(diff_i, axis=1) * np.linalg.norm(diff_j, axis=1)
    literal = numer / denom

    closed = similarity_from_distance(np.linalg.norm(xi - xj, axis=1), nd)
    rel = np.abs(literal - closed) / closed
    assert rel.max() <= 1e-12

    # Tie the scalar public operation to the same identity on a subsample.
    for row in rng.integers(0, count, 2_000):
        a = np.append(xi[row], 0.0)
        b = np.append(xj[row], 0.0)
        lit = cosine_similarity(observation_point(a, nd[row]), a, b)
        assert abs(lit - closed[row]) / closed[row] <= 1e-12
    criterion(
        "C2 closed-form identity (1e5 triples)", True,
        f"max rel delta = {rel.max():.2e} <= 1e-12",
    )


def test_c3_invariance_suite():
    """Translation, joint scale, permutation, duplicates, similarity range."""
    rng = np.random.default_rng(3)

    # Translation: grid-valued data so the shift is exact in binary.
    data = grid_dataset(rng, 60, 3)
    params = Params(n_d=2.0, s_n=12)
    base = score_all_naive(data, params)
    shifted = score_all_naive(
        Dataset(data.points + np.array([512.0, -37.5, 0.125])), params
    )
    translation_ok = np.array_equal(base.scores, shifted.scores)

    # Joint scale: data * c with n_d * c leaves scores put (<= 1e-12 rel).
    smooth = Dataset(rng.uniform(-5.0, 5.0, (60, 4)))
    ref = score_all_naive(smooth, Params(n_d=3.0, s_n=10))
    scale_ok = True
    for c in (0.03125, 7.3, 250.0):
        scaled = score_all_naive(
            Dataset(smooth.points * c), Params(n_d=3.0 * c, s_n=10)
        )
        scale_ok &= bool(
            np.all(np.abs(scaled.scores - ref.scores) <= 1e-12 * np.abs(ref.scores))
        )

    # Permutation equivariance, bit-identical scores.
    perm = rng.permutation(60)
    permuted = score_all_naive(Dataset(smooth.points[perm]), Params(n_d=3.0, s_n=10))
    perm_ok = np.array_equal(permuted.scores, ref.scores[perm])

    # Duplicates score similarity exactly 1; range (0, 1] everywhere.
    twins = Dataset(np.vstack([smooth.points[:5], smooth.points[:5]]))
    aug = np.hstack([twins.points, np.zeros((10, 1))])
    dup_ok = all(
        cosine_similarity(observation_point(aug[i], 3.0), aug[i], aug[i + 5]) == 1.0
        for i in range(5)
    )
    range_ok = True
    for i in range(10):
        o = observation_point(aug[i], 3.0)
        sims = [cosine_similarity(o, aug[i], aug[j]) for j in range(10) if j != i]
        range_ok &= all(0.0 < s <= 1.0 for s in sims)

    criterion("C3 invariance: translation bit-identical", translation_ok)
    criterion("C3 invariance: joint scale <= 1e-12", scale_ok)
    criterion("C3 invariance: permutation equivariance", perm_ok)
    criterion("C3 invariance: duplicate similarity == 1", dup_ok)
    criterion("C3 invariance: similarity in (0, 1]", range_ok)


def test_c4_synthetic_accuracy():
    """Seeded synthetic accuracy at two benchmark configurations."""
    t0 = time.perf_counter()
    hard_3d = SyntheticSpec(
        dim=3, normal_count=200, anomaly_count=20,
        shell_min=1.30, shell_max=3.0, seed=101,
    )
    r1 = run_trials(hard_3d, Params(n_d=80.0, s_n=10), trials=200)
    criterion(
        "C4 synthetic 3D, 20 anomalies at 1.30R-3R, s_n=10",
        r1.accuracy >= 0.97,
        f"accuracy = {r1.accuracy:.1%} (threshold 97%)",
    )

    tight_2d = SyntheticSpec(
        dim=2, normal_count=200, anomaly_count=20,
        shell_min=1.10, shell_max=3.0, seed=202,
    )
    r2 = run_trials(tight_2d, Params(n_d=80.0, s_n=40), trials=200)
    criterion(
        "C4 synthetic 2D, 20 anomalies at 1.10R-3R, s_n=40",
        r2.accuracy >= 0.90,
        f"accuracy = {r2.accuracy:.1%} (threshold 90%), "
        f"both configs in {time.perf_counter() - t0:.1f}s",
    )


def _normalized_species(groups):
    """Min-max normalize the full table to [0, 300], split back by species."""
    names = sorted(groups)
    full = np.vstack([groups[name] for name in names])
    scaled = preprocess(Dataset(full), normalize=True, scale=300.0).points
    out = {}
    offset = 0
    for name in names:
        count = len(groups[name])
        out[name] = scaled[offset : offset + count]
        offset += count
    return out


def test_c5_iris_reproduction(iris_groups):
    """Single-outlier species trials on the iris benchmark."""
    if iris_groups is None:
        skipped("C5 iris reproduction", "no iris file and scikit-learn absent")
    needed = {"Iris-setosa", "Iris-versicolor", "Iris-virginica"}
    if not needed <= set(iris_groups):
        skipped("C5 iris reproduction", f"species missing, found {sorted(iris_groups)}")
    species = _normalized_species(iris_groups)
    params = Params(n_d=80.0, s_n=40)

    setosa_normals = species["Iris-setosa"][:48]
    row1 = donor_trials_accuracy(
        setosa_normals, [(species["Iris-versicolor"], 1)], params
    )
    criterion(
        "C5 iris: setosa normals, one versicolor outlier",
        row1.accuracy >= 0.95,
        f"accuracy = {row1.accuracy:.1%} over {row1.trial_count} trials "
        "(threshold 95%)",
    )

    row3 = donor_trials_accuracy(
        species["Iris-versicolor"], [(species["Iris-setosa"], 1)], params
    )
    criterion(
        "C5 iris: versicolor normals, one setosa outlier",
        row3.accuracy >= 0.90,
        f"accuracy = {row3.accuracy:.1%} over {row3.trial_count} trials "
        "(threshold 90%)",
    )


def test_c6_wilt_percentile(wilt_labeled):
    """Percentile-bucket recall on the wilt benchmark file."""
    if wilt_labeled is None:
        skipped("C6 wilt percentile recall", "wilt file not found (see README)")
    labeled = wilt_labeled
    report = percentile_recall(
        labeled, Params(n_d=200.0, s_n=15), bucket_width_percent=1.0
    )
    first = report.buckets[0].outlier_count
    by_tenth = next(
        (b for b, bucket in enumerate(report.buckets)
         if bucket.cumulative_outliers == report.total_outliers),
        None,
    )
    criterion(
        "C6 wilt: first 1% bucket recall",
        first >= 28,
        f"{first} of {report.total_outliers} outliers in bucket 1 (threshold 28)",
    )
    criterion(
        "C6 wilt: full recall by the 10% bucket",
        by_tenth is not None and by_tenth < 10,
        f"full recall in bucket {by_tenth}",
    )


def test_c7_sweep_flatness(wilt_labeled):
    """Worst-outlier rank varies by < 20% of q across an n_d sweep."""
    if wilt_labeled is not None:
        labeled = wilt_labeled
        source = "wilt"
    else:
        labeled = generate(
            SyntheticSpec(dim=3, normal_count=200, anomaly_count=20,
                          shell_min=1.3, shell_max=3.0, seed=7)
        )
        source = "synthetic surrogate"
    report = sweep(
        labeled, Params(n_d=200.0, s_n=15), "n_d", [50.0, 100.0, 200.0, 400.0]
    )
    ranks = [rank for _, rank in report.curve]
    spread = max(ranks) - min(ranks)
    criterion(
        "C7 sweep flatness over n_d in {50, 100, 200, 400}",
        spread < 0.2 * labeled.q,
        f"{source}: worst ranks {ranks}, spread {spread} < {0.2 * labeled.q:.0f}",
    )


def test_c8_performance_report():
    """Non-gating benchmark: fast at q=50000 vs naive extrapolated from q=5000."""
    rng = np.random.default_rng(0)
    params = Params(n_d=200.0, s_n=15)
    small = Dataset(rng.uniform(0.0, 300.0, (5_000, 6)))
    big = Dataset(rng.uniform(0.0, 300.0, (50_000, 6)))

    t0 = time.perf_counter()
    score_all_naive(small, params)
    t_naive = time.perf_counter() - t0
    t0 = time.perf_counter()
    score_all_fast(big, params)
    t_fast = time.perf_counter() - t0

    estimate = t_naive * 100.0  # Theta(q^2 n) scaling from 5k to 50k
    ratio = estimate / t_fast
    print(
        f"\n[acceptance] C8 performance (non-gating): naive q=5000 {t_naive:.2f}s, "
        f"fast q=50000 {t_fast:.2f}s, projected speedup {ratio:.0f}x "
        f"(target >= 10x; run alone: pytest -s tests/test_acceptance.py::test_c8_performance_report)"
    )

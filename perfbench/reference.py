"""Independent computations the benchmark checks odac's outputs against.

Nothing here calls the scorer under test. Scores come from the paper's
literal cosine formula on the lifted (n+1)-dimensional vectors, or, for
the sweep, from neighbour distances found by a blockwise numpy scan.
Every check returns a list of problems; an empty list means the output
is correct.
"""

from __future__ import annotations

import csv

import numpy as np

# Scores are written with 12 significant digits; the literal formula and
# the closed form agree to a few ulps, so this covers the rounding.
SCORE_RTOL = 2e-11
# Two scores closer than this (relative) are treated as a float-noise tie
# when a rank is compared, since either order is then legitimate.
TIE_RTOL = 1e-9


def read_points(path):
    """(points, is_outlier) from a labeled CSV with a header row."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return table[:, :-1], table[:, -1] == 1.0


def min_max(points, scale=300.0):
    """The min-max normalisation `odac --normalize` documents."""
    lo = points.min(axis=0)
    span = points.max(axis=0) - lo
    safe = np.where(span > 0, span, 1.0)
    return np.where(span > 0, (points - lo) / safe, 0.0) * scale


def literal_similarities(points, i, n_d):
    """Cosine similarities from observation point O_i to every lifted point.

    O_i equals the lifted X_i with n_d in the added coordinate. Entry i is
    the similarity of X_i to itself and must be dropped by the caller.
    """
    lifted = np.hstack([points, np.zeros((len(points), 1))])
    o = lifted[i].copy()
    o[-1] = n_d
    to_i = np.abs(o - lifted[i])
    to_all = np.abs(o - lifted)
    return (to_all @ to_i) / (np.linalg.norm(to_i) * np.linalg.norm(to_all, axis=1))


def literal_score(points, i, n_d, s_n):
    """Sum of the s_n largest similarities of point i to the other points."""
    sims = np.delete(literal_similarities(points, i, n_d), i)
    return float(np.sort(sims)[-s_n:].sum())


def literal_scene_scores(points, n_d, s_n):
    """Literal scores of every point of a small scene, all at once."""
    q = len(points)
    lifted = np.hstack([points, np.zeros((q, 1))])
    obs = lifted.copy()
    obs[:, -1] = n_d
    to_all = np.abs(obs[:, None, :] - lifted[None, :, :])  # [i, j, :] = |O_i - X_j|
    to_own = to_all[np.arange(q), np.arange(q)]
    numer = np.einsum("ijk,ik->ij", to_all, to_own)
    sims = numer / (np.linalg.norm(to_own, axis=1)[:, None] * np.linalg.norm(to_all, axis=2))
    np.fill_diagonal(sims, -np.inf)
    return np.sort(sims, axis=1)[:, -s_n:].sum(axis=1)


def knn_distances(points, k, block=256, spare=8):
    """Ascending distances from every point to its k nearest other points.

    |a|^2 + |b|^2 - 2ab picks k + spare candidates per row; their exact
    distances are then computed from the coordinate differences. A row
    whose cut is closer than the formula's rounding error is scanned
    exactly instead, so the result never depends on that error.
    """
    q = len(points)
    m = min(k + spare, q - 1)
    norms = np.einsum("ij,ij->i", points, points)
    scaled = -2.0 * points.T
    out = np.empty((q, k))
    for start in range(0, q, block):
        stop = min(start + block, q)
        rows = np.arange(stop - start)
        # Squared distance less the row's constant |a|^2, which cannot
        # change the order within a row.
        approx = points[start:stop] @ scaled
        approx += norms
        approx[rows, rows + start] = np.inf
        cand = np.argpartition(approx, m - 1, axis=1)[:, :m]
        exact = np.sqrt(((points[cand] - points[start:stop, None, :]) ** 2).sum(axis=2))
        exact.sort(axis=1)
        cut = approx[rows[:, None], cand].max(axis=1) + norms[start:stop]
        err = 1e-12 * (norms[start:stop] + norms.max())
        for r in np.flatnonzero(cut - exact[:, k - 1] ** 2 <= err):
            full = np.sqrt(((points - points[start + r]) ** 2).sum(axis=1))
            full[start + r] = np.inf
            exact[r, :k] = np.sort(full)[:k]
        out[start:stop] = exact[:, :k]
    return out


def scores_from_distances(dist, n_d, s_n):
    """Closed-form scores from ascending neighbour distances."""
    d = dist[:, :s_n]
    return (n_d / np.sqrt(d * d + n_d * n_d)).sum(axis=1)


def worst_rank_range(scores, is_outlier):
    """Ranks the worst outlier may hold: exact, widened only by float ties."""
    worst = scores[is_outlier].max()
    lo = int(np.count_nonzero(scores < worst * (1 - TIE_RTOL))) + 1
    hi = int(np.count_nonzero(scores <= worst * (1 + TIE_RTOL)))
    return lo, hi


def exact_set_success(scores, is_outlier):
    """True iff the k lowest scores (ties by index) are the k outliers."""
    k = int(is_outlier.sum())
    lowest = np.argsort(scores, kind="stable")[:k]
    return bool(is_outlier[lowest].all())


def read_table(path):
    """Header and rows of a small CSV written by odac."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


# ---------------------------------------------------------------- checks


def check_ranking(path, expect):
    """Problems with a `odac score` ranking CSV.

    expect: q, s_n, sample (point indices), sample_scores (literal),
    outliers (indices of planted anomalies), recall_floor.
    """
    header, rows = read_table(path)
    if header != ["index", "score", "rank"]:
        return [f"ranking header is {header}"]
    q = expect["q"]
    if len(rows) != q:
        return [f"ranking has {len(rows)} rows, expected {q}"]
    try:
        index = np.array([int(r[0]) for r in rows])
        score = np.array([float(r[1]) for r in rows])
        rank = np.array([int(r[2]) for r in rows])
    except (ValueError, IndexError) as exc:
        return [f"ranking row does not parse: {exc}"]
    problems = []
    if not np.array_equal(np.sort(index), np.arange(q)):
        problems.append("ranking indices are not a permutation of 0..q-1")
    if not np.array_equal(rank, np.arange(1, q + 1)):
        problems.append("ranks are not 1..q in order")
    if not np.all(np.isfinite(score)):
        problems.append("a score is not finite")
    elif not (score.min() > 0 and score.max() <= expect["s_n"]):
        problems.append(f"scores leave (0, s_n]: {score.min()} .. {score.max()}")
    if np.any(np.diff(score) < 0):
        problems.append("scores are not non-decreasing by rank")
    if problems:
        return problems
    by_point = np.empty(q)
    by_point[index] = score
    got = by_point[expect["sample"]]
    want = expect["sample_scores"]
    bad = np.abs(got - want) > SCORE_RTOL * np.abs(want)
    if bad.any():
        j = int(np.flatnonzero(bad)[0])
        problems.append(
            f"point {int(expect['sample'][j])}: score {got[j]!r}, literal {want[j]!r}"
        )
    outliers = expect["outliers"]
    recall = np.isin(outliers, index[: len(outliers)]).mean()
    if recall < expect["recall_floor"]:
        problems.append(f"recall {recall:.4f} below floor {expect['recall_floor']}")
    return problems


def check_sweep(path, expect):
    """Problems with a `odac sweep` curve CSV.

    expect: parameter, values, rank_ranges (lo, hi) per value, q, anomalies.
    """
    header, rows = read_table(path)
    if header != [expect["parameter"], "worst_outlier_rank"]:
        return [f"sweep header is {header}"]
    if len(rows) != len(expect["values"]):
        return [f"sweep has {len(rows)} rows, expected {len(expect['values'])}"]
    problems = []
    for row, value, (lo, hi) in zip(rows, expect["values"], expect["rank_ranges"]):
        if float(row[0]) != float(value):
            problems.append(f"sweep row {row} is not for {value}")
            continue
        rank = int(row[1])
        if not expect["anomalies"] <= rank <= expect["q"]:
            problems.append(f"{value}: worst rank {rank} outside [anomalies, q]")
        if not lo <= rank <= hi:
            want = lo if lo == hi else f"{lo}..{hi}"
            problems.append(f"{value}: worst rank {rank}, reference {want}")
    return problems


def check_percentiles(path, expect):
    """Problems with an `odac eval --in` percentile CSV (q, anomalies)."""
    header, rows = read_table(path)
    if header[3:6] != ["points", "outliers", "cumulative_outliers"] or not rows:
        return [f"percentile header is {header}"]
    points = [int(r[3]) for r in rows]
    outliers = [int(r[4]) for r in rows]
    problems = []
    if sum(points) != expect["q"]:
        problems.append(f"buckets hold {sum(points)} points, expected {expect['q']}")
    if sum(outliers) != expect["anomalies"]:
        problems.append(
            f"buckets hold {sum(outliers)} outliers, expected {expect['anomalies']}"
        )
    if [int(r[5]) for r in rows] != list(np.cumsum(outliers)):
        problems.append("cumulative outlier counts do not add up")
    return problems


def check_trials(path, expect):
    """Problems with an `odac eval` synthetic-mode CSV.

    expect: trials, successes (literal), floor, unseparated_scenes (trials
    whose generated scene put an anomaly inside the cluster radius).
    """
    header, rows = read_table(path)
    if header != ["trials", "successes", "accuracy"] or len(rows) != 1:
        return [f"trials report is {header} {rows}"]
    trials, successes = int(rows[0][0]), int(rows[0][1])
    problems = []
    if expect["unseparated_scenes"]:
        problems.append(f"scenes {expect['unseparated_scenes']} break the shell separation")
    if trials != expect["trials"]:
        problems.append(f"{trials} trials, expected {expect['trials']}")
    if successes != expect["successes"]:
        problems.append(f"{successes} successes, literal evaluation gives {expect['successes']}")
    if successes < expect["floor"] * expect["trials"]:
        problems.append(f"accuracy {successes / trials:.4f} below floor {expect['floor']}")
    return problems

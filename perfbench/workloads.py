"""The benchmark's workloads: seeded inputs, the CLI calls of one pass, checks.

Each workload writes its inputs into a work directory (`write_inputs`),
lists the argv of the `odac` commands that make up one pass
(`operations`), computes what correct output must look like without
calling the scorer under test (`expect`), and checks the files a pass
wrote against that (`check`). `size` is "full" for measurement and
"smoke" for the benchmark's own tests.
"""

from __future__ import annotations

import os

import numpy as np

import reference as ref

N_D = 80.0  # odac's default observation offset, used where not overridden


def _path(workdir, name):
    return os.path.join(workdir, name)


def _write_scene(workdir, name, seed, dim, normal, anomalies):
    from odac import datagen, ingest

    spec = datagen.SyntheticSpec(
        dim=dim, normal_count=normal, anomaly_count=anomalies, seed=seed
    )
    ingest.write_csv(datagen.generate(spec), _path(workdir, name))


class ScoreWorkload:
    """`odac score` on one ball-and-shell CSV."""

    def __init__(self, name, dim, sizes, n_d, s_n, normalize):
        self.name = name
        self.dim = dim
        self.sizes = sizes  # size -> (normal count, anomaly count, sampled points)
        self.n_d = n_d
        self.s_n = s_n
        self.normalize = normalize

    def write_inputs(self, workdir, seed, size):
        normal, anomalies, _ = self.sizes[size]
        _write_scene(workdir, "points.csv", seed, self.dim, normal, anomalies)

    def operations(self, workdir, seed, size):
        return [
            ["score", "--in", _path(workdir, "points.csv"), "--header",
             "--label-col", "label", *(["--normalize"] if self.normalize else []),
             "--nd", f"{self.n_d:g}", "--sn", str(self.s_n),
             "--out", _path(workdir, "ranking.csv")]
        ]

    def expect(self, workdir, seed, size):
        points, is_outlier = ref.read_points(_path(workdir, "points.csv"))
        if self.normalize:
            points = ref.min_max(points)
        sample = np.random.default_rng(seed).choice(
            len(points), self.sizes[size][2], replace=False
        )
        return {
            "q": len(points),
            "s_n": self.s_n,
            "sample": sample,
            "sample_scores": np.array(
                [ref.literal_score(points, i, self.n_d, self.s_n) for i in sample]
            ),
            "outliers": np.flatnonzero(is_outlier),
            "recall_floor": 0.95,
        }

    def check(self, workdir, expect):
        return ref.check_ranking(_path(workdir, "ranking.csv"), expect)


class TuneWorkload:
    """Sweep n_d, sweep s_n, then the percentile report, on one labeled CSV."""

    name = "tune_sweep"
    sizes = {"full": (14_850, 150), "smoke": (990, 10)}
    nd_values = (20.0, 40.0, 80.0, 160.0, 320.0)
    sn_values = (10, 20, 40, 60, 80)
    s_n = 40

    def write_inputs(self, workdir, seed, size):
        normal, anomalies = self.sizes[size]
        _write_scene(workdir, "labeled.csv", seed, 6, normal, anomalies)

    def operations(self, workdir, seed, size):
        common = ["--in", _path(workdir, "labeled.csv"), "--header",
                  "--label-col", "label", "--normalize"]
        return [
            ["sweep", *common, "--sn", str(self.s_n), "--vary", "nd",
             "--values", ",".join(f"{v:g}" for v in self.nd_values),
             "--out", _path(workdir, "sweep_nd.csv")],
            ["sweep", *common, "--nd", f"{N_D:g}", "--vary", "sn",
             "--values", ",".join(str(v) for v in self.sn_values),
             "--out", _path(workdir, "sweep_sn.csv")],
            ["eval", *common, "--nd", f"{N_D:g}", "--sn", str(self.s_n),
             "--buckets", "1", "--out", _path(workdir, "percentiles.csv")],
        ]

    def expect(self, workdir, seed, size):
        points, is_outlier = ref.read_points(_path(workdir, "labeled.csv"))
        points = ref.min_max(points)
        # One neighbour pass serves every setting.
        dist = ref.knn_distances(points, max(self.sn_values + (self.s_n,)))

        def ranges(settings):
            return [
                ref.worst_rank_range(ref.scores_from_distances(dist, n_d, s_n), is_outlier)
                for n_d, s_n in settings
            ]

        base = {"q": len(points), "anomalies": int(is_outlier.sum())}
        return {
            "nd": dict(base, parameter="n_d", values=self.nd_values,
                       rank_ranges=ranges([(v, self.s_n) for v in self.nd_values])),
            "sn": dict(base, parameter="s_n", values=self.sn_values,
                       rank_ranges=ranges([(N_D, v) for v in self.sn_values])),
            "percentiles": base,
        }

    def check(self, workdir, expect):
        return (
            ref.check_sweep(_path(workdir, "sweep_nd.csv"), expect["nd"])
            + ref.check_sweep(_path(workdir, "sweep_sn.csv"), expect["sn"])
            + ref.check_percentiles(_path(workdir, "percentiles.csv"), expect["percentiles"])
        )


class TrialsWorkload:
    """`odac eval` synthetic mode on both C4 scene configurations."""

    name = "synthetic_trials"
    trials = {"full": 500, "smoke": 6}
    # label, dim, shell_min, s_n, accuracy floor (acceptance test C4)
    configs = (("3d", 3, 1.30, 10, 0.97), ("2d", 2, 1.10, 40, 0.90))
    normal, anomalies, shell_max = 200, 20, 3.0

    def write_inputs(self, workdir, seed, size):
        """Scenes are generated inside each pass; there is no input file."""

    def operations(self, workdir, seed, size):
        return [
            ["eval", "--dim", str(dim), "--normal", str(self.normal),
             "--anomalies", str(self.anomalies), "--shell-min", f"{lo:g}",
             "--shell-max", f"{self.shell_max:g}", "--nd", f"{N_D:g}", "--sn", str(s_n),
             "--trials", str(self.trials[size]), "--seed", str(seed),
             "--out", _path(workdir, f"trials_{label}.csv")]
            for label, dim, lo, s_n, _ in self.configs
        ]

    def expect(self, workdir, seed, size):
        """Literal success counts over the scenes `odac eval` draws.

        Trial t of a run seeded s uses scene seed (s, t), as odac documents.
        """
        from odac import datagen

        out = {}
        for label, dim, lo, s_n, floor in self.configs:
            successes, broken = 0, []
            for t in range(self.trials[size]):
                scene = datagen.generate(datagen.SyntheticSpec(
                    dim=dim, normal_count=self.normal, anomaly_count=self.anomalies,
                    shell_min=lo, shell_max=self.shell_max, seed=(seed, t),
                ))
                points, flags = scene.data.points, scene.is_outlier
                norms = np.linalg.norm(points, axis=1)
                if not (norms[flags].min() >= lo and norms[~flags].max() <= 1.0):
                    broken.append(t)
                successes += ref.exact_set_success(
                    ref.literal_scene_scores(points, N_D, s_n), flags
                )
            out[label] = {"trials": self.trials[size], "successes": successes,
                          "floor": floor, "unseparated_scenes": broken}
        return out

    def check(self, workdir, expect):
        problems = []
        for label, *_ in self.configs:
            found = ref.check_trials(_path(workdir, f"trials_{label}.csv"), expect[label])
            problems += [f"{label}: {p}" for p in found]
        return problems


WORKLOADS = {
    w.name: w
    for w in (
        ScoreWorkload(
            "score_lowdim", 6,
            {"full": (99_000, 1_000, 64), "smoke": (1_980, 20, 16)},
            n_d=N_D, s_n=40, normalize=True,
        ),
        ScoreWorkload(
            "score_highdim", 32,
            {"full": (9_900, 100, 64), "smoke": (594, 6, 16)},
            n_d=1.0, s_n=40, normalize=False,
        ),
        TuneWorkload(),
        TrialsWorkload(),
    )
}


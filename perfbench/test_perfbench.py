"""Tests of the benchmark itself: smoke runs and checks that catch bad output.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import reference as ref
import run
import tracer
import workloads

SEED = 7
BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


def _declared():
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(name):
    _, result = run.run(name, SEED, seconds=0.1, trace=0, size="smoke")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_PASSES + 1
    declared = {m["name"]: m["unit"] for m in _declared()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_smoke_run_reports_every_per_layer_metric(name):
    _, result = run.run(name, SEED, seconds=0.1, trace=1, size="smoke")
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in _declared()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["fast.knn_passes"] == metrics["fast.tree_passes"] + metrics["fast.brute_passes"]
    assert metrics["cli.main_s"] > 0


def test_tracer_restores_every_original():
    odac = run._import_odac()
    fast_scorer = odac.fast.score_all_fast
    t = tracer.Tracer()
    t.install(odac)
    try:
        assert odac.cli._SCORERS["fast"] is not fast_scorer
        assert "fast.NeighborIndex.distances_all" in t.wrapped
    finally:
        t.uninstall()
    assert odac.cli._SCORERS["fast"] is fast_scorer
    assert odac.evaluate.sweep.__defaults__[-1] is fast_scorer
    assert odac.fast.validate_dataset is odac.types.validate_dataset
    assert not hasattr(odac.fast.NeighborIndex.distances_all, "__wrapped__")


def test_missing_program_fails_without_a_result(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "work", "__pycache__"))
    shutil.copy(BENCHMARK_JSON, tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "score_lowdim",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def _produce(name, workdir):
    """Run one smoke pass of a workload; returns (workload, expect)."""
    odac = run._import_odac()
    workload = workloads.WORKLOADS[name]
    workload.write_inputs(str(workdir), SEED, "smoke")
    for argv in workload.operations(str(workdir), SEED, "smoke"):
        assert odac.cli.main(argv) == 0
    expect = workload.expect(str(workdir), SEED, "smoke")
    assert workload.check(str(workdir), expect) == []
    return workload, expect


def _rewrite(path, edit):
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    lines = edit(lines)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def _set_field(lines, row, col, value):
    fields = lines[row].split(",")
    fields[col] = value
    lines[row] = ",".join(fields)
    return lines


def _perturb_sampled_score(expect):
    def edit(lines):
        target = str(int(expect["sample"][0]))
        row = next(i for i, line in enumerate(lines) if line.split(",")[0] == target)
        score = float(lines[row].split(",")[1])
        return _set_field(lines, row, 1, format(score * (1 + 1e-9), ".12g"))

    return edit


def _swap_ranks(lines):
    a, b = lines[1].split(","), lines[2].split(",")
    a[2], b[2] = b[2], a[2]
    lines[1], lines[2] = ",".join(a), ",".join(b)
    return lines


@pytest.mark.parametrize("name", ["score_lowdim", "score_highdim"])
@pytest.mark.parametrize("corruption", ["perturbed score", "swapped rank", "dropped row"])
def test_ranking_check_catches(tmp_path, name, corruption):
    workload, expect = _produce(name, tmp_path)
    edit = {
        "perturbed score": _perturb_sampled_score(expect),
        "swapped rank": _swap_ranks,
        "dropped row": lambda lines: lines[:-1],
    }[corruption]
    _rewrite(tmp_path / "ranking.csv", edit)
    assert workload.check(str(tmp_path), expect) != []


def test_ranking_check_catches_lost_recall(tmp_path):
    workload, expect = _produce("score_lowdim", tmp_path)
    assert workload.check(str(tmp_path), dict(expect, recall_floor=1.01)) != []


@pytest.mark.parametrize(
    "output, row, col",
    [("sweep_nd.csv", 1, 1), ("sweep_sn.csv", 3, 1), ("percentiles.csv", 1, 4)],
)
def test_tune_checks_catch_an_off_by_one(tmp_path, output, row, col):
    workload, expect = _produce("tune_sweep", tmp_path)
    path = tmp_path / output
    value = int(path.read_text().splitlines()[row].split(",")[col])
    _rewrite(path, lambda lines: _set_field(lines, row, col, str(value + 1)))
    assert workload.check(str(tmp_path), expect) != []


def test_trials_check_catches_a_wrong_success_count(tmp_path):
    workload, expect = _produce("synthetic_trials", tmp_path)
    path = tmp_path / "trials_2d.csv"
    successes = int(path.read_text().splitlines()[1].split(",")[1])
    _rewrite(path, lambda lines: _set_field(lines, 1, 1, str(successes - 1)))
    assert workload.check(str(tmp_path), expect) != []


def test_literal_scene_scores_match_the_per_point_formula():
    import numpy as np

    points = np.random.default_rng(SEED).normal(size=(30, 3))
    scene = ref.literal_scene_scores(points, 2.0, 5)
    single = [ref.literal_score(points, i, 2.0, 5) for i in range(len(points))]
    np.testing.assert_allclose(scene, single, rtol=1e-13)


def test_reference_distances_match_a_direct_scan():
    import numpy as np

    points = np.random.default_rng(SEED).normal(size=(300, 4))
    dist = ref.knn_distances(points, 7, block=64)
    full = np.linalg.norm(points[:, None] - points[None], axis=2)
    np.fill_diagonal(full, np.inf)
    np.testing.assert_allclose(dist, np.sort(full, axis=1)[:, :7], rtol=1e-12)

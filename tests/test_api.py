"""The public `odac` namespace, its docstring example and the README's code."""

import doctest
import importlib
import inspect
import re
from pathlib import Path

import pytest

import odac

PUBLIC = {
    "DEFAULT_N_D", "DEFAULT_S_N", "Dataset", "LabeledDataset", "Params",
    "ScoreReport", "SyntheticSpec",
    "score_all_fast", "score_all_naive", "generate", "preprocess", "read_csv",
    "read_species_table", "write_csv", "write_scores", "run_trials",
    "donor_trials_accuracy", "percentile_recall", "sweep",
    "OdacError", "TooFewPoints", "TooFewDimensions", "NonFiniteValue",
    "InvalidTopR", "ParseError", "RaggedRows", "NoOutliersLabeled",
    "SimilarityUnderflow",
}

# Helpers kept out of the namespace, by the module that defines them.
MODULE_ONLY = {
    "odac.types": ["ascending_ranking", "validate_dataset"],
    "odac.naive": ["augment", "observation_point", "cosine_similarity"],
    "odac.fast": ["score_settings", "similarity_from_distance"],
    "odac.evaluate": [
        "EvalReport", "PercentileBucket", "PercentileReport", "SweepReport",
        "enumerate_outlier_trials", "exact_set_accuracy", "worst_outlier_rank",
    ],
}

README = Path(__file__).resolve().parent.parent / "README.md"


def test_namespace_is_exactly_the_public_names():
    assert len(odac.__all__) == len(PUBLIC) == 28
    assert set(odac.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(odac, name) is not None


@pytest.mark.parametrize(
    "module, name",
    [(module, name) for module, names in MODULE_ONLY.items() for name in names],
)
def test_helpers_live_in_their_modules(module, name):
    assert hasattr(importlib.import_module(module), name)
    assert not hasattr(odac, name)


def test_removed_names_are_gone():
    from odac import ingest

    assert not hasattr(ingest, "PreprocessSpec")
    assert "header" not in inspect.signature(ingest.write_csv).parameters


def test_package_docstring_example_runs():
    finder = doctest.DocTestFinder(recurse=False)
    runner = doctest.DocTestRunner()
    for test in finder.find(odac):
        runner.run(test)
    result = runner.summarize(verbose=False)
    assert result.attempted > 0
    assert result.failed == 0


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    namespace = {}
    for block in blocks:  # later blocks reuse names the earlier ones define
        exec(compile(block, str(README), "exec"), namespace)

"""odac: outlier detection via added-dimension cosine similarity.

Each point of an n-dimensional dataset is scored by lifting the data
into n+1 dimensions, placing an observation point above the measured
point in the added dimension, and summing the r largest cosine
similarities between the vector to the measured point and the vectors
to all other points. Low scores mark outliers.

Two interchangeable scorers are provided: `score_all_naive`, a literal
evaluation of the similarity formula used as the correctness oracle,
and `score_all_fast`, an equivalent k-nearest-neighbor path for real
workloads.

    >>> import numpy as np
    >>> from odac import Dataset, Params, score_all_fast
    >>> data = Dataset(np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]]))
    >>> report = score_all_fast(data, Params(n_d=1.0, s_n=2))
    >>> int(report.ranking[0])  # most outlying point
    2

This namespace holds the input types, the entry points and the typed
errors. Helpers such as the oracle's `cosine_similarity` or the fast
path's `score_settings` are imported from their own modules.

`import odac` loads numpy but not scipy, and no command does until a
pass builds a kd-tree: only the tree needs scipy, so `scipy.spatial`
loads at the first tree build, and the brute-force path above 20
dimensions never loads it. `score_all_fast`, `run_trials`,
`donor_trials_accuracy`, `percentile_recall`, `sweep` and the modules
`fast` and `evaluate` still load on first access, because importing
them adds 14-23 ms to the 0.09-0.13 s of `import odac` (`-X
importtime`, 2 cores). `odac.cli` imports them at once, so no command
imports any other module mid-run.
"""

from __future__ import annotations

import importlib

from .datagen import SyntheticSpec, generate
from .errors import (
    InvalidTopR,
    NoOutliersLabeled,
    NonFiniteValue,
    OdacError,
    ParseError,
    RaggedRows,
    SimilarityUnderflow,
    TooFewDimensions,
    TooFewPoints,
)
from .ingest import preprocess, read_csv, read_species_table, write_csv, write_scores
from .naive import score_all_naive
from .types import (
    DEFAULT_N_D,
    DEFAULT_S_N,
    Dataset,
    LabeledDataset,
    Params,
    ScoreReport,
)

__version__ = "0.1.0"

__all__ = [
    # input types and defaults
    "DEFAULT_N_D",
    "DEFAULT_S_N",
    "Dataset",
    "LabeledDataset",
    "Params",
    "ScoreReport",
    "SyntheticSpec",
    # entry points
    "score_all_fast",
    "score_all_naive",
    "generate",
    "preprocess",
    "read_csv",
    "read_species_table",
    "write_csv",
    "write_scores",
    "run_trials",
    "donor_trials_accuracy",
    "percentile_recall",
    "sweep",
    # typed errors
    "OdacError",
    "TooFewPoints",
    "TooFewDimensions",
    "NonFiniteValue",
    "InvalidTopR",
    "ParseError",
    "RaggedRows",
    "NoOutliersLabeled",
    "SimilarityUnderflow",
]

# Names that load on first access, by the module that holds them. Loading
# these modules would add 14-23 ms to `import odac`.
_LAZY = {
    "fast": "fast",
    "evaluate": "evaluate",
    "score_all_fast": "fast",
    "run_trials": "evaluate",
    "donor_trials_accuracy": "evaluate",
    "percentile_recall": "evaluate",
    "sweep": "evaluate",
}


def __getattr__(name: str):
    """Import a lazily loaded name on first access (PEP 562) and keep it."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_LAZY[name]}", __name__)
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))

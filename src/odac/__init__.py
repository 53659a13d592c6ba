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
path's `neighbor_distances` are imported from their own modules.
"""

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
from .evaluate import donor_trials_accuracy, percentile_recall, run_trials, sweep
from .fast import score_all_fast
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

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
"""

from .datagen import SyntheticSpec, generate
from .errors import (
    InvalidTopR,
    NoOutliersLabeled,
    NonFiniteValue,
    OdacError,
    ParseError,
    RaggedRows,
    TooFewDimensions,
    TooFewPoints,
)
from .evaluate import (
    EvalReport,
    PercentileBucket,
    PercentileReport,
    SweepReport,
    donor_trials_accuracy,
    enumerate_outlier_trials,
    exact_set_accuracy,
    percentile_recall,
    run_trials,
    sweep,
    worst_outlier_rank,
)
from .fast import (
    neighbor_distances,
    score_all_fast,
    scores_from_distances,
    similarity_from_distance,
)
from .ingest import (
    PreprocessSpec,
    preprocess,
    read_csv,
    read_species_table,
    write_csv,
    write_scores,
)
from .naive import (
    augment,
    cosine_similarity,
    observation_point,
    score_all_naive,
)
from .types import (
    DEFAULT_N_D,
    DEFAULT_S_N,
    Dataset,
    LabeledDataset,
    Params,
    ScoreReport,
    ascending_ranking,
    validate_dataset,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_N_D",
    "DEFAULT_S_N",
    "Dataset",
    "EvalReport",
    "InvalidTopR",
    "LabeledDataset",
    "NoOutliersLabeled",
    "NonFiniteValue",
    "OdacError",
    "ParseError",
    "Params",
    "PercentileBucket",
    "PercentileReport",
    "PreprocessSpec",
    "RaggedRows",
    "ScoreReport",
    "SweepReport",
    "SyntheticSpec",
    "TooFewDimensions",
    "TooFewPoints",
    "ascending_ranking",
    "augment",
    "cosine_similarity",
    "donor_trials_accuracy",
    "enumerate_outlier_trials",
    "exact_set_accuracy",
    "generate",
    "neighbor_distances",
    "observation_point",
    "percentile_recall",
    "preprocess",
    "read_csv",
    "read_species_table",
    "run_trials",
    "score_all_fast",
    "score_all_naive",
    "scores_from_distances",
    "similarity_from_distance",
    "sweep",
    "validate_dataset",
    "worst_outlier_rank",
    "write_csv",
    "write_scores",
]

"""Weighted nearest-neighbor drug-target interaction prediction.

Predicts missing drug-target interactions from precomputed similarity
matrices: a decay-weighted kNN baseline, a variant that first recovers
likely missing interactions from neighbor rows and columns, and a
sampling ensemble over entity subsets. Includes the cross-validation and
AUPR harness used to benchmark them.
"""

from .data import (
    DatasetError,
    DatasetStats,
    DtiDataset,
    Finding,
    dataset_stats,
    load_dataset,
    save_dataset,
    subset,
    validate_dataset,
    write_matrix,
)
from .ensemble import (
    EnsembleMember,
    EnsembleModel,
    SamplingStrategy,
    sample_without_replacement,
    sampling_probabilities,
    train_ensemble,
)
from .evaluation import (
    DEFAULT_GRID,
    INNER_FOLDS,
    OUTER_FOLDS,
    SETTINGS,
    CvPlan,
    CvResult,
    Fold,
    FoldResult,
    ParamGrid,
    aupr,
    base_factory,
    ensemble_factory,
    fixed_learner,
    generate_folds,
    rank_novel,
    run_cv,
    tune_hyperparameters,
    tuned_learner,
)
from .imbalance import ImbalanceReport, imbalance_report
from .models import (
    TRANSDUCTIVE_ERROR,
    PairQuery,
    RecoverySet,
    WkNNIRModel,
    WkNNModel,
    build_recovery,
    fit_wknn,
    fit_wknnir,
    split_query,
)
from .neighbors import neighbor_table

__version__ = "0.1.0"

__all__ = [
    "DatasetError",
    "DatasetStats",
    "DtiDataset",
    "Finding",
    "dataset_stats",
    "load_dataset",
    "save_dataset",
    "subset",
    "validate_dataset",
    "write_matrix",
    "neighbor_table",
    "ImbalanceReport",
    "imbalance_report",
    "PairQuery",
    "RecoverySet",
    "WkNNModel",
    "WkNNIRModel",
    "TRANSDUCTIVE_ERROR",
    "build_recovery",
    "fit_wknn",
    "fit_wknnir",
    "split_query",
    "SamplingStrategy",
    "EnsembleMember",
    "EnsembleModel",
    "sampling_probabilities",
    "sample_without_replacement",
    "train_ensemble",
    "SETTINGS",
    "OUTER_FOLDS",
    "INNER_FOLDS",
    "CvPlan",
    "CvResult",
    "Fold",
    "FoldResult",
    "ParamGrid",
    "DEFAULT_GRID",
    "generate_folds",
    "aupr",
    "run_cv",
    "tune_hyperparameters",
    "rank_novel",
    "base_factory",
    "ensemble_factory",
    "fixed_learner",
    "tuned_learner",
    "__version__",
]

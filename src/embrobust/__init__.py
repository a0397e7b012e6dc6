"""Toolkit for quantifying biological-vs-confounder organization of embedding spaces."""

from .dataset import (
    ClassCountMatrix,
    DatasetError,
    EmbeddingDataset,
    chance_levels,
    class_count_matrix,
    load_dataset,
    save_dataset,
)
from .evaluation import (
    AnalysisError,
    CenterErrorRelation,
    ConfounderReport,
    DEFAULT_K_GRID,
    EvalResult,
    FoldAssignment,
    LogRegModel,
    assign_folds,
    center_error_relation,
    confounder_analysis,
    knn_predict,
    logreg_cv,
    logreg_fit,
    logreg_predict,
    restrict_for_confounders,
)
from .neighbors import (
    FrequencyCurves,
    NeighborTable,
    build_neighbor_table,
    frequency_curves,
)
from .projection import (
    ProjectionResult,
    TsneConfig,
    perplexity_calibration,
    trustworthiness,
    tsne,
)
from .robustness import (
    DEFAULT_K,
    RobustnessReport,
    UndefinedIndexError,
    robustness_bounds,
    robustness_index,
)
from .synth import SynthSpec, generate

__version__ = "0.1.0"

__all__ = [
    "AnalysisError",
    "CenterErrorRelation",
    "ClassCountMatrix",
    "ConfounderReport",
    "DEFAULT_K",
    "DEFAULT_K_GRID",
    "DatasetError",
    "EmbeddingDataset",
    "EvalResult",
    "FoldAssignment",
    "FrequencyCurves",
    "LogRegModel",
    "NeighborTable",
    "ProjectionResult",
    "RobustnessReport",
    "SynthSpec",
    "TsneConfig",
    "UndefinedIndexError",
    "assign_folds",
    "build_neighbor_table",
    "center_error_relation",
    "chance_levels",
    "class_count_matrix",
    "confounder_analysis",
    "frequency_curves",
    "generate",
    "knn_predict",
    "load_dataset",
    "logreg_cv",
    "logreg_fit",
    "logreg_predict",
    "perplexity_calibration",
    "restrict_for_confounders",
    "robustness_bounds",
    "robustness_index",
    "save_dataset",
    "trustworthiness",
    "tsne",
]

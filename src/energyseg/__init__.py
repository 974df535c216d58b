"""Occupant energy-usage segmentation toolkit.

Ingests per-minute resource-usage records, estimates sparse feature-dependency
graphs via neighborhood lasso, clusters and labels efficiency behaviors, and
runs Granger-causality and two-sample hypothesis tests. See the ``energyseg``
command-line tool for the batch pipeline.
"""

from .causality import (
    CausalityConfig,
    CausalityResult,
    TTestResult,
    f_survival,
    granger_test,
    granger_test_segments,
    t_survival,
    two_sample_ttest,
)
from .clustering import (
    ClusterModel,
    ClusteringConfig,
    PcaModel,
    elbow_curve,
    minibatch_kmeans,
    pca_fit,
    pca_transform,
    silhouette,
)
from .config import PipelineConfig, load_config
from .errors import (
    AnalysisError,
    ConfigError,
    DataSizeError,
    NumericError,
    SchemaError,
)
from .features import (
    ALL_FEATURES,
    DEFAULT_CLUSTERING_FEATURES,
    DEFAULT_GRAPH_FEATURES,
    FeatureConfig,
    FeatureMatrix,
    FeatureSpec,
    player_day_segments,
    pool_features,
    standardize,
)
from .glasso import (
    CvResult,
    GlassoConfig,
    GraphEstimate,
    LambdaGrid,
    NeighborhoodFit,
    cross_validate,
    fit_neighborhood,
    graph_to_dict,
    graphical_lasso,
    lambda_grid,
    soft_threshold,
)
from .records import (
    CSV_COLUMNS,
    DatasetTable,
    ResourceKind,
    compute_points,
    emit_csv,
    ingest_csv,
)
from .segmentation import (
    ClassLabel,
    ClusterLabelling,
    ProportionReport,
    RankBands,
    assign_classes,
    correlation_matrix,
    label_clusters,
    make_rank_bands,
    proportion_buckets,
    rv_coefficient,
)
from .synthetic import GeneratorConfig, generate_synthetic, latent_class_name

__version__ = "0.1.0"

__all__ = [
    "ALL_FEATURES",
    "AnalysisError",
    "CSV_COLUMNS",
    "CausalityConfig",
    "CausalityResult",
    "ClassLabel",
    "ClusterLabelling",
    "ClusterModel",
    "ClusteringConfig",
    "ConfigError",
    "CvResult",
    "DEFAULT_CLUSTERING_FEATURES",
    "DEFAULT_GRAPH_FEATURES",
    "DataSizeError",
    "DatasetTable",
    "FeatureConfig",
    "FeatureMatrix",
    "FeatureSpec",
    "GeneratorConfig",
    "GlassoConfig",
    "GraphEstimate",
    "LambdaGrid",
    "NeighborhoodFit",
    "NumericError",
    "PcaModel",
    "PipelineConfig",
    "ProportionReport",
    "RankBands",
    "ResourceKind",
    "SchemaError",
    "TTestResult",
    "assign_classes",
    "compute_points",
    "correlation_matrix",
    "cross_validate",
    "elbow_curve",
    "emit_csv",
    "f_survival",
    "fit_neighborhood",
    "generate_synthetic",
    "granger_test",
    "granger_test_segments",
    "graph_to_dict",
    "graphical_lasso",
    "ingest_csv",
    "label_clusters",
    "lambda_grid",
    "latent_class_name",
    "load_config",
    "make_rank_bands",
    "minibatch_kmeans",
    "pca_fit",
    "pca_transform",
    "player_day_segments",
    "pool_features",
    "proportion_buckets",
    "rv_coefficient",
    "silhouette",
    "soft_threshold",
    "standardize",
    "t_survival",
    "two_sample_ttest",
]

"""Cross-species RNA-seq normalization and exact differential expression."""

__version__ = "0.1.0"

from .core import (
    ConservedSet,
    GeneRecord,
    InvalidRow,
    OrthologTable,
    ScalingFactor,
    validate_table,
)
from .exact_test import (
    binom_twosided_pvalues,
    gene_pvalues,
    null_prob_values,
)
from .normalization import (
    GridConfig,
    MedianScaleResult,
    ObjectiveValue,
    ScbnResult,
    empirical_type1_deviation,
    median_scaling_factor,
    scbn_scaling_factor,
)
from .pipeline import (
    DEResult,
    Report,
    RunConfig,
    TestResult,
    bh_adjust,
    call_de,
    load_conserved_list,
    load_counts_tsv,
    run_pipeline,
    write_counts_tsv,
    write_report,
)
from .simulation import (
    Metrics,
    SimConfig,
    SimulatedDataset,
    evaluate_run,
    generate_dataset,
    run_study,
)

__all__ = [
    "ConservedSet",
    "GeneRecord",
    "InvalidRow",
    "OrthologTable",
    "ScalingFactor",
    "validate_table",
    "binom_twosided_pvalues",
    "gene_pvalues",
    "null_prob_values",
    "GridConfig",
    "MedianScaleResult",
    "ObjectiveValue",
    "ScbnResult",
    "empirical_type1_deviation",
    "median_scaling_factor",
    "scbn_scaling_factor",
    "DEResult",
    "Report",
    "RunConfig",
    "TestResult",
    "bh_adjust",
    "call_de",
    "load_conserved_list",
    "load_counts_tsv",
    "run_pipeline",
    "write_counts_tsv",
    "write_report",
    "Metrics",
    "SimConfig",
    "SimulatedDataset",
    "evaluate_run",
    "generate_dataset",
    "run_study",
]

"""Cross-species RNA-seq normalization and exact differential expression.

Each name in ``__all__`` is imported from its defining module at its first
lookup (a module ``__getattr__``), so ``import crossnorm`` loads no numpy;
only ``__version__`` and ``METHODS`` are defined here.
"""

import importlib

__version__ = "0.1.0"

# Normalization methods, in the order the CLI lists them.
METHODS = ("scbn", "median")

# Each defining module and the names the package exports from it.
_EXPORTS = {
    "core": ("ConservedSet", "GeneRecord", "InvalidRow", "OrthologTable", "ScalingFactor",
             "validate_table"),
    "exact_test": ("binom_twosided_pvalues", "gene_pvalues", "null_prob_values"),
    "normalization": ("GridConfig", "MedianScaleResult", "ObjectiveValue", "ScbnResult",
                      "empirical_type1_deviation", "median_scaling_factor",
                      "scbn_scaling_factor"),
    "pipeline": ("DEResult", "Report", "RunConfig", "TestResult", "bh_adjust", "call_de",
                 "load_conserved_list", "load_counts_tsv", "run_pipeline", "write_counts_tsv",
                 "write_report"),
    "simulation": ("Metrics", "SimConfig", "SimulatedDataset", "evaluate_run",
                   "generate_dataset", "run_study"),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOMES)


def __getattr__(name):
    """Import an exported name from its module; later lookups find it here."""
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})

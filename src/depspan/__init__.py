"""depspan: dependable spanners under independent random edge failure.

Constructions (1-D exact spanners and Euclidean (1+eps)-spanners built over
locality-sensitive orderings), exact and Monte Carlo deficiency measurement,
and a reproducible experiment harness.

Each exported name is imported from its module on first use (PEP 562), so
importing the package, or running `depspan --version`, loads no numpy.
"""

import importlib

__version__ = "0.1.0"

# The experiments experiments.py runs; the CLI parser lists them without
# importing that module.
EXPERIMENT_NAMES = frozenset({"clique-scaling", "spanner-vs-clique",
                              "sparse-failure", "hop-survival"})

# Build defaults, read by every builder, ExperimentConfig and the CLI parser:
# c6 scales the interval radius, c7 the 4-hop block size and connector rate,
# and a Euclidean build unions at most DEFAULT_MAX_ORDERINGS orderings.
DEFAULT_C6 = 4.0
DEFAULT_C7 = 4.0
DEFAULT_MAX_ORDERINGS = 128

_EXPORTS = {
    "graphs": ("RankGraph", "complete_graph", "interval_graph", "filter_edges",
               "graph_union"),
    "rng": ("RandomStream", "derive_stream", "derive_seed"),
    "reach": ("DeficiencyReport", "straight_reachable", "straight_hops",
              "deficiency", "khop_deficiency", "khop_deficiency_split",
              "no_two_hop_probability", "expected_two_hop_deficiency",
              "failure_trials", "monte_carlo_deficiency"),
    "spanners1d": ("DerivedParams", "interval_radius",
                   "dependable_interval_spanner", "two_hop_hierarchy",
                   "block_partition", "bipartite_connector",
                   "biclique_block_spanner", "four_hop_spanner",
                   "khop_spanner"),
    "lso": ("Ordering", "OrderingFamily", "build_lso_family", "compare_points",
            "locality_witness", "family_size_bound"),
    "euclid": ("PointSet", "GeometricGraph", "normalize_points",
               "euclidean_dependable_spanner", "bounded_hop_distance",
               "extract_bounded_path", "count_stretch_failures",
               "stretch_failure_row"),
    "experiments": ("ExperimentConfig", "run_experiment", "experiment_csv",
                    "check_experiment"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = ["__version__", "EXPERIMENT_NAMES", "DEFAULT_C6", "DEFAULT_C7",
           "DEFAULT_MAX_ORDERINGS", *_MODULE_OF]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

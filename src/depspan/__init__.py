"""depspan: dependable spanners under independent random edge failure.

Constructions (1-D exact spanners and Euclidean (1+eps)-spanners built over
locality-sensitive orderings), exact and Monte Carlo deficiency measurement,
and a reproducible experiment harness.
"""

__version__ = "0.1.0"

from .graphs import (RankGraph, complete_graph, filter_edges, graph_union,
                     interval_graph)
from .rng import RandomStream, derive_seed, derive_stream
from .reach import (DeficiencyReport, deficiency, expected_two_hop_deficiency,
                    khop_deficiency, khop_deficiency_split,
                    monte_carlo_deficiency, no_two_hop_probability,
                    straight_hops, straight_reachable)
from .spanners1d import (DerivedParams, biclique_block_spanner,
                         bipartite_connector, block_partition,
                         dependable_interval_spanner, four_hop_spanner,
                         interval_radius, khop_spanner, two_hop_hierarchy)
from .lso import (Ordering, OrderingFamily, build_lso_family, compare_points,
                  family_size_bound, locality_witness)
from .euclid import (GeometricGraph, PointSet, bounded_hop_distance,
                     count_stretch_failures, euclidean_dependable_spanner,
                     extract_bounded_path, normalize_points,
                     stretch_failure_row)
from .experiments import (EXPERIMENT_NAMES, ExperimentConfig, check_experiment,
                          experiment_csv, run_experiment)

__all__ = [
    "__version__",
    "RankGraph", "complete_graph", "interval_graph", "filter_edges",
    "graph_union",
    "RandomStream", "derive_stream", "derive_seed",
    "DeficiencyReport", "straight_reachable", "straight_hops", "deficiency",
    "khop_deficiency", "khop_deficiency_split", "no_two_hop_probability",
    "expected_two_hop_deficiency", "monte_carlo_deficiency",
    "DerivedParams", "interval_radius",
    "dependable_interval_spanner", "two_hop_hierarchy", "block_partition",
    "bipartite_connector", "biclique_block_spanner", "four_hop_spanner",
    "khop_spanner",
    "Ordering", "OrderingFamily", "build_lso_family", "compare_points",
    "locality_witness", "family_size_bound",
    "PointSet", "GeometricGraph", "normalize_points",
    "euclidean_dependable_spanner", "bounded_hop_distance",
    "extract_bounded_path", "count_stretch_failures", "stretch_failure_row",
    "ExperimentConfig", "EXPERIMENT_NAMES", "run_experiment", "experiment_csv",
    "check_experiment",
]

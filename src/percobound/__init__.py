"""Spectral lower bounds on algebraic connectivity under random vertex deletion.

The library models independent site percolation on a weighted graph: each
vertex i survives with probability p_i, and all edges touching a deleted
vertex vanish.  It computes a closed-form high-probability bound on how far
the (ghost-augmented) percolated Laplacian can drift from its expectation in
spectral norm, turns that into a certified lower bound on the algebraic
connectivity of the surviving graph, and validates everything against
exhaustive enumeration and Monte Carlo simulation.
"""

__version__ = "0.1.0"

from .graph_core import (
    RegularityCertificate,
    WeightedGraph,
    build_adjacency,
    build_laplacian,
    certify_ndl,
    generate,
    graph_from_dict,
    graph_to_dict,
    read_graph,
    write_graph,
)
from .oracle import (
    ExactDistribution,
    exact_bernoulli_series_tail,
    exact_distribution,
    exact_tail,
)
from .percolation import (
    SurvivalProfile,
    TrialBlock,
    algebraic_connectivity_survivors,
    augmented_laplacian,
    expected_augmented_laplacian,
    percolated_laplacian,
    sample,
    survivor_connectivity,
    trial_block,
)
from .spectral import eig_sym, lambda2, spectral_norm
from .theory import (
    BoundReport,
    ThresholdReport,
    bernoulli_series_tail_bound,
    bernoulli_series_variance,
    check_gap_condition,
    deviation_bound,
    expected_lambda2_regular,
    kearns_saul_k,
    optimize_alpha,
    survival_threshold,
    threshold_constants,
)

__all__ = [
    "__version__",
    "BoundReport",
    "ExactDistribution",
    "RegularityCertificate",
    "SurvivalProfile",
    "ThresholdReport",
    "TrialBlock",
    "WeightedGraph",
    "algebraic_connectivity_survivors",
    "augmented_laplacian",
    "bernoulli_series_tail_bound",
    "bernoulli_series_variance",
    "build_adjacency",
    "build_laplacian",
    "certify_ndl",
    "check_gap_condition",
    "deviation_bound",
    "eig_sym",
    "exact_bernoulli_series_tail",
    "exact_distribution",
    "exact_tail",
    "expected_augmented_laplacian",
    "expected_lambda2_regular",
    "generate",
    "graph_from_dict",
    "graph_to_dict",
    "kearns_saul_k",
    "lambda2",
    "optimize_alpha",
    "percolated_laplacian",
    "read_graph",
    "sample",
    "spectral_norm",
    "survival_threshold",
    "survivor_connectivity",
    "threshold_constants",
    "trial_block",
    "write_graph",
]

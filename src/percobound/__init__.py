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

# each layer module's __all__ is the one list of its public names
from . import graph_core, oracle, percolation, spectral, theory
from .graph_core import *  # noqa: F403
from .oracle import *  # noqa: F403
from .percolation import *  # noqa: F403
from .spectral import *  # noqa: F403
from .theory import *  # noqa: F403

__all__ = ["__version__", *sorted({
    name for module in (graph_core, oracle, percolation, spectral, theory)
    for name in module.__all__})]

"""Edge-by-edge loop assembly of the graph matrices, kept independent of the
library's vectorized builders as the reference they must match bit for bit."""
from __future__ import annotations

import numpy as np


def adjacency(g) -> np.ndarray:
    A = np.zeros((g.n, g.n))
    for i, j, w in g.edges:
        A[i, j] = w
        A[j, i] = w
    return A


def laplacian(g) -> np.ndarray:
    L = np.zeros((g.n, g.n))
    for i, j, w in g.edges:
        L[i, i] += w
        L[j, j] += w
        L[i, j] -= w
        L[j, i] -= w
    return L


def degree_vector(g) -> np.ndarray:
    deg = np.zeros(g.n)
    for i, j, w in g.edges:
        deg[i] += w
        deg[j] += w
    return deg


def expected_augmented_laplacian(g, p: np.ndarray, alpha: float) -> np.ndarray:
    L = np.zeros((g.n, g.n))
    for i, j, w in g.edges:
        pw = p[i] * p[j] * w
        L[i, i] += pw
        L[j, j] += pw
        L[i, j] -= pw
        L[j, i] -= pw
    L[np.diag_indices(g.n)] += alpha * (1.0 - p)
    return L

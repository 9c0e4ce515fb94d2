"""Edge-by-edge loops that check and normalize edge lists, generate the
named graph families and assemble the graph matrices, kept independent of
the library's vectorized code as the reference it must match bit for bit."""
from __future__ import annotations

import math

import numpy as np

from percobound.graph_core import is_integer, is_real


def normalized_edges(n: int, edges) -> tuple:
    """WeightedGraph(n, edges).edges, checked one edge at a time in input
    order; raises the ValueError WeightedGraph raises."""
    normalized = []
    seen = set()
    for edge in edges:
        try:
            i, j, w = edge
        except (TypeError, ValueError):
            raise ValueError(f"edge {edge!r} must be (i, j, w)") from None
        if type(i) is not int or type(j) is not int:
            if not (is_integer(i) and is_integer(j)):
                raise ValueError(f"edge endpoints must be integers, got {edge!r}")
            i, j = int(i), int(j)
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge {edge!r} endpoint out of range for n={n}")
        if i == j:
            raise ValueError(f"self-loop at vertex {i} is not allowed")
        if i > j:
            i, j = j, i
        if not is_real(w):
            raise ValueError(f"edge ({i},{j}) weight must be a number, got {w!r}")
        try:
            w = float(w)
        except OverflowError:
            raise ValueError(f"edge ({i},{j}) weight must be finite and > 0, "
                             "got a number beyond the float range") from None
        if not (w > 0.0) or not math.isfinite(w):
            raise ValueError(f"edge ({i},{j}) weight must be finite and > 0, got {w}")
        if (i, j) in seen:
            raise ValueError(f"duplicate edge ({i},{j})")
        seen.add((i, j))
        normalized.append((i, j, w))
    normalized.sort()
    return tuple(normalized)


def family_edges(family: str, size: int) -> list:
    """The unit-weight edge list of a named family, one pair at a time:
    complete, cycle and path take n, hypercube k, paley q."""
    if family == "complete":
        return [(i, j, 1.0) for i in range(size) for j in range(i + 1, size)]
    if family == "cycle":
        if size <= 2:
            return [(0, 1, 1.0)] if size == 2 else []
        return [(i, (i + 1) % size, 1.0) for i in range(size)]
    if family == "path":
        return [(i, i + 1, 1.0) for i in range(size - 1)]
    if family == "hypercube":
        edges = []
        for v in range(1 << size):
            for b in range(size):
                u = v ^ (1 << b)
                if v < u:
                    edges.append((v, u, 1.0))
        return edges
    if family == "paley":
        residues = {(x * x) % size for x in range(1, size)}
        return [(i, j, 1.0) for i in range(size) for j in range(i + 1, size)
                if (j - i) % size in residues]
    raise ValueError(f"no reference for family {family!r}")


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

"""Weighted graph model, matrix builders, named generators, regularity certification.

Graphs are simple and undirected with strictly positive edge weights.  The
JSON interchange format is ``{"n": <int>, "edges": [[i, j, w], ...]}`` with
i < j; writers emit edges sorted lexicographically, readers accept any order
but reject duplicates.
"""
from __future__ import annotations

import json
import math
import numbers
import random
from dataclasses import dataclass, field

import numpy as np

from .spectral import eig_sym

__all__ = [
    "WeightedGraph",
    "RegularityCertificate",
    "UnionFind",
    "build_adjacency",
    "build_laplacian",
    "generate",
    "certify_ndl",
    "read_graph",
    "write_graph",
]

GENERATOR_FAMILIES = ("complete", "cycle", "path", "hypercube", "paley", "random_regular")

# Absolute tolerance on weighted degrees when testing regularity.
DEGREE_TOL = 1e-9
# lambda is considered degenerate (equal to d) within this tolerance; that
# happens exactly for disconnected or bipartite regular graphs.
_LAMBDA_EQ_D_TOL = 1e-8
_MAX_PAIRING_ATTEMPTS = 10**6


def is_real(value) -> bool:
    """Whether value is a real number.

    Booleans and strings are not, though float() would take them: in a JSON
    file they are a mistake, not a number.
    """
    # exact float and int first: the numbers.Real check costs about 1 us
    return type(value) in (float, int) or (
        not isinstance(value, (bool, np.bool_)) and isinstance(value, numbers.Real))


class UnionFind:
    """Disjoint-set forest with path compression and union by size."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True

    def component_count(self, members=None) -> int:
        """Number of distinct components among `members` (default: all)."""
        if members is None:
            members = range(len(self.parent))
        return len({self.find(x) for x in members})


@dataclass(frozen=True)
class WeightedGraph:
    """Simple undirected graph on vertices 0..n-1 with positive edge weights.

    Edges are normalized to (i, j, w) with i < j, sorted lexicographically.
    The attributes src, dst and w hold the same edges as read-only arrays.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise ValueError("vertex count n must be an integer")
        if self.n < 1:
            raise ValueError("vertex count n must be at least 1")
        normalized = []
        seen = set()
        for edge in self.edges:
            try:
                i, j, w = edge
            except (TypeError, ValueError):
                raise ValueError(f"edge {edge!r} must be (i, j, w)") from None
            if (not isinstance(i, int) or not isinstance(j, int)
                    or isinstance(i, bool) or isinstance(j, bool)):
                raise ValueError(f"edge endpoints must be integers, got {edge!r}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge {edge!r} endpoint out of range for n={self.n}")
            if i == j:
                raise ValueError(f"self-loop at vertex {i} is not allowed")
            if i > j:
                i, j = j, i
            if not is_real(w):
                raise ValueError(f"edge ({i},{j}) weight must be a number, got {w!r}")
            w = float(w)
            if not (w > 0.0) or not math.isfinite(w):
                raise ValueError(f"edge ({i},{j}) weight must be finite and > 0, got {w}")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i},{j})")
            seen.add((i, j))
            normalized.append((i, j, w))
        normalized.sort()
        object.__setattr__(self, "edges", tuple(normalized))
        columns = tuple(zip(*normalized)) or ((), (), ())
        for name, column, dtype in zip(("src", "dst", "w"), columns, (np.intp, np.intp, float)):
            arr = np.array(column, dtype=dtype)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree_vector(self) -> np.ndarray:
        """Weighted degrees (row sums of the adjacency matrix)."""
        return _vertex_sums(self, self.w)


@dataclass(frozen=True)
class RegularityCertificate:
    """Regularity and expansion data for a unit-weight graph.

    lambda_ is the largest magnitude among adjacency eigenvalues after
    excluding a single copy of the trivial eigenvalue d.  lambda_equals_d is
    set when lambda_ reaches d (within 1e-8), which happens exactly for
    disconnected or bipartite regular graphs.  d and the lambda fields are
    None when the graph is not unit-weight regular.
    """

    is_regular: bool
    d: int | None = None
    lambda_: float | None = None
    lambda_over_d: float | None = None
    lambda_equals_d: bool = False

    def to_dict(self) -> dict:
        return {
            "is_regular": self.is_regular,
            "d": self.d,
            "lambda": self.lambda_,
            "lambda_over_d": self.lambda_over_d,
            "lambda_equals_d": self.lambda_equals_d,
        }


def _vertex_sums(g: WeightedGraph, values: np.ndarray) -> np.ndarray:
    # bincount adds weights in input order, so over the interleaved endpoints
    # [i0, j0, i1, j1, ...] each vertex sums its edge values in edge order, bit
    # for bit like a loop over g.edges; a stack of value rows gets one bincount
    # with the endpoints of row r shifted to bins r*n..r*n+n-1.  With no edges
    # bincount returns integers.
    lead = values.shape[:-1]
    rows = math.prod(lead)
    ends = np.stack((g.src, g.dst), axis=1).ravel()
    ends = (np.arange(rows)[:, None] * g.n + ends).ravel()
    sums = np.bincount(ends, weights=np.repeat(values, 2, axis=-1).ravel(),
                       minlength=rows * g.n)
    return sums.astype(float, copy=False).reshape(lead + (g.n,))


def edge_laplacian(g: WeightedGraph, values: np.ndarray) -> np.ndarray:
    """Laplacian of g with edge k (in g.edges order) weighted values[..., k].

    values of shape (E,) give one n x n matrix; values of shape (c, E) give
    the (c, n, n) stack whose matrix r weights edge k with values[r, k].
    """
    L = np.zeros(values.shape[:-1] + (g.n, g.n))
    # 0.0 - values keeps a zero edge value at +0.0, as L[i, j] -= 0.0 would
    L[..., g.src, g.dst] = L[..., g.dst, g.src] = 0.0 - values
    diagonal = np.arange(g.n)
    L[..., diagonal, diagonal] = _vertex_sums(g, values)
    return L


def build_adjacency(g: WeightedGraph) -> np.ndarray:
    """Dense symmetric weighted adjacency matrix."""
    A = np.zeros((g.n, g.n))
    A[g.src, g.dst] = A[g.dst, g.src] = g.w
    return A


def build_laplacian(g: WeightedGraph) -> np.ndarray:
    """Weighted graph Laplacian; row sums cancel up to rounding."""
    return edge_laplacian(g, g.w)


def _require_positive_int(name: str, value) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return value


def _complete(n: int) -> WeightedGraph:
    edges = [(i, j, 1.0) for i in range(n) for j in range(i + 1, n)]
    return WeightedGraph(n, tuple(edges))


def _cycle(n: int) -> WeightedGraph:
    if n == 1:
        return WeightedGraph(1)
    if n == 2:
        # the two cycle edges would coincide; keep the single edge
        return WeightedGraph(2, ((0, 1, 1.0),))
    edges = [(i, (i + 1) % n, 1.0) for i in range(n)]
    return WeightedGraph(n, tuple(edges))


def _path(n: int) -> WeightedGraph:
    edges = [(i, i + 1, 1.0) for i in range(n - 1)]
    return WeightedGraph(n, tuple(edges))


def _hypercube(k: int) -> WeightedGraph:
    n = 1 << k
    edges = []
    for v in range(n):
        for b in range(k):
            u = v ^ (1 << b)
            if v < u:
                edges.append((v, u, 1.0))
    return WeightedGraph(n, tuple(edges))


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    if q % 2 == 0:
        return q == 2
    f = 3
    while f * f <= q:
        if q % f == 0:
            return False
        f += 2
    return True


def _paley(q: int) -> WeightedGraph:
    if not _is_prime(q) or q % 4 != 1:
        raise ValueError(f"paley graph needs a prime q with q % 4 == 1, got {q}")
    residues = {(x * x) % q for x in range(1, q)}
    edges = [
        (i, j, 1.0)
        for i in range(q)
        for j in range(i + 1, q)
        if (j - i) % q in residues
    ]
    return WeightedGraph(q, tuple(edges))


def _random_regular(n: int, d: int, seed: int) -> WeightedGraph:
    """d-regular graph from the pairing (configuration) model.

    Stubs are shuffled and paired; any attempt producing a self-loop or a
    repeated edge is rejected wholesale and retried with fresh randomness.
    """
    if d < 0 or d >= n:
        raise ValueError(f"random_regular needs 0 <= d < n, got n={n}, d={d}")
    if (n * d) % 2 != 0:
        raise ValueError(f"random_regular needs n*d even, got n={n}, d={d}")
    if d == 0:
        return WeightedGraph(n)
    rng = random.Random(seed)
    stubs = [v for v in range(n) for _ in range(d)]
    for _ in range(_MAX_PAIRING_ATTEMPTS):
        rng.shuffle(stubs)
        pairs = set()
        ok = True
        for t in range(0, len(stubs), 2):
            a, b = stubs[t], stubs[t + 1]
            if a == b:
                ok = False
                break
            if a > b:
                a, b = b, a
            if (a, b) in pairs:
                ok = False
                break
            pairs.add((a, b))
        if ok:
            return WeightedGraph(n, tuple((a, b, 1.0) for a, b in sorted(pairs)))
    raise RuntimeError(
        f"pairing model failed to produce a simple {d}-regular graph on "
        f"{n} vertices within {_MAX_PAIRING_ATTEMPTS} attempts"
    )


def generate(family: str, *, n: int | None = None, k: int | None = None,
             q: int | None = None, d: int | None = None, seed: int = 0) -> WeightedGraph:
    """Build a named unit-weight graph family.

    Supported: complete(n), cycle(n), path(n), hypercube(k), paley(q) for
    prime q with q % 4 == 1, and random_regular(n, d, seed) via the pairing
    model.  Raises ValueError for unknown families or bad parameters.
    """
    if family == "complete":
        return _complete(_require_positive_int("n", n))
    if family == "cycle":
        return _cycle(_require_positive_int("n", n))
    if family == "path":
        return _path(_require_positive_int("n", n))
    if family == "hypercube":
        return _hypercube(_require_positive_int("k", k))
    if family == "paley":
        return _paley(_require_positive_int("q", q))
    if family == "random_regular":
        n = _require_positive_int("n", n)
        if not isinstance(d, int) or isinstance(d, bool):
            raise ValueError(f"d must be an integer, got {d!r}")
        return _random_regular(n, d, seed)
    raise ValueError(f"unknown graph family {family!r}; expected one of {GENERATOR_FAMILIES}")


def certify_ndl(g: WeightedGraph) -> RegularityCertificate:
    """Certify a graph as d-regular with nontrivial spectral radius lambda.

    Certification is restricted to unit weights: every edge weight must be
    exactly 1.0 and all degrees must agree within 1e-9, otherwise the
    certificate comes back with is_regular False.  lambda is the largest
    magnitude among adjacency eigenvalues excluding one copy of the trivial
    eigenvalue d, so lambda = d flags a disconnected or bipartite graph.
    """
    if any(w != 1.0 for _, _, w in g.edges):
        return RegularityCertificate(is_regular=False)
    deg = g.degree_vector()
    d = int(round(deg[0]))
    if np.abs(deg - d).max() > DEGREE_TOL:
        return RegularityCertificate(is_regular=False)
    if g.n == 1:
        # no nontrivial spectrum to measure
        return RegularityCertificate(is_regular=True, d=0, lambda_=0.0,
                                     lambda_over_d=0.0, lambda_equals_d=False)
    vals = eig_sym(build_adjacency(g)).eigenvalues
    # every adjacency eigenvalue of a d-regular graph lies in [-d, d], so
    # anything above d is solver noise and gets clamped
    lam = float(min(max(abs(vals[0]), abs(vals[-2])), d))
    over = lam / d if d > 0 else 0.0
    return RegularityCertificate(
        is_regular=True,
        d=d,
        lambda_=lam,
        lambda_over_d=over,
        lambda_equals_d=bool(lam >= d - _LAMBDA_EQ_D_TOL),
    )


def graph_to_dict(g: WeightedGraph) -> dict:
    return {"n": g.n, "edges": [[i, j, w] for i, j, w in g.edges]}


def graph_from_dict(obj) -> WeightedGraph:
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise ValueError('graph JSON must be {"n": <int>, "edges": [[i, j, w], ...]}')
    if not isinstance(obj["n"], int) or isinstance(obj["n"], bool):
        raise ValueError("graph JSON field n must be an integer")
    if not isinstance(obj["edges"], list):
        raise ValueError("graph JSON field edges must be a list of [i, j, w]")
    # WeightedGraph checks each edge's shape, endpoints and weight
    g = WeightedGraph(obj["n"], tuple(obj["edges"]))
    for entry in obj["edges"]:
        if not entry[0] < entry[1]:
            raise ValueError(f"graph JSON edge {entry!r} must have 0 <= i < j")
    return g


def write_graph(g: WeightedGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph_to_dict(g), fh)
        fh.write("\n")


def read_graph(path) -> WeightedGraph:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"could not parse graph file {path}: {exc}") from exc
    return graph_from_dict(obj)

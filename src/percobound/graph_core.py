"""Weighted graph model, matrix builders, named generators, regularity certification.

Graphs are simple and undirected with strictly positive edge weights.  The
JSON interchange format is ``{"n": <int>, "edges": [[i, j, w], ...]}`` with
i < j; writers emit edges sorted lexicographically, readers accept any order
but reject duplicates.
"""
from __future__ import annotations

import functools
import itertools
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


def is_integer(value) -> bool:
    """Whether value is an integer, a Python or a numpy one, and not a bool."""
    # exact int first, as in is_real
    return type(value) is int or (
        not isinstance(value, (bool, np.bool_)) and isinstance(value, numbers.Integral))


@dataclass(frozen=True)
class WeightedGraph:
    """Simple undirected graph on vertices 0..n-1 with positive edge weights.

    Every weighted degree must be finite, not only every weight, so that
    Laplacians and their norms stay finite.  Edges are normalized to (i, j, w) with i < j, sorted lexicographically.
    The attributes src, dst and w hold the same edges as read-only arrays.

    The edges are checked as whole columns (see _edge_arrays), and a
    rejected list is reported by its first offending edge in input order,
    in the words of _edge_message, or as a duplicate of an earlier edge.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not is_integer(self.n):
            raise ValueError("vertex count n must be an integer")
        # stored as Python ints, so that graph_to_dict's JSON takes them
        object.__setattr__(self, "n", int(self.n))
        if self.n < 1:
            raise ValueError("vertex count n must be at least 1")
        # every n x n matrix is addressed through flat intp positions i * n + j
        if self.n * self.n > np.iinfo(np.intp).max:
            raise ValueError(f"vertex count n = {self.n} is too large: "
                             f"n * n must fit in a {np.dtype(np.intp).itemsize * 8}-bit index")
        edges = tuple(self.edges)
        columns = _edge_arrays(edges, self.n)
        object.__setattr__(self, "edges", tuple(zip(*(c.tolist() for c in columns))))
        for name, arr in zip(("src", "dst", "w"), columns):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        # finite weights can still sum past the largest float
        overflowed = np.flatnonzero(np.isinf(self.degree_vector()))
        if overflowed.size:
            raise ValueError(f"weighted degree of vertex {overflowed[0]} overflows: "
                             f"its edge weights sum past the largest float")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree_vector(self) -> np.ndarray:
        """Weighted degrees (row sums of the adjacency matrix)."""
        return _vertex_sums(self, self.w)

    @functools.cached_property
    def _scatter(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Where edge_laplacian writes edge k: its flat positions i * n + j
        and j * n + i in an n x n matrix, and the endpoints of every edge
        interleaved, [i0, j0, i1, j1, ...], which _vertex_sums bins."""
        n = self.n
        return (self.src * n + self.dst, self.dst * n + self.src,
                np.stack((self.src, self.dst), axis=1).ravel())


def _edge_message(edge, n: int) -> str | None:
    """Why edge cannot be an edge of a graph on n vertices, or None if it can.

    The rules, in the order they are checked: edge unpacks to (i, j, w), the
    endpoints are integers in range and differ, and the weight is a real
    number, finite and positive; a number beyond the range of a float, such
    as a Python int of 400 digits, is not finite.  Whether the edge repeats
    an earlier one is _edge_arrays' check.
    """
    try:
        i, j, w = edge
    except (TypeError, ValueError):
        return f"edge {edge!r} must be (i, j, w)"
    if not (is_integer(i) and is_integer(j)):
        return f"edge endpoints must be integers, got {edge!r}"
    i, j = int(i), int(j)
    if not (0 <= i < n and 0 <= j < n):
        return f"edge {edge!r} endpoint out of range for n={n}"
    if i == j:
        return f"self-loop at vertex {i} is not allowed"
    i, j = min(i, j), max(i, j)
    if not is_real(w):
        return f"edge ({i},{j}) weight must be a number, got {w!r}"
    try:
        w = float(w)
    except OverflowError:
        return f"edge ({i},{j}) weight must be finite and > 0, got a number beyond the float range"
    if not (w > 0.0) or not math.isfinite(w):
        return f"edge ({i},{j}) weight must be finite and > 0, got {w}"
    return None


def _column_array(column, accepts, plain: set, dtype, count: int):
    """column as an array of dtype, or None if an entry fails accepts or lies
    beyond the range of dtype.

    accepts (is_integer or is_real) looks at nothing but an entry's type, so
    it is tested once per type, and not at all for the types in plain.
    """
    types = set(map(type, column))
    if not (types <= plain or all(map(accepts, dict(zip(map(type, column), column)).values()))):
        return None
    try:
        return np.fromiter(column, dtype, count)
    except OverflowError:
        return None


def _edge_arrays(edges: tuple, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(src, dst, w) of edges on n vertices, each edge turned to i < j and
    the edges sorted by (i, j); or ValueError naming the first offending edge.

    The edges are read as three columns, each checked by type and turned into
    one array, then every per-edge rule and the duplicate check run on the
    arrays.  The first edge, in input order, that breaks a rule of
    _edge_message or repeats the pair of an earlier edge is reported, in
    _edge_message's words or as a duplicate.  Edges whose columns cannot be
    read as arrays (of unequal lengths, of a type no rule accepts, or beyond
    the range of an index or a float) always hold an edge that breaks a rule;
    the first one is found edge by edge, and the edges before it are checked
    here first, since one of them may repeat an earlier pair.
    """
    count = len(edges)
    try:
        # strict: every edge must have as many entries as the first
        columns = tuple(zip(*edges, strict=True)) if count else ((), (), ())
    except (TypeError, ValueError):
        columns = ()
    arrays = (None,) if len(columns) != 3 else (
        _column_array(columns[0], is_integer, {int}, np.intp, count),
        _column_array(columns[1], is_integer, {int}, np.intp, count),
        _column_array(columns[2], is_real, {float, int}, float, count),
    )
    if any(a is None for a in arrays):
        first = next(k for k, edge in enumerate(edges) if _edge_message(edge, n) is not None)
        _edge_arrays(edges[:first], n)
        raise ValueError(_edge_message(edges[first], n))
    i, j, w = arrays
    src, dst = np.minimum(i, j), np.maximum(i, j)
    # written so that NaN weights fail too
    broken = (src < 0) | (dst >= n) | (src == dst) | ~(w > 0.0) | ~np.isfinite(w)
    # a stable sort keeps each pair's edges in input order, so the repeats of
    # a pair are the entries after its first
    order = np.lexsort((dst, src))
    repeated = np.zeros(count, dtype=bool)
    repeated[order[1:]] = (src[order[1:]] == src[order[:-1]]) & (dst[order[1:]] == dst[order[:-1]])
    offenders = np.flatnonzero(broken | repeated)
    if offenders.size:
        k = offenders[0]
        raise ValueError(_edge_message(edges[k], n) or f"duplicate edge ({src[k]},{dst[k]})")
    return src[order], dst[order], w[order]


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
    ends = (np.arange(rows)[:, None] * g.n + g._scatter[2]).ravel()
    sums = np.bincount(ends, weights=np.repeat(values, 2, axis=-1).ravel(),
                       minlength=rows * g.n)
    return sums.astype(float, copy=False).reshape(lead + (g.n,))


def _flat_view(L: np.ndarray) -> np.ndarray:
    """L as a view of shape (..., n * n); reshape would copy a
    non-C-contiguous L, and writes to the copy would be lost."""
    if not L.flags.c_contiguous:
        raise ValueError("the matrices must be a C-contiguous array")
    return L.reshape(L.shape[:-2] + (L.shape[-1] ** 2,))


def diagonal_view(L: np.ndarray) -> np.ndarray:
    """Writable view of the diagonal of each matrix of a C-contiguous
    (..., n, n) array, shape (..., n); any other L raises ValueError."""
    return _flat_view(L)[..., :: L.shape[-1] + 1]


def edge_laplacian(g: WeightedGraph, values: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Laplacian of g with edge k (in g.edges order) weighted values[..., k].

    values of shape (E,) give one n x n matrix; values of shape (c, E) give
    the (c, n, n) stack whose matrix r weights edge k with values[r, k].
    The result is a new array, or out, a C-contiguous float array of that
    shape (any other out raises ValueError), which is filled with 0.0 and
    then written in place: the same bits either way.  Every result equals
    its transpose bit for bit.
    """
    shape = values.shape[:-1] + (g.n, g.n)
    if out is None:
        L = np.zeros(shape)
    elif out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 array of shape {shape}")
    else:
        L = out
        L.fill(0.0)
    upper, lower, _ = g._scatter
    flat = _flat_view(L)
    # 0.0 - values keeps a zero edge value at +0.0, as L[i, j] -= 0.0 would
    flat[..., upper] = flat[..., lower] = 0.0 - values
    diagonal_view(L)[...] = _vertex_sums(g, values)
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
    """value as a Python int, if it is a positive integer (a numpy one too, not a bool)."""
    if not is_integer(value) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def _unit_weight_graph(n: int, src: np.ndarray, dst: np.ndarray) -> WeightedGraph:
    """The graph on n vertices with the unit-weight edges (src[k], dst[k])."""
    return WeightedGraph(n, tuple(zip(src.tolist(), dst.tolist(), itertools.repeat(1.0))))


def _complete(n: int) -> WeightedGraph:
    return _unit_weight_graph(n, *np.triu_indices(n, 1))


def _cycle(n: int) -> WeightedGraph:
    if n == 1:
        return WeightedGraph(1)
    if n == 2:
        # the two cycle edges would coincide; keep the single edge
        return WeightedGraph(2, ((0, 1, 1.0),))
    v = np.arange(n)
    return _unit_weight_graph(n, v, (v + 1) % n)


def _path(n: int) -> WeightedGraph:
    v = np.arange(n - 1)
    return _unit_weight_graph(n, v, v + 1)


def _hypercube(k: int) -> WeightedGraph:
    # vertex v's neighbours differ from it in one bit; each edge is kept once,
    # from the end whose bit is 0
    v = np.arange(1 << k)[:, None]
    u = v ^ (1 << np.arange(k))
    keep = v < u
    return _unit_weight_graph(1 << k, np.broadcast_to(v, u.shape)[keep], u[keep])


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
    x = np.arange(1, q)
    residue = np.zeros(q, dtype=bool)
    residue[x * x % q] = True
    # i < j are adjacent when j - i, which lies in 1..q-1, is a square mod q
    i, j = np.triu_indices(q, 1)
    keep = residue[j - i]
    return _unit_weight_graph(q, i[keep], j[keep])


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
    model.  The integer parameters may be Python or numpy integers, not
    bools.  Raises ValueError for unknown families or bad parameters.  Every
    family but random_regular builds its edge list with numpy index
    arithmetic, in one pass over the vertex pairs it keeps.
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
        if not is_integer(d):
            raise ValueError(f"d must be an integer, got {d!r}")
        return _random_regular(n, int(d), seed)
    raise ValueError(f"unknown graph family {family!r}; expected one of {GENERATOR_FAMILIES}")


def certify_ndl(g: WeightedGraph) -> RegularityCertificate:
    """Certify a graph as d-regular with nontrivial spectral radius lambda.

    Certification is restricted to unit weights: every edge weight must be
    exactly 1.0 and all degrees must agree within 1e-9, otherwise the
    certificate comes back with is_regular False.  lambda is the largest
    magnitude among adjacency eigenvalues excluding one copy of the trivial
    eigenvalue d, so lambda = d flags a disconnected or bipartite graph.
    """
    if np.any(g.w != 1.0):
        return RegularityCertificate(is_regular=False)
    deg = g.degree_vector()
    d = int(round(deg[0]))
    if np.abs(deg - d).max() > DEGREE_TOL:
        return RegularityCertificate(is_regular=False)
    if g.n == 1:
        # no nontrivial spectrum to measure
        return RegularityCertificate(is_regular=True, d=0, lambda_=0.0,
                                     lambda_over_d=0.0, lambda_equals_d=False)
    vals = eig_sym(build_adjacency(g))
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

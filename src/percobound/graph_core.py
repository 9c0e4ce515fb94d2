"""Weighted graph model, matrix builders, named generators, regularity certification.

Graphs are simple and undirected with strictly positive edge weights.  The
JSON interchange format is ``{"n": <int>, "edges": [[i, j, w], ...]}`` with
i < j; writers emit edges sorted lexicographically, readers accept any order
but reject duplicates.
"""
from __future__ import annotations

import functools
import json
import math
import numbers
import random
from dataclasses import dataclass, fields

import numpy as np

from .spectral import eig_sym

__all__ = [
    "WeightedGraph",
    "RegularityCertificate",
    "build_adjacency",
    "build_laplacian",
    "generate",
    "certify_ndl",
    "graph_to_dict",
    "graph_from_dict",
    "read_graph",
    "write_graph",
]

GENERATOR_FAMILIES = ("complete", "cycle", "path", "hypercube", "paley", "random_regular")

# Absolute tolerance on weighted degrees when testing regularity.
DEGREE_TOL = 1e-9
# lambda is considered degenerate (equal to d) within this tolerance; that
# happens exactly for disconnected or bipartite regular graphs.
_LAMBDA_EQ_D_TOL = 1e-8
_MAX_PAIRING_ATTEMPTS = 100


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


class _EqualByKey:
    """Equality by self._key(): objects of one class are equal when their
    keys are, and hash equal.  The key is the dataclass fields, each array as
    its dtype, shape and bits, so == never compares arrays element by element
    and a NaN equals a NaN of the same bits.  A class whose arrays are
    writable sets __hash__ to None."""

    def _key(self) -> tuple:
        return tuple((v.dtype.str, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v
                     for v in [getattr(self, f.name) for f in fields(self)])

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())


@dataclass(frozen=True, init=False, eq=False)
class WeightedGraph(_EqualByKey):
    """Simple undirected graph on vertices 0..n-1 with positive edge weights.

    n and the read-only arrays src, dst (intp) and w (float) are the whole
    state: edge k joins src[k] < dst[k] with weight w[k], sorted by (src,
    dst).  Every weighted degree must be finite, not only every weight, so
    that Laplacians and their norms stay finite.  WeightedGraph(n, edges)
    takes (i, j, w) edges in any order and orientation and checks them one
    at a time, in input order, by _checked_edge; the generators build from
    arrays with _from_arrays, whose _edge_arrays checks the same rules on
    whole arrays.  Both sort with _edge_arrays and then check the
    degrees.  edges, the same edges as a
    tuple of (int, int, float), is built on first read.  _scatter, where
    edge_laplacian writes each edge, is built with the arrays: its keys
    src * n + dst are the ones _edge_arrays sorted by.  Two graphs are
    equal, and hash equal, when n and the arrays are (_EqualByKey); every
    weight is finite and > 0, so equal weights have equal bits.
    """

    n: int
    src: np.ndarray
    dst: np.ndarray
    w: np.ndarray

    def __init__(self, n, edges=()):
        n = _vertex_count(n)
        # one pass in input order, so the first offending edge is the one named
        checked, seen = [], set()
        for edge in edges:
            i, j, w = edge = _checked_edge(edge, n)
            if i * n + j in seen:
                raise ValueError(f"duplicate edge ({i},{j})")
            seen.add(i * n + j)
            checked.append(edge)
        i, j, w = zip(*checked) if checked else ((), (), ())
        self._freeze(n, _edge_arrays(n, np.array(i, np.intp), np.array(j, np.intp),
                                     np.array(w, float)))

    @classmethod
    def _from_arrays(cls, n: int, src, dst, w) -> WeightedGraph:
        """The graph on n vertices with the edges (src[k], dst[k], w[k]),
        taken as intp, intp and float arrays."""
        g = cls.__new__(cls)
        n = _vertex_count(n)
        g._freeze(n, _edge_arrays(n, np.asarray(src, np.intp), np.asarray(dst, np.intp),
                                  np.asarray(w, float)))
        return g

    def _freeze(self, n: int, columns) -> None:
        src, dst, w, upper = columns
        object.__setattr__(self, "n", n)
        for name, arr in (("src", src), ("dst", dst), ("w", w)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        # where edge_laplacian writes edge k: its flat positions i * n + j
        # and j * n + i in an n x n matrix, and the endpoints of every edge
        # interleaved, [i0, j0, i1, j1, ...], which _vertex_sums bins
        object.__setattr__(self, "_scatter", (upper, dst * n + src,
                                              np.stack((src, dst), axis=1).ravel()))
        # finite weights can still sum past the largest float
        overflowed = np.flatnonzero(np.isinf(self.degree_vector()))
        if overflowed.size:
            raise ValueError(f"weighted degree of vertex {overflowed[0]} overflows: "
                             f"its edge weights sum past the largest float")

    @functools.cached_property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        return tuple(zip(self.src.tolist(), self.dst.tolist(), self.w.tolist()))

    def __reduce__(self):  # rebuilt and re-checked: read-only arrays, edges unbuilt
        return type(self)._from_arrays, (self.n, self.src, self.dst, self.w)

    @property
    def edge_count(self) -> int:
        return self.src.size

    def degree_vector(self) -> np.ndarray:
        """Weighted degrees (row sums of the adjacency matrix)."""
        return _vertex_sums(self, self.w)


def _vertex_count(n) -> int:
    """n as a Python int (which graph_to_dict's JSON takes), if it is a vertex count."""
    if not is_integer(n):
        raise ValueError("vertex count n must be an integer")
    n = int(n)
    if n < 1:
        raise ValueError("vertex count n must be at least 1")
    # every n x n matrix is addressed through flat intp positions i * n + j
    if n * n > np.iinfo(np.intp).max:
        raise ValueError(f"vertex count n = {n} is too large: "
                         f"n * n must fit in a {np.dtype(np.intp).itemsize * 8}-bit index")
    return n


def _checked_edge(edge, n: int) -> tuple[int, int, float]:
    """edge as (i, j, w) with i < j, Python ints and a float, if it can be an
    edge of a graph on n vertices; else ValueError.

    The rules, in the order they are checked: edge unpacks to (i, j, w), the
    endpoints are integers in range and differ, and the weight is a real
    number, finite and positive; a number beyond the range of a float, such
    as a Python int of 400 digits, is not finite.  Whether the edge repeats
    an earlier one is its caller's check.
    """
    try:
        i, j, w = edge
    except (TypeError, ValueError):
        raise ValueError(f"edge {edge!r} must be (i, j, w)") from None
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
    # written so that NaN fails too
    if not 0.0 < w < math.inf:
        raise ValueError(f"edge ({i},{j}) weight must be finite and > 0, got {w}")
    return i, j, w


def _edge_arrays(n: int, i: np.ndarray, j: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, ...]:
    """(src, dst, w, key) of the edges (i[k], j[k], w[k]) on n vertices,
    each turned to src < dst and the edges sorted by (src, dst), where
    key = src * n + dst in that order; or ValueError.

    The edge rules of _checked_edge, and no repeated pair, run on whole
    arrays.  The first edge k, in input order, that breaks one is reported:
    _checked_edge((i[k], j[k], w[k]), n) raises its words, or it is a
    duplicate.
    """
    src, dst = np.minimum(i, j), np.maximum(i, j)
    # written so that NaN weights fail too
    broken = (src < 0) | (dst >= n) | (src == dst) | ~(w > 0.0) | ~np.isfinite(w)
    # a stable sort keeps each pair's edges in input order, so the repeats of
    # a pair are the entries after its first.  A pair in range has its own key
    # below n * n; a broken edge's key may equal another's, which flags only
    # the later of the two, so never an edge before the first broken one.
    key = src * n + dst
    order = np.argsort(key, kind="stable")
    repeated = np.zeros(src.size, dtype=bool)
    key = key[order]
    repeated[order[1:]] = key[1:] == key[:-1]
    offenders = np.flatnonzero(broken | repeated)
    if offenders.size:
        k = offenders[0]
        _checked_edge((i[k], j[k], w[k]), n)
        raise ValueError(f"duplicate edge ({src[k]},{dst[k]})")
    return src[order], dst[order], w[order], key


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
    return WeightedGraph._from_arrays(n, src, dst, np.ones(src.size))


def _complete(n: int) -> WeightedGraph:
    return _unit_weight_graph(n, *np.triu_indices(n, 1))


def _cycle(n: int) -> WeightedGraph:
    # on fewer than three vertices the cycle's edges would be loops or
    # coincide; keep the path's
    v = np.arange(n if n > 2 else n - 1)
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
    return q > 1 and all(q % f for f in range(2, math.isqrt(q) + 1))


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
    """d-regular graph by sequential pairing (Steger and Wormald, "Generating
    random regular graphs quickly", CPC 1999), deterministic in seed.  Above
    d = (n - 1) / 2 it is the complement of an (n - 1 - d)-regular graph,
    which gets stuck less often.  A stuck run starts over, at most
    _MAX_PAIRING_ATTEMPTS runs in all, and then RuntimeError is raised.
    """
    if d < 0 or d >= n:
        raise ValueError(f"random_regular needs 0 <= d < n, got n={n}, d={d}")
    if (n * d) % 2 != 0:
        raise ValueError(f"random_regular needs n*d even, got n={n}, d={d}")
    rng = random.Random(seed)
    sparse = min(d, n - 1 - d)
    for _ in range(_MAX_PAIRING_ATTEMPTS):
        joined = _sequential_pairing(n, sparse, rng)
        if joined is not None:
            codes = np.fromiter(joined, np.intp, len(joined))
            if sparse < d:
                i, j = np.triu_indices(n, 1)
                codes = np.setdiff1d(i * n + j, codes, assume_unique=True)
            return _unit_weight_graph(n, codes // n, codes % n)
    raise RuntimeError(f"sequential pairing failed to produce a simple {d}-regular graph on "
                       f"{n} vertices within {_MAX_PAIRING_ATTEMPTS} attempts")


def _sequential_pairing(n: int, d: int, rng: random.Random) -> set | None:
    """The edges i < j of a d-regular graph as codes i * n + j, or None if
    the run gets stuck.  Every vertex holds d points; two unpaired points
    are drawn uniformly and paired if their vertices differ and are not yet
    adjacent, until no point or no pair that may be joined is left."""
    points = [v for v in range(n) for _ in range(d)]
    joined = set()
    while points:
        m, misses = len(points), 0
        while True:
            a, b = rng.randrange(m), rng.randrange(m - 1)
            b += b >= a
            u, v = points[a], points[b]
            code = u * n + v if u < v else v * n + u
            if u != v and code not in joined:
                break
            misses += 1
            # after m misses in a row, make sure some pair is left to draw
            if misses == m:
                left = sorted(set(points))
                if all(x * n + y in joined for k, x in enumerate(left) for y in left[k + 1:]):
                    return None
                misses = 0
        joined.add(code)
        for k in sorted((a, b), reverse=True):
            points[k] = points[-1]
            points.pop()
    return joined


def generate(family: str, *, n: int | None = None, k: int | None = None,
             q: int | None = None, d: int | None = None, seed: int = 0) -> WeightedGraph:
    """Build a named unit-weight graph family.

    Supported: complete(n), cycle(n), path(n), hypercube(k), paley(q) for
    prime q with q % 4 == 1, and random_regular(n, d, seed) by sequential
    pairing.  The integer parameters may be Python or numpy integers, not
    bools.  Raises ValueError for unknown families or bad parameters.  Every
    family hands its edges to the graph as index arrays, and no edge tuple
    is built: all but random_regular find them with numpy index arithmetic,
    in one pass over the vertex pairs they keep.
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
    g = WeightedGraph(obj["n"], obj["edges"])
    for entry in obj["edges"]:
        if not entry[0] < entry[1]:
            raise ValueError(f"graph JSON edge {entry!r} must have 0 <= i < j")
    return g


def write_graph(g: WeightedGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph_to_dict(g), fh)
        fh.write("\n")


def _read_json(path, what: str):
    """The JSON value in the file at path; one that does not parse raises
    ValueError naming it as a `what` file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"could not parse {what} file {path}: {exc}") from exc


def read_graph(path) -> WeightedGraph:
    return graph_from_dict(_read_json(path, "graph"))

"""Graph model, generators, certification, and JSON interchange tests."""
from __future__ import annotations

import ast
import contextlib
import dataclasses
import json
import math
import pickle
import random
import signal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from percobound import (
    RegularityCertificate,
    SurvivalProfile,
    WeightedGraph,
    build_adjacency,
    build_laplacian,
    certify_ndl,
    eig_sym,
    generate,
    graph_core,
    harness_cli,
    optimize_alpha,
    oracle,
    read_graph,
    trial_block,
    write_graph,
)
from percobound.graph_core import graph_from_dict

from percolation_reference import UnionFind

from conftest import petersen_graph


class TestWeightedGraph:
    def test_edges_normalized_and_sorted(self):
        g = WeightedGraph(4, ((3, 1, 2.0), (0, 2, 1.0)))
        assert g.edges == ((0, 2, 1.0), (1, 3, 2.0))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            WeightedGraph(3, ((0, 1, 1.0), (1, 0, 2.0)))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            WeightedGraph(3, ((1, 1, 1.0),))

    def test_bad_weight_rejected(self):
        for w in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="weight"):
                WeightedGraph(2, ((0, 1, w),))

    def test_overflowing_weighted_degree_rejected(self):
        # each weight is finite, vertex 1's two weights sum past the largest float
        with pytest.raises(ValueError, match="weighted degree of vertex 1 overflows"):
            WeightedGraph(3, ((0, 1, 1.7e308), (1, 2, 1.7e308)))
        g = WeightedGraph(3, ((0, 1, 8.9e307), (1, 2, 8.9e307)))
        assert g.degree_vector()[1] == 1.78e308

    def test_vertex_count_whose_square_overflows_an_index_rejected(self):
        # the least n with n * n past the largest intp
        n = math.isqrt(np.iinfo(np.intp).max) + 1
        with pytest.raises(ValueError, match=f"^vertex count n = {n} is too large"):
            WeightedGraph(n)

    def test_non_integer_endpoints_rejected(self):
        for edge in ((True, 2, 1.0), (0, 1.0, 1.0), (0, "1", 1.0)):
            with pytest.raises(ValueError, match="endpoints must be integers"):
                WeightedGraph(3, (edge,))

    def test_numpy_integers_accepted_as_python_ints(self, tmp_path):
        g = WeightedGraph(np.int64(3), [(np.int64(0), np.uint8(1), 1.0), (2, np.int32(1), 0.5)])
        assert g == WeightedGraph(3, ((0, 1, 1.0), (1, 2, 0.5)))
        assert type(g.n) is int and all(type(v) is int for i, j, _ in g.edges for v in (i, j))
        path = tmp_path / "g.json"
        write_graph(g, path)
        assert read_graph(path) == g
        for edge in ((np.True_, 1, 1.0), (0, True, 1.0)):
            with pytest.raises(ValueError, match="endpoints must be integers"):
                WeightedGraph(3, (edge,))
        for n in (True, np.True_, 3.0):
            with pytest.raises(ValueError, match="vertex count n must be an integer"):
                WeightedGraph(n)

    def test_malformed_edge_rejected(self):
        for edge in (5, (0, 1), (0, 1, 1.0, 2.0)):
            with pytest.raises(ValueError, match=r"must be \(i, j, w\)"):
                WeightedGraph(3, (edge,))
        for w in (None, [1.0], "heavy", "2", True, np.True_):
            with pytest.raises(ValueError, match=r"edge \(0,1\) weight must be a number"):
                WeightedGraph(3, ((0, 1, w),))

    def test_endpoint_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            WeightedGraph(2, ((0, 2, 1.0),))

    def test_n_validation(self):
        with pytest.raises(ValueError):
            WeightedGraph(0)

    def test_degree_vector(self):
        g = WeightedGraph(3, ((0, 1, 2.0), (1, 2, 0.5)))
        assert np.allclose(g.degree_vector(), [2.0, 2.5, 0.5])

    def test_broken_edge_reported_before_an_overflowing_degree(self):
        # vertex 1's degree overflows on the edges before the offender, which is named
        heavy = ((0, 1, 1.7e308), (1, 2, 1.7e308))
        with pytest.raises(ValueError, match=r"^edge \(0, 1\) must be \(i, j, w\)$"):
            WeightedGraph(3, heavy + ((0, 1),))
        with pytest.raises(ValueError, match=r"^duplicate edge \(0,1\)$"):
            WeightedGraph(3, heavy + ((1, 0, 1.0),))

    @pytest.mark.parametrize("g", [generate("cycle", n=5), WeightedGraph(3, ((2, 0, 0.5),))],
                             ids=["generated", "listed"])
    def test_state_is_read_only(self, g):
        for name in ("n", "src", "edges"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(g, name, getattr(g, name))
        for name in ("src", "dst", "w"):
            column = getattr(g, name)
            assert not column.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[0]

    def test_equal_graphs_hash_equal(self):
        g = generate("path", n=3)
        same = WeightedGraph(3, ((2, 1, 1.0), (1, 0, 1)))
        assert g == same and hash(g) == hash(same)
        assert g != WeightedGraph(3, ((0, 1, 1.0), (1, 2, 2.0)))
        assert g != WeightedGraph(4, ((0, 1, 1.0), (1, 2, 1.0)))
        assert g != g.edges

    def test_a_pickled_graph_is_rebuilt_and_checked(self):
        # the default reduce would copy __dict__ and unpickle writable arrays
        g = generate("paley", q=13)
        g.edges  # built on the original, not carried over
        copy = pickle.loads(pickle.dumps(g))
        assert copy == g and hash(copy) == hash(g)
        assert not any(getattr(copy, name).flags.writeable for name in ("src", "dst", "w"))
        assert "edges" not in vars(copy) and copy.edges == g.edges
        # arrays that break a rule raise on unpickling, as in the constructor
        bad = WeightedGraph.__new__(WeightedGraph)
        for name, value in (("n", 3), ("src", np.array([0, 0])), ("dst", np.array([1, 1])),
                            ("w", np.array([1.0, 2.0]))):
            object.__setattr__(bad, name, value)
        with pytest.raises(ValueError, match="duplicate"):
            pickle.loads(pickle.dumps(bad))


def test_command_paths_leave_the_edge_tuple_unbuilt(monkeypatch, tmp_path):
    # edges is built on first read; nothing on the way from generate to a
    # report reads it, so no graph builds it
    built = []
    edges = WeightedGraph.__dict__["edges"]
    monkeypatch.setattr(WeightedGraph, "edges", property(lambda g: built.append(g) or edges.func(g)))
    paley = generate("paley", q=101)
    certify_ndl(paley)
    optimize_alpha(paley, SurvivalProfile.uniform(101, 0.9), 0.1)
    cycle = generate("cycle", n=8)
    profile = SurvivalProfile.uniform(8, 0.6)
    trial_block(cycle, profile, 0.5, seed=0, start=0, count=40)
    oracle.exact_distribution(cycle, profile, 0.5, "a_delta")
    assert harness_cli.main(["bound", "--family", "paley", "--q", "13", "--p", "0.9",
                             "--epsilon", "0.1", "--output", str(tmp_path / "bound.json")]) == 0
    assert not built
    assert "edges" not in vars(paley) and "edges" not in vars(cycle)


class TestBuilders:
    def test_path3_matrices(self, p3):
        A = build_adjacency(p3)
        assert np.array_equal(A, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        L = build_laplacian(p3)
        assert np.array_equal(L, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])

    def test_weighted_laplacian(self):
        g = WeightedGraph(2, ((0, 1, 2.5),))
        assert np.array_equal(build_laplacian(g), [[2.5, -2.5], [-2.5, 2.5]])

    def test_laplacian_rowsums_vanish(self):
        for g in (generate("complete", n=9), generate("hypercube", k=4), petersen_graph()):
            L = build_laplacian(g)
            assert np.abs(L @ np.ones(g.n)).max() <= 1e-12

    def test_laplacian_psd(self):
        for g in (generate("cycle", n=7), generate("paley", q=13),
                  WeightedGraph(4, ((0, 1, 3.0), (2, 3, 0.25)))):
            vals = eig_sym(build_laplacian(g))
            assert vals[0] >= -1e-9

    def test_triangle_plus_isolated_vertex(self):
        g = WeightedGraph(4, ((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)))
        vals = eig_sym(build_laplacian(g))
        assert np.allclose(vals, [0, 0, 3, 3], atol=1e-9)


class TestGenerators:
    def test_complete(self):
        g = generate("complete", n=5)
        assert g.n == 5 and g.edge_count == 10

    def test_cycle_small_cases(self):
        assert generate("cycle", n=1).edge_count == 0
        assert generate("cycle", n=2).edges == ((0, 1, 1.0),)
        assert generate("cycle", n=3).edge_count == 3

    def test_path(self):
        g = generate("path", n=6)
        assert g.edge_count == 5
        assert np.allclose(sorted(g.degree_vector()), [1, 1, 2, 2, 2, 2])

    def test_hypercube(self):
        g = generate("hypercube", k=3)
        assert g.n == 8 and g.edge_count == 12
        assert np.allclose(g.degree_vector(), 3.0)

    def test_paley_5_is_pentagon(self):
        g = generate("paley", q=5)
        assert g.edges == generate("cycle", n=5).edges

    def test_paley_13_regular(self):
        g = generate("paley", q=13)
        assert g.n == 13 and np.allclose(g.degree_vector(), 6.0)

    def test_paley_rejects_bad_q(self):
        for q in (7, 9, 12, 1):
            with pytest.raises(ValueError, match="paley"):
                generate("paley", q=q)

    def test_random_regular_degrees(self):
        for n, d, seed in ((8, 3, 0), (10, 4, 1), (16, 5, 2), (9, 2, 3)):
            g = generate("random_regular", n=n, d=d, seed=seed)
            assert np.allclose(g.degree_vector(), d)
            assert all(i != j for i, j, _ in g.edges)

    def test_random_regular_deterministic(self):
        a = generate("random_regular", n=12, d=3, seed=9)
        b = generate("random_regular", n=12, d=3, seed=9)
        assert a.edges == b.edges
        c = generate("random_regular", n=12, d=3, seed=10)
        assert c.edges != a.edges

    def test_random_regular_parameter_errors(self):
        with pytest.raises(ValueError, match="even"):
            generate("random_regular", n=5, d=3, seed=0)
        with pytest.raises(ValueError, match="0 <= d < n"):
            generate("random_regular", n=4, d=4, seed=0)

    def test_random_regular_empty(self):
        g = generate("random_regular", n=6, d=0, seed=0)
        assert g.edge_count == 0

    @pytest.mark.parametrize("n, d", [(200, 16), (60, 7), (60, 6), (9, 4), (9, 6), (30, 28)])
    def test_random_regular_is_simple_regular_and_seeded(self, n, d):
        # a pairing that rejects whole attempts needs about exp((d^2 - 1) / 4) of them
        with time_limit(10.0):
            g, again, other = (generate("random_regular", n=n, d=d, seed=s) for s in (3, 3, 4))
        cert = certify_ndl(g)
        assert cert.is_regular and cert.d == d
        # WeightedGraph rejects loops and repeated pairs, so this is a count of distinct pairs
        assert g.edge_count == n * d // 2
        assert g == again and g != other

    def test_sequential_pairing_runs_end_or_get_stuck(self):
        stuck = 0
        for seed in range(100):
            with time_limit(10.0):
                joined = graph_core._sequential_pairing(8, 3, random.Random(seed))
            if joined is None:
                stuck += 1
                continue
            pairs = [divmod(code, 8) for code in joined]
            assert len(pairs) == 12 and all(i < j for i, j in pairs)
            assert np.bincount(np.ravel(pairs), minlength=8).tolist() == [3] * 8
        assert 0 < stuck < 100

    def test_random_regular_gives_up_after_its_attempts(self, monkeypatch):
        runs = []
        monkeypatch.setattr(graph_core, "_sequential_pairing", lambda n, d, rng: runs.append(d))
        attempts = graph_core._MAX_PAIRING_ATTEMPTS
        with pytest.raises(RuntimeError, match=f"within {attempts} attempts$"):
            generate("random_regular", n=10, d=3, seed=0)
        assert runs == [3] * attempts

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown graph family"):
            generate("torus", n=4)

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            generate("cycle", n=0)
        with pytest.raises(ValueError):
            generate("hypercube", k=0)

    @pytest.mark.parametrize("family, params", [
        ("complete", {"n": 5}), ("cycle", {"n": 5}), ("path", {"n": 5}),
        ("hypercube", {"k": 3}), ("paley", {"q": 13}),
        ("random_regular", {"n": 8, "d": 3, "seed": 2}),
    ])
    def test_numpy_integer_parameters(self, family, params):
        as_numpy = {name: np.int64(v) if name != "seed" else v for name, v in params.items()}
        assert generate(family, **as_numpy) == generate(family, **params)

    @pytest.mark.parametrize("family, params, message", [
        ("cycle", {"n": True}, "^n must be a positive integer, got True$"),
        ("hypercube", {"k": np.True_}, "^k must be a positive integer, got np.True_$"),
        ("paley", {"q": np.float64(13.0)}, r"^q must be a positive integer, got np.float64\(13.0\)$"),
        ("path", {"n": np.int64(0)}, r"^n must be a positive integer, got np.int64\(0\)$"),
        ("random_regular", {"n": 8, "d": True}, "^d must be an integer, got True$"),
        ("random_regular", {"n": 8, "d": np.float64(3.0)},
         r"^d must be an integer, got np.float64\(3.0\)$"),
    ])
    def test_bools_and_floats_rejected(self, family, params, message):
        with pytest.raises(ValueError, match=message):
            generate(family, **params)


class TestCertify:
    def test_complete_graphs(self):
        # non-trivial adjacency eigenvalues of K_n are all -1
        for n in range(2, 33):
            cert = certify_ndl(generate("complete", n=n))
            assert cert.is_regular and cert.d == n - 1
            assert abs(cert.lambda_ - 1.0) <= 1e-9
            # K_2 is bipartite (lambda = d = 1); larger cliques are not flagged
            assert cert.lambda_equals_d == (n == 2)

    def test_petersen(self):
        cert = certify_ndl(petersen_graph())
        assert cert.is_regular and cert.d == 3
        assert abs(cert.lambda_ - 2.0) <= 1e-9
        assert cert.lambda_over_d == pytest.approx(2.0 / 3.0)
        assert not cert.lambda_equals_d

    def test_paley_13(self, paley13):
        cert = certify_ndl(paley13)
        assert cert.d == 6
        assert cert.lambda_ == pytest.approx((1.0 + math.sqrt(13.0)) / 2.0, abs=1e-9)

    def test_bipartite_flagged(self):
        cert = certify_ndl(generate("hypercube", k=3))
        assert cert.is_regular and cert.d == 3
        assert abs(cert.lambda_ - 3.0) <= 1e-9
        assert cert.lambda_equals_d

    def test_disconnected_flagged(self):
        ring = generate("cycle", n=4)
        shifted = tuple((i + 4, j + 4, w) for i, j, w in ring.edges)
        g = WeightedGraph(8, ring.edges + shifted)
        cert = certify_ndl(g)
        assert cert.is_regular and cert.d == 2
        assert cert.lambda_equals_d

    def test_irregular_refused(self, p3):
        cert = certify_ndl(p3)
        assert cert == RegularityCertificate(is_regular=False)
        assert cert.d is None and cert.lambda_ is None

    def test_non_unit_weights_refused(self):
        g = WeightedGraph(4, tuple((i, j, 2.0) for i, j, _ in generate("cycle", n=4).edges))
        assert not certify_ndl(g).is_regular

    def test_single_vertex(self):
        cert = certify_ndl(WeightedGraph(1))
        assert cert.is_regular and cert.d == 0

    def test_to_dict_keys(self):
        d = certify_ndl(generate("cycle", n=5)).to_dict()
        assert set(d) == {"is_regular", "d", "lambda", "lambda_over_d", "lambda_equals_d"}


class TestJsonInterchange:
    def test_roundtrip(self, tmp_path, petersen):
        path = tmp_path / "g.json"
        write_graph(petersen, path)
        assert read_graph(path) == petersen

    def test_writer_emits_sorted_edges(self, tmp_path):
        path = tmp_path / "g.json"
        write_graph(WeightedGraph(3, ((1, 2, 1.0), (0, 2, 1.0))), path)
        obj = json.loads(path.read_text())
        assert obj == {"n": 3, "edges": [[0, 2, 1.0], [1, 2, 1.0]]}

    def test_reader_accepts_any_order(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"n": 3, "edges": [[1, 2, 1.0], [0, 1, 0.5]]}')
        g = read_graph(path)
        assert g.edges == ((0, 1, 0.5), (1, 2, 1.0))

    def test_reader_rejects_duplicates(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"n": 3, "edges": [[0, 1, 1.0], [0, 1, 2.0]]}')
        with pytest.raises(ValueError, match="duplicate"):
            read_graph(path)

    def test_reader_rejects_reversed_endpoints(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"n": 3, "edges": [[2, 1, 1.0]]}')
        with pytest.raises(ValueError, match="0 <= i < j"):
            read_graph(path)

    def test_reader_names_the_first_reversed_edge_of_a_long_list(self):
        edges = [[i, i + 1, 1.0] for i in range(2999)]
        edges[2500] = [2501, 2500, 1.0]
        edges[2700] = [2701, 2700, 0.5]
        with pytest.raises(ValueError,
                           match=r"^graph JSON edge \[2501, 2500, 1\.0\] must have 0 <= i < j$"):
            graph_from_dict({"n": 3000, "edges": edges})
        del edges[2500]
        with pytest.raises(ValueError, match=r"^graph JSON edge \[2701, 2700, 0\.5\] must"):
            graph_from_dict({"n": 3000, "edges": edges})

    def test_reader_rejects_malformed(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"edges": []}')
        with pytest.raises(ValueError, match="graph JSON"):
            read_graph(path)
        path.write_text("not json")
        with pytest.raises(ValueError, match="could not parse"):
            read_graph(path)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    weights = draw(st.lists(
        st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
        min_size=len(chosen), max_size=len(chosen),
    ))
    return WeightedGraph(n, tuple((i, j, w) for (i, j), w in zip(chosen, weights)))


@settings(max_examples=40, deadline=None)
@given(small_graphs())
def test_roundtrip_property(tmp_path_factory, g):
    path = tmp_path_factory.mktemp("graphs") / "g.json"
    write_graph(g, path)
    assert read_graph(path) == g


@settings(max_examples=40, deadline=None)
@given(small_graphs())
def test_laplacian_invariants_property(g):
    L = build_laplacian(g)
    assert np.abs(L - L.T).max() == 0.0
    assert np.abs(L @ np.ones(g.n)).max() <= 1e-12
    if g.n >= 1:
        assert eig_sym(L)[0] >= -1e-9


def _called_names(node: ast.AST) -> set:
    return {call.func.id if isinstance(call.func, ast.Name) else call.func.attr
            for call in ast.walk(node) if isinstance(call, ast.Call)
            and isinstance(call.func, (ast.Name, ast.Attribute))}


def test_edge_rules_are_defined_once_and_generators_build_no_edge_tuples():
    # _checked_edge alone words the per-edge rules, and only the edge-list
    # constructor, the one door for outside input, calls it; _edge_arrays,
    # which both constructors call, checks no rule; the functions generate
    # reaches neither call WeightedGraph(n, edges) nor build a tuple per edge
    package = Path(graph_core.__file__).parent
    defined = [(path.name, node.name) for path in sorted(package.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.FunctionDef) and node.name in ("_edge_arrays", "_checked_edge")]
    assert sorted(defined) == [("graph_core.py", "_checked_edge"), ("graph_core.py", "_edge_arrays")]
    tree = ast.parse(Path(graph_core.__file__).read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    graph_class = next(node for node in tree.body
                       if isinstance(node, ast.ClassDef) and node.name == "WeightedGraph")
    methods = {node.name: node for node in graph_class.body if isinstance(node, ast.FunctionDef)}
    for name in ("__init__", "_from_arrays"):
        assert {"_edge_arrays", "_freeze"} <= _called_names(methods[name]), name
    callers = sorted(node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                     and "_checked_edge" in _called_names(node))
    assert callers == ["__init__"]
    # it calls no function of the module, and raises nothing
    edge_arrays = functions["_edge_arrays"]
    assert not _called_names(edge_arrays) & functions.keys()
    assert not any(isinstance(node, ast.Raise) for node in ast.walk(edge_arrays))
    reached, todo = set(), ["generate"]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += sorted(_called_names(functions[name]) & functions.keys())
    assert {"_complete", "_cycle", "_path", "_hypercube", "_paley", "_random_regular",
            "_sequential_pairing", "_unit_weight_graph"} <= reached
    for name in sorted(reached):
        assert not _called_names(functions[name]) & {"WeightedGraph", "tuple", "zip"}, name
        per_item = [node.lineno for node in ast.walk(functions[name])
                    if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp))
                    and isinstance(node.elt, ast.Tuple)]
        assert not per_item, (name, per_item)
    assert "_from_arrays" in _called_names(functions["_unit_weight_graph"])


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in the block once it has run for seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestUnionFind:
    def test_merge_and_count(self):
        uf = UnionFind(5)
        assert uf.component_count() == 5
        assert uf.union(0, 1)
        assert not uf.union(1, 0)
        uf.union(2, 3)
        assert uf.component_count() == 3
        assert uf.component_count(members=[0, 1]) == 1
        assert uf.component_count(members=[0, 4]) == 2

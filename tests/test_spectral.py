"""Eigensolver wrapper tests: frozen spectra, invariants, contract errors."""
from __future__ import annotations

import ast
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import spectral_reference
from percolation_reference import UnionFind
from percobound import (
    build_laplacian,
    eig_sym,
    generate,
    lambda2,
    spectral,
    spectral_norm,
)
from percobound.graph_core import WeightedGraph

from conftest import petersen_graph


def cycle_laplacian_spectrum(n: int) -> np.ndarray:
    return np.sort([2.0 - 2.0 * math.cos(2.0 * math.pi * k / n) for k in range(n)])


class TestEigSym:
    def test_zero_matrix(self):
        res = eig_sym(np.zeros((3, 3)))
        assert np.allclose(res, 0.0)

    def test_diagonal_sorted_ascending(self):
        res = eig_sym(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(res, [1.0, 2.0, 3.0])

    def test_path3_laplacian(self):
        L = build_laplacian(generate("path", n=3))
        assert np.allclose(eig_sym(L), [0.0, 1.0, 3.0], atol=1e-10)

    def test_c6_laplacian(self):
        L = build_laplacian(generate("cycle", n=6))
        assert np.allclose(eig_sym(L), [0, 1, 1, 3, 3, 4], atol=1e-9)

    def test_cycle_closed_form_sample(self):
        for n in (3, 5, 17, 40, 64):
            vals = eig_sym(build_laplacian(generate("cycle", n=n)))
            assert np.abs(vals - cycle_laplacian_spectrum(n)).max() <= 1e-8

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="^matrix is not symmetric"):
            eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            eig_sym(np.zeros((2, 3)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            eig_sym(np.zeros((0, 0)))

    def test_tiny_asymmetry_tolerated(self):
        M = np.array([[2.0, 1.0], [1.0 + 1e-13, 2.0]])
        res = eig_sym(M)
        assert np.allclose(res, [1.0, 3.0], atol=1e-10)

    def test_trace_matches_eigenvalue_sum(self):
        rng = np.random.default_rng(7)
        for n in (2, 5, 16, 40):
            R = rng.standard_normal((n, n))
            M = R + R.T
            vals = eig_sym(M)
            norm = max(abs(vals[0]), abs(vals[-1]))
            assert abs(vals.sum() - np.trace(M)) <= 1e-8 * n * max(1.0, norm)

    def test_stack_matches_per_matrix_calls(self):
        rng = np.random.default_rng(5)
        for m in (1, 2, 7, 15):
            R = rng.standard_normal((9, m, m)) * 10.0 ** rng.uniform(-3, 3, (9, 1, 1))
            stack = R + R.transpose(0, 2, 1)
            stack[4] = build_laplacian(generate("cycle", n=m))
            vals = eig_sym(stack)
            assert vals.shape == (9, m)
            for k in range(9):
                single = eig_sym(stack[k])
                assert vals[k].tobytes() == single.tobytes()

    def test_stack_names_the_asymmetric_matrix(self):
        stack = np.stack([np.eye(3)] * 5)
        stack[3, 0, 2] = 1e-3
        with pytest.raises(ValueError, match="matrix 3 of the stack is not symmetric"):
            eig_sym(stack)

    def test_stack_tolerates_tiny_asymmetry(self):
        stack = np.stack([np.array([[2.0, 1.0], [1.0 + 1e-13, 2.0]])] * 3)
        assert np.allclose(eig_sym(stack), [1.0, 3.0], atol=1e-10)

    def test_stack_of_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            eig_sym(np.zeros((2, 2, 3)))

    def test_more_than_three_axes_rejected(self):
        with pytest.raises(ValueError, match="expected a square matrix"):
            eig_sym(np.zeros((2, 2, 3, 3)))

    def test_deterministic_repeat(self):
        rng = np.random.default_rng(3)
        R = rng.standard_normal((12, 12))
        M = R + R.T
        a = eig_sym(M)
        b = eig_sym(M)
        assert np.array_equal(a, b)


@st.composite
def bitwise_symmetric(draw):
    """A matrix or (c, m, m) stack equal to its transpose bit for bit."""
    m = draw(st.integers(1, 6))
    c = draw(st.one_of(st.none(), st.integers(1, 3)))
    shape = (m, m) if c is None else (c, m, m)
    # small enough that M + M^T cannot overflow
    entries = st.floats(-1e150, 1e150, allow_nan=False)
    A = draw(hnp.arrays(np.float64, shape, elements=entries))
    upper = np.triu(np.ones((m, m), dtype=bool))
    return np.where(upper, A, A.mT)


def solve(M):
    """eig_sym's eigenvalues as bytes, or the error it raised."""
    try:
        return eig_sym(M).tobytes()
    except np.linalg.LinAlgError as exc:
        return repr(exc)


class TestSymmetryFastPath:
    """Bitwise-symmetric input skips the tolerance check; the rest does not."""

    @settings(max_examples=150, deadline=None)
    @given(bitwise_symmetric())
    def test_matches_full_path(self, M):
        fast = spectral._checked_symmetric(M)
        assert fast is M
        assert fast.tobytes() == spectral_reference.checked_symmetric(M).tobytes()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral, "_checked_symmetric", spectral_reference.checked_symmetric)
            full = solve(M)
        assert solve(M) == full

    @pytest.mark.parametrize("M", [
        # -0.0 against +0.0 across the diagonal: equal values, unequal bits
        np.array([[1.0, -0.0], [0.0, 1.0]]),
        np.stack([np.eye(2), np.array([[1.0, 0.0], [-0.0, 1.0]])]),
        # NaNs that differ in their sign bit
        np.array([[1.0, np.nan], [-np.nan, 1.0]]),
        # a 1e-12 asymmetry, within tolerance
        np.array([[2.0, 1.0], [1.0 + 1e-12, 2.0]]),
        np.stack([np.eye(2), np.array([[2.0, 1.0], [1.0 + 1e-12, 2.0]])]),
    ])
    def test_unequal_bits_take_full_path(self, M):
        out = spectral._checked_symmetric(M)
        assert out is not M
        assert out.tobytes() == spectral_reference.checked_symmetric(M).tobytes()

    def test_huge_entries_not_doubled_into_inf(self):
        # the one divergence: the full path's M + M^T overflows above half the
        # largest float, while bitwise-symmetric input is returned as it is
        M = np.array([[1e308, 1.0], [1.0, 1e308]])
        with np.errstate(over="ignore"):
            assert np.isinf(spectral_reference.checked_symmetric(M)).any()
        assert spectral._checked_symmetric(M) is M


class TestNormAndLambda2:
    def test_spectral_norm_examples(self):
        assert spectral_norm(np.array([[0.0, -2.0], [-2.0, 0.0]])) == pytest.approx(2.0)
        assert spectral_norm(np.zeros((4, 4))) == 0.0
        assert spectral_norm(np.diag([-5.0, 3.0])) == pytest.approx(5.0)

    def test_lambda2_k2(self):
        L = build_laplacian(generate("complete", n=2))
        assert lambda2(L) == pytest.approx(2.0)

    def test_lambda2_needs_order_two(self):
        with pytest.raises(ValueError, match="order at least 2"):
            lambda2(np.array([[1.0]]))
        with pytest.raises(ValueError, match="order at least 2"):
            lambda2(np.ones((3, 1, 1)))

    def test_more_than_three_axes_rejected(self):
        for fn in (spectral_norm, lambda2):
            with pytest.raises(ValueError, match="expected a square matrix"):
                fn(np.ones((2, 2, 4, 4)))


@st.composite
def symmetric_stacks(draw):
    """A (c, m, m) stack equal to its transpose bit for bit, or, when drawn,
    with one entry nudged by an ulp so the stack takes the tolerance path."""
    c = draw(st.integers(1, 4))
    m = draw(st.integers(1, 6))
    entries = st.floats(-1e150, 1e150, allow_nan=False)
    A = draw(hnp.arrays(np.float64, (c, m, m), elements=entries))
    S = np.where(np.triu(np.ones((m, m), dtype=bool)), A, A.mT)
    if m > 1 and draw(st.booleans()):
        k = draw(st.integers(0, c - 1))
        S[k, 0, 1] = np.nextafter(S[k, 0, 1], math.inf)
    return S


@settings(max_examples=150, deadline=None)
@given(symmetric_stacks())
# a stack of one matrix
@example(build_laplacian(generate("cycle", n=5))[None])
# a 1e-12 asymmetry sends the whole stack down the tolerance path
@example(np.stack([np.eye(2), np.array([[2.0, 1.0], [1.0 + 1e-12, 2.0]])]))
def test_stack_reductions_match_per_matrix_calls(S):
    for fn in (spectral_norm, lambda2) if S.shape[-1] >= 2 else (spectral_norm,):
        try:
            values = fn(S)
        except np.linalg.LinAlgError:
            reject()
        assert isinstance(values, np.ndarray) and values.shape == (len(S),)
        singles = [fn(M) for M in S]
        # a matrix still gives a Python float
        assert all(type(x) is float for x in singles)
        assert values.tobytes() == np.array(singles).tobytes()


def _random_graph(rng: random.Random, n: int, edge_prob: float) -> WeightedGraph:
    edges = tuple(
        (i, j, 1.0)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < edge_prob
    )
    return WeightedGraph(n, edges)


def _component_count(g: WeightedGraph) -> int:
    uf = UnionFind(g.n)
    for i, j, _ in g.edges:
        uf.union(i, j)
    return uf.component_count()


def test_connectivity_agrees_with_union_find_on_random_graphs():
    # lambda_2 > 1e-8 iff connected, union-find being the authority
    rng = random.Random(20240817)
    checked = 0
    for _ in range(200):
        n = rng.randint(2, 32)
        g = _random_graph(rng, n, rng.choice([0.05, 0.1, 0.3, 0.6]))
        connected = _component_count(g) == 1
        spectral_connected = lambda2(build_laplacian(g)) > 1e-8
        assert spectral_connected == connected
        checked += 1
    assert checked == 200


def test_zero_eigenvalue_multiplicity_equals_component_count():
    corpus = [
        generate("complete", n=64),
        generate("cycle", n=64),
        generate("path", n=64),
        generate("hypercube", k=6),
        generate("paley", q=61),
        generate("random_regular", n=60, d=6, seed=5),
        generate("random_regular", n=64, d=0, seed=0),
        petersen_graph(),
    ]
    # two disjoint 8-cycles
    ring = generate("cycle", n=8)
    shifted = tuple((i + 8, j + 8, w) for i, j, w in ring.edges)
    corpus.append(WeightedGraph(16, ring.edges + shifted))

    for g in corpus:
        vals = eig_sym(build_laplacian(g))
        zero_multiplicity = int((vals < 1e-8).sum())
        assert zero_multiplicity == _component_count(g)


# numpy.linalg's dense eigensolvers
NUMPY_EIGENSOLVERS = {"eig", "eigh", "eigvals", "eigvalsh"}


def test_only_the_spectral_module_calls_numpy_eigensolvers():
    # every other module solves through eig_sym, the one eigensolve path
    calls = []
    for path in sorted(Path(spectral.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([node.attr] if isinstance(node, ast.Attribute)
                     else [a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                     else [])
            if NUMPY_EIGENSOLVERS.intersection(names):
                calls.append(f"{path.name}:{node.lineno}")
    assert calls and all(c.startswith("spectral.py:") for c in calls), calls


def _eig_sym_uses(tree: ast.AST) -> list:
    """Every name or attribute reference to eig_sym, and every import of it under another name."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "eig_sym"
            or isinstance(node, ast.Attribute) and node.attr == "eig_sym"
            or isinstance(node, ast.alias) and node.name == "eig_sym" and node.asname]


def test_only_certify_ndl_reads_a_full_spectrum():
    # every other spectrum is reduced through spectral_norm or lambda2, so a
    # hand-written reduction of an eig_sym result cannot come back
    allowed, uses = [], []
    for path in sorted(Path(spectral.__file__).parent.glob("*.py")):
        if path.name == "spectral.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name == "graph_core.py":
            allowed = [node for fn in ast.walk(tree)
                       if isinstance(fn, ast.FunctionDef) and fn.name == "certify_ndl"
                       for node in _eig_sym_uses(fn)]
        uses += [(path.name, node) for node in _eig_sym_uses(tree)]
    assert allowed
    stray = [f"{name}:{node.lineno}" for name, node in uses if node not in allowed]
    assert not stray, stray

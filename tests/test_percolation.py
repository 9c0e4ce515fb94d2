"""Sampling determinism, Laplacian assembly, and survivor-connectivity tests."""
from __future__ import annotations

import ast
import dataclasses
import functools
import inspect
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import percobound
from percobound import (
    SurvivalProfile,
    WeightedGraph,
    _chunking,
    algebraic_connectivity_survivors,
    harness_cli,
    augmented_laplacian,
    build_laplacian,
    eig_sym,
    exact_distribution,
    expected_augmented_laplacian,
    generate,
    percolated_laplacian,
    percolation,
    sample,
    survivor_connectivity,
    trial_block,
)
from percolation_reference import scalar_delta

from conftest import graph_profile, level_trial_block, petersen_graph, weighted_graphs


class TestSurvivalProfile:
    def test_uniform_factory(self):
        prof = SurvivalProfile.uniform(3, 0.25)
        assert len(prof) == 3
        assert np.array_equal(prof.p, [0.25, 0.25, 0.25])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            SurvivalProfile([0.5, 1.5])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            SurvivalProfile([-0.1])

    def test_rejects_non_numbers_naming_the_entry(self):
        for values, index in (([{}, 0.5], 0), ([0.5, True], 1), ([0.5, 0.5, "0.5"], 2),
                              (np.array([0.5, True], dtype=object), 1),
                              (np.array([True, False]), 0)):
            with pytest.raises(ValueError, match=f"survival probability {index} must be a number"):
                SurvivalProfile(values)

    def test_rejects_numbers_beyond_the_float_range_naming_the_entry(self):
        # float() of a 401-digit integer overflows; so does -10**400
        message = (r"^survival probability 1 must lie in \[0, 1\], "
                   "got a number beyond the float range$")
        for huge in (10**400, -10**400):
            with pytest.raises(ValueError, match=message):
                SurvivalProfile([0.5, huge, 0.5])

    def test_accepts_numeric_arrays_and_scalars(self):
        for values in (np.array([0, 1]), np.array([0.25, 1.0], dtype=np.float32),
                       [np.float64(0.25), 1], (0.5, 0.5)):
            assert SurvivalProfile(values).p.dtype == np.float64

    def test_uniform_rejects_booleans_and_strings(self):
        for value in (True, np.True_, "0.5", None):
            message = f"^survival probability must be a number, got {value!r}$"
            with pytest.raises(ValueError, match=message):
                SurvivalProfile.uniform(3, value)
        assert np.array_equal(SurvivalProfile.uniform(2, np.float32(0.5)).p, [0.5, 0.5])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SurvivalProfile([])

    def test_read_only(self):
        prof = SurvivalProfile([0.5, 0.5])
        with pytest.raises(ValueError):
            prof.p[0] = 0.9

    @pytest.mark.parametrize("values", [[0.5], [0.5, 0.2, 0.0, 1.0, 0.75]], ids=["1", "5"])
    def test_equal_probabilities_are_equal_and_hash_equal(self, values):
        a, b = SurvivalProfile(values), SurvivalProfile(np.array(values))
        assert a == b and hash(a) == hash(b)
        # -0.0 is read as 0.0
        signed = SurvivalProfile([-0.0 if v == 0.0 else v for v in values[:-1]] + [-0.0])
        zeroed = SurvivalProfile(values[:-1] + [0.0])
        assert signed == zeroed and hash(signed) == hash(zeroed)

    @pytest.mark.parametrize("values", [[0.5], [0.5, 0.2, 0.0, 1.0, 0.75]], ids=["1", "5"])
    def test_different_probabilities_are_not_equal(self, values):
        a = SurvivalProfile(values)
        assert a != SurvivalProfile(values[:-1] + [math.nextafter(values[-1], 1.0)])
        assert a != SurvivalProfile(values + [0.5])
        assert a != SurvivalProfile.uniform(len(values), 0.1)
        assert a != values


class TestSample:
    def test_deterministic(self):
        prof = SurvivalProfile.uniform(6, 0.5)
        a = sample(prof, seed=1234, trial_index=7)
        b = sample(prof, seed=1234, trial_index=7)
        assert np.array_equal(a, b)
        c = sample(prof, seed=1234, trial_index=8)
        d = sample(prof, seed=1235, trial_index=7)
        assert a.shape == c.shape == d.shape

    def test_extreme_probabilities_exact(self):
        assert not sample(SurvivalProfile.uniform(50, 0.0), 3, 0).any()
        assert sample(SurvivalProfile.uniform(50, 1.0), 3, 0).all()

    def test_negative_trial_index_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            sample(SurvivalProfile.uniform(2, 0.5), 0, -1)

    @pytest.mark.parametrize("trial_index", [2**64, 2**64 + 5])
    def test_trial_index_outside_64_bits_rejected(self, trial_index):
        # the hash reads 64 bits of the index, so trial 2**64 would repeat trial 0
        with pytest.raises(ValueError, match=rf"below 2\*\*64, got {trial_index}$"):
            sample(SurvivalProfile.uniform(6, 0.8), 0, trial_index)

    def test_last_trial_index_has_its_own_flags(self):
        prof = SurvivalProfile.uniform(6, 0.8)
        assert np.array_equal(sample(prof, 0, 2**64 - 1), scalar_delta(0, 2**64 - 1, prof.p))

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5, -(2**64)])
    def test_seed_outside_64_bits_rejected(self, seed):
        # the hash reads 64 bits, so each of these would repeat an accepted seed
        prof = SurvivalProfile.uniform(4, 0.5)
        message = rf"seed must lie in \[0, 2\*\*64\), got {seed}"
        with pytest.raises(ValueError, match=message):
            sample(prof, seed, 0)
        with pytest.raises(ValueError, match=message):
            trial_block(generate("cycle", n=4), prof, 1.0, seed, 0, 3)

    def test_vector_path_matches_scalar_reference(self):
        # the fast uint64 path and the pure-int path must agree bit for bit
        for seed in (0, 1, 2**63 - 1, 2**64 - 1):
            for trial in (0, 1, 999, 10**7):
                prof = SurvivalProfile.uniform(17, 0.5)
                s = sample(prof, seed, trial)
                assert np.array_equal(s, scalar_delta(seed, trial, prof.p))

    def test_scalar_reference_module(self):
        # independent reimplementation of the hash in the test tree
        prof = SurvivalProfile(np.linspace(0.05, 0.95, 11))
        for seed, trial in ((0, 0), (42, 17), (987654321, 3)):
            expected = scalar_delta(seed, trial, prof.p)
            assert np.array_equal(sample(prof, seed, trial), expected)

    def test_survival_frequency(self):
        # binomial 3-sigma band around p = 1/2 per vertex
        trials = 100_000
        prof = SurvivalProfile.uniform(4, 0.5)
        counts = np.zeros(4)
        for t in range(trials):
            counts += sample(prof, seed=20240818, trial_index=t)
        band = 3.0 * math.sqrt(0.25 / trials)
        assert np.abs(counts / trials - 0.5).max() <= band


class TestLaplacians:
    def test_percolated_drops_ghost_edges(self, c4):
        s = np.array([True, True, True, False])
        L = percolated_laplacian(c4, s)
        expect = np.array([
            [1, -1, 0, 0],
            [-1, 2, -1, 0],
            [0, -1, 1, 0],
            [0, 0, 0, 0],
        ], dtype=float)
        assert np.array_equal(L, expect)

    def test_full_survival_is_plain_laplacian(self, petersen):
        s = np.array([True] * 10)
        assert np.array_equal(percolated_laplacian(petersen, s), build_laplacian(petersen))

    def test_augmented_adds_ghost_diagonal(self, c4):
        s = np.array([True, False, True, False])
        L = augmented_laplacian(c4, s, alpha=2.5)
        assert L[1, 1] == 2.5 and L[3, 3] == 2.5
        assert L[0, 0] == 0.0 and L[2, 2] == 0.0  # 0-2 is not an edge of C4

    def test_augmented_rejects_negative_alpha(self, c4):
        s = np.array([True] * 4)
        with pytest.raises(ValueError, match="alpha"):
            augmented_laplacian(c4, s, alpha=-0.1)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_alpha_rejected(self, c4, alpha):
        s = np.array([True, False, True, True])
        prof = SurvivalProfile.uniform(4, 0.5)
        message = rf"^alpha must be non-negative and finite, got {alpha!r}$"
        for call in (lambda: augmented_laplacian(c4, s, alpha),
                     lambda: expected_augmented_laplacian(c4, prof, alpha),
                     lambda: trial_block(c4, prof, alpha, 0, 0, 3),
                     lambda: trial_block(c4, prof, alpha, 0, 0, 1),
                     lambda: exact_distribution(c4, prof, alpha, "deviation_norm")):
            with pytest.raises(ValueError, match=message):
                call()

    def test_length_mismatch(self, c4):
        s = np.array([True] * 3)
        with pytest.raises(ValueError, match="length"):
            percolated_laplacian(c4, s)

    def test_expected_c4_closed_form(self, c4):
        prof = SurvivalProfile.uniform(4, 0.5)
        E = expected_augmented_laplacian(c4, prof, alpha=1.0)
        # 0.25 L + 0.5 I for the uniform profile
        assert np.allclose(E, 0.25 * build_laplacian(c4) + 0.5 * np.eye(4), atol=1e-15)
        vals = eig_sym(E)
        assert np.allclose(vals, [0.5, 1.0, 1.0, 1.5], atol=1e-12)

    def test_expected_degenerate_profiles(self, c4):
        all_on = expected_augmented_laplacian(c4, SurvivalProfile.uniform(4, 1.0), 3.0)
        assert np.array_equal(all_on, build_laplacian(c4))
        all_off = expected_augmented_laplacian(c4, SurvivalProfile.uniform(4, 0.0), 3.0)
        assert np.array_equal(all_off, 3.0 * np.eye(4))

    def test_expected_heterogeneous_entry(self):
        g = WeightedGraph(2, ((0, 1, 2.0),))
        E = expected_augmented_laplacian(g, SurvivalProfile([0.5, 0.25]), alpha=1.0)
        assert E[0, 1] == pytest.approx(-0.25)
        assert E[0, 0] == pytest.approx(0.25 + 0.5)
        assert E[1, 1] == pytest.approx(0.25 + 0.75)

    def test_expectation_matches_monte_carlo_mean(self, c4):
        # entrywise 5-standard-error agreement over 1e5 trials
        prof = SurvivalProfile([0.9, 0.7, 0.5, 0.3])
        alpha = 0.8
        trials = 100_000
        acc = np.zeros((4, 4))
        acc_sq = np.zeros((4, 4))
        for t in range(trials):
            s = sample(prof, seed=777, trial_index=t)
            L = augmented_laplacian(c4, s, alpha)
            acc += L
            acc_sq += L * L
        mean = acc / trials
        var = np.maximum(acc_sq / trials - mean * mean, 0.0)
        se = np.sqrt(var / trials)
        expected = expected_augmented_laplacian(c4, prof, alpha)
        assert np.all(np.abs(mean - expected) <= 5.0 * se + 1e-12)


class TestSurvivorConnectivity:
    def test_few_survivors_connected_by_convention(self, c4):
        for delta in ([False] * 4, [False, True, False, False]):
            s = np.array(delta)
            count, connected = survivor_connectivity(c4, s)
            assert connected and count == sum(delta)
            assert algebraic_connectivity_survivors(c4, s) == math.inf

    def test_disconnected_pair(self, c4):
        # opposite corners of the 4-cycle do not touch
        s = np.array([True, False, True, False])
        count, connected = survivor_connectivity(c4, s)
        assert count == 2 and not connected
        assert algebraic_connectivity_survivors(c4, s) == 0.0

    def test_connected_path_of_survivors(self, c4):
        s = np.array([True, True, True, False])
        count, connected = survivor_connectivity(c4, s)
        assert count == 3 and connected
        # survivors induce a 3-path
        assert algebraic_connectivity_survivors(c4, s) == pytest.approx(1.0)

    def test_full_survival(self, petersen):
        s = np.array([True] * 10)
        assert survivor_connectivity(petersen, s) == (10, True)
        a = algebraic_connectivity_survivors(petersen, s)
        assert a == pytest.approx(2.0, abs=1e-9)  # Petersen Laplacian gap is 3 - 1


@st.composite
def graph_delta_alpha(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    g = WeightedGraph(n, tuple((i, j, 1.0 + ((i + j) % 3) * 0.5) for i, j in chosen))
    delta = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    alpha = draw(st.floats(min_value=0.0, max_value=5.0, allow_nan=False))
    return g, delta, alpha


@settings(max_examples=60, deadline=None)
@given(graph_delta_alpha())
def test_augmented_spectrum_splits_into_blocks(case):
    # eigenvalues of the augmented matrix = survivor-block spectrum plus one
    # copy of alpha per ghost
    g, delta, alpha = case
    s = np.array(delta)
    vals = eig_sym(augmented_laplacian(g, s, alpha))

    survivors = [v for v in range(g.n) if delta[v]]
    block = np.zeros((len(survivors), len(survivors)))
    pos = {v: i for i, v in enumerate(survivors)}
    for i, j, w in g.edges:
        if delta[i] and delta[j]:
            a, b = pos[i], pos[j]
            block[a, a] += w
            block[b, b] += w
            block[a, b] -= w
            block[b, a] -= w
    expected = sorted(
        (list(np.linalg.eigvalsh(block)) if survivors else [])
        + [alpha] * (g.n - len(survivors))
    )
    assert np.allclose(vals, expected, atol=1e-8)


@settings(max_examples=60, deadline=None)
@given(weighted_graphs(min_n=1), st.floats(0.0, 1e3))
def test_certain_survival_leaves_the_laplacian(g, alpha):
    # at p = 1 there are no ghosts and every edge survives, so alpha drops out
    profile = SurvivalProfile.uniform(g.n, 1.0)
    L = build_laplacian(g)
    assert np.array_equal(augmented_laplacian(g, sample(profile, 0, 0), alpha), L)
    assert np.array_equal(expected_augmented_laplacian(g, profile, alpha), L)


# lambda_2 of a connected survivor graph is at least its smallest weight times
# 2 (1 - cos(pi / m)), a path's: above 1.2e-4 for conftest's weights (>= 1e-3)
# on at most 9 vertices, far above this tolerance and the solver's rounding
CONNECTED_TOL = 1e-8


@settings(max_examples=60, deadline=None)
@given(graph_profile(min_n=2), st.integers(0, 2**64 - 1), st.integers(1, 40))
def test_a_delta_positive_exactly_when_survivors_connected(case, seed, count):
    g, profile = case
    # +inf levels solve every survivor block and skip only the augmented solve
    block = level_trial_block(g, profile, 1.0, seed, 0, count,
                              lambda devs: np.full_like(devs, math.inf))
    assert np.array_equal(block.a_delta == math.inf, block.survivor_count <= 1)
    assert np.array_equal(block.a_delta > CONNECTED_TOL, block.is_connected)


class TestRunTrial:
    def test_record_consistency(self, petersen):
        prof = SurvivalProfile.uniform(10, 0.7)
        rec = trial_block(petersen, prof, alpha=1.5, seed=99, start=3, count=1)
        s = sample(prof, 99, 3)
        assert rec.survivor_count[0] == int(s.sum())
        count, connected = survivor_connectivity(petersen, s)
        assert (rec.survivor_count[0], rec.is_connected[0]) == (count, connected)
        # connectivity decision must agree with the spectral statistic
        if rec.survivor_count[0] >= 2:
            assert rec.is_connected[0] == (rec.a_delta[0] > 1e-8)

    def test_per_trial_lower_bound_holds(self):
        # a_delta >= min(lambda_2(expected) - deviation, alpha) on every trial
        from percobound import lambda2

        cases = [
            (generate("cycle", n=5), SurvivalProfile.uniform(5, 0.8), 1.2),
            (generate("complete", n=6), SurvivalProfile([0.9, 0.2, 0.7, 1.0, 0.5, 0.6]), 3.0),
            (petersen_graph(), SurvivalProfile.uniform(10, 0.5), 0.7),
        ]
        for g, prof, alpha in cases:
            lam2 = lambda2(expected_augmented_laplacian(g, prof, alpha))
            for t in range(300):
                rec = trial_block(g, prof, alpha, seed=31337, start=t, count=1)
                lower = min(lam2 - rec.deviation_norm[0], alpha)
                assert rec.a_delta[0] >= lower - 1e-8


@given(st.integers(1, 5).flatmap(lambda k: st.tuples(st.just(k), st.lists(
    st.lists(st.sampled_from([0, 1, 2**63, 2**64 - 1]) | st.integers(0, 2**64 - 1),
             min_size=k, max_size=k), max_size=40))))
def test_distinct_rows_groups_uint64_keys(case):
    k, rows = case
    keys = np.array(rows, dtype=np.uint64).reshape(-1, k)
    first, inverse = _chunking._distinct_rows(keys)
    assert np.array_equal(keys[first][inverse], keys)
    assert len({row.tobytes() for row in keys[first]}) == len(first)



def _mentions(tree: ast.AST, names: set) -> list:
    """Every node of tree that names one of names: a name, an attribute, an
    import, a definition or a string constant."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id in names
            or isinstance(node, ast.Attribute) and node.attr in names
            or isinstance(node, (ast.alias, ast.FunctionDef, ast.ClassDef)) and node.name in names
            or isinstance(node, ast.Constant) and node.value in names]


CHUNK_HELPERS = {"_chunk_length", "_map_in_order"}


# what may name a chunk helper: the driver, and the workspace, which is sized
# by the longest stack the driver hands out but loops over nothing, with the
# import it reads that size through
HELPER_READERS = {("_chunking.py", "_chunks"), ("percolation.py", "_workspace")}


def test_one_chunk_driver_and_no_one_trial_wrapper():
    # every chunk loop goes through _chunking._chunks, and trial_block is
    # the one Monte Carlo entry point
    allowed, uses, gone = [], [], []
    for path in sorted(Path(percolation.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed += [node for fn in ast.walk(tree)
                    if isinstance(fn, ast.FunctionDef) and (path.name, fn.name) in HELPER_READERS
                    or path.name == "percolation.py" and isinstance(fn, ast.ImportFrom)
                    for node in _mentions(fn, CHUNK_HELPERS)]
        uses += [(path.name, node) for node in _mentions(tree, CHUNK_HELPERS)
                 if not isinstance(node, ast.FunctionDef)]
        gone += [f"{path.name}:{node.lineno}"
                 for node in _mentions(tree, {"run_trial", "TrialRecord"})]
    # _chunks names _chunk_length and _map_in_order; percolation imports
    # _chunk_length, and _workspace calls it
    assert len(allowed) == 4
    stray = [f"{name}:{node.lineno}" for name, node in uses if node not in allowed]
    assert not stray, stray
    assert not gone, gone


MOVED = {"_CHUNK_ENTRIES", "_chunk_length", "_chunks", "_map_in_order", "_serve",
         "_pickled_error", "_distinct_rows", "usable_cpus", "resolve_threads"}
PROCESS_MODULES = {"os", "sys", "pickle", "contextlib", "signal", "traceback"}


def test_chunks_and_workers_have_one_private_module():
    # _chunking alone defines the chunk, pool, row-grouping and worker-count
    # names, nothing imports them from percolation, and percolation imports
    # no process plumbing
    defined, from_percolation, percolation_imports = [], [], set()
    for path in sorted(Path(percolation.__file__).parents[1].rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                defined += [(path.name, node.name)] if node.name in MOVED else []
            elif isinstance(node, ast.Assign):
                defined += [(path.name, target.id) for target in node.targets
                            if isinstance(target, ast.Name) and target.id in MOVED]
            elif isinstance(node, ast.ImportFrom) and node.module == "percolation":
                from_percolation += [f"{path.name}:{alias.name}" for alias in node.names
                                     if alias.name in MOVED]
            if path.name == "percolation.py" and isinstance(node, ast.Import):
                percolation_imports |= {alias.name.split(".")[0] for alias in node.names}
            elif path.name == "percolation.py" and isinstance(node, ast.ImportFrom):
                percolation_imports.add((node.module or "").split(".")[0])
    assert sorted(defined) == sorted(("_chunking.py", name) for name in MOVED)
    assert not from_percolation, from_percolation
    assert "numpy" in percolation_imports
    assert not percolation_imports & PROCESS_MODULES, percolation_imports & PROCESS_MODULES


def test_rows_are_grouped_only_by_the_trial_stream_and_the_oracle_csv():
    # a simulate chunk is grouped once, by the trial stream, and harness_cli
    # folds and writes the stream's entries without grouping anything itself
    callers, from_chunking = [], []
    for path in sorted(Path(percolation.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            callers += [(path.name, getattr(top, "name", None)) for node in ast.walk(top)
                        if isinstance(node, ast.Call) and _mentions(node.func, {"_distinct_rows"})]
        if path.name == "harness_cli.py":
            from_chunking = [alias.name for node in ast.walk(tree)
                             if isinstance(node, ast.ImportFrom) and node.module == "_chunking"
                             for alias in node.names]
            assert not _mentions(tree, {"_distinct_rows", "lexsort", "unique"})
    assert sorted(callers) == [("oracle.py", "_float_reprs"), ("percolation.py", "_trial_chunks")]
    assert from_chunking == ["_row_slices", "resolve_threads"]


def test_only_chunking_states_a_row_block_size():
    # both CSV writers and the oracle's exact sums walk _row_slices: no other
    # module defines a block size at module level or reads the one _chunking
    # states
    defined, readers = [], []
    for path in sorted(Path(percolation.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined += [(path.name, target.id) for node in tree.body
                    if isinstance(node, (ast.Assign, ast.AnnAssign))
                    for target in getattr(node, "targets", [getattr(node, "target", None)])
                    if isinstance(target, ast.Name) and "BLOCK" in target.id.upper()]
        readers += [path.name] if _mentions(tree, {"_ROW_BLOCK"}) else []
    assert defined == [("_chunking.py", "_ROW_BLOCK")]
    assert readers == ["_chunking.py"]


def test_each_job_has_one_copy():
    # trial_block has no mode switch (only _trial_chunks takes levels), the
    # seed is hashed by the one splitmix64, the CLI builds its report
    # envelope in one place, and a graph's scatter positions are built with
    # its arrays, from the keys _edge_arrays sorted by
    assert list(inspect.signature(trial_block).parameters) == [
        "g", "profile", "alpha", "seed", "start", "count"]
    assert not hasattr(percolation, "_splitmix64")
    source = Path(harness_cli.__file__).read_text(encoding="utf-8")
    assert source.count('"version": __version__') == 1
    assert not isinstance(vars(WeightedGraph).get("_scatter"), functools.cached_property)


LAYERS = ("graph_core", "oracle", "percolation", "spectral", "theory")


def test_each_public_name_is_listed_once():
    # the package exports the union of the layer modules' __all__ lists, the
    # one list of each module's public names, and every name resolves
    names = [name for layer in LAYERS for name in getattr(percobound, layer).__all__]
    assert len(names) == len(set(names))
    assert percobound.__all__ == ["__version__", *sorted(names)]
    for layer in LAYERS:
        module = getattr(percobound, layer)
        for name in module.__all__:
            assert getattr(percobound, name) is getattr(module, name)


def test_each_shared_flag_is_added_once():
    # generate and the graph source share --n/--k/--q/--d, and simulate adds
    # its flags to bound's; threshold's --n/--d/--epsilon and oracle's
    # numeric --alpha mean other things
    adders = {}
    for top in ast.parse(Path(harness_cli.__file__).read_text(encoding="utf-8")).body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "add_argument"):
                adders.setdefault(node.args[0].value, []).append(top.name)
    family, bound = "_add_family_parameters", "_add_bound"
    assert {flag: adders[flag] for flag in (
        "--n", "--k", "--q", "--d", "--alpha", "--alpha-grid", "--epsilon")} == {
        "--n": [family, "_add_threshold"], "--k": [family], "--q": [family],
        "--d": [family, "_add_threshold"], "--alpha": [bound, "_add_oracle"],
        "--alpha-grid": [bound], "--epsilon": [bound, "_add_threshold"]}


@st.composite
def graph_grid_alpha(draw):
    """A graph, a grid of 1-8 survival patterns (some with 0 or 1 survivors)
    and an alpha in [0, 1e3]."""
    g = draw(weighted_graphs())
    n = g.n
    row = (st.lists(st.booleans(), min_size=n, max_size=n) | st.just([False] * n)
           | st.integers(0, n - 1).map(lambda v: [i == v for i in range(n)]))
    grid = np.array(draw(st.lists(row, min_size=1, max_size=8)), dtype=bool)
    return g, grid, draw(st.floats(0.0, 1e3))


def assert_same_bits(stacked, rows: list) -> None:
    assert np.array_equal(np.asarray(stacked, dtype=float).view(np.uint64),
                          np.array(rows, dtype=float).view(np.uint64))


@settings(max_examples=80, deadline=None)
@given(graph_grid_alpha())
def test_flag_grid_rows_match_single_patterns(case):
    # each per-pattern function gives row r of a grid the bits of row r alone
    g, grid, alpha = case
    calls = (percolated_laplacian, algebraic_connectivity_survivors,
             lambda g, delta: augmented_laplacian(g, delta, alpha))
    for call in calls:
        assert_same_bits(call(g, grid), [call(g, row) for row in grid])
    counts, connected = survivor_connectivity(g, grid)
    assert (list(zip(counts.tolist(), connected.tolist()))
            == [survivor_connectivity(g, row) for row in grid])
    wrong_length = (grid[:, 1:], np.ones((len(grid), g.n + 1), dtype=bool), grid[0, 1:])
    for call in (*calls, survivor_connectivity):
        for flags in (grid[0, 0], grid[None]):
            with pytest.raises(ValueError, match=r"must be one \(n,\) pattern or a"):
                call(g, flags)
        for flags in wrong_length:
            with pytest.raises(ValueError, match=f"^sample has length {flags.shape[-1]} but"):
                call(g, flags)


ONE_HOME = {"PercolationSample", "_sample_rows", "_live_edges", "_percolated",
            "_add_ghost_diagonal"}
ORACLE_PRIVATE = {"_check_alpha", "_check_lengths", "_deviation_norms", "_workspace"}


def test_one_home_for_a_patterns_laplacians():
    # the per-pattern functions build every matrix and connectivity flag; the
    # wrapper class and the helpers beside them are gone
    gone, oracle_private = [], set()
    for path in sorted(Path(percolation.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        gone += [f"{path.name}:{node.lineno}" for node in _mentions(tree, ONE_HOME)]
        if path.name == "oracle.py":
            oracle_private = {alias.name for node in ast.walk(tree)
                              if isinstance(node, ast.ImportFrom) and node.module == "percolation"
                              for alias in node.names if alias.name.startswith("_")}
    assert not gone, gone
    assert oracle_private and oracle_private <= ORACLE_PRIVATE, oracle_private


def test_trial_blocks_compare_by_value_and_have_no_hash():
    # equal runs are equal, NaN of the level mode included; one flipped bit
    # is not, and neither is another length or dtype
    g, profile = generate("cycle", n=6), SurvivalProfile.uniform(6, 0.8)
    a, b = (trial_block(g, profile, 2.4, 0, 0, 50) for _ in range(2))
    assert a == b and not a != b
    gated = [level_trial_block(g, profile, 2.4, 0, 0, 50, lambda devs: -devs) for _ in range(2)]
    assert np.isnan(gated[0].lambda2_augmented).all() and gated[0] == gated[1]
    assert a != gated[0]
    b.deviation_norm.view(np.uint64)[7] ^= np.uint64(1)
    assert a != b
    assert a != trial_block(g, profile, 2.4, 0, 0, 49)
    assert a != dataclasses.replace(a, survivor_count=a.survivor_count.astype(np.int32))
    assert a != vars(a)
    with pytest.raises(TypeError):
        hash(a)

"""One rule for the numbers a public entry point takes.

A real argument is a real number that a float can hold, an integer argument
an integer: a bool, a string, NaN, a number beyond the float range and a
non-integer count, seed or index are each a ValueError naming the argument.
The helpers graph_core._real and graph_core._integer state the rule once;
each entry point adds only its range and its message.
"""
from __future__ import annotations

import math
import re

import numpy as np
import pytest

from percobound import (SurvivalProfile, augmented_laplacian, bernoulli_series_tail_bound,
                        check_gap_condition, deviation_bound, exact_bernoulli_series_tail,
                        exact_distribution, exact_tail, expected_augmented_laplacian,
                        expected_lambda2_regular, generate, kearns_saul_k, optimize_alpha,
                        sample, survival_threshold, threshold_constants, trial_block)
from percobound.harness_cli import EXIT_USAGE, _parse_alpha, main, run_experiment
from percobound.theory import _ALPHA_GRID_CAP

BIG = 10**400  # an int beyond the float range
INDEX_BITS = np.iinfo(np.intp).bits
# the values every real argument refuses; integer arguments also refuse 1.5
REALS = {"big": BIG, "nan": math.nan, "true": True, "str": "1"}
INTEGERS = {**REALS, "half": 1.5}
# an integer argument with no upper bound takes BIG
UNBOUNDED = {k: v for k, v in INTEGERS.items() if k != "big"}

C4 = generate("cycle", n=4)
P4 = SurvivalProfile.uniform(4, 0.5)
DIST = exact_distribution(C4, P4, 1.0, "a_delta")
TERMS = [np.eye(2)] * 4


def same(message: str):
    """One message for every value: message formatted with the value's repr."""
    return lambda value: message.format(repr(value))


ALPHA = same("alpha must be non-negative and finite, got {}")
EPSILON = same("epsilon must lie in (0, 1), got {}")
SEED = same("seed must lie in [0, 2**64), got {}")
TRIAL_INDEX = same("trial_index must be non-negative and below 2**64, got {}")
LEVEL = same("level t must be a number, got {}")
TOO_MANY_TRIALS = f"trial indices must lie below 2**64, got 0, ..., {BIG - 1}"
D_FLOAT = f"d must not exceed the largest float, {1.7976931348623157e308!r}"


def positive(name: str, big: str | None = None):
    """The message of a positive integer argument; big, where given, is the
    message of BIG, which the argument's own range refuses."""
    return lambda value: (big if value is BIG
                          else f"{name} must be a positive integer, got {value!r}")


def vertex_count_too_large(n: int) -> str:
    return f"vertex count n = {n} is too large: n * n must fit in a {INDEX_BITS}-bit index"


# (id, the argument's name as a regular expression, call, the message of
# each value, the values).
# Each message of a value the library refused before this rule was stated is
# the one it gave then, except where it came from numpy ("Maximum allowed
# size exceeded" for the n of generate and SurvivalProfile.uniform) or from
# float(): threshold_constants read True and "1" as 1.0 and printed "got
# 1.0".  Integer arguments that have no upper bound (a worker or thread
# count, the n of an (n, d, lambda) graph) get UNBOUNDED.
ENTRY_POINTS = [
    ("augmented_laplacian", "alpha",
     lambda v: augmented_laplacian(C4, np.array([1, 1, 0, 1], bool), v), ALPHA, REALS),
    ("expected_augmented_laplacian", "alpha",
     lambda v: expected_augmented_laplacian(C4, P4, v), ALPHA, REALS),
    ("trial_block-alpha", "alpha", lambda v: trial_block(C4, P4, v, 0, 0, 2), ALPHA, REALS),
    ("trial_block-seed", "seed", lambda v: trial_block(C4, P4, 1.0, v, 0, 2), SEED, INTEGERS),
    ("trial_block-start", "trial_index", lambda v: trial_block(C4, P4, 1.0, 0, v, 2),
     TRIAL_INDEX, INTEGERS),
    ("trial_block-count", "count|trial indices", lambda v: trial_block(C4, P4, 1.0, 0, 0, v),
     positive("count", TOO_MANY_TRIALS), INTEGERS),
    ("sample-seed", "seed", lambda v: sample(P4, v, 0), SEED, INTEGERS),
    ("sample-trial_index", "trial_index", lambda v: sample(P4, 0, v), TRIAL_INDEX, INTEGERS),
    ("uniform-n", "vertex count n", lambda v: SurvivalProfile.uniform(v, 0.5),
     lambda v: vertex_count_too_large(BIG) if v is BIG else "vertex count n must be an integer",
     INTEGERS),
    ("uniform-p", "survival probabilit(y|ies)", lambda v: SurvivalProfile.uniform(4, v),
     lambda v: ("survival probabilities must lie in [0, 1]" if v is BIG or v != v
                else f"survival probability must be a number, got {v!r}"), REALS),
    ("deviation_bound-alpha", "alpha", lambda v: deviation_bound(C4, P4, v, 0.1), ALPHA, REALS),
    ("deviation_bound-epsilon", "epsilon", lambda v: deviation_bound(C4, P4, 1.0, v),
     EPSILON, REALS),
    ("optimize_alpha-epsilon", "epsilon", lambda v: optimize_alpha(C4, P4, v), EPSILON, REALS),
    ("optimize_alpha-alpha_grid_size", "alpha_grid_size", lambda v: optimize_alpha(C4, P4, 0.1, v),
     lambda v: (f"alpha_grid_size must not exceed {_ALPHA_GRID_CAP}, got {v!r}" if v is BIG
                else f"alpha_grid_size must be an integer of at least 2, got {v!r}"), INTEGERS),
    ("kearns_saul_k", "p", kearns_saul_k, same("p must lie in [0, 1], got {}"), REALS),
    ("bernoulli_series_tail_bound-sigma2", "sigma2",
     lambda v: bernoulli_series_tail_bound(v, 3, 1.0), lambda v: "sigma2 must be non-negative",
     REALS),
    ("bernoulli_series_tail_bound-count", "count",
     lambda v: bernoulli_series_tail_bound(1.0, v, 1.0),
     positive("count", f"count must not exceed the largest float, {1.7976931348623157e308!r}"),
     INTEGERS),
    ("bernoulli_series_tail_bound-t", "t", lambda v: bernoulli_series_tail_bound(1.0, 3, v),
     lambda v: "t must be positive", REALS),
    ("expected_lambda2_regular-n", "n", lambda v: expected_lambda2_regular(v, 3, 1.0, 0.5),
     positive("n"), UNBOUNDED),
    ("expected_lambda2_regular-d", "d", lambda v: expected_lambda2_regular(10, v, 1.0, 0.5),
     same("d must be an integer with 0 <= d < n, got {}"), INTEGERS),
    ("expected_lambda2_regular-d-of-a-huge-graph", "d",
     lambda v: expected_lambda2_regular(10 * BIG, v, 1.0, 0.5), lambda v: D_FLOAT, {"big": BIG}),
    ("expected_lambda2_regular-lambda", "lambda",
     lambda v: expected_lambda2_regular(10, 3, v, 0.5),
     lambda v: (f"lambda must not exceed d, got lambda={v}, d=3" if v is BIG
                else f"lambda must be non-negative, got {v!r}"), REALS),
    ("expected_lambda2_regular-p", "p", lambda v: expected_lambda2_regular(10, 3, 1.0, v),
     same("p must lie in [0, 1], got {}"), REALS),
    ("expected_lambda2_regular-alpha", "alpha",
     lambda v: expected_lambda2_regular(10, 3, 1.0, 0.5, v), ALPHA, REALS),
    ("check_gap_condition-d", "d", lambda v: check_gap_condition(10 * BIG, v, 1.0, 0.9, 0.1),
     positive("d", D_FLOAT), INTEGERS),
    ("check_gap_condition-lambda", "lambda", lambda v: check_gap_condition(10, 3, v, 0.9, 0.1),
     same("lambda must satisfy 0 <= lambda < d, got lambda={}, d=3"), REALS),
    ("check_gap_condition-p", "p", lambda v: check_gap_condition(10, 3, 1.0, v, 0.1),
     same("p must lie in (0, 1], got {}"), REALS),
    ("check_gap_condition-epsilon", "epsilon", lambda v: check_gap_condition(10, 3, 1.0, 0.9, v),
     EPSILON, REALS),
    ("survival_threshold-d", "d", lambda v: survival_threshold(10 * BIG, v, 1.0, 0.1),
     positive("d", D_FLOAT), INTEGERS),
    ("survival_threshold-lambda", "lambda", lambda v: survival_threshold(10, 3, v, 0.1),
     same("lambda must satisfy 0 <= lambda < d, got lambda={}, d=3"), REALS),
    ("survival_threshold-epsilon", "epsilon", lambda v: survival_threshold(10, 3, 1.0, v),
     EPSILON, REALS),
    ("threshold_constants", "lambda/d", threshold_constants,
     same("lambda/d must lie in [0, 1), got {}"), REALS),
    ("exact_distribution-alpha", "alpha", lambda v: exact_distribution(C4, P4, v, "deviation_norm"),
     ALPHA, REALS),
    ("exact_distribution-workers", "workers",
     lambda v: exact_distribution(C4, P4, 1.0, "a_delta", workers=v), positive("workers"),
     UNBOUNDED),
    ("exact_tail", "level t", lambda v: exact_tail(DIST, v), LEVEL, REALS),
    ("exact_bernoulli_series_tail", "level t", lambda v: exact_bernoulli_series_tail(TERMS, P4, v),
     LEVEL, REALS),
    ("run_experiment-alpha", "alpha", lambda v: run_experiment(C4, P4, v, 0.1, 10, 0),
     ALPHA, REALS),
    ("run_experiment-epsilon", "epsilon", lambda v: run_experiment(C4, P4, 1.0, v, 10, 0),
     EPSILON, REALS),
    ("run_experiment-trials", "trials|trial indices",
     lambda v: run_experiment(C4, P4, 1.0, 0.1, v, 0),
     positive("trials", TOO_MANY_TRIALS), INTEGERS),
    ("run_experiment-seed", "seed", lambda v: run_experiment(C4, P4, 1.0, 0.1, 10, v),
     SEED, INTEGERS),
    ("run_experiment-threads", "threads",
     lambda v: run_experiment(C4, P4, 1.0, 0.1, 10, 0, threads=v), positive("threads"),
     UNBOUNDED),
    ("generate-n", "n", lambda v: generate("cycle", n=v),
     positive("n", vertex_count_too_large(BIG)), INTEGERS),
    ("generate-k", "k", lambda v: generate("hypercube", k=v),
     positive("k", f"hypercube dimension k = {BIG} is too large to index its 2**k vertices"),
     INTEGERS),
    ("generate-seed", "seed", lambda v: generate("random_regular", n=8, d=3, seed=v),
     SEED, INTEGERS),
    # the command line reads --alpha as a string, so it gives strings
    ("parse_alpha", "--alpha", _parse_alpha,
     lambda v: (f'--alpha must be "auto" or a number, got {v!r}' if v == "True"
                else f"--alpha must be non-negative and finite, got {v!r}"),
     {"big": str(BIG), "nan": "nan", "true": "True", "inf": "inf"}),
]


@pytest.mark.parametrize("call, value, message, name", [
    pytest.param(call, value, message(value), name, id=f"{entry}-{value_id}")
    for entry, name, call, message, values in ENTRY_POINTS
    for value_id, value in values.items()])
def test_a_number_an_entry_point_cannot_use_is_a_value_error_naming_it(call, value, message,
                                                                       name):
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == message
    assert re.search(rf"(?<![\w-])({name})(?!\w)", message)


def test_an_alpha_grid_size_above_the_cap_is_a_value_error_naming_it(capsys):
    # the cap itself is a grid; one point more, or 10**400, is refused
    # before any array is built
    assert optimize_alpha(C4, P4, 0.1, _ALPHA_GRID_CAP)[1].alpha >= 0.0
    for size in (_ALPHA_GRID_CAP + 1, BIG):
        with pytest.raises(ValueError) as info:
            optimize_alpha(C4, P4, 0.1, size)
        too_many = f"must not exceed {_ALPHA_GRID_CAP}, got {size}"
        assert str(info.value) == f"alpha_grid_size {too_many}"
        code = main(["bound", "--family", "cycle", "--n", "4", "--p", "0.5", "--epsilon", "0.1",
                     "--alpha-grid", str(size)])
        assert code == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: --alpha-grid {too_many}\n")

"""Command-line harness: generate, certify, bound, simulate, threshold, oracle.

Exit codes: 0 success, 1 a mathematical claim the run was supposed to verify
failed, 2 usage or domain error, or a file that cannot be read or written.

simulate evaluates its trials a chunk at a time with percolation.trial_block
(sampling, assembly and stacked eigensolves for a whole chunk; see that
module) and folds each chunk into running aggregates in trial order: counts,
the exact sum of the deviation norms, their maximum, and the first few
lower-bound violations, which a failed validation names on stderr.  The sum
is one Python integer, the norms scaled by 2**1074 (every float is a whole
multiple of 2**-1074); each distinct norm of a chunk is added once, times its
count, so the mean rounds like math.fsum of every norm, divided by the trial
count, and the integer stays about 2,100 bits wide for any trial count.  The
per-trial CSV is written a chunk at a time as well, so memory does not grow
with the trial count and the CSV has no row cap; the rows of a chunk whose
five values have equal bits share one formatted suffix after the trial
index.  Without the CSV, a_delta is only compared with its lower-bound
level, min(lambda2_expected - deviation norm, alpha) - LOWER_BOUND_SLACK, and
lambda_2 of the augmented Laplacian, reported only in that CSV, is not
needed.  simulate then hands those levels to the kernel, which solves a
survivor block only where the comparison can fail and skips the augmented
eigensolve (see percolation.trial_block); the report is the same bytes
either way.

The PERCOBOUND_THREADS environment variable sets how many worker processes
evaluate chunks, for simulate and for oracle alike; 0 picks usable_cpus(),
the CPUs in this process's affinity mask.  Worker 0 is the calling process;
the others are forked children that pickle their chunks' results back
through pipes, in order (see percolation._map_in_order).  Threads cannot
help here: numpy's eigvalsh holds the GIL, and two threads lost all 10
alternating benchmark pairs against one.  Unset, simulate runs 1 worker: its
order-256 eigensolves already keep two OpenBLAS threads busy, and on a
2-core machine two forked workers, each with OpenBLAS threads of its own,
took simulate-hypercube8 from 1.38-1.43 s to 2.27-3.89 s (3 runs each) and
gave simulate-cycle6 no gain (op_ref 0.17-0.20 against 0.21-0.26).  Unset,
oracle runs usable_cpus() workers: its matrices have order at most 20, which
OpenBLAS solves on one thread, so each CPU can run a worker of its own.
With the 2 workers that gives on a 2-core machine, oracle-cycle15's op_ref
fell from 5.83 to 3.88 (medians of 10 alternating benchmark pairs, all 10
won; about 0.9 s to 0.5 s), every output unchanged.  Results are
byte-identical for any worker count at a fixed BLAS thread count, because
sampling is counter-based, a child inherits the caller's BLAS thread count,
and results are folded in trial (or mask) order.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .graph_core import (
    GENERATOR_FAMILIES,
    WeightedGraph,
    certify_ndl,
    generate,
    graph_to_dict,
    read_graph,
)
from .oracle import STATISTIC_KINDS, exact_distribution
from .percolation import (
    SurvivalProfile,
    _chunk_length,
    _distinct_rows,
    _map_in_order,
    expected_augmented_laplacian,
    trial_block,
)
from .theory import (
    THRESHOLD_MODES,
    BoundReport,
    deviation_bound,
    optimize_alpha,
    survival_threshold,
)

__all__ = ["ExperimentConfig", "ExperimentSummary", "main", "run_experiment"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2

# slack absorbing floating error in the per-trial lower bound assertion
LOWER_BOUND_SLACK = 1e-8
# lower-bound violations named, with their values, when validation fails
VIOLATIONS_SHOWN = 5
TRIALS_CSV_HEADER = (
    "trial_index,survivor_count,is_connected,a_delta,deviation_norm,lambda2_augmented\n"
)


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has
    one, else the CPUs installed."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def resolve_threads(unset: int = 1) -> int:
    """Worker count from PERCOBOUND_THREADS (unset means `unset`, 0 means
    usable_cpus())."""
    raw = os.environ.get("PERCOBOUND_THREADS")
    if raw is None:
        return unset
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"PERCOBOUND_THREADS must be an integer, got {raw!r}") from exc
    if value < 0:
        raise ValueError(f"PERCOBOUND_THREADS must be non-negative, got {value}")
    if value == 0:
        return usable_cpus()
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved inputs of one simulate/bound run, echoed into every report."""

    graph_source: dict
    profile: dict
    alpha: object  # float or the string "auto"
    epsilon: float
    trials: int
    seed: int
    alpha_grid_size: int = 256

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ExperimentSummary:
    """Aggregate of a Monte Carlo run plus the closed-form bound it checks."""

    n_trials: int
    connected_fraction: float
    connected_fraction_se: float
    mean_deviation_norm: float
    max_deviation_norm: float
    empirical_tail_at_bound: float
    tail_tolerance: float
    tail_within_tolerance: bool
    lower_bound_violations: int
    bound_report: BoundReport

    def to_dict(self) -> dict:
        return asdict(self)


# every finite float is an integer multiple of 2**-1074, the smallest subnormal
_ULP_SCALE = 1 << 1074


def _scaled_sum(values: np.ndarray) -> int:
    """Exact sum of finite float64 values, times 2**1074, as one Python int.

    Values with equal bits are grouped and each group is added once, as its
    count times the value's scaled numerator.
    """
    first, inverse = _distinct_rows(values.view(np.uint64)[:, None])
    total = 0
    for x, count in zip(values[first].tolist(), np.bincount(inverse).tolist()):
        num, den = x.as_integer_ratio()
        total += count * num * (_ULP_SCALE // den)
    return total


def _mean(scaled_sum: int, trials: int) -> float:
    """Mean of the values a _scaled_sum total adds up: math.fsum of them,
    divided by trials, or the correctly rounded mean where that sum overflows."""
    try:
        # int / int rounds correctly, as math.fsum does
        return scaled_sum / _ULP_SCALE / trials
    except OverflowError:
        return scaled_sum / (_ULP_SCALE * trials)


def _write_trial_rows(fh, start: int, block) -> None:
    """Write one CSV row per trial of block, trial start first.

    Rows whose five values have equal bits share one formatted suffix; the
    grouping is by bits because -0.0 and 0.0 compare equal but print apart.
    """
    keys = np.column_stack([block.survivor_count.astype(np.uint64),
                            block.is_connected.astype(np.uint64),
                            block.a_delta.view(np.uint64),
                            block.deviation_norm.view(np.uint64),
                            block.lambda2_augmented.view(np.uint64)])
    first, inverse = _distinct_rows(keys)
    # repr(math.inf) is "inf", the CSV's spelling of a_delta below two survivors
    suffixes = [f"{m},{int(c)},{a!r},{d!r},{l2!r}\n" for m, c, a, d, l2 in zip(
        block.survivor_count[first].tolist(), block.is_connected[first].tolist(),
        block.a_delta[first].tolist(), block.deviation_norm[first].tolist(),
        block.lambda2_augmented[first].tolist())]
    fh.write("".join([f"{t},{suffixes[k]}"
                      for t, k in zip(range(start, start + len(block)), inverse.tolist())]))


def _bound_for(g: WeightedGraph, profile: SurvivalProfile, alpha_spec, epsilon: float,
               alpha_grid_size: int) -> tuple[float, BoundReport]:
    """(alpha, its BoundReport): grid-optimized for "auto", else at the given alpha."""
    if alpha_spec == "auto":
        return optimize_alpha(g, profile, epsilon, alpha_grid_size)
    alpha = float(alpha_spec)
    return alpha, deviation_bound(g, profile, alpha, epsilon)


def run_experiment(g: WeightedGraph, profile: SurvivalProfile, alpha_spec,
                   epsilon: float, trials: int, seed: int, threads: int = 1,
                   alpha_grid_size: int = 256, trials_csv=None):
    """Run the Monte Carlo experiment and check the closed-form claims.

    alpha_spec is a float or "auto" (grid-optimized).  Trials run in chunks
    through percolation.trial_block, on `threads` worker processes (this one
    and threads - 1 forked children, see percolation._map_in_order), and
    are folded into the aggregates in trial order, the deviation norms into
    one exact integer sum, so every aggregate is reproducible byte for byte
    and memory does not grow with `trials`.  If
    trials_csv is a path, that file receives a header and one row per trial,
    in trial order.  It is opened only once the inputs have been checked and
    the bound computed, so a usage error leaves an existing file as it was;
    it is written a chunk at a time, so a run that fails partway leaves the
    rows of the chunks done before the failure.  Without trials_csv, a_delta
    is only compared with each trial's level, min(lambda2_expected -
    deviation norm, alpha) - LOWER_BOUND_SLACK (the slack read at each call),
    and trial_block gets the same levels, so it skips the survivor
    eigensolves whose comparison cannot fail, and the eigensolve of
    lambda2_augmented, which only that file reports.  The summary and
    violations are the same either way.

    Returns (ExperimentSummary, violations): violations lists
    (trial_index, a_delta, lower_bound) for the first VIOLATIONS_SHOWN
    trials that broke the per-trial lower bound.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    alpha, report = _bound_for(g, profile, alpha_spec, epsilon, alpha_grid_size)
    expected = expected_augmented_laplacian(g, profile, alpha)
    step = _chunk_length(g.n)
    starts = range(0, trials, step)

    def lower_bounds(devs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each trial's lower bound on a_delta, and the level a_delta must reach."""
        lower = np.minimum(report.lambda2_expected - devs, alpha)
        # the slack is read at each call, so a patched one reaches the kernel too
        return lower, lower - LOWER_BOUND_SLACK

    # the CSV prints every statistic; without it a_delta is only compared
    # with its level, so the kernel may skip the solves that cannot fail
    levels = None if trials_csv is not None else lambda devs: lower_bounds(devs)[1]

    def chunk(start: int):
        return trial_block(g, profile, alpha, seed, start, min(step, trials - start), expected,
                           levels)

    connected = tail_hits = violation_count = 0
    max_dev = -math.inf
    scaled_sum = 0  # the deviation norms' exact sum, times 2**1074
    violations = []
    csv_file = (contextlib.nullcontext() if trials_csv is None
                else open(trials_csv, "w", encoding="utf-8"))
    with csv_file as fh, contextlib.closing(_map_in_order(chunk, starts, threads)) as blocks:
        if fh is not None:
            fh.write(TRIALS_CSV_HEADER)
        for start, block in zip(starts, blocks):
            devs = block.deviation_norm
            connected += int(np.count_nonzero(block.is_connected))
            tail_hits += int(np.count_nonzero(devs > report.total))
            max_dev = max(max_dev, float(devs.max()))
            scaled_sum += _scaled_sum(devs)
            lower, level = lower_bounds(devs)
            broken = np.flatnonzero(block.a_delta < level)
            violation_count += broken.size
            for k in broken[:VIOLATIONS_SHOWN - len(violations)].tolist():
                violations.append((start + k, float(block.a_delta[k]), float(lower[k])))
            if fh is not None:
                _write_trial_rows(fh, start, block)

    fraction = connected / trials
    se = math.sqrt(fraction * (1.0 - fraction) / trials)
    empirical_tail = tail_hits / trials
    tolerance = epsilon + 3.0 * math.sqrt(epsilon * (1.0 - epsilon) / trials)
    summary = ExperimentSummary(
        n_trials=trials,
        connected_fraction=fraction,
        connected_fraction_se=se,
        mean_deviation_norm=_mean(scaled_sum, trials),
        max_deviation_norm=max_dev,
        empirical_tail_at_bound=empirical_tail,
        tail_tolerance=tolerance,
        tail_within_tolerance=empirical_tail <= tolerance,
        lower_bound_violations=violation_count,
        bound_report=report,
    )
    return summary, violations


def _flatten(payload, prefix="", rows=None):
    if rows is None:
        rows = []
    if isinstance(payload, dict):
        for key, value in payload.items():
            _flatten(value, f"{prefix}{key}." if isinstance(value, dict) else f"{prefix}{key}", rows)
    else:
        rows.append((prefix, json.dumps(payload)))
    return rows


def _emit(payload: dict, fmt: str, output) -> None:
    if fmt == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = ["key,value"]
        lines += [f"{key},{value}" for key, value in _flatten(payload)]
        text = "\n".join(lines) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_graph(args) -> tuple[WeightedGraph, dict]:
    if args.graph is not None:
        return read_graph(args.graph), {"file": str(args.graph)}
    params = {}
    for name in ("n", "k", "q", "d"):
        value = getattr(args, name, None)
        if value is not None:
            params[name] = value
    g = generate(args.family, seed=args.seed, **params)
    return g, {"family": args.family, **params, "seed": args.seed}


def _load_profile(args, n: int) -> tuple[SurvivalProfile, dict]:
    if args.p is not None:
        return SurvivalProfile.uniform(n, args.p), {"uniform_p": args.p}
    with open(args.profile, "r", encoding="utf-8") as fh:
        values = json.load(fh)
    if not isinstance(values, list):
        raise ValueError("profile file must hold a JSON array of probabilities")
    profile = SurvivalProfile(values)
    if len(profile) != n:
        raise ValueError(
            f"profile file has {len(profile)} entries but the graph has {n} vertices"
        )
    return profile, {"file": str(args.profile)}


def _parse_alpha(raw: str):
    if raw == "auto":
        return "auto"
    try:
        # + 0.0 turns -0.0 into 0.0, so "-0.0" and "0" give the same report
        value = float(raw) + 0.0
    except ValueError as exc:
        raise ValueError(f'--alpha must be "auto" or a number, got {raw!r}') from exc
    # written so that NaN fails too
    if not 0 <= value < math.inf:
        raise ValueError(f"--alpha must be non-negative and finite, got {raw!r}")
    return value


def cmd_generate(args) -> int:
    g, source = _load_graph(args)
    payload = graph_to_dict(g)
    _emit(payload, args.format or "json", args.output)
    return EXIT_OK


def cmd_certify(args) -> int:
    g, source = _load_graph(args)
    cert = certify_ndl(g)
    payload = {
        "version": __version__,
        "config": {"graph_source": source},
        **cert.to_dict(),
    }
    _emit(payload, args.format or "json", args.output)
    return EXIT_OK


def cmd_bound(args) -> int:
    g, source = _load_graph(args)
    profile, profile_desc = _load_profile(args, g.n)
    alpha_spec = _parse_alpha(args.alpha)
    _, report = _bound_for(g, profile, alpha_spec, args.epsilon, args.alpha_grid)
    config = ExperimentConfig(
        graph_source=source,
        profile=profile_desc,
        alpha=alpha_spec,
        epsilon=args.epsilon,
        trials=0,
        seed=args.seed,
        alpha_grid_size=args.alpha_grid,
    )
    payload = {
        "version": __version__,
        "config": config.to_dict(),
        **report.to_dict(),
    }
    _emit(payload, args.format or "json", args.output)
    return EXIT_OK


def cmd_simulate(args) -> int:
    g, source = _load_graph(args)
    profile, profile_desc = _load_profile(args, g.n)
    alpha_spec = _parse_alpha(args.alpha)
    threads = resolve_threads()
    config = ExperimentConfig(
        graph_source=source,
        profile=profile_desc,
        alpha=alpha_spec,
        epsilon=args.epsilon,
        trials=args.trials,
        seed=args.seed,
        alpha_grid_size=args.alpha_grid,
    )
    summary, violations = run_experiment(
        g, profile, alpha_spec, args.epsilon, args.trials, args.seed,
        threads=threads, alpha_grid_size=args.alpha_grid, trials_csv=args.trials_csv,
    )
    payload = {
        "version": __version__,
        "config": config.to_dict(),
        **summary.to_dict(),
    }
    _emit(payload, args.format or "json", args.output)
    if summary.lower_bound_violations > 0 or not summary.tail_within_tolerance:
        shown = "".join(
            f"; trial {t}: a_delta {a!r} < lower bound {lower!r}" for t, a, lower in violations
        )
        sys.stderr.write(
            f"validation failed: {summary.lower_bound_violations} lower-bound "
            f"violations{shown}; empirical tail {summary.empirical_tail_at_bound} vs "
            f"tolerance {summary.tail_tolerance}\n"
        )
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_threshold(args) -> int:
    report = survival_threshold(args.n, args.d, args.lam, args.epsilon, args.mode)
    payload = {
        "version": __version__,
        "config": {
            "n": args.n,
            "d": args.d,
            "lambda": args.lam,
            "epsilon": args.epsilon,
            "mode": args.mode,
        },
        **report.to_dict(),
    }
    _emit(payload, args.format or "json", args.output)
    return EXIT_OK


def cmd_oracle(args) -> int:
    g, source = _load_graph(args)
    profile, profile_desc = _load_profile(args, g.n)
    alpha = args.alpha + 0.0  # as in _parse_alpha: -0.0 becomes 0.0
    # at order 20 or less OpenBLAS solves on one thread, so every usable CPU
    # can run a worker of its own
    dist = exact_distribution(g, profile, alpha, args.kind,
                              workers=resolve_threads(usable_cpus()))
    fmt = args.format or "csv"
    if fmt == "csv":
        if args.output is None:
            dist.write_csv(sys.stdout)
        else:
            with open(args.output, "w", encoding="utf-8") as fh:
                dist.write_csv(fh)
    else:
        entries = [
            [b, q, "inf" if math.isinf(s) else s]
            for bits, probabilities, statistics in dist.row_blocks()
            for b, q, s in zip(bits, probabilities, statistics)
        ]
        payload = {
            "version": __version__,
            "config": {
                "graph_source": source,
                "profile": profile_desc,
                "alpha": alpha,
                "statistic_kind": args.kind,
            },
            "n": dist.n,
            "entries": entries,
        }
        _emit(payload, "json", args.output)

    probabilities, statistics = dist.probabilities, dist.statistics
    if args.kind == "connectivity_indicator":
        p_connected = math.fsum(probabilities[statistics == 1.0].tolist())
        sys.stderr.write(f"P(connected) = {p_connected!r}\n")
    else:
        finite = ~np.isinf(statistics)
        mean_stat = math.fsum((probabilities[finite] * statistics[finite]).tolist())
        inf_mass = 1.0 - math.fsum(probabilities[finite].tolist())
        sys.stderr.write(
            f"mean {args.kind} (finite part) = {mean_stat!r}, "
            f"P(statistic = inf) = {max(0.0, inf_mass)!r}\n"
        )
    return EXIT_OK


def _add_graph_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--graph", default=None, help="graph JSON file")
    parser.add_argument("--family", default=None, choices=GENERATOR_FAMILIES,
                        help="generate the graph instead of reading a file")
    parser.add_argument("--n", type=int, default=None, help="vertex count (family parameter)")
    parser.add_argument("--k", type=int, default=None, help="hypercube dimension")
    parser.add_argument("--q", type=int, default=None, help="paley field size")
    parser.add_argument("--d", type=int, default=None, help="regular degree")


def _add_profile(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--p", type=float, default=None, help="uniform survival probability")
    parser.add_argument("--profile", default=None,
                        help="JSON file with one survival probability per vertex")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="64-bit seed (default 0)")
    common.add_argument("--output", default=None, help="write the result here instead of stdout")
    common.add_argument("--format", choices=["json", "csv"], default=None,
                        help="output format (default json; oracle defaults to csv)")

    parser = argparse.ArgumentParser(
        prog="percobound",
        description="Spectral lower bounds on algebraic connectivity under random vertex deletion",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", parents=[common], help="emit a named graph as JSON")
    p_gen.add_argument("--family", required=True, choices=GENERATOR_FAMILIES)
    p_gen.add_argument("--n", type=int, default=None)
    p_gen.add_argument("--k", type=int, default=None)
    p_gen.add_argument("--q", type=int, default=None)
    p_gen.add_argument("--d", type=int, default=None)
    p_gen.set_defaults(func=cmd_generate, graph=None)

    p_cert = sub.add_parser("certify", parents=[common],
                            help="certify regularity and the nontrivial spectral radius")
    _add_graph_source(p_cert)
    p_cert.set_defaults(func=cmd_certify)

    p_bound = sub.add_parser("bound", parents=[common],
                             help="closed-form deviation bound and connectivity lower bound")
    _add_graph_source(p_bound)
    _add_profile(p_bound)
    p_bound.add_argument("--alpha", default="auto",
                         help='ghost diagonal weight, or "auto" to grid-optimize')
    p_bound.add_argument("--alpha-grid", type=int, default=256, help="alpha grid size")
    p_bound.add_argument("--epsilon", type=float, required=True, help="failure probability")
    p_bound.set_defaults(func=cmd_bound)

    p_sim = sub.add_parser("simulate", parents=[common],
                           help="Monte Carlo percolation run with per-trial validation")
    _add_graph_source(p_sim)
    _add_profile(p_sim)
    p_sim.add_argument("--alpha", default="auto")
    p_sim.add_argument("--alpha-grid", type=int, default=256)
    p_sim.add_argument("--epsilon", type=float, required=True)
    p_sim.add_argument("--trials", type=int, required=True)
    p_sim.add_argument("--trials-csv", default=None, help="also write one CSV row per trial")
    p_sim.set_defaults(func=cmd_simulate)

    p_thr = sub.add_parser("threshold", parents=[common],
                           help="survival threshold certifying connectivity")
    p_thr.add_argument("--n", type=int, required=True)
    p_thr.add_argument("--d", type=int, required=True)
    p_thr.add_argument("--lambda", dest="lam", type=float, required=True)
    p_thr.add_argument("--epsilon", type=float, required=True)
    p_thr.add_argument("--mode", choices=THRESHOLD_MODES, default="closed_form")
    p_thr.set_defaults(func=cmd_threshold)

    p_orc = sub.add_parser("oracle", parents=[common],
                           help="exhaustive enumeration of all survival patterns")
    _add_graph_source(p_orc)
    _add_profile(p_orc)
    p_orc.add_argument("--alpha", type=float, default=0.0,
                       help="ghost diagonal weight (used by deviation_norm)")
    p_orc.add_argument("--kind", required=True, choices=STATISTIC_KINDS)
    p_orc.set_defaults(func=cmd_oracle)

    return parser


def _validate_source_args(parser, args) -> None:
    if args.command in ("certify", "bound", "simulate", "oracle"):
        if args.graph is None and args.family is None:
            parser.error("provide --graph FILE or --family NAME")
        if args.graph is not None and args.family is not None:
            parser.error("--graph and --family are mutually exclusive")
    if args.command in ("bound", "simulate", "oracle"):
        if (args.p is None) == (args.profile is None):
            parser.error("provide exactly one of --p or --profile")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate_source_args(parser, args)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

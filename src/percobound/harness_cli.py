"""Command-line harness: generate, certify, bound, simulate, threshold, oracle.

Exit codes: 0 success, 1 a mathematical claim the run was supposed to verify
failed, 2 usage or domain error, or a file that cannot be read or written.

simulate evaluates its trials a chunk at a time with percolation.trial_block
(sampling, assembly and stacked eigensolves for a whole chunk; see that
module) and folds each chunk into running aggregates in trial order: counts,
exact partial sums of the deviation norms, their maximum, and the first few
lower-bound violations, which a failed validation names on stderr.  The
per-trial CSV is written a chunk at a time as well, so memory does not grow
with the trial count and the CSV has no row cap.  lambda_2 of the augmented
Laplacian is reported only in that CSV, so its eigensolve runs only when the
CSV is asked for.

The PERCOBOUND_THREADS environment variable sets how many chunks run at once
on worker threads, at most that many in flight (unset means 1, 0 picks the
CPU count).  One is the default because a second thread did not pay on a
2-core machine: in one process, two threads calling np.linalg.eigvalsh on
order-256 matrices did not overlap, and in 10 alternating benchmark pairs of
1 against 2 threads one thread won all 10 on both simulate workloads, with
a median op_ref of 17.3 against 21.9 on hypercube-8 and 0.347 against 0.419
on the 6-cycle, and about 2 MiB less peak memory.  No workload or host where
two or more threads win has been measured.  Results are byte-identical for
any thread count at a fixed BLAS thread count, because sampling is
counter-based and aggregation runs in trial order.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from collections import deque
from concurrent.futures import ThreadPoolExecutor
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


def resolve_threads() -> int:
    """Worker count from PERCOBOUND_THREADS (unset means 1, 0 means CPU count)."""
    raw = os.environ.get("PERCOBOUND_THREADS")
    if raw is None:
        return 1
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"PERCOBOUND_THREADS must be an integer, got {raw!r}") from exc
    if value < 0:
        raise ValueError(f"PERCOBOUND_THREADS must be non-negative, got {value}")
    if value == 0:
        return os.cpu_count() or 1
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


def _in_trial_order(fn, args, threads: int):
    """Yield fn(a) for each a in order, with at most `threads` calls in flight."""
    if threads <= 1:
        yield from map(fn, args)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending = deque()
        for a in args:
            if len(pending) == threads:
                yield pending.popleft().result()
            pending.append(pool.submit(fn, a))
        while pending:
            yield pending.popleft().result()


def _add_to_partials(partials: list, values) -> None:
    """Add values to Shewchuk's exact partial sums in place: afterwards
    math.fsum(partials) equals math.fsum over every value added so far."""
    for x in values:
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]


def _write_trial_rows(fh, start: int, block) -> None:
    # repr(math.inf) is "inf", the CSV's spelling of a_delta below two survivors
    rows = zip(range(start, start + len(block)), block.survivor_count.tolist(),
               block.is_connected.tolist(), block.a_delta.tolist(),
               block.deviation_norm.tolist(), block.lambda2_augmented.tolist())
    fh.write("".join(f"{t},{m},{int(c)},{a!r},{d!r},{l2!r}\n" for t, m, c, a, d, l2 in rows))


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
    through percolation.trial_block, on up to `threads` worker threads, and
    are folded into the aggregates in trial order, so every aggregate is
    reproducible byte for byte and memory does not grow with `trials`.  If
    trials_csv is a path, that file receives a header and one row per trial,
    in trial order.  It is opened only once the inputs have been checked and
    the bound computed, so a usage error leaves an existing file as it was;
    it is written a chunk at a time, so a run that fails partway leaves the
    rows of the chunks done before the failure.  lambda2_augmented appears
    only in that file, so its eigensolve runs only when trials_csv is given;
    the summary is the same either way.

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

    def chunk(start: int):
        return trial_block(g, profile, alpha, seed, start, min(step, trials - start), expected,
                           with_lambda2_augmented=trials_csv is not None)

    connected = tail_hits = violation_count = 0
    max_dev = -math.inf
    partials = []  # exact partial sums of the deviation norms
    violations = []
    csv_file = (contextlib.nullcontext() if trials_csv is None
                else open(trials_csv, "w", encoding="utf-8"))
    with csv_file as fh:
        if fh is not None:
            fh.write(TRIALS_CSV_HEADER)
        for start, block in zip(starts, _in_trial_order(chunk, starts, threads)):
            devs = block.deviation_norm
            connected += int(np.count_nonzero(block.is_connected))
            tail_hits += int(np.count_nonzero(devs > report.total))
            max_dev = max(max_dev, float(devs.max()))
            _add_to_partials(partials, devs.tolist())
            lower = np.minimum(report.lambda2_expected - devs, alpha)
            broken = np.flatnonzero(block.a_delta < lower - LOWER_BOUND_SLACK)
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
        mean_deviation_norm=math.fsum(partials) / trials,
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
        value = float(raw)
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
    dist = exact_distribution(g, profile, args.alpha, args.kind)
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
                "alpha": args.alpha,
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

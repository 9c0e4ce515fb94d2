"""Command-line harness: generate, certify, bound, simulate, threshold, oracle.

Exit codes: 0 success, 1 a mathematical claim the run was supposed to verify
failed, 2 usage or domain error, a file that cannot be read or written, or an
input too large to allocate.

The reports of certify, bound, simulate and threshold, and oracle's JSON,
share one envelope, built by _report: the version, the resolved inputs, then
the command's results.  Every result goes to the one stream _sink picks:
stdout, or the --output file.

The parser is built per command: when the command line starts with a
command, main builds that command's subparser only (build_parser), which
cuts the fixed cost of every run; otherwise it builds all six.  Every help,
usage and error text is the same bytes either way, at any terminal width:
the top-level usage still lists every command.

simulate evaluates its trials a chunk at a time through
percolation._trial_chunks (sampling, assembly and stacked eigensolves for a
whole chunk; see that module), which gives each chunk's distinct survival
patterns and the pattern each trial drew.  simulate folds each pattern once,
times the trials that drew it, into running aggregates in trial order:
counts, the exact sum of the deviation norms, their maximum, and the first
few lower-bound violations, which a failed validation names on stderr.  The
sum is one Python integer, the norms scaled by 2**1074 (every float is a
whole multiple of 2**-1074), so the mean rounds like math.fsum of every
norm, divided by the trial count.  A chunk holds as many trials as the
_chunking module's docstring says, and the per-trial CSV is written as each
chunk finishes, each pattern's values formatted once and one row block of
the _chunking module (1,024 rows) per write, so memory does not grow with
the trial count and the CSV has no row cap.
Without the CSV, a_delta is only compared with its lower-bound level,
min(lambda2_expected - deviation norm, alpha) - LOWER_BOUND_SLACK, and
lambda_2 of the augmented Laplacian, reported only in that CSV, is not
needed.  simulate then hands
those levels to the kernel, which solves a survivor block only where the
comparison can fail and skips the augmented eigensolve (see
percolation._trial_chunks); the report is the same bytes either way.

simulate and oracle take their worker count from _chunking.resolve_threads.
Where PERCOBOUND_THREADS is unset, oracle runs one worker per usable CPU, and
so does simulate where the package was imported before numpy, which lets it
set OpenBLAS's idle-thread timeout; where numpy loaded first, simulate runs
one worker.  The _chunking module's docstring says why.

oracle writes its table a row block at a time (ExactDistribution.write_csv)
and sums it for its stderr summary a row block at a time (oracle._exact_sum),
so it holds the 16 * 2^n bytes of its table plus one row block: deviation_norm
on the 18-cycle peaks at 35.6-35.9 MiB resident in the calling process on a
2-core machine, against 47.7-48.1 MiB with 2^n-long lists of Python floats.
Its JSON output still builds every entry for one json.dumps.
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
from ._chunking import _row_slices, resolve_threads
from .graph_core import (
    GENERATOR_FAMILIES,
    WeightedGraph,
    _check_seed,
    _read_json,
    _real,
    _require_positive_int,
    certify_ndl,
    generate,
    graph_to_dict,
    read_graph,
)
from .oracle import STATISTIC_KINDS, _exact_sum, exact_distribution
from .percolation import SurvivalProfile, _trial_chunks
from .theory import (
    ALPHA_GRID_SIZE,
    THRESHOLD_MODES,
    BoundReport,
    _check_grid_size,
    deviation_bound,
    optimize_alpha,
    survival_threshold,
)

__all__ = ["ExperimentSummary", "main", "run_experiment"]

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


def _scaled_sum(values: np.ndarray, counts: np.ndarray) -> int:
    """Exact sum of finite float64 values, value k taken counts[k] times,
    times 2**1074, as one Python int."""
    total = 0
    for x, count in zip(values.tolist(), counts.tolist()):
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


def _write_trial_rows(fh, start: int, block, inverse: np.ndarray) -> None:
    """Write one CSV row per trial, trial start first: trial start + t drew
    entry inverse[t] of block, whose values are formatted once per entry.
    The rows are written one row block at a time."""
    # repr(math.inf) is "inf", the CSV's spelling of a_delta below two survivors
    suffixes = [f"{m},{int(c)},{a!r},{d!r},{l2!r}\n" for m, c, a, d, l2 in zip(
        block.survivor_count.tolist(), block.is_connected.tolist(), block.a_delta.tolist(),
        block.deviation_norm.tolist(), block.lambda2_augmented.tolist())]
    for rows in _row_slices(len(inverse)):
        fh.write("".join([f"{t},{suffixes[k]}"
                          for t, k in enumerate(inverse[rows].tolist(), start + rows.start)]))


def _bound_for(g: WeightedGraph, profile: SurvivalProfile, alpha_spec, epsilon: float,
               alpha_grid_size: int) -> tuple[float, BoundReport]:
    """(alpha, its BoundReport): grid-optimized for "auto", else at the given alpha."""
    if alpha_spec == "auto":
        return optimize_alpha(g, profile, epsilon, alpha_grid_size)
    report = deviation_bound(g, profile, alpha_spec, epsilon)
    return report.alpha, report


def run_experiment(g: WeightedGraph, profile: SurvivalProfile, alpha_spec,
                   epsilon: float, trials: int, seed: int, threads: int = 1,
                   alpha_grid_size: int = ALPHA_GRID_SIZE, trials_csv=None):
    """Run the Monte Carlo experiment and check the closed-form claims.

    alpha_spec is a float or "auto" (grid-optimized).  Trials run in chunks
    from percolation._trial_chunks, on `threads` worker processes, and each
    chunk's distinct patterns are folded into the aggregates, each times the
    trials that drew it, the deviation norms into one exact integer sum, so
    every aggregate is reproducible byte for byte and memory does not grow
    with `trials`.  If trials_csv is a path, that file receives a header and
    one row per trial, in trial order.  It is opened only once the bound is
    computed and _trial_chunks has checked the inputs, so a usage error
    leaves an existing file as it was; it is written a chunk at a time, so a
    run that fails partway leaves the rows of the chunks done before the
    failure.  Without trials_csv, a_delta is only compared with each trial's
    level, min(lambda2_expected - deviation norm, alpha) - LOWER_BOUND_SLACK
    (the slack read at each call), and the kernel gets the same levels, so
    it skips the survivor eigensolves whose comparison cannot fail, and the
    eigensolve of lambda2_augmented, which only that file reports.  The summary and
    violations are the same either way.

    trials and threads are positive integers, and the seed is an integer in
    [0, 2**64), as are the trial indices 0, ..., trials - 1.

    Returns (ExperimentSummary, violations): violations lists
    (trial_index, a_delta, lower_bound) for the first VIOLATIONS_SHOWN
    trials that broke the per-trial lower bound.
    """
    trials = _require_positive_int("trials", trials)
    threads = _require_positive_int("threads", threads)
    alpha, report = _bound_for(g, profile, alpha_spec, epsilon, alpha_grid_size)

    def lower_bounds(devs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each trial's lower bound on a_delta, and the level a_delta must reach."""
        lower = np.minimum(report.lambda2_expected - devs, alpha)
        # the slack is read at each call, so a patched one reaches the kernel too
        return lower, lower - LOWER_BOUND_SLACK

    # the CSV prints every statistic; without it a_delta is only compared
    # with its level, so the kernel may skip the solves that cannot fail
    levels = None if trials_csv is not None else lambda devs: lower_bounds(devs)[1]
    # checked here, before the CSV is opened; the chunks run as the loop asks
    chunks = _trial_chunks(g, profile, alpha, seed, 0, trials, levels, threads)

    connected = tail_hits = violation_count = 0
    max_dev = -math.inf
    scaled_sum = 0  # the deviation norms' exact sum, times 2**1074
    violations = []
    csv_file = (contextlib.nullcontext() if trials_csv is None
                else open(trials_csv, "w", encoding="utf-8"))
    with csv_file as fh, contextlib.closing(chunks):
        if fh is not None:
            fh.write(TRIALS_CSV_HEADER)
        for start, (block, inverse) in chunks:
            counts = np.bincount(inverse, minlength=len(block))  # trials per pattern
            devs = block.deviation_norm
            connected += int(counts[block.is_connected].sum())
            tail_hits += int(counts[devs > report.total].sum())
            max_dev = max(max_dev, float(devs.max()))
            scaled_sum += _scaled_sum(devs, counts)
            lower, level = lower_bounds(devs)
            broken = np.flatnonzero((block.a_delta < level)[inverse])
            violation_count += broken.size
            for t in broken[:VIOLATIONS_SHOWN - len(violations)].tolist():
                k = inverse[t]
                violations.append((start + t, float(block.a_delta[k]), float(lower[k])))
            if fh is not None:
                _write_trial_rows(fh, start, block, inverse)

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


def _sink(output):
    """A context manager giving the stream a result goes to: stdout, or the
    file output, which it opens for writing and closes."""
    if output is None:
        return contextlib.nullcontext(sys.stdout)
    return open(output, "w", encoding="utf-8")


def _emit(payload: dict, fmt: str, output) -> None:
    if fmt == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = ["key,value"]
        lines += [f"{key},{value}" for key, value in _flatten(payload)]
        text = "\n".join(lines) + "\n"
    with _sink(output) as fh:
        fh.write(text)


def _report(args, config: dict, body: dict) -> None:
    """Emit a command's report: the version, the resolved inputs, then body."""
    _emit({"version": __version__, "config": config, **body}, args.format or "json",
          args.output)


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
    values = _read_json(args.profile, "profile")
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
    return _real(value, lambda a: 0 <= a < math.inf,
                 f"--alpha must be non-negative and finite, got {raw!r}")


def cmd_generate(args) -> int:
    g, source = _load_graph(args)
    payload = graph_to_dict(g)
    _emit(payload, args.format or "json", args.output)
    return EXIT_OK


def _experiment(args, trials: int):
    """(graph, profile, alpha spec, report config) of a bound or simulate
    run of `trials` trials."""
    # checked whatever --alpha is, since the report echoes the grid size
    _check_grid_size("--alpha-grid", args.alpha_grid)
    g, source = _load_graph(args)
    profile, profile_desc = _load_profile(args, g.n)
    alpha_spec = _parse_alpha(args.alpha)
    config = {"graph_source": source, "profile": profile_desc, "alpha": alpha_spec,
              "epsilon": args.epsilon, "trials": trials, "seed": args.seed,
              "alpha_grid_size": args.alpha_grid}
    return g, profile, alpha_spec, config


def cmd_certify(args) -> int:
    g, source = _load_graph(args)
    _report(args, {"graph_source": source}, certify_ndl(g).to_dict())
    return EXIT_OK


def cmd_bound(args) -> int:
    g, profile, alpha_spec, config = _experiment(args, 0)
    _, report = _bound_for(g, profile, alpha_spec, args.epsilon, args.alpha_grid)
    _report(args, config, report.to_dict())
    return EXIT_OK


def cmd_simulate(args) -> int:
    # the report would overwrite the trials CSV.  Two paths that exist are
    # compared by the file they open, which a hard link shares
    output, csv = args.output, args.trials_csv
    if output is not None and csv is not None and (
            os.path.samefile(output, csv) if os.path.exists(output) and os.path.exists(csv)
            else os.path.realpath(output) == os.path.realpath(csv)):
        raise ValueError(f"--output and --trials-csv name the same file: {output}")
    g, profile, alpha_spec, config = _experiment(args, args.trials)
    # every usable CPU where idle BLAS threads sleep, else one worker
    summary, violations = run_experiment(
        g, profile, alpha_spec, args.epsilon, args.trials, args.seed,
        threads=resolve_threads(), alpha_grid_size=args.alpha_grid,
        trials_csv=args.trials_csv,
    )
    _report(args, config, summary.to_dict())
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
    config = {"n": args.n, "d": args.d, "lambda": args.lam, "epsilon": args.epsilon,
              "mode": args.mode}
    _report(args, config, report.to_dict())
    return EXIT_OK


def cmd_oracle(args) -> int:
    g, source = _load_graph(args)
    profile, profile_desc = _load_profile(args, g.n)
    alpha = args.alpha + 0.0  # as in _parse_alpha: -0.0 becomes 0.0
    # one worker per usable CPU unless PERCOBOUND_THREADS says otherwise
    dist = exact_distribution(g, profile, alpha, args.kind, workers=resolve_threads(0))
    if args.format in (None, "csv"):
        with _sink(args.output) as fh:
            dist.write_csv(fh)
    else:
        entries = [
            [b, q, "inf" if math.isinf(s) else s]
            for bits, probabilities, statistics in dist.row_blocks()
            for b, q, s in zip(bits, probabilities, statistics)
        ]
        config = {"graph_source": source, "profile": profile_desc, "alpha": alpha,
                  "statistic_kind": args.kind}
        _report(args, config, {"n": dist.n, "entries": entries})

    # each sum reads the table a row block at a time
    if args.kind == "connectivity_indicator":
        p_connected = _exact_sum(q[s == 1.0] for q, s in dist._blocks())
        sys.stderr.write(f"P(connected) = {p_connected!r}\n")
    else:
        mean_stat = _exact_sum(q[finite] * s[finite] for q, s in dist._blocks()
                               for finite in [~np.isinf(s)])
        inf_mass = _exact_sum(q[np.isinf(s)] for q, s in dist._blocks())
        sys.stderr.write(
            f"mean {args.kind} (finite part) = {mean_stat!r}, "
            f"P(statistic = inf) = {inf_mass!r}\n"
        )
    return EXIT_OK


def _add_family_parameters(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=None, help="vertex count (family parameter)")
    parser.add_argument("--k", type=int, default=None, help="hypercube dimension")
    parser.add_argument("--q", type=int, default=None, help="paley field size")
    parser.add_argument("--d", type=int, default=None, help="regular degree")


def _add_graph_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--graph", default=None, help="graph JSON file")
    parser.add_argument("--family", default=None, choices=GENERATOR_FAMILIES,
                        help="generate the graph instead of reading a file")
    _add_family_parameters(parser)


def _add_profile(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--p", type=float, default=None, help="uniform survival probability")
    parser.add_argument("--profile", default=None,
                        help="JSON file with one survival probability per vertex")


def _add_generate(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", required=True, choices=GENERATOR_FAMILIES)
    _add_family_parameters(parser)
    parser.set_defaults(graph=None)


def _add_bound(parser: argparse.ArgumentParser) -> None:
    _add_graph_source(parser)
    _add_profile(parser)
    parser.add_argument("--alpha", default="auto",
                        help='ghost diagonal weight, or "auto" to grid-optimize')
    parser.add_argument("--alpha-grid", type=int, default=ALPHA_GRID_SIZE,
                        help="alpha grid size")
    parser.add_argument("--epsilon", type=float, required=True, help="failure probability")


def _add_simulate(parser: argparse.ArgumentParser) -> None:
    _add_bound(parser)
    parser.add_argument("--trials", type=int, required=True)
    parser.add_argument("--trials-csv", default=None, help="also write one CSV row per trial")


def _add_threshold(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--d", type=int, required=True)
    parser.add_argument("--lambda", dest="lam", type=float, required=True)
    parser.add_argument("--epsilon", type=float, required=True)
    parser.add_argument("--mode", choices=THRESHOLD_MODES, default="closed_form")


def _add_oracle(parser: argparse.ArgumentParser) -> None:
    _add_graph_source(parser)
    _add_profile(parser)
    parser.add_argument("--alpha", type=float, default=0.0,
                        help="ghost diagonal weight (used by deviation_norm)")
    parser.add_argument("--kind", required=True, choices=STATISTIC_KINDS)


# each command's help line, the function that adds its arguments and the one
# that runs it, in the order the top-level help lists them
COMMANDS = {
    "generate": ("emit a named graph as JSON", _add_generate, cmd_generate),
    "certify": ("certify regularity and the nontrivial spectral radius", _add_graph_source,
                cmd_certify),
    "bound": ("closed-form deviation bound and connectivity lower bound", _add_bound, cmd_bound),
    "simulate": ("Monte Carlo percolation run with per-trial validation", _add_simulate,
                 cmd_simulate),
    "threshold": ("survival threshold certifying connectivity", _add_threshold, cmd_threshold),
    "oracle": ("exhaustive enumeration of all survival patterns", _add_oracle, cmd_oracle),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The percobound parser, with the subparser of command only, or of every
    command when command is None or names none.

    A parser for one command gives the bytes the full parser gives for every
    command line that starts with that command: its help, usage and errors,
    and the top-level usage, which lists every command all the same.
    """
    names = [command] if command in COMMANDS else list(COMMANDS)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="64-bit seed (default 0)")
    common.add_argument("--output", default=None, help="write the result here instead of stdout")
    common.add_argument("--format", choices=["json", "csv"], default=None,
                        help="output format (default json; oracle defaults to csv)")

    parser = argparse.ArgumentParser(
        prog="percobound",
        description="Spectral lower bounds on algebraic connectivity under random vertex deletion",
    )
    # with one subparser the usage would list that command alone; the metavar
    # lists all of them, as argparse does from the full set of choices.  It is
    # left unset otherwise, since it would also rename the command in errors.
    metavar = "{" + ",".join(COMMANDS) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_line, add_arguments, _ = COMMANDS[name]
        add_arguments(sub.add_parser(name, parents=[common], help=help_line))
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
    argv = sys.argv[1:] if argv is None else list(argv)
    # a command line that starts with a command needs that command's subparser only
    parser = build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    _validate_source_args(parser, args)
    try:
        _check_seed(args.seed)
        _, _, run = COMMANDS[args.command]
        return run(args)
    # an input too large to hold in memory is a usage error, not a failed claim
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

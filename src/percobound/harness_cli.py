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
chunk finishes, each pattern's values formatted once and _CSV_ROW_BLOCK rows
per write, so memory does not grow with the trial count and the CSV has no
row cap.
Without the CSV, a_delta is only compared with its lower-bound level,
min(lambda2_expected - deviation norm, alpha) - LOWER_BOUND_SLACK, and
lambda_2 of the augmented Laplacian, reported only in that CSV, is not
needed.  simulate then hands
those levels to the kernel, which solves a survivor block only where the
comparison can fail and skips the augmented eigensolve (see
percolation._trial_chunks); the report is the same bytes either way.

simulate and oracle take their worker count from _chunking.resolve_threads.
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
from ._chunking import resolve_threads
from .graph_core import (
    GENERATOR_FAMILIES,
    WeightedGraph,
    certify_ndl,
    generate,
    graph_to_dict,
    read_graph,
)
from .oracle import STATISTIC_KINDS, exact_distribution
from .percolation import SurvivalProfile, _check_seed, _trial_chunks
from .theory import (
    ALPHA_GRID_SIZE,
    THRESHOLD_MODES,
    BoundReport,
    _check_grid_size,
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
# trials-CSV rows joined into one write: a whole 6-cycle chunk held as one
# text took about 0.9 MiB more peak memory
_CSV_ROW_BLOCK = 1024


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved inputs of one simulate/bound run, echoed into every report."""

    graph_source: dict
    profile: dict
    alpha: object  # float or the string "auto"
    epsilon: float
    trials: int
    seed: int
    alpha_grid_size: int

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
    The rows are written _CSV_ROW_BLOCK at a time."""
    # repr(math.inf) is "inf", the CSV's spelling of a_delta below two survivors
    suffixes = [f"{m},{int(c)},{a!r},{d!r},{l2!r}\n" for m, c, a, d, l2 in zip(
        block.survivor_count.tolist(), block.is_connected.tolist(), block.a_delta.tolist(),
        block.deviation_norm.tolist(), block.lambda2_augmented.tolist())]
    for first in range(0, len(inverse), _CSV_ROW_BLOCK):
        rows = inverse[first:first + _CSV_ROW_BLOCK].tolist()
        fh.write("".join([f"{t},{suffixes[k]}" for t, k in enumerate(rows, start + first)]))


def _bound_for(g: WeightedGraph, profile: SurvivalProfile, alpha_spec, epsilon: float,
               alpha_grid_size: int) -> tuple[float, BoundReport]:
    """(alpha, its BoundReport): grid-optimized for "auto", else at the given alpha."""
    if alpha_spec == "auto":
        return optimize_alpha(g, profile, epsilon, alpha_grid_size)
    alpha = float(alpha_spec)
    return alpha, deviation_bound(g, profile, alpha, epsilon)


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

    Returns (ExperimentSummary, violations): violations lists
    (trial_index, a_delta, lower_bound) for the first VIOLATIONS_SHOWN
    trials that broke the per-trial lower bound.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
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
    with open(args.profile, "r", encoding="utf-8") as fh:
        try:
            values = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"could not parse profile file {args.profile}: {exc}") from exc
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


def _experiment(args, trials: int):
    """(graph, profile, alpha spec, ExperimentConfig) of a bound or simulate
    run of `trials` trials."""
    # checked whatever --alpha is, since the report echoes the grid size
    _check_grid_size("--alpha-grid", args.alpha_grid)
    g, source = _load_graph(args)
    profile, profile_desc = _load_profile(args, g.n)
    alpha_spec = _parse_alpha(args.alpha)
    config = ExperimentConfig(source, profile_desc, alpha_spec, args.epsilon, trials,
                              args.seed, args.alpha_grid)
    return g, profile, alpha_spec, config


def cmd_certify(args) -> int:
    g, source = _load_graph(args)
    _report(args, {"graph_source": source}, certify_ndl(g).to_dict())
    return EXIT_OK


def cmd_bound(args) -> int:
    g, profile, alpha_spec, config = _experiment(args, 0)
    _, report = _bound_for(g, profile, alpha_spec, args.epsilon, args.alpha_grid)
    _report(args, config.to_dict(), report.to_dict())
    return EXIT_OK


def cmd_simulate(args) -> int:
    # the report would overwrite the trials CSV
    if (args.output is not None and args.trials_csv is not None
            and os.path.realpath(args.output) == os.path.realpath(args.trials_csv)):
        raise ValueError(f"--output and --trials-csv name the same file: {args.output}")
    g, profile, alpha_spec, config = _experiment(args, args.trials)
    summary, violations = run_experiment(
        g, profile, alpha_spec, args.epsilon, args.trials, args.seed,
        threads=resolve_threads(), alpha_grid_size=args.alpha_grid,
        trials_csv=args.trials_csv,
    )
    _report(args, config.to_dict(), summary.to_dict())
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

    probabilities, statistics = dist.probabilities, dist.statistics
    if args.kind == "connectivity_indicator":
        p_connected = math.fsum(probabilities[statistics == 1.0].tolist())
        sys.stderr.write(f"P(connected) = {p_connected!r}\n")
    else:
        finite = ~np.isinf(statistics)
        mean_stat = math.fsum((probabilities[finite] * statistics[finite]).tolist())
        inf_mass = math.fsum(probabilities[~finite].tolist())
        sys.stderr.write(
            f"mean {args.kind} (finite part) = {mean_stat!r}, "
            f"P(statistic = inf) = {inf_mass!r}\n"
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


def _add_generate(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", required=True, choices=GENERATOR_FAMILIES)
    parser.add_argument("--n", type=int, default=None)
    parser.add_argument("--k", type=int, default=None)
    parser.add_argument("--q", type=int, default=None)
    parser.add_argument("--d", type=int, default=None)
    parser.set_defaults(func=cmd_generate, graph=None)


def _add_certify(parser: argparse.ArgumentParser) -> None:
    _add_graph_source(parser)
    parser.set_defaults(func=cmd_certify)


def _add_bound(parser: argparse.ArgumentParser) -> None:
    _add_graph_source(parser)
    _add_profile(parser)
    parser.add_argument("--alpha", default="auto",
                        help='ghost diagonal weight, or "auto" to grid-optimize')
    parser.add_argument("--alpha-grid", type=int, default=ALPHA_GRID_SIZE,
                        help="alpha grid size")
    parser.add_argument("--epsilon", type=float, required=True, help="failure probability")
    parser.set_defaults(func=cmd_bound)


def _add_simulate(parser: argparse.ArgumentParser) -> None:
    _add_graph_source(parser)
    _add_profile(parser)
    parser.add_argument("--alpha", default="auto")
    parser.add_argument("--alpha-grid", type=int, default=ALPHA_GRID_SIZE)
    parser.add_argument("--epsilon", type=float, required=True)
    parser.add_argument("--trials", type=int, required=True)
    parser.add_argument("--trials-csv", default=None, help="also write one CSV row per trial")
    parser.set_defaults(func=cmd_simulate)


def _add_threshold(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--d", type=int, required=True)
    parser.add_argument("--lambda", dest="lam", type=float, required=True)
    parser.add_argument("--epsilon", type=float, required=True)
    parser.add_argument("--mode", choices=THRESHOLD_MODES, default="closed_form")
    parser.set_defaults(func=cmd_threshold)


def _add_oracle(parser: argparse.ArgumentParser) -> None:
    _add_graph_source(parser)
    _add_profile(parser)
    parser.add_argument("--alpha", type=float, default=0.0,
                        help="ghost diagonal weight (used by deviation_norm)")
    parser.add_argument("--kind", required=True, choices=STATISTIC_KINDS)
    parser.set_defaults(func=cmd_oracle)


# each command's help line and the function that adds its arguments, in the
# order the top-level help lists them
COMMANDS = {
    "generate": ("emit a named graph as JSON", _add_generate),
    "certify": ("certify regularity and the nontrivial spectral radius", _add_certify),
    "bound": ("closed-form deviation bound and connectivity lower bound", _add_bound),
    "simulate": ("Monte Carlo percolation run with per-trial validation", _add_simulate),
    "threshold": ("survival threshold certifying connectivity", _add_threshold),
    "oracle": ("exhaustive enumeration of all survival patterns", _add_oracle),
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
        help_line, add_arguments = COMMANDS[name]
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
        return args.func(args)
    # an input too large to hold in memory is a usage error, not a failed claim
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""Per-trial trials-CSV rows, Shewchuk's exact partial sums and a per-trial
fold of a run, kept independent of the harness's per-pattern writer, exact
integer sum and fold as the references they must match byte for byte."""
from __future__ import annotations

import math


def add_to_partials(partials: list, values) -> None:
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


def write_trial_rows(fh, start: int, block) -> None:
    """One row per trial, each value formatted on its own."""
    # repr(math.inf) is "inf", the CSV's spelling of a_delta below two survivors
    rows = zip(range(start, start + len(block)), block.survivor_count.tolist(),
               block.is_connected.tolist(), block.a_delta.tolist(),
               block.deviation_norm.tolist(), block.lambda2_augmented.tolist())
    fh.write("".join(f"{t},{m},{int(c)},{a!r},{d!r},{l2!r}\n" for t, m, c, a, d, l2 in rows))


def fold_trials(block, lambda2_expected: float, total: float, alpha: float, slack: float,
                shown: int) -> tuple:
    """A whole run's TrialBlock folded trial by trial: (connected trials,
    trials whose deviation norm exceeds total, the largest deviation norm,
    the mean deviation norm, the violation count, and the first `shown`
    violations as (trial, a_delta, lower bound))."""
    devs = block.deviation_norm.tolist()
    count, violations = 0, []
    for t, (a, d) in enumerate(zip(block.a_delta.tolist(), devs)):
        lower = min(lambda2_expected - d, alpha)
        if a < lower - slack:
            count += 1
            if len(violations) < shown:
                violations.append((t, a, lower))
    return (sum(block.is_connected.tolist()), sum(d > total for d in devs), max(devs),
            math.fsum(devs) / len(devs), count, violations)

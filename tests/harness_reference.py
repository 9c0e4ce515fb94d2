"""Per-trial trials-CSV rows and Shewchuk's exact partial sums, kept
independent of the harness's grouped writer and exact integer sum as the
references they must match byte for byte."""
from __future__ import annotations


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

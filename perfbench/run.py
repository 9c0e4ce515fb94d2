"""Benchmark of the ``percobound`` command line.

    python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0|1

Run from the repository root.  One client in a closed loop starts one
operation at a time, each in a fresh Python process (``perfbench/op.py``),
until ``T`` seconds have passed; the last operation started runs to its end.
Every operation's outputs are checked against the reference digests in
``perfbench/workloads.py``, which also says why each workload exists and which
layer metric should move which end-to-end metric.

With ``--trace 0`` the end-to-end metrics are medians over the run's
operations: ``setup_s`` (import ``percobound``, build the graph and profile),
``op_ref`` (wall time of the workload's commands in multiples of a fixed
reference computation timed in the same process, see ``op.reference_s``;
the seconds are printed and kept in the results file) and ``peak_rss_mib``
(peak resident set of the operation's process).  With ``--trace 1`` the run
alternates untraced and traced operations and reports the per-layer metrics
of the traced ones.  The metric names and units are those of
``BENCHMARK.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment.  Raw samples go to ``perfbench/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
OP = os.path.join(HERE, "op.py")
# Leaves room under the 180-second limit for the last operation to be killed.
HARD_LIMIT_S = 160.0
# Set-up-only processes per run, on top of the set-up of every operation.
SETUP_ONLY_SAMPLES = 4

sys.path.insert(0, HERE)
from workloads import DEFAULT_SEED, SMALL, WORKLOADS  # noqa: E402

# Per-layer statistics read from each traced operation's span summary.
LAYER_STATS = {
    "spectral.eig_sym": ("calls", "pct", "self_pct"),
    "graph_core.generate": ("pct",),
    "graph_core.build_adjacency": ("calls", "pct"),
    "graph_core.certify_ndl": ("pct",),
    "percolation.expected_augmented_laplacian": ("calls", "pct"),
    "percolation.sample": ("calls", "pct"),
    "percolation.augmented_laplacian": ("calls", "pct"),
    "percolation.survivor_connectivity": ("pct",),
    "percolation.algebraic_connectivity_survivors": ("pct", "self_pct"),
    "percolation.run_trial": ("calls", "self_pct"),
    "theory.deviation_bound": ("calls", "self_pct"),
    "theory.optimize_alpha": ("self_pct",),
    "theory.survival_threshold": ("pct",),
    "theory.check_gap_condition": ("calls",),
    "oracle.exact_distribution": ("pct", "self_pct"),
    "harness_cli.main": ("pct", "self_pct"),
    "harness_cli.run_experiment": ("self_pct",),
}


def load_metric_units():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def layer_values(summary, units):
    """Per-layer metrics of one traced operation, absent functions as 0."""
    names, root = summary["names"], summary["root_s"]
    values = {}
    for fn, stats in LAYER_STATS.items():
        agg = names.get(fn, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for stat in stats:
            if stat == "calls":
                values[f"{fn}.calls"] = agg["calls"]
            elif stat == "pct":
                values[f"{fn}.pct"] = 100.0 * agg["s"] / root
            else:
                values[f"{fn}.self_pct"] = 100.0 * agg["self_s"] / root
    eig = summary["eig_orders"]
    values["spectral.eig_sym.max_order"] = eig["max_order"]
    values["spectral.eig_sym.order3_sum"] = eig["order3_sum"]
    values["spectral.eig_sym.per_unit"] = eig["calls"] / units
    values["trace.op_s"] = root
    return values


def run_child(args, timeout):
    """Run op.py with args; returns (parsed last stdout line or None, stderr tail)."""
    env = dict(os.environ)
    env.pop("PERCOBOUND_THREADS", None)  # measure the shipped default
    try:
        proc = subprocess.run([sys.executable, OP, *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return None, "timed out"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, proc.stderr[-2000:]
    return json.loads(lines[-1]), proc.stderr[-2000:]


def check(workload, seed, result, first):
    """Why an operation failed, or None.  first holds the run's first digests."""
    if result is None:
        return "process failed"
    if not result["ok"]:
        return f"exit codes {[c['rc'] for c in result['commands']]}"
    digests = result["digests"]
    for key in sorted(set(workload.digests) | set(digests)):
        want = workload.digests.get(key)
        if want is None or (key in workload.seeded and seed != DEFAULT_SEED):
            want = first.setdefault(key, digests.get(key))
        if digests.get(key) != want:
            return f"{key} digest {digests.get(key)} != {want}"
    return None


def git_commit():
    """The checkout's commit from .git, without running git; None outside a clone."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return head
    except OSError:
        return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="tiny inputs, for the self-tests")
    args = parser.parse_args(argv)
    table = SMALL if args.small else WORKLOADS
    if args.workload not in table:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(table)}")
    if not os.path.isfile(os.path.join(ROOT, "src", "percobound", "harness_cli.py")):
        sys.stderr.write("perfbench: src/percobound not found; run from the repository root\n")
        return 2
    workload = table[args.workload]
    e2e_units, layer_units = load_metric_units()
    os.makedirs(RESULTS, exist_ok=True)
    begin = time.perf_counter()

    # The first set-up compiles bytecode and is not counted.
    setups = []
    for _ in range(1 + SETUP_ONLY_SAMPLES):
        result, err = run_child(["--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
                                + (["--small"] if args.small else []), HARD_LIMIT_S)
        if result is None:
            sys.stderr.write(f"perfbench: could not set up: {err}\n")
            return 2
        setups.append(result["setup_s"])
    del setups[0]
    environment = dict(result["environment"], git_commit=git_commit())

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = os.path.join(RESULTS, f"{tag}.spans.csv")
    ops, first, rounds = [], {}, []
    start = time.perf_counter()
    # Start another round only while it is expected to end within the run time.
    while not rounds or time.perf_counter() - start + statistics.median(rounds) <= args.seconds:
        round_start = time.perf_counter()
        for traced in ((False, True) if args.trace else (False,)):
            out = tempfile.mkdtemp(dir=RESULTS)
            try:
                child_args = ["--workload", args.workload, "--seed", str(args.seed), "--out", out]
                child_args += ["--small"] if args.small else []
                child_args += ["--trace", "--spans", spans_path] if traced else []
                result, err = run_child(child_args, HARD_LIMIT_S - (time.perf_counter() - begin))
            finally:
                shutil.rmtree(out, ignore_errors=True)
            failure = check(workload, args.seed, result, first)
            if failure:
                sys.stderr.write(f"perfbench: operation {len(ops)} failed: {failure}\n{err}\n")
            ops.append({"traced": traced, "failure": failure, "result": result})
        rounds.append(time.perf_counter() - round_start)
        if time.perf_counter() - begin > HARD_LIMIT_S:
            break

    # Metrics come from the operations that passed their checks.
    untraced = [op["result"] for op in ops if not op["failure"] and not op["traced"]]
    traced = [op["result"] for op in ops if not op["failure"] and op["traced"]]
    if not untraced or (args.trace and not traced):
        sys.stderr.write("perfbench: no operation passed its checks\n")
        return 1
    median = statistics.median
    if args.trace:
        per_op = [layer_values(r["trace"], workload.units) for r in traced]
        # median_low keeps counts whole: every traced operation does the same work
        metrics = {name: statistics.median_low(v[name] for v in per_op) for name in per_op[0]}
        metrics["trace.overhead_s"] = median(r["op_s"] for r in traced) - median(r["op_s"] for r in untraced)
        units = layer_units
    else:
        metrics = {
            "setup_s": median(setups + [r["setup_s"] for r in untraced]),
            "op_ref": median(r["op_s"] / r["ref_s"] for r in untraced),
            "peak_rss_mib": median(r["peak_rss_mib"] for r in untraced),
        }
        units = e2e_units
    missing = set(units) - set(metrics)
    if missing:
        sys.stderr.write(f"perfbench: metrics not computed: {sorted(missing)}\n")
        return 1

    failed = sum(1 for op in ops if op["failure"])
    op_s = [r["op_s"] for r in untraced]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment, "metrics": metrics,
        "absent": sorted(set(LAYER_STATS) - set(traced[0]["trace"]["wrapped"])) if traced else [],
        "setups": setups, "ops": ops,
    }
    with open(os.path.join(RESULTS, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"{args.workload}: {len(ops)} operations, {failed} failed; over {len(op_s)} untraced operations "
          f"the commands took a median {median(op_s)!r} s, {workload.units / median(op_s):.6g} work units/s")
    if record["absent"]:
        print(f"absent from the traced code: {', '.join(record['absent'])}")
    for name in units:
        print(f"{name} = {metrics[name]!r} {units[name]}")
    print(json.dumps({"environment": environment}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

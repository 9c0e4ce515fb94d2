"""One benchmark operation, run in a fresh process.

    python3 perfbench/op.py --workload NAME --seed S --out DIR [--small] [--trace] [--spans FILE]
    python3 perfbench/op.py --workload NAME --seed S --out DIR [--small] --setup-only

Times the set-up (importing ``percobound`` and building the workload's
graph and profile), then runs each of the workload's commands through
``percobound.harness_cli.main`` with its outputs written under ``DIR``, and
prints one JSON object: exit codes, wall times, SHA-256 of every output, the
time of a fixed reference computation run just before and after the commands,
the process's peak RSS and, with ``--trace``, per-layer span aggregates.

Tracing wraps, from outside, every function named in each layer module's
``__all__``, and rebinds the wrapper wherever another ``percobound`` module
holds the same function object (``graph_core.eig_sym``, ``theory.lambda2``,
the package namespace and so on).  No repository source changes.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import importlib
import inspect
import itertools
import json
import os
import resource
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

LAYERS = ("spectral", "graph_core", "percolation", "theory", "oracle", "harness_cli")
# Called tens of thousands of times per operation; their cost lands in their
# callers' self time instead.
UNWRAPPED = {"theory.kearns_saul_k"}
EIGENSOLVE = "spectral.eig_sym"


class Tracer:
    """In-memory spans at layer boundaries: (id, name, start, end, parent id, thread id).

    Parent links stay within a thread; a span opened on a pool thread with
    nothing open above it there has parent 0.
    """

    def __init__(self):
        self.spans = []
        self.eig_orders = []
        self.wrapped = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span called name."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, threading.get_ident()))

    def _wrap(self, name, fn):
        span = self.span
        if name == EIGENSOLVE:
            orders = self.eig_orders

            @functools.wraps(fn)
            def traced(M, *args, **kwargs):
                orders.append(len(M))
                return span(name, fn, M, *args, **kwargs)
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return span(name, fn, *args, **kwargs)
        return traced

    def install(self):
        """Wrap every public function of every layer module in place."""
        modules = {layer: importlib.import_module(f"percobound.{layer}") for layer in LAYERS}
        holders = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "percobound" or key.startswith("percobound."))]
        for layer, module in modules.items():
            for attr in getattr(module, "__all__", ()):
                name = f"{layer}.{attr}"
                fn = getattr(module, attr, None)
                if not inspect.isfunction(fn) or name in UNWRAPPED:
                    continue
                traced = self._wrap(name, fn)
                self.wrapped.add(name)
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, key, traced)
                            self._restore.append((holder, key, fn))

    def uninstall(self):
        for holder, key, fn in reversed(self._restore):
            setattr(holder, key, fn)
        self._restore.clear()

    def summary(self):
        """Per-name calls, inclusive seconds and self seconds, plus the root span."""
        child_time = {}
        for _, _, start, end, parent, _ in self.spans:
            if parent:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        names = {}
        root_s = 0.0
        for sid, name, start, end, _, _ in self.spans:
            dur = end - start
            if name == "op":
                root_s += dur
            agg = names.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += dur
            agg["self_s"] += dur - child_time.get(sid, 0.0)
        return {
            "root_s": root_s,
            "names": names,
            "eig_orders": {
                "calls": len(self.eig_orders),
                "max_order": max(self.eig_orders, default=0),
                "order3_sum": sum(k**3 for k in self.eig_orders),
            },
            "wrapped": sorted(self.wrapped),
        }

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent,thread\n")
            for sid, name, start, end, parent, thread in sorted(self.spans):
                fh.write(f"{sid},{name},{start!r},{end!r},{parent},{thread}\n")


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def environment():
    """Versions, BLAS and thread settings this operation ran with."""
    import numpy as np
    from percobound import harness_cli

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": deps.get("blas", {}),
        "lapack": deps.get("lapack", {}),
        "nproc": os.cpu_count(),
        "percobound_threads": os.environ.get("PERCOBOUND_THREADS"),
        "percobound_threads_resolved": harness_cli.resolve_threads(),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
    }


def reference_s():
    """Wall time of a fixed computation that does not touch ``percobound``.

    It mixes the kinds of work the workloads do: interpreter loops, small
    eigensolves dominated by call overhead, and order-256 eigensolves that
    keep both BLAS threads busy.  The host's speed drifts by up to 1.4x for
    minutes at a time; timed in the same process just before and after the
    commands, this computation drifts with it.
    """
    import numpy as np

    start = time.perf_counter()
    counts = {}
    for i in range(200_000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    small = np.arange(225.0).reshape(15, 15)
    small = small + small.T
    for _ in range(2000):
        np.linalg.eigvalsh(small)
    large = np.cos(np.arange(256.0 * 256).reshape(256, 256))
    large = large + large.T
    for _ in range(8):
        np.linalg.eigvalsh(large)
    return time.perf_counter() - start


def run_op(workload, seed, out, tracer=None):
    """Run one operation of workload in this process; percobound must be importable.

    Builds the workload's graph and profile (the set-up after import), then
    runs its commands.  With a tracer, all of it runs inside the root span
    "op".  Returns the result dict that main() prints.
    """
    from percobound import graph_core, harness_cli, percolation

    result = {"commands": [], "digests": {}}
    reports = {}

    def body():
        start = time.perf_counter()
        g = graph_core.generate(**workload.graph)
        percolation.SurvivalProfile.uniform(g.n, workload.p)
        result["build_s"] = time.perf_counter() - start
        for step in workload.steps:
            argv = step.argv(seed, out, reports)
            start = time.perf_counter()
            rc = harness_cli.main(argv)
            result["commands"].append({"label": step.label, "rc": rc, "s": time.perf_counter() - start})
            if rc != 0:
                return
            for key, name in step.outputs.items():
                path = os.path.join(out, name)
                result["digests"][key] = sha256(path)
                if name.endswith(".json"):
                    with open(path, encoding="utf-8") as fh:
                        reports[step.label] = json.load(fh)

    if tracer is None:
        body()
    else:
        tracer.span("op", body)
    commands = result["commands"]
    result["ok"] = len(commands) == len(workload.steps) and all(c["rc"] == 0 for c in commands)
    result["op_s"] = sum(c["s"] for c in commands)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", help="directory for the commands' outputs")
    parser.add_argument("--small", action="store_true", help="tiny inputs of the self-tests")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None, help="write the trace's spans here")
    parser.add_argument("--setup-only", action="store_true",
                        help="only set up, then print the set-up time and the environment")
    args = parser.parse_args(argv)

    from workloads import SMALL, WORKLOADS

    workload = (SMALL if args.small else WORKLOADS)[args.workload]
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import percobound  # noqa: F401

    import_s = time.perf_counter() - start
    if args.setup_only:
        from percobound import graph_core, percolation

        g = graph_core.generate(**workload.graph)
        percolation.SurvivalProfile.uniform(g.n, workload.p)
        print(json.dumps({"setup_s": time.perf_counter() - start, "environment": environment()}))
        return 0
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    before = reference_s()
    result = run_op(workload, args.seed, args.out, tracer)
    result["ref_s"] = (before + reference_s()) / 2
    result["setup_s"] = import_s + result.pop("build_s")
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

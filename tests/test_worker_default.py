"""simulate's default worker count and the OpenBLAS idle-thread timeout the
package sets before numpy loads (see the percobound._chunking docstring).

OpenBLAS reads the timeout once, when numpy loads it, and this suite's
conftest.py imports numpy first, so every case runs in a fresh process.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import percobound

SRC = os.path.dirname(os.path.dirname(percobound.__file__))

# imports `first`, then percobound, and runs simulate with run_experiment
# spied on; prints the timeout, the worker counts simulate passed, the usable
# CPUs and resolve_threads() called with no argument, as perfbench/op.py calls it
PROBE = """
import json, os
{first}
from percobound import _chunking, harness_cli

passed = []
run_experiment = harness_cli.run_experiment

def spy(*args, **kwargs):
    passed.append(kwargs["threads"])
    return run_experiment(*args, **kwargs)

harness_cli.run_experiment = spy
code = harness_cli.main(["simulate", "--family", "cycle", "--n", "4", "--p", "0.9",
                         "--alpha", "1", "--epsilon", "0.1", "--trials", "10",
                         "--output", os.devnull])
print(json.dumps({{"code": code, "timeout": os.environ.get("OPENBLAS_THREAD_TIMEOUT"),
                  "passed": passed, "cpus": _chunking.usable_cpus(),
                  "no_argument": harness_cli.resolve_threads()}}))
"""
SIMULATE_HYPERCUBE = ["simulate", "--family", "hypercube", "--k", "8", "--p", "0.9",
                      "--alpha", "7.2", "--epsilon", "0.1", "--trials", "200"]


def fresh_env(**settings):
    """This process's environment with neither the timeout nor
    PERCOBOUND_THREADS set, then settings, and the package on the path."""
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_THREAD_TIMEOUT", "PERCOBOUND_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])
    return {**env, **settings}


def probe(first: str = "", **settings) -> dict:
    done = subprocess.run([sys.executable, "-c", PROBE.format(first=first)],
                          env=fresh_env(**settings), capture_output=True, text=True, check=True)
    result = json.loads(done.stdout)
    assert result["code"] == 0
    return result


@pytest.mark.parametrize("first, settings, timeout", [
    ("", {}, "4"),
    ("", {"OPENBLAS_THREAD_TIMEOUT": "12"}, "12"),
], ids=["unset", "kept"])
def test_imported_before_numpy_the_timeout_is_set_and_simulate_uses_every_cpu(first, settings,
                                                                              timeout):
    result = probe(first, **settings)
    assert result["timeout"] == timeout
    assert result["passed"] == [result["cpus"]]
    assert result["no_argument"] == result["cpus"]


def test_imported_after_numpy_the_timeout_is_left_alone_and_simulate_uses_one_worker():
    result = probe("import numpy")
    assert result["timeout"] is None
    assert result["passed"] == [1]
    assert result["no_argument"] == 1


def test_simulate_on_every_cpu_writes_the_bytes_of_one_worker(tmp_path):
    # the 8-cube's 200 trials are 2 chunks, so 2 or more CPUs fork a child
    written = []
    for name, settings in [("default", {}), ("one", {"PERCOBOUND_THREADS": "1"})]:
        out = tmp_path / f"{name}.json"
        subprocess.run([sys.executable, "-m", "percobound.harness_cli", *SIMULATE_HYPERCUBE,
                        "--output", str(out)], env=fresh_env(**settings), check=True)
        written.append(out.read_bytes())
    assert written[0] == written[1]

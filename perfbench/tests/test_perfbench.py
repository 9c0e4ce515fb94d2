"""Self-tests of the benchmark on tiny inputs.

    python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import op  # noqa: E402
import run  # noqa: E402
from workloads import SMALL, WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_names_every_metric_within_limits():
    s = spec()
    assert set(s) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in s["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in s["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert 1 <= len(s["end_to_end"]) <= 16 and 1 <= len(s["per_layer"]) <= 128
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer") for m in s[group]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in s["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and UNIT.match(m["unit"])
        assert 0 < m["bound"] <= 0.25 and m["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in s["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    for m in s["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    # every per-layer name is one the traced run computes
    summary = {"names": {}, "root_s": 1.0, "eig_orders": {"calls": 0, "max_order": 0, "order3_sum": 0}}
    computed = set(run.layer_values(summary, 1)) | {"trace.overhead_s"}
    assert {m["name"] for m in s["per_layer"]} == computed


@pytest.mark.parametrize("name", list(SMALL))
def test_traced_run_prints_every_metric_and_matches_untraced_reports(name):
    proc = run_bench("--workload", name, "--small", "--seed", "7", "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] == 2
    units = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == units

    with open(os.path.join(BENCH, "results", f"{name}-seed7-trace1.json"), encoding="utf-8") as fh:
        ops = json.load(fh)["ops"]
    untraced, traced = (next(o["result"]["digests"] for o in ops if o["traced"] is t) for t in (False, True))
    assert untraced and traced == untraced


def test_untraced_run_prints_every_end_to_end_metric():
    proc = run_bench("--workload", "oracle-cycle15", "--small", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["attempted"] == 1
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec()["end_to_end"]}
    assert all(v["value"] > 0 for v in last["metrics"].values())


@pytest.mark.parametrize("name", list(SMALL))
def test_self_time_never_exceeds_the_root_span(name, tmp_path):
    tracer = op.Tracer()
    tracer.install()
    try:
        result = op.run_op(SMALL[name], 3, str(tmp_path), tracer)
    finally:
        tracer.uninstall()
    assert result["ok"]
    summary = tracer.summary()
    root = summary["root_s"]
    assert summary["names"]["op"]["calls"] == 1
    per_thread = {}
    child = {}
    for _, _, start, end, parent, _ in tracer.spans:
        child[parent] = child.get(parent, 0.0) + (end - start)
    for sid, _, start, end, _, thread in tracer.spans:
        self_s = (end - start) - child.get(sid, 0.0)
        assert self_s >= 0.0
        per_thread[thread] = per_thread.get(thread, 0.0) + self_s
    assert all(total <= root * (1 + 1e-9) for total in per_thread.values())
    assert sum(a["self_s"] for a in summary["names"].values()) == pytest.approx(sum(per_thread.values()))


def test_tracer_rebinds_shared_functions_and_restores_them():
    import percobound
    from percobound import graph_core, spectral, theory

    original = spectral.eig_sym
    tracer = op.Tracer()
    tracer.install()
    try:
        assert spectral.eig_sym is not original
        assert graph_core.eig_sym is spectral.eig_sym is percobound.eig_sym
        assert theory.lambda2 is spectral.lambda2
        assert "theory.kearns_saul_k" not in tracer.wrapped
    finally:
        tracer.uninstall()
    assert spectral.eig_sym is original and graph_core.eig_sym is original


def test_tracer_reports_a_removed_name_as_absent(monkeypatch):
    from percobound import oracle

    monkeypatch.setattr(oracle, "__all__", [*oracle.__all__, "no_longer_here"])
    monkeypatch.delattr(oracle, "exact_distribution")
    tracer = op.Tracer()
    tracer.install()
    tracer.uninstall()
    assert "oracle.exact_distribution" not in tracer.wrapped
    summary = dict(tracer.summary(), root_s=1.0)
    values = run.layer_values(summary, 1)
    assert values["oracle.exact_distribution.pct"] == 0.0


def test_fails_without_printing_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "oracle-cycle15", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

"""Smoke test of the end-to-end benchmark: ``pytest benchmarks/e2e -q``.

Not collected by tier-1 (``testpaths = ["tests"]``).  Runs every
workload once untraced and once traced at ``--smoke`` sizes — two
groups of workloads side by side on the two cores, since timings mean
nothing at these sizes — and checks what the harness promises: every
name in ``BENCHMARK.json`` is emitted, the span table resolves at this
commit, no op fails, the exact counts repeat, and a corrupted result is
counted as a failed op.
"""

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
       "--rounds", "1"]


def _last_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


#: two groups of about equal cost (the HMC builds twice as much as anyone)
GROUPS = (("hmc_traj", "cg_small", "expr_zoo"),
          ("cg_small_cpu", "cg_large", "spill_sweep", "dslash_2rank"))


def _run_group(names, tmp):
    """Untraced then traced run of one group: (summary, per-layer)."""
    out = []
    for trace, name in enumerate(("summary.json", "trace.json")):
        cmd = RUN + ["--trace", str(trace), "--out", str(tmp)]
        for n in names:
            cmd += ["--workload", n]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
        assert _last_line(proc.stdout)["correct"] is True
        with open(tmp / name) as f:
            out.append(json.load(f)["workloads"])
    return out


@pytest.fixture(scope="module")
def runs(tmp_path_factory, benchmark_json):
    """(untraced summary, traced summary) over all workloads."""
    with ThreadPoolExecutor(len(GROUPS)) as pool:
        parts = list(pool.map(
            _run_group, GROUPS,
            [tmp_path_factory.mktemp(f"group{i}")
             for i in range(len(GROUPS))]))
    order = [w["name"] for w in benchmark_json["workloads"]]
    return [{n: part[kind][n] for n in order for part in parts
             if n in part[kind]} for kind in (0, 1)]


def test_benchmark_json_lists_the_metric_tables(benchmark_json):
    assert benchmark_json["paths"] == ["benchmarks/e2e"]
    assert benchmark_json["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in benchmark_json["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in benchmark_json["per_layer"]] == list(metrics.PER_LAYER)


def test_every_workload_and_end_to_end_metric_is_emitted(runs, benchmark_json):
    plain, _ = runs
    assert list(plain) == [w["name"] for w in benchmark_json["workloads"]]
    for name, entry in plain.items():
        for metric in benchmark_json["end_to_end"]:
            value = entry["metrics"][metric["name"]]
            assert value is not None and value > 0, (name, metric["name"])


def test_every_per_layer_metric_is_emitted_and_resolves(runs, benchmark_json):
    _, traced = runs
    assert list(traced) == [w["name"] for w in benchmark_json["workloads"]]
    for name, entry in traced.items():
        assert entry["unresolved"] == [], name
        assert entry["metrics"]["trace.unresolved"] == 0
        for metric in benchmark_json["per_layer"]:
            assert entry["metrics"][metric["name"]] is not None, (
                name, metric["name"])


def test_no_op_fails(runs):
    for summary in runs:
        for name, entry in summary.items():
            assert entry["failed"] == 0 and entry["attempted"] >= 3, (
                name, entry["errors"], entry["crashes"])


def test_exact_counts_repeat_across_runs_and_under_tracing(runs):
    plain, traced = runs
    for name in plain:
        assert plain[name]["exact"], name
        assert plain[name]["exact"] == traced[name]["exact"], name


def test_layers_see_the_work_they_should(runs):
    _, traced = runs
    m = {name: entry["metrics"] for name, entry in traced.items()}
    assert m["cg_small_cpu"]["llvm.compile.calls"] > 0
    assert m["cg_small"]["llvm.compile.calls"] == 0
    assert m["dslash_2rank"]["comm.exchange.calls"] > 0
    assert m["cg_small"]["comm.exchange.calls"] == 0
    assert m["spill_sweep"]["memory.spills"] > 0
    assert m["spill_sweep"]["memory.hit_ratio"] == 0
    assert m["expr_zoo"]["core.module_cache.hit_ratio"] == 0
    assert m["hmc_traj"]["hmc.solver_iterations"] > 0


def test_a_corrupted_result_is_counted_as_a_failed_op(tmp_path):
    proc = subprocess.run(
        RUN + ["--workload", "spill_sweep", "--corrupt-pass", "1",
               "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    line = _last_line(proc.stdout)
    assert proc.returncode != 0
    assert line["correct"] is False and line["failed"] == 1
    assert line["attempted"] == 3  # cold, one warm, recontext

"""Tests of the benchmark itself, on its ``--tiny`` inputs.

    python -m pytest perfbench -q

Each test runs the command in a subprocess, as the benchmark is run,
and reads the JSON object on the last line of its output.
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: printed for every workload, besides its per-phase rates
COMMON = ("setup_s", "phase_rate_geomean", "driver_peak_rss_mb", "jvm_peak_rss_mb", "failed_op_frac")
PHASE_RATES = {
    "uug_infer": ("flat_targets_per_s", "original_nodes_per_s", "infer_nodes_per_s"),
    "ppi_train_ps": ("train_samples_per_s", "ps_samples_per_s"),
}


def bench(*args: str, cwd: Path = ROOT) -> tuple[subprocess.CompletedProcess, dict | None]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "0", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc, result


def table(proc) -> dict[str, str]:
    """First value column of the printed metric table, by metric name."""
    rows = (line.split() for line in proc.stdout.splitlines()[1:-1])
    return {r[0]: r[1] for r in rows if len(r) > 1}


def test_spec_follows_contract():
    assert {w["name"] for w in SPEC["workloads"]} == set(PHASE_RATES)
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_per_layer_spec_matches_tracer():
    from tracing import PER_LAYER

    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("workload", sorted(PHASE_RATES))
def test_tiny_run_passes_its_checks(workload):
    proc, result = bench("--workload", workload, "--tiny")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    printed = table(proc)
    assert all(float(printed[k]) > 0 for k in COMMON + PHASE_RATES[workload] if k != "failed_op_frac")
    assert float(printed["failed_op_frac"]) == 0.0


def test_perturbed_original_fails_equivalence():
    proc, result = bench("--workload", "uug_infer", "--tiny", "--perturb-original", "0.2")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert not result["correct"]
    # every GraphInfer operation disagrees with its Original side
    assert result["failed"] == result["attempted"] // 3
    assert float(table(proc)["check.max_score_gap"]) > 1e-9


@pytest.mark.parametrize("workload", sorted(PHASE_RATES))
def test_traced_run_reports_per_layer_metrics(workload):
    proc, result = bench("--workload", workload, "--tiny", "--trace", "1")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert result["correct"]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(m) == {x["name"] for x in SPEC["per_layer"]}
    if workload == "uug_infer":
        busy = ["sampling.sample_s", "graphflat.khop2_s", "graphflat.build_s",
                "graphfeature.store_s", "graphfeature.records", "infer.original_s",
                "infer.graphinfer_s", "infer.original_node_computations",
                "spark.tasks.flat", "host.cpu_busy_frac.flat"]
        idle = ["trainer.steps", "ps.round_s_p50"]
        assert m["sampling.edges_kept"] <= m["sampling.edges_in"]
        assert m["graphfeature.records"] == 300
    else:
        busy = ["trainer.steps", "trainer.read_s", "graphfeature.decode_calls",
                "vectorize.merge_s", "nn.forward_s", "nn.backward_s", "nn.agg_calls", "nn.adam_s"]
        busy += ["ps.round_s_p50", "ps.workers", "spark.tasks.ps", "host.cpu_busy_frac.ps"]
        idle = ["sampling.sample_s", "infer.graphinfer_s", "spark.tasks.flat"]
        assert m["vectorize.edges_kept"] <= m["vectorize.edges_full"]
    assert all(m[k] > 0 for k in busy), {k: m[k] for k in busy}
    assert all(m[k] == 0 for k in idle), {k: m[k] for k in idle}
    assert "unreachable" in proc.stdout
    spans = ROOT / table(proc)["spans"]
    assert spans.is_file() and spans.stat().st_size > 0


def test_fails_without_the_program():
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for f in HERE.glob("*.py"):
            shutil.copy(f, bare / "perfbench")
        proc, result = bench("--workload", "uug_infer", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert result is None

"""Self-tests of the benchmark: exact counters, seeded inputs, the metric tables.

    python -m pytest -q perfbench

The traced runs take about 10 seconds in all.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import statistics
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402


def _run(*args: str, cwd: pathlib.Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _traced_counters(workload: str, seed: int) -> dict:
    proc = _run("--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if metric["unit"] == "count" or name == "reductions.blowup"
    }


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counters_repeat_exactly(workload):
    first = _traced_counters(workload, 3)
    assert first == _traced_counters(workload, 3)
    assert first["colouring.check_majority.calls"] > 0
    if workload == "many_components":
        assert first["rounding.calls"] == 0
        assert first["reductions.lift_copies"] > 0
    else:
        assert first["rounding.calls"] > 0
    if workload == "threshold_sweep":
        assert first["instances.oracle.nodes"] > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_seed_decides_the_instances(workload):
    texts = [inst.text for inst in workloads.build(workload, 1)]
    assert texts == [inst.text for inst in workloads.build(workload, 1)]
    assert texts != [inst.text for inst in workloads.build(workload, 2)]


def test_times_are_scaled_to_reference_speed_per_window():
    insts = workloads.build("large_graphs", 1)
    ref = run.REF_S
    # Window 1 runs at half speed: its times count half.
    times = [[(0, 0.1), (0, 0.3), (1, 0.2), (1, 0.2), (2, 0.1)]] * len(insts)
    setup_times = [(0, 0.02), (1, 0.04), (2, 0.03)]
    ref_times = [(0, ref), (0, ref), (0, 3 * ref), (1, 2 * ref), (2, ref)]
    values, speed = run.end_to_end(insts, times, setup_times, ref_times)
    assert speed == 1
    assert values["op_ms_p50"] == pytest.approx(100)
    assert values["op_ms_p90"] == pytest.approx(100)
    assert values["setup_s"] == pytest.approx(0.02)
    edges = statistics.geometric_mean(inst.graph.edge_count for inst in insts)
    assert values["edges_per_s"] == pytest.approx(10 * edges)


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "threshold_sweep", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""

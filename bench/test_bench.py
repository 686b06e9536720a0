"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest bench/test_bench.py

The end-to-end cases run every workload briefly, twice traced with one seed,
so they take about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import irwinsums.summation as summation  # noqa: E402
from irwinsums import ConditionSet  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Counters that depend only on the inputs, so they must repeat exactly.
DETERMINISTIC = (
    "recurrence.advance.calls",
    "recurrence.advance.cell_powers",
    "recurrence.advance.expansion_terms",
    "powersums.direct_sum.denominators",
    "summation.engine_runs",
    "fixedpoint.fixed_to_decimal.calls",
    "oracle.integers",
)


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.splitlines()
    return json.loads(record_line)["record"], json.loads(result_line)


def names_and_units(metrics: list[dict]) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in metrics}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_runs_are_correct_and_repeat(workload):
    runs = [result_of(bench("--workload", workload, "--seed", "7", "--seconds", "1",
                            "--trace", "1")) for _ in range(2)]
    for record, result in runs:
        assert result["correct"] and result["failed"] == 0, record["failures"]
        assert record["error_rate"] == 0
        assert record["traced_wall_s"]["n"] >= 1 and record["wall_s"]["n"] >= 1
        assert record["trace_overhead_s"]["n"] == record["traced_wall_s"]["n"]
        got = {name: metric["unit"] for name, metric in result["metrics"].items()}
        assert got == names_and_units(SPEC["per_layer"])
    (first_record, first), (second_record, second) = runs
    for name in DETERMINISTIC:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first_record["digits"] == second_record["digits"]


def test_untraced_run_reports_every_end_to_end_metric():
    record, result = result_of(bench("--workload", "partials_threshold", "--seed", "3",
                                     "--seconds", "1", "--trace", "0"))
    assert result["correct"] and record["error_rate"] == 0
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert got == names_and_units(SPEC["end_to_end"])
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_seed_picks_inputs_and_order():
    def names(seed, pass_index=0):
        return [query.name for query in workloads.build("totals_deep", seed, pass_index)]

    assert names(5, 1) == names(5, 1)
    assert len({frozenset(names(seed)) for seed in range(20)}) > 1
    assert len({tuple(names(5, pass_index)) for pass_index in range(10)}) > 1


def test_wrappers_see_the_engine_and_are_restored():
    original = summation.advance
    with spans.Tracer() as tracer:
        assert summation.advance is not original
        summation.irwin_sum(ConditionSet.of([9], [0]), 5)
    assert summation.advance is original
    metrics = tracer.metrics()
    assert metrics["recurrence.advance.calls"] > 0
    assert metrics["summation.engine_runs"] == 1
    assert metrics["oracle.integers"] == 0


def test_missing_name_gives_absent_metric(monkeypatch):
    monkeypatch.delattr(summation, "advance")
    with spans.Tracer() as tracer:
        pass
    metrics = tracer.metrics()
    assert "recurrence.advance.s" not in metrics
    assert "powersums.direct_sum.s" in metrics


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "oracle_enum", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""

"""Benchmark of the irwinsums engine, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout: it measures the package under the
checkout's ``src``.  Each pass runs the workload's query list once, one query
at a time, in a fresh worker process (a closed loop with one client), so the
lazy set-up that every CLI call pays is inside the pass.  Passes repeat until
``--seconds`` have gone by.  Every result is checked against its reference.

With ``--trace 0`` the result carries the end-to-end metrics of untraced
passes; with ``--trace 1`` traced and untraced passes alternate, and the
result carries the per-layer metrics of the traced ones (see ``spans.py``)
and the tracing overhead.  The last line of standard output is the result;
the line before it is the run record: sample spreads, the error rate, and
each query's leading digits.  See ``RECORD.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from decimal import InvalidOperation
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER_TIMEOUT_S = 150

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"] + SPEC["per_layer"]}


class WorkerFailed(Exception):
    """A worker process exited abnormally or printed no record."""


def spawn(workload: str, seed: int, pass_index: int, mode: str) -> dict:
    """Run one worker to completion and return its record with ``setup_s``."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    command = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(pass_index), mode]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{mode} worker exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerFailed(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()}")
    record = json.loads(proc.stdout.splitlines()[-1])
    if not Path(record["package"]).resolve().is_relative_to(SRC.resolve()):
        raise WorkerFailed(f"worker imported irwinsums from {record['package']}, not {SRC}")
    record["setup_s"] = record["ready"] - started
    return record


def spread(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    if len(values) > 1:
        p25, _, p75 = statistics.quantiles(values, n=4)
    else:
        p25 = p75 = values[0]
    return {"median": statistics.median(values), "p25": p25, "p75": p75, "n": len(values)}


def check_passes(queries, passes, references) -> tuple[int, int, list[str], dict]:
    """Check every result of every pass; results must also repeat exactly."""
    by_name = {query.name: query for query in queries}
    attempted = failed = 0
    failures: list[str] = []
    digits: dict[str, str] = {}
    for record in passes:
        for result in record["results"]:
            attempted += 1
            name = result["name"]
            query = by_name[name]
            try:
                if "error" in result:
                    raise workloads.Mismatch(result["error"])
                refs = [references[ref.name] for ref in query.reference]
                leading = query.check(result, refs)
                if digits.setdefault(name, leading) != leading:
                    raise workloads.Mismatch(f"changed from {digits[name]} to {leading}")
            except (workloads.Mismatch, KeyError, IndexError, InvalidOperation, ValueError) as exc:
                failed += 1
                failures.append(f"{name}: {type(exc).__name__}: {exc}")
    return attempted, failed, failures, digits


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    queries = workloads.build(workload, seed, 0)
    spawn(workload, seed, 0, "setup")  # fills the byte-code caches; not measured
    references = {}
    if any(query.reference for query in queries):
        for result in spawn(workload, seed, 0, "reference")["results"]:
            references[result["name"]] = result

    passes = []
    deadline = time.monotonic() + seconds
    while len(passes) < 1 + trace or time.monotonic() < deadline:
        mode = "traced" if trace and len(passes) % 2 else "plain"
        passes.append(spawn(workload, seed, len(passes), mode))
    attempted, failed, failures, digits = check_passes(queries, passes, references)

    plain = [p for p in passes if "layers" not in p]
    traced = [p for p in passes if "layers" in p]
    samples = {
        "wall_s": [p["wall_s"] for p in plain],
        "cpu_s": [p["cpu_s"] for p in plain],
        "setup_s": [p["setup_s"] for p in passes],
        "peak_rss_mb": [p["rss_mb"] for p in plain],
    }
    record = {
        "workload": workload,
        "seed": seed,
        "queries": [query.name for query in queries],
        "passes": {"plain": len(plain), "traced": len(traced)},
        "error_rate": failed / attempted,
        "failures": failures[:10],
        "digits": digits,
    }
    record.update({name: spread(values) for name, values in samples.items()})
    if trace:
        record["traced_wall_s"] = spread([p["wall_s"] for p in traced])
        # Traced passes are the odd ones; pairing each with the untraced pass
        # just before it cancels the machine's drift slower than two passes.
        overheads = [passes[i]["wall_s"] - passes[i - 1]["wall_s"] for i in range(1, len(passes), 2)]
        record["trace_overhead_s"] = spread(overheads)
        metrics = {
            name: statistics.median(p["layers"][name] for p in traced)
            for name in traced[0]["layers"]
        }
        metrics["trace.overhead_s"] = record["trace_overhead_s"]["median"]
    else:
        metrics = {name: record[name]["median"] for name in samples}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "irwinsums" / "__init__.py").is_file():
        print(f"run.py: no irwinsums package under {SRC}", file=sys.stderr)
        return 2
    try:
        record, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark pass in a fresh interpreter.

    python3 bench/worker.py WORKLOAD SEED PASS MODE

MODE is ``setup`` (import the package and build the inputs, then stop),
``plain`` (run the pass's queries once, untraced), ``traced`` (the same with
span wrappers installed) or ``reference`` (run the engine queries that the
oracle results are checked against).  ``PYTHONPATH`` must name the checkout's
``src``.  Prints one JSON object: ``ready`` is the ``time.monotonic()``
reading once set-up ended, which the caller compares with its own reading
taken before it started this process.
"""

from __future__ import annotations

import sys
import time


def main() -> None:
    workload, seed, pass_index, mode = sys.argv[1:5]
    # Set-up as a CLI user pays it: the package, its CLI module, the inputs.
    import irwinsums
    import irwinsums.cli  # noqa: F401
    import workloads

    queries = workloads.build(workload, int(seed), int(pass_index))
    if mode == "reference":
        queries = [ref for query in queries for ref in query.reference]
    inputs = [
        (query, irwinsums.ConditionSet.of(query.digits, query.counts, base=query.base))
        for query in queries
    ]
    ready = time.monotonic()

    import json
    import resource
    from contextlib import nullcontext

    import spans

    record = {"ready": ready, "package": irwinsums.__file__}
    if mode == "setup":
        print(json.dumps(record))
        return

    tracer = spans.Tracer() if mode == "traced" else None
    outcomes = []
    with tracer or nullcontext():
        cpu_start = time.process_time()
        wall_start = time.perf_counter()
        for query, conditions in inputs:
            # Looked up per call, so that the tracer's wrappers are the ones called.
            function = getattr(getattr(irwinsums, query.module), query.function)
            try:
                outcomes.append(function(conditions, *query.args, **dict(query.kwargs)))
            except Exception as exc:  # a failed query is counted, not fatal
                outcomes.append(exc)
        record["wall_s"] = time.perf_counter() - wall_start
        record["cpu_s"] = time.process_time() - cpu_start
    record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record["results"] = [
        serialise(query, outcome, cells=mode == "reference")
        for (query, _), outcome in zip(inputs, outcomes)
    ]
    if tracer is not None:
        record["layers"] = tracer.metrics()
    print(json.dumps(record))


def serialise(query, outcome, cells: bool) -> dict:
    """The parts of a result that the workload checks read, as text."""
    out = {"name": query.name}
    if isinstance(outcome, Exception):
        out["error"] = f"{type(outcome).__name__}: {outcome}"
    elif query.function == "threshold_search":
        out.update(
            digits_low=outcome.digits_low,
            digits_high=outcome.digits_high,
            sum_low=str(outcome.sum_low),
            sum_high=str(outcome.sum_high),
        )
    elif query.function == "brute_force_sum":
        out["value"] = str(outcome)
    elif query.function == "block_cell_sums":
        out["cells"] = [str(cell) for cell in outcome]
    else:
        out.update(
            requested=str(outcome.requested_sum),
            at_most=str(outcome.at_most_sum),
            per_count=[str(v) for v in outcome.per_count_sums or ()],
            digits_processed=outcome.digits_processed,
            termination=outcome.termination.value,
        )
        if cells:
            out["per_cell"] = [str(v) for v in outcome.per_cell_sums]
    return out


if __name__ == "__main__":
    main()

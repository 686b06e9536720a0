"""Per-layer tracing from outside the package.

``summation`` imports ``advance``, ``direct_sum``, ``estimate_max_power``,
``shrink_active_powers`` and ``fixed_to_decimal`` by name, so a wrapper only
sees the engine's calls when it replaces the name in ``irwinsums.summation``;
patching ``irwinsums.recurrence.advance`` would record nothing.  A name the
package no longer has is skipped, and the metrics derived from it are left
out rather than reported as zero.

Spans (name, start, end, parent) are kept in memory while a pass runs and
reduced to per-layer metrics at the end.  A span's self time is its duration
minus the durations of its child spans; calls are synchronous, so children
never overlap.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

ENTRIES = ("summation.irwin_sum", "summation.partial_sum", "summation.threshold_search")


def _count_plan(counts, args, result):
    counts["max_power"] += result.max_power


def _count_seed(counts, args, result):
    conditions, digit_length = args[0], args[1]
    base = conditions.base
    counts["denominators"] += base ** digit_length - base ** (digit_length - 1)
    if digit_length == 1:
        counts["engine_runs"] += 1


def _count_advance(counts, args, result):
    row = result[0].rows[0]
    cells = len(row)
    powers = args[2]
    counts["cell_powers"] += cells * powers
    counts["expansion_terms"] += cells * powers * (powers + 1) // 2
    counts["cell_slots"] += cells
    counts["active_cells"] += cells - row.count(0)


def _count_limit(counts, args, result):
    counts["integers"] += args[1] - 1


def _count_block(counts, args, result):
    base = args[0].base
    counts["integers"] += base ** args[1] - base ** (args[1] - 1)


# (module of irwinsums, name looked up there, span name, counter)
TARGETS = (
    ("summation", "irwin_sum", "summation.irwin_sum", None),
    ("summation", "partial_sum", "summation.partial_sum", None),
    ("summation", "threshold_search", "summation.threshold_search", None),
    ("summation", "build_plan", "summation.build_plan", _count_plan),
    ("summation", "estimate_max_power", "powersums.estimate_max_power", None),
    ("summation", "direct_sum", "powersums.direct_sum", _count_seed),
    ("summation", "advance", "recurrence.advance", _count_advance),
    ("summation", "shrink_active_powers", "recurrence.shrink_active_powers", None),
    ("summation", "fixed_to_decimal", "fixedpoint.fixed_to_decimal", None),
    ("oracle", "brute_force_sum", "oracle.brute_force_sum", _count_limit),
    ("oracle", "block_cell_sums", "oracle.block_cell_sums", _count_block),
)


class Tracer:
    """Installs span-recording wrappers on enter and restores the originals on exit."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.installed: set[str] = set()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for module_name, attr, span_name, counter in TARGETS:
            module = importlib.import_module(f"irwinsums.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                continue
            setattr(module, attr, self._wrap(original, span_name, counter))
            self._saved.append((module, attr, original))
            self.installed.add(span_name)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, original, span_name, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            span = [span_name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                counter(counts, args, result)
            return result

        return traced

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far."""
        busy: defaultdict[str, float] = defaultdict(float)
        calls: defaultdict[str, int] = defaultdict(int)
        children = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            busy[name] += end - start
            calls[name] += 1
            if parent >= 0:
                children[parent] += end - start
        entry_self = sum(
            end - start - children[i]
            for i, (name, start, end, _) in enumerate(self.spans)
            if name in ENTRIES
        )
        counts = self.counts
        has = self.installed.__contains__
        out: dict[str, float] = {}
        if has("recurrence.advance"):
            slots = counts["cell_slots"]
            out.update({
                "recurrence.advance.s": busy["recurrence.advance"],
                "recurrence.advance.calls": calls["recurrence.advance"],
                "recurrence.advance.cell_powers": counts["cell_powers"],
                "recurrence.advance.expansion_terms": counts["expansion_terms"],
                "recurrence.advance.active_frac":
                    counts["active_cells"] / slots if slots else 0.0,
            })
        if has("powersums.direct_sum"):
            out.update({
                "powersums.direct_sum.s": busy["powersums.direct_sum"],
                "powersums.direct_sum.denominators": counts["denominators"],
                "summation.engine_runs": counts["engine_runs"],
            })
        if has("summation.build_plan"):
            out.update({
                "summation.build_plan.s": busy["summation.build_plan"],
                "summation.build_plan.max_power": counts["max_power"],
            })
        if any(has(name) for name in ENTRIES):
            out["summation.self_s"] = entry_self
        if has("fixedpoint.fixed_to_decimal"):
            out.update({
                "fixedpoint.fixed_to_decimal.s": busy["fixedpoint.fixed_to_decimal"],
                "fixedpoint.fixed_to_decimal.calls": calls["fixedpoint.fixed_to_decimal"],
            })
        oracle = ("oracle.brute_force_sum", "oracle.block_cell_sums")
        if any(has(name) for name in oracle):
            for name in oracle:
                if has(name):
                    out[f"{name}.s"] = busy[name]
            enumerated = counts["integers"]
            out["oracle.integers"] = enumerated
            out["oracle.ns_per_integer"] = (
                sum(busy[name] for name in oracle) / enumerated * 1e9 if enumerated else 0.0
            )
        return out

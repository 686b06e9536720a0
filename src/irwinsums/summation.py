"""Top-level drivers: full sums, at-most sums, partial sums, thresholds.

Every run consumes one walk over digit lengths, ``_walk``: blocks short
enough to enumerate are summed directly, the last of them is the seed of the
power-sum recurrence, and the recurrence carries the tables on from there.
Its callers only choose where to stop: a partial sum at its digit limit, a
threshold search at the crossing, a finite series at its longest
denominator, and a full sum of an infinite series at the seed, followed by
one back-substitution that solves for every block from the seed on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate, chain, islice
from typing import Callable, Iterator, Optional, Union

from .fixedpoint import div_nearest, fixed_to_decimal, parse_exact_decimal
from .model import (
    ConditionSet,
    InsufficientAccuracy,
    PrecisionPlan,
    RangeTooLarge,
    ThresholdAboveTotal,
    clamp_decimals,
    default_max_digit_length,
    direct_sum_digit_count,
)
from .powersums import PowerSumTable, direct_sum, estimate_max_power
from .recurrence import advance, solve_tail


class Termination(str, enum.Enum):
    """Why a summation run stopped."""

    CONVERGED = "Converged"
    FINITE_SERIES_EXHAUSTED = "FiniteSeriesExhausted"
    EMPTY_SERIES = "EmptySeries"
    PARTIAL_REQUESTED = "PartialRequested"


@dataclass(frozen=True)
class SumResult:
    """Result of a full or partial summation run.

    ``requested_sum`` is the exact-occurrence sum; ``at_most_sum`` aggregates
    every occurrence vector dominated by the condition counts.  With a single
    condition, ``per_count_sums[k]`` is the sum for exactly k occurrences.
    ``per_cell_sums`` carries the exact-count sum of every occurrence vector
    in mixed-radix slot order, whatever the number of conditions.
    """

    conditions: ConditionSet
    decimals: int
    requested_sum: Decimal
    at_most_sum: Decimal
    per_count_sums: Optional[tuple[Decimal, ...]]
    per_cell_sums: tuple[Decimal, ...]
    digits_processed: int
    termination: Termination


@dataclass(frozen=True)
class ThresholdResult:
    """Consecutive digit lengths whose partial sums bracket a threshold."""

    conditions: ConditionSet
    decimals: int
    threshold: Fraction
    digits_low: int
    sum_low: Decimal
    digits_high: int
    sum_high: Decimal


# Upper bound on cell_count * max_power, the size of one power-sum table.
TABLE_CELL_LIMIT = 4 * 10 ** 6

BlockObserver = Callable[[int, int, int, int], None]
"""Called per digit length with (digit_length, block, total, j_active);
block and total are fixed-point mantissas at the plan's working scale."""


def build_plan(conditions: ConditionSet, requested_decimals: int) -> PrecisionPlan:
    """Assemble the precision plan for one run.

    Large occurrence counts mean many thousands of digit-length iterations
    whose truncation deficits accumulate, so such runs carry extra guard
    decimals.
    """
    decimals = clamp_decimals(requested_decimals)
    ds_digits = direct_sum_digit_count(conditions.base)
    guard = 12 if max(conditions.counts) > 10 else 8
    return PrecisionPlan(
        requested_decimals=decimals,
        working_decimals=decimals + guard,
        max_power=estimate_max_power(conditions.base, decimals, ds_digits),
        max_digit_length=default_max_digit_length(decimals, max(conditions.counts)),
        direct_sum_digits=ds_digits,
    )


@dataclass
class _RawResult:
    plan: PrecisionPlan
    per_cell: list[int]
    digits_processed: int
    termination: Termination


def _quantized_fraction(mantissa: int, plan: PrecisionPlan) -> Fraction:
    """The run total as seen at requested precision (for threshold tests)."""
    decimals = plan.requested_decimals
    return Fraction(
        div_nearest(mantissa, 10 ** (plan.working_decimals - decimals)),
        10 ** decimals,
    )


def _walk(
    conditions: ConditionSet, plan: PrecisionPlan, last: int
) -> Iterator[tuple[int, PowerSumTable, int]]:
    """Yield ``(digit_length, table, j_active)`` for lengths 1..last.

    Lengths below the seed are enumerated for their power-1 row only; the
    seed is enumerated with every power, and later lengths step the
    recurrence, dropping the top power while its row reads exactly 0.  Finite
    series stop at their longest denominator.
    """
    if conditions.is_finite_series():
        last = min(last, conditions.finite_digit_limit())
    seed_digit = plan.direct_sum_digits
    j_active = plan.max_power
    for i in range(1, last + 1):
        if i <= seed_digit:
            powers = plan.max_power if i == seed_digit else 1
            table = direct_sum(conditions, i, powers, plan)
        else:
            table, _, peaks = advance(table, conditions, j_active, plan)
            while j_active > 2 and peaks[j_active - 1] == 0:
                j_active -= 1
        yield i, table, j_active


def _compute(
    conditions: ConditionSet,
    requested_decimals: int,
    *,
    digit_limit: Optional[int] = None,
    plan: Optional[PrecisionPlan] = None,
    observer: Optional[BlockObserver] = None,
    walk: Optional[Iterator[tuple[int, PowerSumTable, int]]] = None,
) -> _RawResult:
    """Run the engine; see the public wrappers for the result contracts.  A
    ``walk`` passed in is consumed only through the run's last length."""
    plan = plan or build_plan(conditions, requested_decimals)
    if conditions.cell_count * plan.max_power > TABLE_CELL_LIMIT:
        raise RangeTooLarge(
            f"{conditions.cell_count} cells x {plan.max_power} powers exceed "
            f"the table budget of {TABLE_CELL_LIMIT}"
        )
    per_cell = [0] * conditions.cell_count

    if conditions.is_empty_series():
        return _RawResult(plan, per_cell, 0, Termination.EMPTY_SERIES)

    if digit_limit is not None:
        last, termination = digit_limit, Termination.PARTIAL_REQUESTED
    elif conditions.is_finite_series():
        last = conditions.finite_digit_limit()
        termination = Termination.FINITE_SERIES_EXHAUSTED
    else:
        # Infinite series enumerate up to the seed and solve for the rest.
        last, termination = plan.direct_sum_digits, Termination.CONVERGED

    target = conditions.cell_count - 1
    for length, table, j_active in islice(walk or _walk(conditions, plan, last), last):
        block = table.rows[0]
        for slot, value in enumerate(block):
            per_cell[slot] += value
        if observer is not None:
            observer(length, block[target], per_cell[target], j_active)

    if termination is Termination.CONVERGED:
        # The solved sums include the seed block, which per_cell already holds.
        tail = solve_tail(table, conditions)
        for slot, (z, s) in enumerate(zip(tail, table.rows[0])):
            per_cell[slot] += z - s
    return _RawResult(plan, per_cell, length, termination)


def _to_result(conditions: ConditionSet, raw: _RawResult) -> SumResult:
    decimals = raw.plan.requested_decimals
    working = raw.plan.working_decimals
    per_cell = tuple(fixed_to_decimal(v, working, decimals) for v in raw.per_cell)
    per_count = per_cell if conditions.num_conditions == 1 else None
    return SumResult(
        conditions=conditions,
        decimals=decimals,
        requested_sum=fixed_to_decimal(raw.per_cell[-1], working, decimals),
        at_most_sum=fixed_to_decimal(sum(raw.per_cell), working, decimals),
        per_count_sums=per_count,
        per_cell_sums=per_cell,
        digits_processed=raw.digits_processed,
        termination=raw.termination,
    )


def irwin_sum(
    conditions: ConditionSet,
    requested_decimals: int = 15,
    *,
    plan: Optional[PrecisionPlan] = None,
    observer: Optional[BlockObserver] = None,
) -> SumResult:
    """Sum 1/n over integers whose constrained digits each occur exactly
    their prescribed number of times, to ``requested_decimals`` places."""
    raw = _compute(conditions, requested_decimals, plan=plan, observer=observer)
    return _to_result(conditions, raw)


def at_most_sum(conditions: ConditionSet, requested_decimals: int = 15) -> Decimal:
    """Sum 1/n over integers whose constrained digit counts are at most the
    prescribed ones (aggregate of every occurrence cell)."""
    return irwin_sum(conditions, requested_decimals).at_most_sum


def partial_sum(
    conditions: ConditionSet,
    digit_limit: int,
    requested_decimals: int = 15,
    *,
    plan: Optional[PrecisionPlan] = None,
    observer: Optional[BlockObserver] = None,
) -> SumResult:
    """Sum restricted to denominators below base**digit_limit."""
    if digit_limit < 1:
        raise ValueError("digit_limit must be >= 1")
    raw = _compute(
        conditions,
        requested_decimals,
        digit_limit=digit_limit,
        plan=plan,
        observer=observer,
    )
    return _to_result(conditions, raw)


def threshold_search(
    conditions: ConditionSet,
    threshold: Union[str, int],
    requested_decimals: int = 15,
    threshold_decimals: Optional[int] = None,
) -> ThresholdResult:
    """Find consecutive digit lengths d, d+1 whose partial sums bracket a
    threshold: partial(d) < threshold <= partial(d+1).

    The threshold must be text (or an int), parsed exactly; float input is
    refused because a binary approximation silently shifts the target.  The
    number of fractional digits in the text (or ``threshold_decimals`` when
    given) states how many decimals of the threshold are meant: if the series
    total agrees with the threshold through all of them, the bracket is not
    determined and :class:`InsufficientAccuracy` is raised.
    """
    if isinstance(threshold, float):
        raise TypeError(
            "threshold must be a string (or int); float thresholds lose the "
            "accuracy needed to place the bracket"
        )
    if isinstance(threshold, int):
        value, textual_decimals = Fraction(threshold), None
    else:
        value, textual_decimals = parse_exact_decimal(threshold)
    if value <= 0:
        raise ValueError("threshold must be positive")
    if threshold_decimals is not None and threshold_decimals < 0:
        raise ValueError("threshold_decimals must be >= 0")
    known_decimals = (
        threshold_decimals if threshold_decimals is not None else textual_decimals
    )

    decimals = clamp_decimals(requested_decimals)
    if known_decimals is not None:
        decimals = max(decimals, known_decimals + 5)
    plan = build_plan(conditions, decimals)

    # One walk, long enough for the cap and a finite series' end, gives the
    # total and goes on to the crossing.  sums[i - 1]: the sum through length i.
    walk = _walk(conditions, plan, max(plan.max_digit_length, sum(conditions.counts)))
    sums: list[int] = []
    total_raw = _compute(
        conditions, decimals, plan=plan, walk=walk,
        observer=lambda length, block, total, j_active: sums.append(total),
    )
    total = _quantized_fraction(total_raw.per_cell[-1], plan)
    if value > total:
        raise ThresholdAboveTotal(
            f"threshold {threshold} exceeds the series total {float(total):.6g}"
        )
    if value == total or (
        known_decimals is not None
        and abs(total - value) < Fraction(1, 10 ** known_decimals)
    ):
        raise InsufficientAccuracy(
            "threshold is indistinguishable from the series total at the "
            "precision given; supply more threshold digits"
        )

    # The walk goes on from the last kept sum, which ``later`` yields first.
    later = accumulate((t.rows[0][-1] for _, t, _ in walk), initial=sums.pop())
    before = 0
    for digits_high, running in enumerate(
        islice(chain(sums, later), plan.max_digit_length), 1
    ):
        if _quantized_fraction(running, plan) >= value:
            break
        before = running
    else:
        raise InsufficientAccuracy(
            "partial sums never reached the threshold before convergence; "
            "supply more threshold digits"
        )
    # A partial_sum run to either length gives these totals bit for bit: the
    # seed's power-1 row and the dropped powers do not depend on the limit.
    working = plan.working_decimals
    sum_low = fixed_to_decimal(before, working, decimals)
    sum_high = fixed_to_decimal(running, working, decimals)
    if not (sum_low < value <= sum_high):
        raise InsufficientAccuracy(
            "bracket could not be certified at working precision; "
            "supply more threshold digits"
        )

    return ThresholdResult(
        conditions=conditions,
        decimals=decimals,
        threshold=value,
        digits_low=digits_high - 1,
        sum_low=sum_low,
        digits_high=digits_high,
        sum_high=sum_high,
    )

"""Top-level drivers: full sums, at-most sums, partial sums, thresholds.

Every run consumes one walk over digit lengths, ``_walk``: blocks short
enough to enumerate are summed directly, the last of them is the seed of the
power-sum recurrence, and the recurrence carries the tables on from there.
The walk also carries the running sums, per cell, of every block so far,
and ends at its first all-zero table after the seed.  Its callers only
choose where to stop before that: a partial sum at its digit limit, a
threshold search at the crossing, a finite series at its longest
denominator, and a full sum of an infinite series at the seed, followed by
one back-substitution that solves for every block from the seed on.  Every
run ends in ``_compute``: one quantization and one record of its levels.
"""

from __future__ import annotations

import enum
import operator
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import chain, compress, count, islice
from typing import Iterator, Optional, Union

from .fixedpoint import fixed_to_decimal, fixed_to_decimals, parse_exact_decimal
from .model import (
    ConditionSet,
    InsufficientAccuracy,
    PrecisionPlan,
    RangeTooLarge,
    ThresholdAboveTotal,
    clamp_decimals,
    direct_sum_digit_count,
)
from .powersums import PowerSumTable, direct_sum, estimate_max_power, row_slots
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
    ``levels[i - 1]`` is ``(total, live)`` for digit length i: the requested
    cell's running sum as a mantissa at ``plan.working_decimals``, and the
    powers the table at length i carries on, every power of the plan through
    the seed and 0 at the walk's end, an all-zero table.  Lengths after the
    walk's end, up to ``digits_processed``, repeat the last.
    ``plan`` is the :class:`PrecisionPlan` the run was computed under.
    """

    conditions: ConditionSet
    decimals: int
    requested_sum: Decimal
    at_most_sum: Decimal
    per_count_sums: Optional[tuple[Decimal, ...]]
    per_cell_sums: tuple[Decimal, ...]
    digits_processed: int
    termination: Termination
    levels: tuple[tuple[int, int], ...]
    plan: PrecisionPlan


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


def build_plan(conditions: ConditionSet, requested_decimals: int) -> PrecisionPlan:
    """Assemble the precision plan for one run.

    Runs with an occurrence count above 10 carry 12 guard decimals instead
    of 8.  The rule is a heuristic, not a bound; it stays because it fixes
    the working digits of every existing result, until an error bound
    replaces it.
    """
    decimals = clamp_decimals(requested_decimals)
    ds_digits = direct_sum_digit_count(conditions.base)
    guard = 12 if max(conditions.counts) > 10 else 8
    return PrecisionPlan(
        requested_decimals=decimals,
        working_decimals=decimals + guard,
        max_power=estimate_max_power(conditions.base, decimals, ds_digits),
        direct_sum_digits=ds_digits,
    )


def _walk(
    conditions: ConditionSet, plan: PrecisionPlan
) -> Iterator[tuple[int, PowerSumTable, int, list[int]]]:
    """Yield ``(digit_length, table, live, sums)`` from length 1 on.

    Lengths below the seed are enumerated for their power-1 row only; the
    seed is enumerated with every power, and later lengths step the
    recurrence, which carries on only the powers up to the top row that does
    not read exactly 0, ``live`` (every power of the plan through the seed).
    ``sums`` is one list, updated in place: per cell, the sum of every block
    through ``digit_length``.  A finite series' block at length i holds only
    its layer |k| = i (:func:`~irwinsums.powersums.row_slots`), added through
    the layer's slots, and the series stops at its longest denominator; an
    infinite series' block holds every slot, and only its nonzero cells are
    added.  After the seed, the walk ends at its first all-zero table, which
    steps only to all-zero tables, so no later length moves a sum.  Every
    walk decays to one: the top nonzero row steps with divisor ``base**top``
    and no higher terms, reading each cell with total weight at most
    ``base``, so from power 2 up its sum of magnitudes falls ``base``-fold a
    length; with power 1 alone a cell steps to
    ``trunc(((base - m) * v + lower neighbours) / base)``, m >= 1 constrained
    digits, so by induction over slot order every cell gets to 0.
    """
    finite = conditions.is_finite_series()
    lengths = range(1, conditions.finite_digit_limit() + 1) if finite else count(1)
    seed_digit = plan.direct_sum_digits
    live = plan.max_power
    sums = [0] * conditions.cell_count
    for i in lengths:
        if i <= seed_digit:
            powers = plan.max_power if i == seed_digit else 1
            table = direct_sum(conditions, i, powers, plan)
        else:
            table, live = advance(table, conditions, live)
        block = table.rows[0]
        if finite:
            for slot, v in zip(row_slots(conditions, i), block):
                sums[slot] += v
        else:
            for slot in compress(range(len(block)), block):
                sums[slot] += block[slot]
        yield i, table, live, sums
        if not live:
            return


def _compute(
    conditions: ConditionSet,
    plan: PrecisionPlan,
    *,
    digit_limit: Optional[int] = None,
    walk: Optional[Iterator[tuple[int, PowerSumTable, int, list[int]]]] = None,
) -> SumResult:
    """Run the engine under ``plan``, which the public wrappers build with
    :func:`build_plan`; see them for the result contracts.  A ``walk`` passed
    in is consumed only through the run's last length."""
    if conditions.cell_count * plan.max_power > TABLE_CELL_LIMIT:
        raise RangeTooLarge(
            f"{conditions.cell_count} cells x {plan.max_power} powers exceed "
            f"the table budget of {TABLE_CELL_LIMIT}"
        )

    if conditions.is_empty_series():
        last, termination = 0, Termination.EMPTY_SERIES
    elif digit_limit is not None:
        last, termination = digit_limit, Termination.PARTIAL_REQUESTED
    elif conditions.is_finite_series():
        last = conditions.finite_digit_limit()
        termination = Termination.FINITE_SERIES_EXHAUSTED
    else:
        # Infinite series enumerate up to the seed and solve for the rest.
        last, termination = plan.direct_sum_digits, Termination.CONVERGED
    if conditions.is_finite_series():
        last = min(last, conditions.finite_digit_limit())

    # islice refuses a stop above sys.maxsize; every walk ends long before.
    levels, sums = [], [0] * conditions.cell_count
    walked = islice(walk or _walk(conditions, plan), min(last, sys.maxsize))
    for _, table, live, sums in walked:
        levels.append((sums[-1], live))

    if termination is Termination.CONVERGED:
        # The solved sums include the seed block, which sums already holds.
        tail = solve_tail(table, conditions)
        sums = [total + z - s for total, z, s in zip(sums, tail, table.rows[0])]

    decimals, working = plan.requested_decimals, plan.working_decimals
    per_cell = fixed_to_decimals(sums, working, decimals)
    return SumResult(
        conditions=conditions,
        decimals=decimals,
        requested_sum=per_cell[-1],
        at_most_sum=fixed_to_decimal(sum(sums), working, decimals),
        per_count_sums=per_cell if conditions.num_conditions == 1 else None,
        per_cell_sums=per_cell,
        digits_processed=last,
        termination=termination,
        levels=tuple(levels),
        plan=plan,
    )


def irwin_sum(conditions: ConditionSet, requested_decimals: int = 15) -> SumResult:
    """Sum 1/n over integers whose constrained digits each occur exactly
    their prescribed number of times, to ``requested_decimals`` places."""
    return _compute(conditions, build_plan(conditions, requested_decimals))


def at_most_sum(conditions: ConditionSet, requested_decimals: int = 15) -> Decimal:
    """Sum 1/n over integers whose constrained digit counts are at most the
    prescribed ones (aggregate of every occurrence cell)."""
    return irwin_sum(conditions, requested_decimals).at_most_sum


def partial_sum(
    conditions: ConditionSet, digit_limit: int, requested_decimals: int = 15
) -> SumResult:
    """Sum restricted to denominators below base**digit_limit."""
    digit_limit = operator.index(digit_limit)
    if digit_limit < 1:
        raise ValueError("digit_limit must be >= 1")
    plan = build_plan(conditions, requested_decimals)
    return _compute(conditions, plan, digit_limit=digit_limit)


def threshold_search(
    conditions: ConditionSet,
    threshold: Union[str, int, Decimal],
    requested_decimals: int = 15,
    threshold_decimals: Optional[int] = None,
) -> ThresholdResult:
    """Find consecutive digit lengths d, d+1 whose partial sums bracket a
    threshold: partial(d) < threshold <= partial(d+1).

    The threshold (text, an int or a ``Decimal``, where ``Decimal("1E-7")``
    means 0.0000001) is parsed exactly as plain decimal text, else
    ``ValueError``; float input is refused because a binary approximation
    silently shifts the target.  The number of fractional digits in the text
    (or ``threshold_decimals`` when given) states how many decimals are meant:
    if the series total agrees with the threshold through all of them, the
    bracket is not determined and :class:`InsufficientAccuracy` is raised.
    """
    if isinstance(threshold, float):
        raise TypeError(
            "threshold must be a string, an int or a Decimal; float thresholds "
            "lose the accuracy needed to place the bracket"
        )
    text = format(threshold, "f") if isinstance(threshold, Decimal) else str(threshold)
    value, textual_decimals = parse_exact_decimal(text)
    if value <= 0:
        raise ValueError("threshold must be positive")
    known_decimals = (
        textual_decimals if threshold_decimals is None
        else operator.index(threshold_decimals)
    )
    if known_decimals is not None and known_decimals < 0:
        raise ValueError("threshold_decimals must be >= 0")

    decimals = clamp_decimals(requested_decimals)
    if known_decimals is not None:
        decimals = max(decimals, known_decimals + 5)
    plan = build_plan(conditions, decimals)

    # One walk gives the total and goes on to the crossing.
    walk = _walk(conditions, plan)
    result = _compute(conditions, plan, walk=walk)
    total = Fraction(result.requested_sum)
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

    # The walk goes on from the length after the last level to the crossing or
    # to its end.  A partial_sum run to any of these lengths gives their totals
    # bit for bit: the seed's power-1 row and dropped powers ignore the limit.
    later = ((s[-1], live) for _, _, live, s in walk)
    working = plan.working_decimals
    sum_high = fixed_to_decimal(0, working, decimals)
    for digits_high, (running, _) in enumerate(chain(result.levels, later), 1):
        sum_low, sum_high = sum_high, fixed_to_decimal(running, working, decimals)
        if sum_high >= value:
            break
    else:
        raise InsufficientAccuracy(
            "partial sums never reached the threshold before convergence; "
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

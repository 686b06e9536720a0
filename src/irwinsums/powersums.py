"""Power-sum tables over digit-length blocks.

For digit length ``i`` and occurrence vector ``k``, the table cell at power
``j`` holds ``sum(1/x**j)`` over all i-digit integers ``x`` whose constrained
digits occur exactly ``k`` times each (componentwise).  Small digit lengths
are filled by direct enumeration; longer ones are produced by the recurrence
module from these seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import count, repeat
from operator import add, gt
from typing import Sequence

from .model import ConditionSet, PrecisionPlan, RangeTooLarge

# Upper bound on base**digit_length for direct enumeration.
DIRECT_ENUM_LIMIT = 10 ** 8


@dataclass
class PowerSumTable:
    """Reciprocal power sums for one digit length, all occurrence vectors.

    ``rows[j - 1]`` holds, for each slot of :func:`row_slots` in that order,
    the fixed-point mantissa (at the plan's scale) of the power-``j`` sum over
    ``digit_length``-digit denominators for the occurrence vector with that
    flat index; ``len(rows)`` is the number of powers held.  A finite series'
    rows are its layer |k| = ``digit_length``, the only cells an integer of
    that length can reach; an infinite series' rows cover every slot.  Tables
    are treated as immutable once returned.
    """

    digit_length: int
    rows: list[list[int]]


@lru_cache(maxsize=32)
def _grades(conditions: ConditionSet) -> tuple[Sequence[int], Sequence[int]]:
    """``order``, every slot by grade |k|, and ``starts``: grade w is
    ``order[starts[w]:starts[w + 1]]``, in ascending slot order.  ``order`` is
    a view at its exact size (``extend`` over-allocates), and its slices copy
    nothing.

    Built one condition at a time: condition c is more significant than every
    earlier one, so the slots of grade w with count k of c are the earlier
    slots of grade w - k, each raised by k * stride_c."""
    from array import array  # only a kernel step or a finite series loads it
    order, starts = array("l", [0]), array("l", [0, 1])
    for n, stride in zip(conditions.counts, conditions.strides):
        top = len(starts) - 2
        grown, starts_grown = array("l"), array("l", [0])
        for w in range(top + n + 1):
            for k in range(max(0, w - top), min(n, w) + 1):
                layer = order[starts[w - k] : starts[w - k + 1]]
                grown.extend(map(add, layer, repeat(k * stride)) if k else layer)
            starts_grown.append(len(grown))
        order, starts = grown, starts_grown
    return memoryview(array("l", order)), starts


def row_slots(conditions: ConditionSet, digit_length: int) -> Sequence[int]:
    """The slots a table's rows hold at ``digit_length``, in row order: the
    layer |k| = ``digit_length`` of a finite series (empty past its longest
    denominator), or every slot of an infinite one."""
    if not conditions.is_finite_series():
        return range(conditions.cell_count)
    order, starts = _grades(conditions)
    last = len(starts) - 1
    return order[starts[min(digit_length, last)] : starts[min(digit_length + 1, last)]]


def _check_enumerable(base: int, digit_length: int) -> None:
    if base ** digit_length > DIRECT_ENUM_LIMIT:
        raise RangeTooLarge(
            f"{base}**{digit_length} exceeds the enumeration budget of "
            f"{DIRECT_ENUM_LIMIT}"
        )


def digit_power_sum(base: int, n: int, conditions: ConditionSet) -> int:
    """Sum of d**n over the unconstrained digits d, with 0**0 taken as 1.

    For n = 0 every unconstrained digit contributes 1, giving
    ``base - len(conditions)``.
    """
    constrained = set(conditions.digits)
    return sum(d ** n for d in range(base) if d not in constrained)


def direct_sum(
    conditions: ConditionSet,
    digit_length: int,
    max_power: int,
    plan: PrecisionPlan,
) -> PowerSumTable:
    """Fill one digit-length block by enumerating every denominator.

    One pass over each integer's digits counts its constrained digits and
    builds its slot, ``sum(k_c * stride_c)``; integers whose counts stay within
    the bounds contribute 1/x**j to that cell, the rest nothing.  The rows are
    :func:`row_slots`'s: a finite series' i-digit integers within the bounds
    have exactly i constrained digits, so only its layer is allocated.

    Each term is ``div_nearest(scale, x**j)`` without forming x**j: since
    floor(floor(a/b)/c) = floor(a/(b*c)), q_j = floor(2*scale/x**j) is
    q_(j-1) divided once by x, and (q_j + 1) >> 1 rounds it half up.  That
    is div_nearest except at a tie, 2*scale/x**j an odd integer, which rounds
    to even instead.  Only an x that divides 2*scale can ever divide exactly,
    so only those pay for the remainders and the tie test.
    """
    if digit_length < 1:
        raise ValueError("digit_length must be >= 1")
    base = conditions.base
    _check_enumerable(base, digit_length)

    digits = conditions.digits
    counts = conditions.counts
    strides = conditions.strides
    m = len(digits)
    slot_of_digit = [-1] * base
    for pos, d in enumerate(digits):
        slot_of_digit[d] = pos

    twice_scale = 2 * plan.scale
    slots = row_slots(conditions, digit_length)
    position = dict(zip(slots, count())) if conditions.is_finite_series() else None
    rows = [[0] * len(slots) for _ in range(max_power)]

    start = base ** (digit_length - 1)
    stop = base ** digit_length
    for x in range(start, stop):
        found = [0] * m
        slot = 0
        value = x
        while value:
            value, digit = divmod(value, base)
            pos = slot_of_digit[digit]
            if pos >= 0:
                found[pos] += 1
                slot += strides[pos]
        if any(map(gt, found, counts)):
            continue
        if position is not None:
            slot = position[slot]

        q = twice_scale
        if twice_scale % x:
            for row in rows:
                q //= x
                if not q:
                    break
                row[slot] += (q + 1) >> 1
            continue
        exact = True
        for row in rows:
            q, r = divmod(q, x)
            exact = exact and not r
            term = (q + 1) >> 1
            if exact and q & 3 == 1:
                term -= 1
            if term == 0:
                break
            row[slot] += term
    return PowerSumTable(digit_length, rows)


def _tail_below(a: int, b: int, power: int, decimals: int) -> bool:
    """Whether sum(n**-power for n in a..b) < 10**-decimals, decided in
    integer arithmetic with a conservative margin for truncation."""
    spare = 10
    scale = 10 ** (decimals + spare)
    total = 0
    for n in range(a, b + 1):
        term = scale // n ** power
        if term == 0:
            break
        total += term
    # Each term, kept or dropped, is truncated by less than one unit.
    return total + (b - a + 1) < 10 ** spare


def estimate_max_power(base: int, requested_decimals: int, direct_sum_digits: int) -> int:
    """Smallest power J (plus a margin of 2) whose tail over the last
    directly-summed block drops below 10**-requested_decimals.

    The search steps up from the guess
    ``ceil(log_base(10) * decimals / (direct_sum_digits - 1))`` and ends by
    itself: once ``a**J`` exceeds ``_tail_below``'s scale every term is 0,
    and the test holds for any block of fewer than 10**10 integers.  A seed
    block past the enumeration budget is refused first, as in ``direct_sum``.
    """
    if direct_sum_digits < 2:
        raise ValueError("direct_sum_digits must be >= 2")
    _check_enumerable(base, direct_sum_digits)
    a = base ** (direct_sum_digits - 1)
    b = base ** direct_sum_digits - 1
    power = max(1, math.ceil(
        math.log(10) / math.log(base) * requested_decimals / (direct_sum_digits - 1)
    ))
    while not _tail_below(a, b, power, requested_decimals):
        power += 1
    return power + 2
